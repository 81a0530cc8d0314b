"""Load profiles, anomaly injection, feature statistics, and dataset assembly.

Every random draw flows from a master seed through numpy SeedSequence
children keyed by (seed, purpose tag, index), so datasets are bit-identical
across runs regardless of evaluation order.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import mmap
from array import array
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import MALFORMED_DOCUMENT, DatasetError
from .grid import FeatureLayout, GridCase, LayoutEntry, extract_features, solve_hours

logger = logging.getLogger(__name__)

NORMAL = "normal"
ANOMALY = "anomaly"

# SeedSequence purpose tags
_TAG_PROFILE = 1
_TAG_INJECT = 2
_TAG_SPLIT = 3

STD_FLOOR = 1e-12
# Hours per stacked power-flow solve: bounds the memory of its Jacobian stack
# and solution arrays (about 24 KB of Jacobian temporaries per hour). The
# chunk size never changes the dataset's bytes.
_CHUNK_HOURS = 128
A_FLOOR = 0.05  # pu; minimum injected deviation so near-zero sensors move


@dataclass(frozen=True)
class LoadProfile:
    hours: int
    scale: np.ndarray  # (hours, bus_count)

    def __post_init__(self):
        if self.scale.shape[0] != self.hours:
            raise DatasetError("profile row count does not match hours")
        if self.scale.size and not ((self.scale > 0) & (self.scale < 4)).all():
            raise DatasetError("load multipliers must lie in (0, 4)")


@dataclass(frozen=True, slots=True)
class Sample:
    id: int
    # build_dataset and dataset_from_files make it a read-only row view of
    # the dataset's one (n, d) feature matrix.
    features: np.ndarray
    label: str  # normal | anomaly
    injected: tuple[int, ...]  # sorted feature indices
    deltas: tuple[float, ...]  # aligned with injected
    hour: int


@dataclass(frozen=True)
class FeatureStats:
    mean: np.ndarray
    std: np.ndarray  # population std (divide by n)
    n: int
    split: str  # provenance tag, e.g. "train"


@dataclass(frozen=True)
class SplitSizes:
    train: int = 1200
    validation: int = 200
    test: int = 200

    @property
    def total(self) -> int:
        return self.train + self.validation + self.test


@dataclass(frozen=True)
class Dataset:
    samples: tuple[Sample, ...]
    splits: dict[str, tuple[int, ...]]  # train / validation / test id sets
    layout: FeatureLayout
    stats: FeatureStats
    master_seed: int
    # sha256 of the dataset.jsonl bytes this dataset was loaded from; None
    # for a dataset built in memory.
    jsonl_digest: str | None = None

    def by_id(self, sample_id: int) -> Sample:
        # Sample ids are positions: build_dataset numbers them in order and
        # dataset_from_files checks that line i holds id i.
        if not 0 <= sample_id < len(self.samples):
            raise DatasetError(f"no sample with id {sample_id}")
        return self.samples[sample_id]

    def split_samples(self, name: str) -> list[Sample]:
        return [self.samples[i] for i in self.splits[name]]


def _child_rng(master_seed: int, tag: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([master_seed, tag, index]))


def synth_load_profile(hours: int, bus_count: int, seed: int) -> LoadProfile:
    """Daily sinusoid per bus (period 24 h, amplitude 0.2, mean 1.0) plus
    Gaussian noise (sigma 0.03), clamped to [0.6, 1.4]."""
    if hours < 1:
        raise DatasetError("hours must be >= 1")
    rng = _child_rng(seed, _TAG_PROFILE)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=bus_count)
    t = np.arange(hours, dtype=float)[:, None]
    scale = 1.0 + 0.2 * np.sin(2.0 * np.pi * t / 24.0 + phase[None, :])
    scale += rng.normal(0.0, 0.03, size=(hours, bus_count))
    scale = np.clip(scale, 0.6, 1.4)
    return LoadProfile(hours=hours, scale=scale)


def ingest_load_csv(text: str, bus_count: int) -> LoadProfile:
    """Read a load profile from CSV text: header row of bus ids, numeric body."""
    try:
        rows = [row for row in csv.reader(io.StringIO(text))
                if row and any(cell.strip() for cell in row)]
    except csv.Error as exc:  # e.g. a lone carriage return inside a row
        raise DatasetError(f"CSV: {exc}") from None
    if not rows:
        raise DatasetError("empty CSV")
    header = rows[0]
    if len(header) != bus_count:
        raise DatasetError(
            f"header has {len(header)} columns, expected {bus_count} bus ids"
        )
    body = []
    for rownum, row in enumerate(rows[1:], start=2):
        if len(row) != bus_count:
            raise DatasetError(
                f"row {rownum}: {len(row)} columns, expected {bus_count}"
            )
        try:
            body.append([float(cell) for cell in row])
        except ValueError:
            raise DatasetError(f"row {rownum}: non-numeric cell") from None
    if not body:
        raise DatasetError("CSV has no data rows")
    return LoadProfile(hours=len(body), scale=np.asarray(body, dtype=float))


def _check_injection(k_inject: int, magnitude: float, n_features: int) -> None:
    if not 1 <= k_inject <= n_features:
        raise DatasetError(
            f"k_inject must lie in [1, {n_features}] (the feature count), "
            f"got {k_inject}"
        )
    if not 0.0 < magnitude < math.inf:
        raise DatasetError(f"magnitude must be finite and positive, got {magnitude}")


def inject_anomaly(
    features: np.ndarray,
    seed: "int | np.random.SeedSequence",
    k_inject: int = 3,
    magnitude: float = 0.15,
) -> tuple[np.ndarray, tuple[int, ...], tuple[float, ...]]:
    """Corrupt k distinct sensors: delta = sign * max(magnitude*|x|, A_FLOOR)."""
    n = len(features)
    _check_injection(k_inject, magnitude, n)
    rng = np.random.default_rng(seed)
    indices = np.sort(rng.choice(n, size=k_inject, replace=False))
    signs = rng.integers(0, 2, size=k_inject) * 2 - 1
    out = np.array(features, dtype=float, copy=True)
    deltas = []
    for idx, sign in zip(indices, signs):
        delta = float(sign) * max(magnitude * abs(float(features[idx])), A_FLOOR)
        out[idx] = out[idx] + delta
        deltas.append(delta)
    return out, tuple(int(i) for i in indices), tuple(deltas)


def compute_stats(samples: list[Sample]) -> FeatureStats:
    """Per-feature population mean and std over the given train samples."""
    if not samples:
        raise DatasetError("cannot compute stats of an empty sample list")
    matrix = np.stack([s.features for s in samples])
    return FeatureStats(
        mean=matrix.mean(axis=0),
        std=matrix.std(axis=0),
        n=len(samples),
        split="train",
    )


def zscores(features: np.ndarray, stats: FeatureStats) -> np.ndarray:
    """(value - mean) / max(std, 1e-12), elementwise, for one feature vector
    or a matrix of them, one per row."""
    features = np.asarray(features, dtype=float)
    if features.shape[-1:] != stats.mean.shape:
        raise DatasetError(
            f"feature length {features.shape[-1] if features.ndim else 0} does "
            f"not match stats length {len(stats.mean)}"
        )
    return (features - stats.mean) / np.maximum(stats.std, STD_FLOOR)


def build_dataset(
    case: GridCase,
    profile: LoadProfile,
    layout: FeatureLayout,
    sizes: SplitSizes = SplitSizes(),
    seed: int = 42,
    k_inject: int = 3,
    magnitude: float = 0.15,
    tol: float = 1e-8,
    max_iter: int = 20,
) -> Dataset:
    """Run the measurement pipeline over the profile's hours and assemble a
    labeled, stratified, split dataset.

    Half the samples are untouched power-flow measurements; the other half
    duplicate a normal base vector and receive seeded injections. Statistics
    come from the train split only. Hours whose power flow fails to converge
    are skipped with a log entry.
    """
    _check_injection(k_inject, magnitude, len(layout))
    for name, size in (
        ("train", sizes.train),
        ("validation", sizes.validation),
        ("test", sizes.test),
    ):
        if size <= 0 or size % 2 != 0:
            raise DatasetError(f"{name} size must be positive and even, got {size}")
    n_total = sizes.total
    n_normal = n_total // 2
    n_anomalous = n_total - n_normal
    if profile.scale.shape[1] != len(case.buses):
        raise DatasetError(
            f"profile has {profile.scale.shape[1]} bus columns, case has "
            f"{len(case.buses)} buses"
        )
    if profile.hours < n_normal:
        raise DatasetError(
            f"profile supplies {profile.hours} hours, need at least {n_normal}"
        )

    # Solve the hours still needed in stacked chunks, until enough converged.
    # The normal rows come first in the one feature matrix, then the injected.
    matrix = np.empty((n_total, len(layout)))
    base_features = matrix[:n_normal]
    hours_used: list[int] = []
    hour = 0
    while len(hours_used) < n_normal and hour < profile.hours:
        stop = min(hour + n_normal - len(hours_used), hour + _CHUNK_HOURS,
                   profile.hours)
        sol, errors = solve_hours(
            case, profile.scale[hour:stop], tol=tol, max_iter=max_iter
        )
        for h, features, error in zip(
            range(hour, stop), extract_features(sol, layout), errors
        ):
            if error is None:
                base_features[len(hours_used)] = features
                hours_used.append(h)
            else:
                logger.warning("hour %d skipped: %s", h, error)
        hour = stop
    if len(hours_used) < n_normal:
        raise DatasetError(
            f"only {len(hours_used)} of {n_normal} required hours converged"
        )

    injections = []
    for j in range(n_anomalous):
        feats, injected, deltas = inject_anomaly(
            base_features[j % n_normal],
            np.random.SeedSequence([seed, _TAG_INJECT, j]),
            k_inject=k_inject,
            magnitude=magnitude,
        )
        matrix[n_normal + j] = feats
        injections.append((injected, deltas))
    matrix.flags.writeable = False
    # Anomaly j copies normal sample j % n_normal, so sample i keeps the hour
    # of normal i % n_normal.
    samples = [
        Sample(id=i, features=matrix[i], label=ANOMALY if injected else NORMAL,
               injected=injected, deltas=deltas, hour=hours_used[i % n_normal])
        for i, (injected, deltas) in enumerate([((), ())] * n_normal + injections)
    ]

    rng = _child_rng(seed, _TAG_SPLIT)
    normal_ids = rng.permutation(n_normal)
    anomalous_ids = rng.permutation(n_anomalous) + n_normal
    splits: dict[str, tuple[int, ...]] = {}
    cursor = 0
    for name, size in (
        ("train", sizes.train),
        ("validation", sizes.validation),
        ("test", sizes.test),
    ):
        half = size // 2
        ids = list(normal_ids[cursor : cursor + half]) + list(
            anomalous_ids[cursor : cursor + half]
        )
        splits[name] = tuple(sorted(int(i) for i in ids))
        cursor += half

    stats = compute_stats([samples[i] for i in splits["train"]])
    return Dataset(
        samples=tuple(samples),
        splits=splits,
        layout=layout,
        stats=stats,
        master_seed=seed,
    )


# --------------------------------------------------------------------------
# Persistence: JSONL samples, JSON stats/meta, CSV feature export


# One dataset.jsonl line: compact JSON with the keys in this order, and each
# float in its shortest round-trip repr (as json.dumps writes it).
_JSONL_LINE = (
    '{"id":%d,"hour":%d,"label":"%s",'
    '"injected":[%s],"deltas":[%s],"features":[%s]}\n'
)
# One features.csv row: id, hour, label, then the features as in the JSONL
# line; the comma before them is a field of its own, left empty for a sample
# with no features, whose row ends at its label as csv.writer writes it.
_CSV_ROW = "%d,%d,%s%s%s\n"
# Samples per block of dataset_blocks: bounds the text held between writes.
_BLOCK_ROWS = 256


def _floats_text(values) -> str:
    return ",".join(map(repr, np.asarray(values, dtype=float).tolist()))


def _check_sample(sample: Sample) -> None:
    """Refuse what the loader would reject: a label other than normal/anomaly,
    or a non-finite feature or delta, which standard JSON cannot hold."""
    if sample.label not in (NORMAL, ANOMALY):
        raise DatasetError(f"sample {sample.id}: label {sample.label!r}")
    if not (np.isfinite(sample.features).all()
            and all(map(math.isfinite, sample.deltas))):
        raise DatasetError(f"sample {sample.id}: non-finite feature or delta")


def dataset_blocks(ds: Dataset):
    """The dataset.jsonl and features.csv texts as (jsonl_block, csv_block)
    pairs of _BLOCK_ROWS samples each; the CSV header opens the first block.

    Every sample is checked before this returns, so a refused dataset raises
    before any block is made. Each sample's features are formatted once, and
    that text goes into both its JSONL line and its CSV row.
    """
    for s in ds.samples:
        _check_sample(s)
    return _blocks(ds)


def _blocks(ds: Dataset):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(
        ["id", "hour", "label"] + ds.layout.names()
    )
    header = out.getvalue()
    # The features text of the first sample at each hour is kept, and a later
    # sample at that hour with as many features formats only the cells whose
    # float64 bits differ from it (an injected anomaly: its k changed cells).
    # Bits, not ==, so that -0.0 and 0.0 keep their own text. The text lives
    # in an anonymous mmap, whose pages go back to the OS when it closes:
    # heap freed here would stay with the process and raise the peak RSS of
    # whatever it runs next. Sample i may keep its text, ended by a newline,
    # in slot i; 25 bytes per cell hold the longest float repr (24
    # characters) and its comma. Slots never written take no memory.
    slot = 25 * max((len(s.features) for s in ds.samples), default=0) + 1
    first_at: dict[int, int] = {}  # hour -> index of its first sample
    with mmap.mmap(-1, slot * max(len(ds.samples), 1)) as kept:
        # max(..., 1): an empty dataset still yields the CSV header.
        for start in range(0, max(len(ds.samples), 1), _BLOCK_ROWS):
            jsonl_lines, csv_rows = [], [] if start else [header]
            for i, s in enumerate(ds.samples[start : start + _BLOCK_ROWS], start):
                values = np.asarray(s.features, dtype=float)
                b = first_at.setdefault(s.hour, i)
                base = np.asarray(ds.samples[b].features, dtype=float)
                if b == i or len(base) != len(values):
                    features = _floats_text(values)
                else:
                    texts = kept[b * slot : kept.find(b"\n", b * slot)]
                    texts = texts.decode("ascii").split(",")
                    changed = values.view(np.uint64) != base.view(np.uint64)
                    for c in np.flatnonzero(changed).tolist():
                        texts[c] = repr(float(values[c]))
                    features = ",".join(texts)
                if b == i:
                    kept[i * slot : i * slot + len(features) + 1] = (
                        features + "\n").encode("ascii")
                jsonl_lines.append(_JSONL_LINE % (
                    s.id, s.hour, s.label, ",".join(map(str, s.injected)),
                    _floats_text(s.deltas), features,
                ))
                csv_rows.append(_CSV_ROW % (
                    s.id, s.hour, s.label, "," if features else "", features))
            yield "".join(jsonl_lines), "".join(csv_rows)


def dataset_to_jsonl(ds: Dataset) -> str:
    """One line per sample; refuses what dataset_blocks refuses."""
    return "".join(jsonl for jsonl, _ in dataset_blocks(ds))


def stats_to_dict(stats: FeatureStats) -> dict:
    """JSON-ready {mean, std, n, split}; the key order is part of the file format."""
    return {
        "mean": [float(v) for v in stats.mean],
        "std": [float(v) for v in stats.std],
        "n": stats.n,
        "split": stats.split,
    }


def stats_from_dict(doc: dict) -> FeatureStats:
    return FeatureStats(
        mean=np.asarray(doc["mean"], dtype=float),
        std=np.asarray(doc["std"], dtype=float),
        n=int(doc["n"]),
        split=str(doc["split"]),
    )


def stats_to_json(stats: FeatureStats) -> str:
    return json.dumps(stats_to_dict(stats), indent=2) + "\n"


def stats_from_json(text: str) -> FeatureStats:
    return stats_from_dict(json.loads(text))


def meta_to_json(ds: Dataset) -> str:
    doc = {
        "master_seed": ds.master_seed,
        "splits": {name: list(ids) for name, ids in ds.splits.items()},
        "layout": [
            {"name": e.name, "kind": e.kind, "index": e.index}
            for e in ds.layout.entries
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def features_to_csv(ds: Dataset) -> str:
    """A header row, then one row per sample; refuses what dataset_blocks
    refuses."""
    return "".join(rows for _, rows in dataset_blocks(ds))


def _lines(text: str):
    """The text's lines, without their newline, one at a time, so a loader
    never holds a second copy of the text as a list of lines."""
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        if end == -1:
            end = len(text)
        yield text[start:end]
        start = end + 1


def dataset_from_files(
    jsonl: "str | Iterable[str]", stats_text: str, meta_text: str
) -> Dataset:
    """Parse and check a dataset's three files; dataset.jsonl comes as its
    text or as its lines, without their newlines, one at a time.

    Line i of dataset.jsonl must hold sample id i with one finite feature per
    layout sensor; every split id must name a sample and lie in one split
    only; the stats must have one finite mean and std per layout sensor and
    equal, exactly, compute_stats over the train split.

    The features go into one read-only (n, d) matrix, and each sample's
    features are a row view of it.
    """
    try:
        meta = json.loads(meta_text)
        layout = FeatureLayout(
            tuple(
                LayoutEntry(name=str(e["name"]), kind=str(e["kind"]),
                            index=int(e["index"]))
                for e in meta["layout"]
            )
        )
        splits = {
            name: tuple(meta["splits"][name])
            for name in ("train", "validation", "test")
        }
        master_seed = int(meta["master_seed"])
    except MALFORMED_DOCUMENT as exc:
        raise DatasetError(f"meta.json: {type(exc).__name__}: {exc}") from None
    try:
        stats = stats_from_json(stats_text)
    except MALFORMED_DOCUMENT as exc:
        raise DatasetError(f"stats.json: {type(exc).__name__}: {exc}") from None
    for name, values in (("mean", stats.mean), ("std", stats.std)):
        if values.shape != (len(layout),) or not np.isfinite(values).all():
            raise DatasetError(
                f"stats.json: {name} must hold {len(layout)} finite values"
            )

    samples = _parse_jsonl(
        _lines(jsonl) if isinstance(jsonl, str) else jsonl,
        len(layout),
        sum(map(len, splits.values())),  # the sample count of a generated file
    )
    seen: set = set()
    for name, ids in splits.items():
        for i in ids:
            if type(i) is not int or not 0 <= i < len(samples):
                raise DatasetError(f"meta.json: {name} split id {i!r} names no sample")
            if i in seen:
                raise DatasetError(f"meta.json: id {i} is listed more than once")
            seen.add(i)
    train_stats = compute_stats([samples[i] for i in splits["train"]])
    for name, ours, theirs in (
        ("n", stats.n, train_stats.n),
        ("mean", stats.mean, train_stats.mean),
        ("std", stats.std, train_stats.std),
    ):
        if not np.array_equal(ours, theirs):
            raise DatasetError(
                f"stats.json: {name} differs from that of the "
                f"{train_stats.n} train samples in meta.json"
            )
    return Dataset(
        samples=samples,
        splits=splits,
        layout=layout,
        stats=stats,
        master_seed=master_seed,
    )


def _parse_jsonl(lines: Iterable[str], n_features: int, rows: int):
    """The samples of dataset.jsonl's lines. Their features are row views of
    one read-only matrix, allocated for the expected count of rows and grown
    past it when needed.

    Each line's features go straight into their matrix row. Its other fields
    go into flat arrays, outside the Python object heap, and the Sample
    objects are built only after the last line: objects kept from the loop
    would pin heap arenas that its freed per-line floats leave behind.
    """
    matrix = np.empty((max(rows, 1), n_features))
    hours = array("q")
    anomalous = bytearray()
    injected = array("q")  # every sample's injected indices, one after another
    deltas = array("d")
    ends = array("q", [0])  # sample i's indices and deltas are [ends[i], ends[i+1])
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        n = len(hours)
        try:
            rec = json.loads(line)
            label = rec["label"]
            if label not in (NORMAL, ANOMALY):
                raise ValueError(
                    f"label {label!r} is neither {NORMAL!r} nor {ANOMALY!r}")
            indices = tuple(int(i) for i in rec["injected"])
            shifts = tuple(float(d) for d in rec["deltas"])
            features = rec["features"]
            sample_id, hour = int(rec["id"]), int(rec["hour"])
            if (label == ANOMALY) != bool(indices):
                raise ValueError(
                    f"label {label!r} inconsistent with injected {indices}")
            if len(shifts) != len(indices):
                raise ValueError("deltas and injected lengths differ")
            if type(features) is not list:
                raise ValueError("features is not a flat list")
            if not (all(map(math.isfinite, features))
                    and all(map(math.isfinite, shifts))):
                raise ValueError("non-finite feature or delta")
            if sample_id != n:
                raise DatasetError(
                    f"dataset line {lineno}: id {sample_id}, expected {n}")
            if len(features) != n_features:
                raise DatasetError(
                    f"dataset line {lineno}: {len(features)} features, "
                    f"layout has {n_features}"
                )
            if any(not 0 <= i < n_features for i in indices):
                raise DatasetError(
                    f"dataset line {lineno}: injected {list(indices)} "
                    f"outside the {n_features} features"
                )
            if n == len(matrix):
                # No view of the matrix exists yet, so it may move.
                matrix.resize((2 * n, n_features), refcheck=False)
            matrix[n] = features
            hours.append(hour)  # OverflowError beyond int64
        except MALFORMED_DOCUMENT as exc:
            raise DatasetError(f"dataset line {lineno}: {exc}") from None
        anomalous.append(label == ANOMALY)
        injected.extend(indices)
        deltas.extend(shifts)
        ends.append(len(injected))
    n = len(hours)
    matrix.resize((n, n_features), refcheck=False)
    matrix.flags.writeable = False
    return tuple(
        Sample(
            id=i,
            features=matrix[i],
            label=ANOMALY if anomalous[i] else NORMAL,
            injected=tuple(injected[ends[i] : ends[i + 1]]),
            deltas=tuple(deltas[ends[i] : ends[i + 1]]),
            hour=hours[i],
        )
        for i in range(n)
    )
