"""Load profiles, anomaly injection, feature statistics, and dataset assembly.

Every random draw flows from a master seed through numpy SeedSequence
children keyed by (seed, purpose tag, index), so datasets are bit-identical
across runs regardless of evaluation order.

It alone knows the dataset directory's five files: write_dataset_dir writes
them, and load_dataset_dir reads and checks them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import os
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    MALFORMED_DOCUMENT, DatasetError, not_utf8, read_text, replacing, unreadable, writing,
)
from .grid import FeatureLayout, GridCase, LayoutEntry, extract_features, solve_hours

logger = logging.getLogger(__name__)

NORMAL = "normal"
ANOMALY = "anomaly"

# SeedSequence purpose tags
_TAG_PROFILE = 1
_TAG_INJECT = 2
_TAG_SPLIT = 3

STD_FLOOR = 1e-12
# Train rows per chunk of the stats sums: bounds the rows they copy at once.
_STATS_ROWS = 256
# Hours per stacked power-flow solve: bounds the memory of its Jacobian stack
# and solution arrays (about 24 KB of Jacobian temporaries per hour). On
# OpenBLAS's SkylakeX kernel the chunk size never changes the dataset's bytes;
# on others, such as Haswell, the product in grid._bus_currents rounds
# differently for different stack heights, so the bytes may move with it.
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
    # A Dataset builds its samples on demand, each viewing its row of the
    # dataset's one (n, d) feature matrix.
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
    """A labeled, split dataset, held in columns: sample i is row i of each.

    ``features`` is the read-only (n, d) feature matrix; ``hours`` (int64)
    and ``anomalous`` (bool) hold one value per sample. Sample i's injected
    feature indices and their deltas are ``injected[ends[i]:ends[i + 1]]``
    and ``deltas[ends[i]:ends[i + 1]]``. Sample ids are positions, and
    Sample objects are built only when asked for.
    """

    features: np.ndarray
    hours: np.ndarray
    anomalous: np.ndarray
    injected: np.ndarray  # int32, every sample's indices one after another
    deltas: np.ndarray  # float64, aligned with injected
    ends: np.ndarray  # int64, n + 1 offsets into injected and deltas
    splits: dict[str, np.ndarray]  # train / validation / test ids, int64
    layout: FeatureLayout
    stats: FeatureStats
    master_seed: int
    # sha256 of the dataset.jsonl bytes this dataset was loaded from; None
    # for a dataset built in memory.
    jsonl_digest: str | None = None

    def by_id(self, sample_id: int) -> Sample:
        if not 0 <= sample_id < len(self.features):
            raise DatasetError(f"no sample with id {sample_id}")
        lo, hi = self.ends[sample_id : sample_id + 2].tolist()
        return Sample(
            id=sample_id,
            features=self.features[sample_id],
            label=ANOMALY if self.anomalous[sample_id] else NORMAL,
            injected=tuple(self.injected[lo:hi].tolist()),
            deltas=tuple(self.deltas[lo:hi].tolist()),
            hour=int(self.hours[sample_id]),
        )

    def split_samples(self, name: str) -> list[Sample]:
        return [self.by_id(i) for i in self.splits[name].tolist()]

    def split_ids(self, name: str, label: "str | None" = None) -> np.ndarray:
        """The split's sample ids; with label, only that label's."""
        ids = self.splits[name]
        if label is not None:
            ids = ids[self.anomalous[ids] == (label == ANOMALY)]
        return ids

    def split_features(self, name: str, label: "str | None" = None) -> np.ndarray:
        """The feature rows of split_ids(name, label), as one (n, d) matrix."""
        return self.features[self.split_ids(name, label)]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _split_arrays(splits: dict[str, Sequence[int]], n: int) -> dict[str, np.ndarray]:
    """The splits as read-only int64 id arrays, once every id is an int (not
    a bool or float) that names one of the n samples and lies in one split
    only."""
    seen: set = set()
    for name, ids in splits.items():
        for i in ids:
            if type(i) is not int or not 0 <= i < n:
                raise DatasetError(f"{name} split id {i!r} names no sample")
            if i in seen:
                raise DatasetError(f"id {i} is listed more than once")
            seen.add(i)
    return {name: _read_only(np.array(ids, dtype=np.int64))
            for name, ids in splits.items()}


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


def compute_stats(matrix: np.ndarray, ids: Sequence[int]) -> FeatureStats:
    """Per-feature population mean and std of the train rows matrix[ids],
    with the bits of numpy's mean(axis=0) and std(axis=0) over those rows
    stacked, though no more than _STATS_ROWS of them are ever copied at once.

    numpy sums an (n, d) matrix down its columns one row after another,
    starting from 0.0, so each chunk is summed with the running sum as its
    first row. A single column it sums pairwise instead, so that is taken
    whole: one float per row.
    """
    ids = np.asarray(ids, dtype=np.intp)
    n, d = len(ids), matrix.shape[1]
    if not n:
        raise DatasetError("cannot compute stats of an empty sample list")
    step = n if d == 1 else _STATS_ROWS
    chunk = np.empty((min(step, n) + 1, d))

    def column_sums(mean=None) -> np.ndarray:
        # The rows' sums, or with mean, the sums of (row - mean)**2.
        total = None
        for start in range(0, n, step):
            stop = min(start + step, n)
            rows = chunk[1 : 1 + stop - start]
            # mode="clip" takes straight into rows; every id is a row of matrix.
            np.take(matrix, ids[start:stop], axis=0, out=rows, mode="clip")
            if mean is not None:
                rows -= mean
                rows *= rows
            if total is None:
                total = np.add.reduce(rows, axis=0)
            else:
                chunk[0] = total
                total = np.add.reduce(chunk[: 1 + stop - start], axis=0)
        return total

    mean = column_sums() / n
    return FeatureStats(mean=mean, std=np.sqrt(column_sums(mean) / n), n=n,
                        split="train")


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
        sol, errors = solve_hours(case, profile.scale[hour:stop], max_iter=max_iter)
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

    injected = np.empty((n_anomalous, k_inject), dtype=np.int32)
    deltas = np.empty((n_anomalous, k_inject))
    for j in range(n_anomalous):
        matrix[n_normal + j], injected[j], deltas[j] = inject_anomaly(
            base_features[j % n_normal],
            np.random.SeedSequence([seed, _TAG_INJECT, j]),
            k_inject=k_inject,
            magnitude=magnitude,
        )

    rng = _child_rng(seed, _TAG_SPLIT)
    normal_ids = rng.permutation(n_normal)
    anomalous_ids = rng.permutation(n_anomalous) + n_normal
    splits = {}
    cursor = 0
    for name, size in (
        ("train", sizes.train),
        ("validation", sizes.validation),
        ("test", sizes.test),
    ):
        half = size // 2
        splits[name] = _read_only(np.sort(np.concatenate(
            (normal_ids[cursor : cursor + half], anomalous_ids[cursor : cursor + half])
        )))
        cursor += half

    rows = np.arange(n_total)
    return Dataset(
        features=_read_only(matrix),
        # Anomaly j copies normal sample j % n_normal, so sample i keeps the
        # hour of normal i % n_normal.
        hours=_read_only(np.array(hours_used, dtype=np.int64)[rows % n_normal]),
        anomalous=_read_only(rows >= n_normal),
        injected=_read_only(injected.ravel()),
        deltas=_read_only(deltas.ravel()),
        ends=_read_only(k_inject * np.maximum(np.arange(n_total + 1) - n_normal, 0)),
        splits=splits,
        layout=layout,
        stats=compute_stats(matrix, splits["train"]),
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
# Samples per block of write_dataset: bounds the text held between writes.
_BLOCK_ROWS = 256


def _floats_text(values) -> str:
    return ",".join(map(repr, np.asarray(values, dtype=float).tolist()))


def _check_columns(columns: dict, n_features: int) -> None:
    """Refuse Dataset columns that the loader would not build from any
    dataset.jsonl, raising DatasetError that names the first fault and the
    first sample at fault. The writer, the cache reader and the parser all
    check their columns here."""
    features, anomalous = columns["features"], columns["anomalous"]
    injected, deltas, ends = columns["injected"], columns["deltas"], columns["ends"]
    n = len(features)
    for name, expected in (("hours", n), ("anomalous", n), ("ends", n + 1)):
        if len(columns[name]) != expected:
            raise DatasetError(f"{name} holds {len(columns[name])} values, not {expected}")
    if ends[0] != 0 or ends[-1] != len(injected):
        raise DatasetError(f"ends run from {ends[0]} to {ends[-1]}, "
                           f"not from 0 to {len(injected)}")
    decrease = ends[1:] < ends[:-1]  # compared, not subtracted, so no overflow
    if decrease.any():
        raise DatasetError(f"sample {int(np.argmax(decrease))}: its offsets decrease")
    if len(deltas) != len(injected):
        raise DatasetError(f"deltas holds {len(deltas)} values, not {len(injected)}")
    if features.shape[1] != n_features:
        raise DatasetError(f"{features.shape[1]} features, layout has {n_features}")
    # Finite min and max mean all values are, so no n x d mask is needed then.
    if not all(not a.size or np.isfinite(a.min()) and np.isfinite(a.max())
               for a in (features, deltas)):
        bad = ~np.isfinite(features).all(axis=1)
        bad[np.searchsorted(ends, np.flatnonzero(~np.isfinite(deltas)), side="right") - 1] = True
        raise DatasetError(f"sample {int(np.argmax(bad))}: non-finite feature or delta")
    outside = (injected < 0) | (injected >= n_features)
    if outside.any():
        i = int(np.searchsorted(ends, np.argmax(outside), side="right")) - 1
        raise DatasetError(f"sample {i}: injected {injected[ends[i]:ends[i + 1]].tolist()} "
                           f"outside the {n_features} features")
    wrong = anomalous != (np.diff(ends) > 0)
    if wrong.any():
        i = int(np.argmax(wrong))
        label = ANOMALY if anomalous[i] else NORMAL
        raise DatasetError(f"sample {i}: label {label!r} inconsistent with injected "
                           f"{tuple(injected[ends[i]:ends[i + 1]].tolist())}")


def write_dataset(ds: Dataset, jsonl_file, csv_file) -> str:
    """Write the dataset.jsonl and features.csv bytes into two open binary
    files, _BLOCK_ROWS samples at a time, once every sample is checked, and
    return the sha256 hex of the dataset.jsonl bytes, each block hashed as
    it is written. jsonl_file must start empty and be readable and seekable
    too.

    Each sample's features are formatted once, and that text goes into both
    its JSONL line and its CSV row. A sample at an hour seen before formats
    only the cells whose float64 bits differ from those of the first sample
    at that hour, its base (an injected anomaly: its k changed cells), and
    takes the other cells' text from its base's line. Bits, not ==, so that
    -0.0 and 0.0 keep their own text. A base line in the current block is
    still at hand; an earlier one is read back from jsonl_file, at the
    offset and length kept for it. The JSONL is ASCII, so its characters
    and bytes count alike.
    """
    _check_columns(vars(ds), len(ds.layout))
    return _write_blocks(ds, jsonl_file, csv_file)


def _write_blocks(ds: Dataset, jsonl_file, csv_file) -> str:
    """write_dataset's work on a dataset whose columns are checked."""
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(
        ["id", "hour", "label"] + ds.layout.names()
    )
    csv_file.write(header.getvalue().encode("utf-8"))
    n = len(ds.features)
    _, first, inverse = np.unique(ds.hours, return_index=True, return_inverse=True)
    base_of = first[inverse]
    text_at = np.empty(n, dtype=np.int64)  # a base's features text in the JSONL
    text_len = np.empty(n, dtype=np.int64)
    bits = ds.features.view(np.uint64)
    digest = hashlib.sha256()
    line_at = 0  # where the next line starts in the JSONL
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        lines, rows = [], []
        for i, hour, anomalous, base, (lo, hi) in zip(
            range(start, stop), ds.hours[start:stop].tolist(),
            ds.anomalous[start:stop].tolist(), base_of[start:stop].tolist(),
            zip(ds.ends[start:stop].tolist(), ds.ends[start + 1 : stop + 1].tolist()),
        ):
            values = ds.features[i]
            if base == i:
                features = _floats_text(values)
            else:
                length = int(text_len[base])
                if base >= start:  # its line is in this block, not yet written
                    line = lines[base - start]
                    text = line[len(line) - length - 3 : len(line) - 3]
                else:
                    jsonl_file.seek(int(text_at[base]))  # flushes what is buffered
                    text = jsonl_file.read(length).decode("ascii")
                    jsonl_file.seek(0, io.SEEK_END)
                texts = text.split(",")
                for c in np.flatnonzero(bits[i] != bits[base]).tolist():
                    texts[c] = repr(float(values[c]))
                features = ",".join(texts)
            label = ANOMALY if anomalous else NORMAL
            line = _JSONL_LINE % (
                i, hour, label, ",".join(map(str, ds.injected[lo:hi].tolist())),
                _floats_text(ds.deltas[lo:hi]), features,
            )
            if base == i:  # the line ends with the features text and ']}\n'
                text_at[i] = line_at + len(line) - len(features) - 3
                text_len[i] = len(features)
            line_at += len(line)
            lines.append(line)
            rows.append(_CSV_ROW % (i, hour, label, "," if features else "", features))
        block = "".join(lines).encode("utf-8")
        digest.update(block)
        jsonl_file.write(block)
        csv_file.write("".join(rows).encode("utf-8"))
    return digest.hexdigest()


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
        "splits": {name: ids.tolist() for name, ids in ds.splits.items()},
        "layout": [
            {"name": e.name, "kind": e.kind, "index": e.index}
            for e in ds.layout.entries
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def dataset_from_files(jsonl: Iterable[str], stats_text: str, meta_text: str,
                       columns: "dict | None" = None) -> Dataset:
    """Parse and check a dataset's three files; dataset.jsonl comes as its
    lines, with or without their newlines, one at a time (a text file or
    io.StringIO yields them so).

    Line i of dataset.jsonl must hold sample id i with one finite feature per
    layout sensor, and the file at least as many samples as the splits name;
    every split id must name a sample and lie in one split only; the stats
    must have one finite mean and std per layout sensor and equal, exactly,
    compute_stats over the train split.

    The features go into one read-only (n, d) matrix, and the other fields
    into the Dataset's flat columns, which must pass _check_columns. columns,
    when given, are those columns as read_columns read and checked them from
    dataset.jsonl's cache: they stand in for parsing jsonl, which is then
    never read, unless their width is not the layout's; then jsonl is
    parsed, and names any line whose feature count is wrong.
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

    named = sum(map(len, splits.values()))  # the sample count of a generated file
    if columns is None or columns["features"].shape[1] != len(layout):
        columns = _parse_jsonl(jsonl, len(layout), named)
        try:
            _check_columns(columns, len(layout))
        except DatasetError as exc:
            raise DatasetError(f"dataset.jsonl: {exc}") from None
    if len(columns["features"]) < named:
        raise DatasetError(f"dataset.jsonl: {len(columns['features'])} samples, "
                           f"fewer than the {named} that meta.json's splits name")
    try:
        splits = _split_arrays(splits, len(columns["features"]))
    except DatasetError as exc:
        raise DatasetError(f"meta.json: {exc}") from None
    train_stats = compute_stats(columns["features"], splits["train"])
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
        **columns,
        splits=splits,
        layout=layout,
        stats=stats,
        master_seed=master_seed,
    )


def _parse_jsonl(lines: Iterable[str], n_features: int, rows: int) -> dict:
    """The Dataset columns of dataset.jsonl's lines, each line checked for
    what only it can show: its JSON, label, field types, id, feature count
    and deltas length (_check_columns checks the rest). The feature matrix
    is allocated for the expected count of rows and grown past it when
    needed.

    Each line's features go straight into their matrix row, and its other
    fields into flat arrays, outside the Python object heap: objects kept
    from the loop would pin heap arenas that its freed per-line floats leave
    behind.
    """
    matrix = np.empty((max(rows, 1), n_features))
    hours = array("q")
    anomalous = bytearray()
    injected = array("i")  # every sample's injected indices, one after another
    deltas = array("d")
    ends = array("q", [0])  # sample i's indices and deltas are [ends[i], ends[i+1])
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        n = len(hours)
        try:
            # Without its newline, a JSON error's position stays on line 1.
            rec = json.loads(line.rstrip("\n"))
            label = rec["label"]
            if label not in (NORMAL, ANOMALY):
                raise ValueError(
                    f"label {label!r} is neither {NORMAL!r} nor {ANOMALY!r}")
            indices = tuple(int(i) for i in rec["injected"])
            shifts = tuple(float(d) for d in rec["deltas"])
            features = rec["features"]
            sample_id, hour = int(rec["id"]), int(rec["hour"])
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
            if n == len(matrix):
                # No view of the matrix exists yet, so it may move.
                matrix.resize((2 * n, n_features), refcheck=False)
            matrix[n] = features
            hours.append(hour)  # OverflowError beyond int64
            injected.extend(indices)  # OverflowError beyond int32
        except MALFORMED_DOCUMENT as exc:
            raise DatasetError(f"dataset line {lineno}: {exc}") from None
        anomalous.append(label == ANOMALY)
        deltas.extend(shifts)
        ends.append(len(injected))
    matrix.resize((len(hours), n_features), refcheck=False)
    return {
        "features": _read_only(matrix),
        "hours": _read_only(np.array(hours, dtype=np.int64)),
        "anomalous": _read_only(np.array(anomalous, dtype=bool)),
        "injected": _read_only(np.array(injected, dtype=np.int32)),
        "deltas": _read_only(np.array(deltas, dtype=float)),
        "ends": _read_only(np.array(ends, dtype=np.int64)),
    }


# --------------------------------------------------------------------------
# The dataset directory: dataset.columns caches the loader's columns beside
# dataset.jsonl, and write_dataset_dir and load_dataset_dir own all five files

COLUMNS_FILE = "dataset.columns"
_COLUMNS_FORMAT = 1
# The file's np.save records, in file order: column, dtype, dimensions.
_COLUMNS = (
    ("features", np.dtype("<f8"), 2),
    ("hours", np.dtype("<i8"), 1),
    ("anomalous", np.dtype("|b1"), 1),
    ("injected", np.dtype("<i4"), 1),
    ("deltas", np.dtype("<f8"), 1),
    ("ends", np.dtype("<i8"), 1),
)
_HEADER_BYTES = 4096  # the header line is read up to this many bytes
_DIGEST_CHUNK = 1 << 20  # bytes per read while dataset.jsonl is hashed


def _raw(array: np.ndarray) -> memoryview:
    """The C-contiguous array's data bytes, not copied."""
    return memoryview(array.reshape(-1)).cast("B")


def write_columns(ds: Dataset, fh, jsonl_digest: str) -> None:
    """Write ds's columns into the open binary file fh as the cache of the
    dataset.jsonl whose bytes have the sha256 hex jsonl_digest (see
    read_columns). Each column is hashed and then written straight from the
    dataset, not copied."""
    parts = []
    for name, dtype, _ in _COLUMNS:
        array = np.ascontiguousarray(getattr(ds, name), dtype=dtype)
        head = io.BytesIO()  # the npy header np.save writes before the data
        np.lib.format.write_array_header_1_0(
            head, np.lib.format.header_data_from_array_1_0(array))
        parts += [head.getvalue(), _raw(array)]
    payload = hashlib.sha256()
    for part in parts:
        payload.update(part)
    header = {"format": _COLUMNS_FORMAT, "dataset.jsonl": jsonl_digest,
              "payload": payload.hexdigest()}
    fh.write(json.dumps(header).encode("ascii") + b"\n")
    fh.writelines(parts)


def read_columns(fh, jsonl_digest: str) -> dict:
    """The Dataset columns in the open binary dataset.columns file fh, as
    read-only arrays, once the file is shown to be the cache of the
    dataset.jsonl whose bytes have the sha256 hex jsonl_digest.

    The file is one JSON header line, {"format": 1, "dataset.jsonl": <sha256
    hex>, "payload": <sha256 hex of the records>}, then, in _COLUMNS order,
    each column as np.save writes it (npy format 1.0). A file that is not
    so raises ValueError naming the first reason, and columns that fail
    _check_columns, at their own width, raise its DatasetError. A record is
    read into an array of the size its header declares only if the file
    holds that many bytes.
    """
    try:
        header = json.loads(fh.readline(_HEADER_BYTES))
    except (ValueError, RecursionError):
        header = None
    if type(header) is not dict or header.get("format") != _COLUMNS_FORMAT:
        raise ValueError(f"its first line is not a format-{_COLUMNS_FORMAT} header")
    if header.get("dataset.jsonl") != jsonl_digest:
        raise ValueError("it was written for other dataset.jsonl bytes")
    size = os.fstat(fh.fileno()).st_size
    payload = hashlib.sha256()
    columns = {}
    for name, dtype, ndim in _COLUMNS:
        start = fh.tell()
        try:
            if np.lib.format.read_magic(fh) != (1, 0):
                raise ValueError("not an npy 1.0 record")
            shape, fortran_order, found = np.lib.format.read_array_header_1_0(fh)
        except Exception as exc:  # numpy's parser of the header's Python literal
            # raises ValueError, SyntaxError, tokenize.TokenError and more on
            # bytes it cannot read.
            raise ValueError(f"{name}: {type(exc).__name__}: {exc}") from None
        if found != dtype or len(shape) != ndim or fortran_order:
            raise ValueError(f"{name} is a {found.str} record of shape {shape}, "
                             f"not {dtype.str} in {ndim} dimensions")
        data_at = fh.tell()
        if min(shape) < 0 or math.prod(shape) * dtype.itemsize > size - data_at:
            raise ValueError(f"{name} runs past the end of the file")
        array = np.empty(shape, dtype)
        fh.seek(start)
        payload.update(fh.read(data_at - start))
        raw = _raw(array)
        if fh.readinto(raw) != len(raw):
            raise ValueError(f"{name} runs past the end of the file")
        payload.update(raw)
        columns[name] = _read_only(array)
    if fh.read(1):
        raise ValueError("bytes follow the last record")
    if payload.hexdigest() != header.get("payload"):
        raise ValueError("its records do not have the payload digest")
    _check_columns(columns, columns["features"].shape[1])
    return columns


def write_dataset_dir(ds: Dataset, out: Path) -> list[Path]:
    """Write ds's five files into the directory out (see write_dataset and
    write_columns), once every sample is checked, each through
    errors.replacing; an OSError names the file, or out when out cannot be
    made a directory. Returns the five paths."""
    _check_columns(vars(ds), len(ds.layout))
    paths = [out / name for name in ("dataset.jsonl", "stats.json", "meta.json",
                                     "features.csv", COLUMNS_FILE)]
    jsonl_path, stats_path, meta_path, csv_path, columns_path = paths
    with writing(out):
        out.mkdir(parents=True, exist_ok=True)
    with (replacing(jsonl_path, "w+b") as jsonl_file,
          replacing(csv_path, "wb") as csv_file):
        jsonl_digest = _write_blocks(ds, jsonl_file, csv_file)
    for path, text in ((stats_path, stats_to_json(ds.stats)),
                       (meta_path, meta_to_json(ds))):
        with replacing(path) as fh:
            fh.write(text)
    with replacing(columns_path, "wb") as fh:
        write_columns(ds, fh, jsonl_digest)
    return paths


def load_dataset_dir(data_dir: "str | Path") -> Dataset:
    """Load and check a dataset directory (see ``dataset_from_files``).

    dataset.jsonl is first hashed, once, in 1 MiB chunks. The columns then
    come from dataset.columns, the cache ``write_dataset_dir`` writes beside
    it, when its header holds that sha256 and it passes ``read_columns``'s
    checks. A cache that is there but cannot be used logs one warning naming
    it and why. Without a usable cache, dataset.jsonl is streamed: read line
    by line and parsed as each line arrives.
    """
    root = Path(data_dir)
    path = root / "dataset.jsonl"
    try:
        with path.open("rb") as fh:
            digest = hashlib.sha256()
            while chunk := fh.read(_DIGEST_CHUNK):
                digest.update(chunk)
            fh.seek(0)
            columns = _cached_columns(root / COLUMNS_FILE, digest.hexdigest())
            dataset = dataset_from_files(
                _decoded(fh, path),
                read_text(root / "stats.json"),
                read_text(root / "meta.json"),
                columns=columns,
            )
    except FileNotFoundError as exc:
        raise DatasetError(f"dataset not found under {root}: {exc.filename}") from None
    except OSError as exc:
        raise unreadable(path, exc, DatasetError) from None
    return replace(dataset, jsonl_digest=digest.hexdigest())


def _cached_columns(path: Path, jsonl_digest: str) -> "dict | None":
    """The columns in the dataset.columns file at path when it is the cache
    of the dataset.jsonl whose bytes have the sha256 hex jsonl_digest; None
    when there is no file at path, or, after one warning naming it and why,
    when it cannot be used."""
    try:
        with open(path, "rb") as fh:
            return read_columns(fh, jsonl_digest)
    except FileNotFoundError:
        return None
    except OSError as exc:
        reason = f"cannot read it: {exc.strerror or exc}"
    except (ValueError, DatasetError) as exc:
        reason = exc
    logger.warning("%s not used: %s", path, reason)
    return None


def _decoded(fh, path: Path) -> Iterator[str]:
    """The binary file fh's lines, decoded. Bytes that are not UTF-8 raise
    DatasetError, naming the file and the offset in it."""
    offset = 0
    for raw in fh:
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise not_utf8(path, exc, DatasetError, offset) from None
        offset += len(raw)
        yield line
