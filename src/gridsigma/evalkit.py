"""Confusion-matrix metrics, experiment runners, and report tables.

Positive means anomaly. Ground truth for scoring is always the injection
label; the three-sigma rule is the detection heuristic under test, not the
referee. Metrics keep exact integer counts and render undefined values as
"n/a" instead of silently degrading to 0.
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import AgentError, DatasetError, GridSigmaError, not_utf8
from . import agents, detectors, promptkit
from .promptkit import PromptConfig
from .scenario import ANOMALY, NORMAL, Dataset, Sample, zscores

logger = logging.getLogger(__name__)

AS_WRONG = "as_wrong"
EXCLUDED = "excluded"
INVALID_POLICIES = (AS_WRONG, EXCLUDED)

SELECTION_DECIMALS = 6  # so table rounding cannot reorder the |z| ranking


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float | None
    recall: float | None
    precision: float | None
    f1: float | None
    counts: ConfusionCounts
    invalid_count: int = 0
    invalid_policy: str = AS_WRONG


def confusion(
    preds: list[str], truths: list[str], policy: str = AS_WRONG
) -> tuple[ConfusionCounts, int]:
    """Count (pred, truth) pairs; invalid predictions follow the policy."""
    if len(preds) != len(truths):
        raise GridSigmaError(
            f"{len(preds)} predictions vs {len(truths)} truths"
        )
    if policy not in INVALID_POLICIES:
        raise GridSigmaError(f"unknown invalid policy {policy!r}")
    tp = fp = fn = tn = invalid = 0
    for pred, truth in zip(preds, truths):
        if pred == promptkit.INVALID:
            invalid += 1
            if policy == EXCLUDED:
                continue
            pred = NORMAL if truth == ANOMALY else ANOMALY  # count as wrong
        if truth == ANOMALY:
            if pred == ANOMALY:
                tp += 1
            else:
                fn += 1
        else:
            if pred == ANOMALY:
                fp += 1
            else:
                tn += 1
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn), invalid


def metrics(
    counts: ConfusionCounts, invalid_count: int = 0, invalid_policy: str = AS_WRONG
) -> MetricsReport:
    """Accuracy, recall, precision, F1; zero denominators yield None."""
    c = counts
    accuracy = (c.tp + c.tn) / c.total if c.total else None
    recall = c.tp / (c.tp + c.fn) if (c.tp + c.fn) else None
    precision = c.tp / (c.tp + c.fp) if (c.tp + c.fp) else None
    f1 = None if recall is None or precision is None else f1_from(recall, precision)
    return MetricsReport(
        accuracy=accuracy,
        recall=recall,
        precision=precision,
        f1=f1,
        counts=c,
        invalid_count=invalid_count,
        invalid_policy=invalid_policy,
    )


def f1_from(recall: float, precision: float) -> float | None:
    """Harmonic mean of recall and precision; None when both are zero."""
    if recall == 0 and precision == 0:
        return None
    return 2 * recall * precision / (recall + precision)


def lift(new: float, old: float) -> float:
    """Relative improvement (new - old) / old."""
    return (new - old) / old


# --------------------------------------------------------------------------
# Experiment runner


@dataclass(frozen=True)
class RunConfig:
    paradigm: str = promptkit.ZERO_SHOT
    variant: str = promptkit.VARIANT_Z_ONLY
    agent: str = agents.REFERENCE_RULE  # agent kind name
    data_dir: str = "data"
    example_seed: int = 7
    coin_seed: int = 7
    invalid_policy: str = AS_WRONG
    k_examples: int = -1  # -1 = paradigm default
    m_select: int = 8
    decimals: int = 4
    endpoint: "agents.EndpointConfig | None" = None

    def prompt_config(self) -> PromptConfig:
        return PromptConfig(
            paradigm=self.paradigm,
            variant=self.variant,
            k_examples=self.k_examples,
            example_seed=self.example_seed,
            decimals=self.decimals,
            m_select=self.m_select,
        )

    def agent_kind(self) -> agents.AgentKind:
        if self.agent == agents.COIN_FLIP:
            return agents.AgentKind(self.agent, seed=self.coin_seed)
        return agents.AgentKind(self.agent)


# Bytes per read of dataset.jsonl: the loader holds one chunk and one
# unfinished line, never the file.
_CHUNK_BYTES = 1 << 18


def load_dataset_dir(data_dir: "str | Path") -> Dataset:
    """Load and check a dataset directory (see ``dataset_from_files``).

    dataset.jsonl is streamed: read in chunks that update its sha256, split
    into lines and parsed as they arrive.
    """
    from .scenario import dataset_from_files

    root = Path(data_dir)
    path = root / "dataset.jsonl"
    digest = hashlib.sha256()
    try:
        with path.open("rb") as fh:
            dataset = dataset_from_files(
                _utf8_lines(fh, path, digest),
                read_text(root / "stats.json"),
                read_text(root / "meta.json"),
            )
    except FileNotFoundError as exc:
        raise DatasetError(f"dataset not found under {root}: {exc.filename}") from None
    return replace(dataset, jsonl_digest=digest.hexdigest())


def _utf8_lines(fh, path: Path, digest) -> Iterator[str]:
    """The lines of the binary file fh, decoded and without their newline;
    each chunk read updates digest.

    Bytes are split on b"\n" before they are decoded: a newline byte never
    falls inside a UTF-8 sequence, so a character split across two chunks
    stays whole in its line. Bytes that are not UTF-8 raise DatasetError,
    naming the file and the offset in it.
    """
    tail = b""  # the unfinished line
    offset = 0  # file offset of tail's first byte
    while chunk := fh.read(_CHUNK_BYTES):
        digest.update(chunk)
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            tail += chunk
            continue
        whole = tail + chunk[:cut]
        yield from _decode(whole, path, offset)[:-1].split("\n")  # ends with \n
        offset += len(whole)
        tail = chunk[cut:]
    if tail:
        yield _decode(tail, path, offset)


def _decode(data: bytes, path: Path, offset: int) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc, DatasetError, offset) from None


def read_text(path: Path, error: "type[GridSigmaError]" = DatasetError) -> str:
    """The file's UTF-8 text, newlines translated as Path.read_text does;
    bytes that are not UTF-8 raise ``error``, naming the file."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc, error) from None


def _config_doc(run: RunConfig) -> dict:
    return {
        "paradigm": run.paradigm,
        "variant": run.variant,
        "agent": run.agent,
        "example_seed": run.example_seed,
        "coin_seed": run.coin_seed,
        "invalid_policy": run.invalid_policy,
        "k_examples": run.k_examples,
        "m_select": run.m_select,
        "decimals": run.decimals,
        "model": run.endpoint.model_name if run.endpoint else None,
    }


def _metrics_doc(report: MetricsReport) -> dict:
    return {
        "accuracy": report.accuracy,
        "recall": report.recall,
        "precision": report.precision,
        "f1": report.f1,
        "counts": {
            "tp": report.counts.tp,
            "fp": report.counts.fp,
            "fn": report.counts.fn,
            "tn": report.counts.tn,
        },
        "invalid_count": report.invalid_count,
    }


def _score_and_persist(
    config: dict,
    dataset: Dataset,
    targets: list[Sample],
    preds: list[str],
    records: list[dict],
    policies: tuple[str, ...],
    out_dir: "str | Path | None",
    name: str,
    **extra,
) -> tuple[dict[str, MetricsReport], dict]:
    """Score preds against the injection labels and build the run manifest.

    Each sample record gets id, label and truth ahead of the runner's own
    fields. With out_dir, the manifest is written to out_dir/name and its
    "path" set.
    """
    truths = [s.label for s in targets]
    reports = {}
    for policy in policies:
        counts, invalid = confusion(preds, truths, policy)
        reports[policy] = metrics(counts, invalid, policy)
    manifest = {
        "config": config,
        "dataset_digest": _dataset_digest_of(dataset),
        "samples": [
            {"id": s.id, "label": p, "truth": s.label, **record}
            for s, p, record in zip(targets, preds, records)
        ],
        "metrics": {policy: _metrics_doc(rep) for policy, rep in reports.items()},
        **extra,
    }
    if out_dir is not None:
        path = Path(out_dir) / name
        write_manifest(manifest, path)
        manifest["path"] = str(path)
    return reports, manifest


def run_experiment(
    run: RunConfig,
    dataset: Dataset | None = None,
    cache: "agents.ResponseCache | None" = None,
    out_dir: "str | Path | None" = None,
) -> tuple[MetricsReport, dict]:
    """Render prompts for the test split, execute the agent, score, persist.

    Returns the metrics report under the configured invalid policy plus the
    run manifest (also written to out_dir when given). Examples come from
    the train split only; any example ids are excluded from the targets.
    """
    if dataset is None:
        dataset = load_dataset_dir(run.data_dir)
    cfg = run.prompt_config()
    agent = run.agent_kind()
    examples = promptkit.select_examples(
        dataset.split_samples("train"), cfg, dataset.stats
    )
    example_ids = {s.id for s in examples}
    targets = [
        s for s in dataset.split_samples("test") if s.id not in example_ids
    ]
    if not targets:
        raise DatasetError("test split is empty")
    bundles = promptkit.render_prompts(
        targets, dataset.stats, cfg, examples, dataset.layout
    )
    verdicts = agents.run_batch(bundles, agent, run.endpoint, cache)
    preds = [v.label for v in verdicts]
    if all(p == promptkit.INVALID for p in preds):
        logger.warning("all %d verdicts were invalid", len(preds))
    reports, manifest = _score_and_persist(
        _config_doc(run),
        dataset,
        targets,
        preds,
        [
            {"prompt_hash": b.content_hash, "parse_mode": v.parse_mode}
            for b, v in zip(bundles, verdicts)
        ],
        INVALID_POLICIES,
        out_dir,
        manifest_name(run),
        example_ids=sorted(example_ids),
    )
    return reports[run.invalid_policy], manifest


def _dataset_digest_of(dataset: Dataset) -> str:
    """sha256 of the dataset's JSONL form: the file's, hashed at load, or the
    serialisation's for a dataset built in memory, hashed block by block."""
    from .scenario import dataset_blocks

    if dataset.jsonl_digest is not None:
        return dataset.jsonl_digest
    digest = hashlib.sha256()
    for jsonl, _ in dataset_blocks(dataset):
        digest.update(jsonl.encode("utf-8"))
    return digest.hexdigest()


def manifest_name(run: RunConfig) -> str:
    agent = run.agent
    if agent == agents.COIN_FLIP:
        agent = f"{agent}{run.coin_seed}"
    return f"{run.paradigm}_{run.variant}_{agent}.json"


def write_manifest(manifest: dict, path: "str | Path") -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def run_hybrid_experiment(
    run: RunConfig,
    model: detectors.DetectorModel,
    dataset: Dataset | None = None,
    cache: "agents.ResponseCache | None" = None,
    out_dir: "str | Path | None" = None,
    use_reference_selector: bool = False,
) -> tuple[MetricsReport, dict]:
    """Hybrid pipeline: per-sample sensor selection gates the detector score.

    The hybrid cutoff is calibrated on the validation split with the
    reference selector; test-time selections come from the agent (or the
    reference selector directly when use_reference_selector is set). An
    agent reply that failed or names no known sensor scores all sensors
    (source 'full'), with a warning in the run log. A model whose input
    stats are not exactly the dataset's raises DatasetError.
    """
    if dataset is None:
        dataset = load_dataset_dir(run.data_dir)
    if model.threshold is None:
        raise GridSigmaError("hybrid needs a calibrated detector model")
    trained, current = model.input_stats, dataset.stats
    if (trained.n != current.n or trained.mean.tolist() != current.mean.tolist()
            or trained.std.tolist() != current.std.tolist()):
        raise DatasetError(
            f"the model was trained on other stats (n={trained.n}) than the "
            f"dataset's stats.json (n={current.n}); rerun train-dl"
        )
    tau_h = detectors.calibrate_hybrid_threshold(
        model, dataset.split_samples("validation"), dataset.stats, m=run.m_select
    )
    targets = dataset.split_samples("test")
    if use_reference_selector:
        selections = [
            detectors.reference_selector(
                zscores(s.features, dataset.stats), run.m_select, sample_id=s.id
            )
            for s in targets
        ]
    else:
        config = PromptConfig(
            paradigm=promptkit.HYBRID_SELECT,
            variant=promptkit.VARIANT_Z_ONLY,
            m_select=run.m_select,
            decimals=SELECTION_DECIMALS,
        )
        bundles = promptkit.render_prompts(
            targets, dataset.stats, config, [], dataset.layout
        )
        replies = agents.complete_batch(bundles, run.agent_kind(), run.endpoint, cache)
        selections = []
        for s, reply in zip(targets, replies):
            failed = isinstance(reply, AgentError)
            ranked = () if failed else promptkit.parse_selection(
                reply, dataset.layout, run.m_select
            )
            if not ranked:
                logger.warning("selection for sample %d fell back to full: %s", s.id,
                               reply if failed else "no known sensor named")
            source = detectors.SOURCE_LLM if ranked else detectors.SOURCE_FULL
            selections.append(detectors.FeatureSelection(s.id, ranked, source))
    preds = [
        detectors.hybrid_detect(model, sel, tau_h, s.features)
        for s, sel in zip(targets, selections)
    ]
    selector = "reference_topz" if use_reference_selector else run.agent
    reports, manifest = _score_and_persist(
        {**_config_doc(run), "selector": selector, "tau_hybrid": tau_h},
        dataset,
        targets,
        preds,
        [
            {"selection": list(sel.ranked), "selection_source": sel.source}
            for sel in selections
        ],
        (run.invalid_policy,),
        out_dir,
        f"hybrid_{selector}.json",
    )
    return reports[run.invalid_policy], manifest


def run_detector_experiment(
    model: detectors.DetectorModel,
    dataset: Dataset,
    out_dir: "str | Path | None" = None,
) -> tuple[MetricsReport, dict]:
    """Standalone detector scored on the test split."""
    targets = dataset.split_samples("test")
    reports, manifest = _score_and_persist(
        {"detector": "autoencoder", "threshold": model.threshold,
         "train_seed": model.train_seed},
        dataset,
        targets,
        [detectors.detect(model, s.features) for s in targets],
        [{}] * len(targets),
        (AS_WRONG,),
        out_dir,
        "dl_detector.json",
    )
    return reports[AS_WRONG], manifest


# --------------------------------------------------------------------------
# Report tables

VARIANT_LABELS = {
    promptkit.VARIANT_VALUE: "Value",
    promptkit.VARIANT_MEAN_STD_VALUE: "Mean-Std-Value",
    promptkit.VARIANT_MEAN_STD_VALUE_Z: "Mean-Std-Value-Z",
    promptkit.VARIANT_Z_ONLY: "Z_score",
}

PARADIGM_LABELS = {
    promptkit.ZERO_SHOT: "Zero-shot",
    promptkit.FEW_SHOT: "Few-shot",
    promptkit.ICL: "ICL",
    promptkit.HYBRID_SELECT: "Hybrid",
}

_ROW_ORDER = [
    "Value",
    "Mean-Std-Value",
    "Mean-Std-Value-Z",
    "Z_score",
    "Zero-shot",
    "Few-shot",
    "ICL",
    "Fine-tuned",
    "Hybrid",
    "Traditional DL",
    "LLM + DL",
]

_COLUMNS = ["Configuration", "Accuracy", "Recall", "Precision", "F1-score"]


def _pct(value: float | None) -> str:
    return "n/a" if value is None else f"{100.0 * value:.1f}%"


def _metric_row(report: MetricsReport) -> list[float | None]:
    return [report.accuracy, report.recall, report.precision, report.f1]


def ablation_table(
    reports: list[tuple[str, MetricsReport]],
    fmt: str = "text",
    with_lift: bool = False,
) -> str:
    """Rows of {configuration, accuracy, recall, precision, f1}.

    Rows follow the canonical order when their labels are known. With
    with_lift, a relative-delta row (last vs first) is appended, as in the
    traditional-vs-hybrid comparison. fmt: text | md | json.
    """
    labels = [label for label, _ in reports]
    if len(set(labels)) != len(labels):
        raise GridSigmaError("duplicate configuration rows")

    def order_key(item):
        label = item[0]
        return (_ROW_ORDER.index(label) if label in _ROW_ORDER else len(_ROW_ORDER),)

    ordered = sorted(reports, key=order_key)
    rows: list[tuple[str, list[float | None]]] = [
        (label, _metric_row(rep)) for label, rep in ordered
    ]
    lift_row: list[float | None] | None = None
    if with_lift:
        if len(rows) < 2:
            raise GridSigmaError("lift row needs at least two reports")
        old, new = rows[0][1], rows[-1][1]
        lift_row = [
            None if (a is None or b in (None, 0)) else lift(a, b)
            for a, b in zip(new, old)
        ]

    if fmt == "json":
        doc = {
            "columns": _COLUMNS,
            "rows": [
                {"configuration": label, "accuracy": m[0], "recall": m[1],
                 "precision": m[2], "f1": m[3]}
                for label, m in rows
            ],
        }
        if lift_row is not None:
            doc["lift"] = {
                "configuration": "Performance lift",
                "accuracy": lift_row[0],
                "recall": lift_row[1],
                "precision": lift_row[2],
                "f1": lift_row[3],
            }
        return json.dumps(doc, indent=2) + "\n"

    cells = [[label] + [_pct(v) for v in m] for label, m in rows]
    if lift_row is not None:
        cells.append(
            ["Performance lift"]
            + ["n/a" if v is None else f"{100.0 * v:.2f}%" for v in lift_row]
        )
    widths = [
        max(len(_COLUMNS[c]), max(len(row[c]) for row in cells))
        for c in range(len(_COLUMNS))
    ]
    if fmt == "md":
        head = "| " + " | ".join(
            _COLUMNS[c].ljust(widths[c]) for c in range(len(_COLUMNS))
        ) + " |"
        sep = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
        body = [
            "| " + " | ".join(row[c].ljust(widths[c]) for c in range(len(_COLUMNS)))
            + " |"
            for row in cells
        ]
        return "\n".join([head, sep] + body) + "\n"
    if fmt != "text":
        raise GridSigmaError(f"unknown table format {fmt!r}")
    head = "  ".join(_COLUMNS[c].ljust(widths[c]) for c in range(len(_COLUMNS)))
    rule = "-" * len(head.rstrip())
    body = [
        "  ".join(row[c].ljust(widths[c]) for c in range(len(_COLUMNS))).rstrip()
        for row in cells
    ]
    return "\n".join([head.rstrip(), rule] + body) + "\n"


def report_from_manifest(doc: dict, policy: str = AS_WRONG) -> MetricsReport:
    """The manifest's metrics under ``policy``, else under the first policy it
    holds. A malformed document raises one of errors.MALFORMED_DOCUMENT."""
    by_policy = dict(doc["metrics"])
    m = by_policy.get(policy) or by_policy[next(iter(by_policy), policy)]
    counts = ConfusionCounts(**m["counts"])
    return MetricsReport(
        accuracy=m["accuracy"],
        recall=m["recall"],
        precision=m["precision"],
        f1=m["f1"],
        counts=counts,
        invalid_count=m.get("invalid_count", 0),
        invalid_policy=policy,
    )
