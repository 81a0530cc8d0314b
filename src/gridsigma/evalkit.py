"""Confusion-matrix metrics, experiment runners, and report tables.

Positive means anomaly. Ground truth for scoring is always the injection
label; the three-sigma rule is the detection heuristic under test, not the
referee. Metrics keep exact integer counts and render undefined values as
"n/a" instead of silently degrading to 0.
"""

from __future__ import annotations

import io
import json
import logging
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path
from urllib.parse import quote

import numpy as np

from .errors import AgentError, DatasetError, GridSigmaError, replacing
from . import agents, detectors, promptkit
from .promptkit import PromptConfig
from .ruleoracle import top_abs_z
from .scenario import ANOMALY, NORMAL, Dataset, FeatureStats, write_dataset, zscores
from .scenario import load_dataset_dir  # the name the benchmark worker loads by

logger = logging.getLogger(__name__)

AS_WRONG = "as_wrong"
EXCLUDED = "excluded"
INVALID_POLICIES = (AS_WRONG, EXCLUDED)

# Where a hybrid sample's selection came from, as its manifest record says.
SOURCE_LLM = "llm"
SOURCE_REFERENCE = "reference_topz"
SOURCE_FULL = "full"  # no usable reply: every sensor is scored


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
    """One run's identity: what the prompts are and which agent answers them."""

    prompt: PromptConfig = PromptConfig()
    agent: agents.AgentKind = agents.AgentKind(agents.REFERENCE_RULE)
    invalid_policy: str = AS_WRONG
    endpoint: "agents.EndpointConfig | None" = None


def agent_label(agent: agents.AgentKind) -> str:
    """The agent kind, plus the seed for a coin flip: it names manifests and
    report rows."""
    return f"{agent.kind}{agent.seed}" if agent.kind == agents.COIN_FLIP else agent.kind


def _config_doc(run: RunConfig) -> dict:
    prompt = run.prompt
    return {
        "paradigm": prompt.paradigm,
        "variant": prompt.variant,
        "agent": run.agent.kind,
        "example_seed": prompt.example_seed,
        "coin_seed": run.agent.seed,
        "invalid_policy": run.invalid_policy,
        "k_examples": prompt.k_examples,
        "m_select": prompt.m_select,
        "decimals": prompt.decimals,
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
    targets: np.ndarray,
    preds: list[str],
    records: list[dict],
    policies: tuple[str, ...],
    out_dir: "str | Path | None",
    name: str,
    **extra,
) -> tuple[dict[str, MetricsReport], dict]:
    """Score preds, one per target id, against the injection labels and
    build the run manifest.

    Each sample record gets id, label and truth ahead of the runner's own
    fields. With out_dir, the manifest is written to out_dir/name and its
    "path" set.
    """
    truths = [ANOMALY if a else NORMAL for a in dataset.anomalous[targets].tolist()]
    reports = {}
    for policy in policies:
        counts, invalid = confusion(preds, truths, policy)
        reports[policy] = metrics(counts, invalid, policy)
    manifest = {
        "config": config,
        "dataset_digest": _dataset_digest_of(dataset),
        "samples": [
            {"id": i, "label": p, "truth": truth, **record}
            for i, p, truth, record in zip(targets.tolist(), preds, truths, records)
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
    dataset: Dataset,
    cache: "agents.ResponseCache | None" = None,
    out_dir: "str | Path | None" = None,
) -> tuple[MetricsReport, dict]:
    """Render prompts for the test split, execute the agent, score, persist.

    Returns the metrics report under the configured invalid policy plus the
    run manifest (also written to out_dir when given). Examples come from
    the train split only, which shares no sample with the test split.
    """
    examples = promptkit.select_examples(dataset, run.prompt)
    targets, _ = _test_split(dataset)
    hashes: list[str] = []
    bundles = promptkit.render_prompts(dataset, targets, run.prompt, examples)
    verdicts = agents.run_batch(
        _keeping_hashes(bundles, hashes), run.agent, run.endpoint, cache
    )
    preds = [v.label for v in verdicts]
    if all(p == promptkit.INVALID for p in preds):
        logger.warning("all %d verdicts were invalid", len(preds))
    reports, manifest = _score_and_persist(
        _config_doc(run),
        dataset,
        targets,
        preds,
        [
            {"prompt_hash": h, "parse_mode": v.parse_mode}
            for h, v in zip(hashes, verdicts)
        ],
        INVALID_POLICIES,
        out_dir,
        manifest_name(run),
        example_ids=sorted(examples),
    )
    return reports[run.invalid_policy], manifest


def _keeping_hashes(
    bundles: Iterator[promptkit.PromptBundle], hashes: list[str]
) -> Iterator[promptkit.PromptBundle]:
    """The bundles, passed on as they are pulled; each one's content hash is
    appended to hashes, so the prompt texts need not outlive their replies."""
    for bundle in bundles:
        hashes.append(bundle.content_hash)
        yield bundle


def _dataset_digest_of(dataset: Dataset) -> str:
    """sha256 of the dataset's JSONL form: the file's, hashed at load, or for
    a dataset built in memory, the one write_dataset returns."""
    if dataset.jsonl_digest is not None:
        return dataset.jsonl_digest
    return write_dataset(dataset, io.BytesIO(), io.BytesIO())


def _file_label(run: RunConfig) -> str:
    """The agent label, and for an http agent its model, escaped for a file
    name, so runs against two models keep two manifests."""
    label = agent_label(run.agent)
    if run.agent.kind == agents.HTTP_ENDPOINT:
        label += "_" + quote(run.endpoint.model_name, safe="")
    return label


def manifest_name(run: RunConfig) -> str:
    """<paradigm>_<variant>_<agent label>.json (see ``_file_label``), with
    _k<k> before the suffix when k differs from the paradigm default."""
    prompt = run.prompt
    k = prompt.k_examples
    k_part = "" if k == PromptConfig(paradigm=prompt.paradigm).k_examples else f"_k{k}"
    return f"{prompt.paradigm}_{prompt.variant}_{_file_label(run)}{k_part}.json"


def write_manifest(manifest: dict, path: "str | Path") -> None:
    with replacing(path) as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def run_hybrid_experiment(
    run: RunConfig,
    model: detectors.DetectorModel,
    dataset: Dataset,
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
    stats are not exactly the dataset's raises DatasetError naming what
    differs (see ``_stats_difference``). The selection prompt config, the
    run's prompt as a z_only hybrid_select prompt with no examples, renders
    the prompts and is the one the manifest records.
    """
    run = replace(run, prompt=replace(
        run.prompt, paradigm=promptkit.HYBRID_SELECT, variant=promptkit.VARIANT_Z_ONLY,
        k_examples=0,
    ))
    m = run.prompt.m_select
    if model.threshold is None:
        raise GridSigmaError("hybrid needs a calibrated detector model")
    differs = _stats_difference(model.input_stats, dataset)
    if differs:
        raise DatasetError(f"the model was trained on other stats {differs}; "
                           "rerun train-dl")
    tau_h = detectors.calibrate_hybrid_threshold(
        model, dataset.split_features("validation"),
        dataset.anomalous[dataset.split_ids("validation")], dataset.stats, m=m,
    )
    targets, features = _test_split(dataset)
    if use_reference_selector:
        selector = file_label = SOURCE_REFERENCE
        selections = top_abs_z(np.abs(zscores(features, dataset.stats)), m).tolist()
        sources = [SOURCE_REFERENCE] * len(targets)
    else:
        selector, file_label = agent_label(run.agent), _file_label(run)
        bundles = promptkit.render_prompts(dataset, targets, run.prompt)
        replies = agents.complete_batch(bundles, run.agent, run.endpoint, cache)
        selections = []
        for i, reply in zip(targets.tolist(), replies):
            failed = isinstance(reply, AgentError)
            ranked = () if failed else promptkit.parse_selection(
                reply, dataset.layout, m
            )
            if not ranked:
                logger.warning("selection for sample %d fell back to full: %s", i,
                               reply if failed else "no known sensor named")
            selections.append(ranked)
        sources = [SOURCE_LLM if ranked else SOURCE_FULL for ranked in selections]
    scores = detectors.hybrid_scores(model, features, selections)
    reports, manifest = _score_and_persist(
        {**_config_doc(run), "selector": selector, "tau_hybrid": tau_h},
        dataset,
        targets,
        [ANOMALY if score >= tau_h else NORMAL for score in scores],
        [
            {"selection": list(ranked), "selection_source": source}
            for ranked, source in zip(selections, sources)
        ],
        (run.invalid_policy,),
        out_dir,
        f"hybrid_{file_label}.json",
    )
    return reports[run.invalid_policy], manifest


def _stats_difference(trained: FeatureStats, dataset: Dataset) -> str | None:
    """Where a model's input stats first differ from the dataset's: n, with
    both counts, else the first sensor whose mean or std differs, by name,
    with both values; None when they are equal."""
    current = dataset.stats
    if trained.n != current.n:
        return f"(n={trained.n}) than the dataset's stats.json (n={current.n})"
    for field in ("mean", "std"):
        ours, theirs = getattr(trained, field), getattr(current, field)
        if ours.shape != theirs.shape:
            return (f"than the dataset's stats.json ({len(ours)} sensors "
                    f"against {len(theirs)})")
        for i in np.flatnonzero(ours != theirs)[:1].tolist():
            return (f"than the dataset's stats.json ({field} of "
                    f"{dataset.layout.entries[i].name}: "
                    f"{float(ours[i])!r} against {float(theirs[i])!r})")
    return None


def _test_split(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The test sample ids and their (n, d) feature matrix."""
    targets = dataset.split_ids("test")
    if not len(targets):
        raise DatasetError("test split is empty")
    return targets, dataset.split_features("test")


def run_detector_experiment(
    model: detectors.DetectorModel,
    dataset: Dataset,
    out_dir: "str | Path | None" = None,
) -> tuple[MetricsReport, dict]:
    """Standalone detector scored on the test split."""
    targets, features = _test_split(dataset)
    reports, manifest = _score_and_persist(
        {"detector": "autoencoder", "threshold": model.threshold,
         "train_seed": model.train_seed},
        dataset,
        targets,
        detectors.detect(model, features),
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

# Report sections, and the rows of the traditional-vs-hybrid comparison.
_ABLATION = "Zero-shot ablation"
_PARADIGMS = "Prompting paradigms"
_VERSUS = "Traditional vs hybrid"
_DETECTOR_ROW = "Traditional DL"
_HYBRID_ROW = "LLM + DL"

_ROW_ORDER = [*VARIANT_LABELS.values(), *PARADIGM_LABELS.values(), _DETECTOR_ROW,
              _HYBRID_ROW]

_COLUMNS = ["Configuration", "Accuracy", "Recall", "Precision", "F1-score"]
_METRICS = ("accuracy", "recall", "precision", "f1")


def _pct(value: float | None) -> str:
    return "n/a" if value is None else f"{100.0 * value:.1f}%"


def _table_doc(
    reports: list[tuple[str, MetricsReport]], with_lift: bool = False
) -> dict:
    """{columns, rows[, lift]}: a row of {configuration, accuracy, recall,
    precision, f1} per report.

    Rows follow the canonical order when their labels, before any " (...)"
    suffix, are known. With with_lift, a relative-delta row (last vs first)
    is added, as in the traditional-vs-hybrid comparison.
    """
    labels = [label for label, _ in reports]
    if len(set(labels)) != len(labels):
        raise GridSigmaError("duplicate configuration rows")

    def order_key(item):
        label = item[0].partition(" (")[0]
        return _ROW_ORDER.index(label) if label in _ROW_ORDER else len(_ROW_ORDER)

    rows = [
        {"configuration": label, **{key: getattr(rep, key) for key in _METRICS}}
        for label, rep in sorted(reports, key=order_key)
    ]
    doc = {"columns": _COLUMNS, "rows": rows}
    if with_lift:
        if len(rows) < 2:
            raise GridSigmaError("lift row needs at least two reports")
        old, new = rows[0], rows[-1]
        doc["lift"] = {"configuration": "Performance lift", **{
            key: None if (new[key] is None or old[key] in (None, 0))
            else lift(new[key], old[key])
            for key in _METRICS
        }}
    return doc


def ablation_table(
    reports: list[tuple[str, MetricsReport]],
    fmt: str = "text",
    with_lift: bool = False,
) -> str:
    """The table of ``_table_doc`` rendered as fmt: text | md | json."""
    doc = _table_doc(reports, with_lift)
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"

    cells = [
        [row["configuration"]] + [_pct(row[key]) for key in _METRICS]
        for row in doc["rows"]
    ]
    if "lift" in doc:
        cells.append(["Performance lift"] + [
            "n/a" if doc["lift"][key] is None else f"{100.0 * doc['lift'][key]:.2f}%"
            for key in _METRICS
        ])
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


@dataclass(frozen=True)
class ReportRun:
    """One stored run as the report reads it."""

    labels: dict[str, str]  # section title -> the run's row label there
    identity: tuple[str, ...]  # what tells runs that share a label apart
    report: MetricsReport


def manifest_run(doc: dict) -> ReportRun:
    """A run manifest's rows, from its config, and its metrics under as_wrong,
    else under the first policy it holds.

    A malformed document raises one of errors.MALFORMED_DOCUMENT, or
    AgentError for an unknown agent kind.
    """
    by_policy = dict(doc["metrics"])
    m = by_policy.get(AS_WRONG) or by_policy[next(iter(by_policy), AS_WRONG)]
    report = MetricsReport(
        **{key: m[key] for key in _METRICS}, counts=ConfusionCounts(**m["counts"]),
        invalid_count=m.get("invalid_count", 0),
    )
    cfg = dict(doc["config"])
    if "detector" in cfg:
        return ReportRun({_VERSUS: _DETECTOR_ROW}, (), report)
    paradigm, variant = cfg["paradigm"], VARIANT_LABELS[cfg["variant"]]
    labels = {}
    if paradigm == promptkit.ZERO_SHOT:
        labels[_ABLATION] = variant
    if paradigm != promptkit.ZERO_SHOT or cfg["variant"] == promptkit.VARIANT_Z_ONLY:
        labels[_PARADIGMS] = PARADIGM_LABELS[paradigm]
    if paradigm == promptkit.HYBRID_SELECT:
        labels[_VERSUS] = _HYBRID_ROW
    agent = str(cfg.get("selector") or agent_label(
        agents.AgentKind(cfg["agent"], cfg["coin_seed"])
    ))
    model = f"model {cfg['model']}" if cfg["model"] else ""
    return ReportRun(labels, (variant, agent, model, f"k={cfg['k_examples']}"), report)


def _labelled(
    rows: list[tuple[str, tuple[str, ...], MetricsReport]],
) -> list[tuple[str, MetricsReport]]:
    """(label, identity, report) rows as (label, report). Rows that share a
    label get a " (...)" suffix of the identity parts that differ among them."""
    groups: dict[str, list[tuple[str, ...]]] = {}
    for label, identity, _ in rows:
        groups.setdefault(label, []).append(identity)
    out = []
    for label, identity, report in rows:
        group = groups[label]
        if len(group) > 1:
            parts = [part for i, part in enumerate(identity)
                     if part and len({other[i] for other in group}) > 1]
            label = f"{label} ({', '.join(parts)})"
        out.append((label, report))
    return out


def build_report(runs: list[ReportRun], fmt: str = "text") -> str:
    """The report on stored runs, as fmt: text | md | json.

    Sections: the zero-shot ablation, the prompting paradigms, and one
    traditional-vs-hybrid table with its lift row per hybrid run. Every run
    has a row in each section it belongs to. json is one document,
    {"sections": [{"title", "columns", "rows"[, "lift"]}]}.
    """
    rows: dict[str, list] = {_ABLATION: [], _PARADIGMS: [], _VERSUS: []}
    for run in runs:
        for title, label in run.labels.items():
            rows[title].append((label, run.identity, run.report))
    tables = [(title, _labelled(rows[title]), False)
              for title in (_ABLATION, _PARADIGMS) if rows[title]]
    detector = [(label, rep) for label, _, rep in rows[_VERSUS] if label == _DETECTOR_ROW]
    hybrids = [(_VERSUS, identity, rep)
               for label, identity, rep in rows[_VERSUS] if label == _HYBRID_ROW]
    if detector:
        tables += [(title, detector + [(_HYBRID_ROW, rep)], True)
                   for title, rep in _labelled(hybrids)]
    if not tables:
        raise GridSigmaError("no reportable manifests found")
    if fmt == "json":
        sections = [{"title": title, **_table_doc(reports, with_lift)}
                    for title, reports, with_lift in tables]
        return json.dumps({"sections": sections}, indent=2) + "\n"
    return "\n".join(f"## {title}\n{ablation_table(reports, fmt, with_lift)}"
                     for title, reports, with_lift in tables)
