"""Names, units and definitions of every metric the benchmark reports.

End-to-end metrics apply to every workload and are measured with tracing
off. Per-layer metrics come from the traced run; each is computed per
traced pass as a span call count (`.calls`), span self time (`.self_s`:
duration minus child spans), inclusive span time, or a counter read from
arguments and return values at the same boundary, and reported as the
median over the traced passes (counts must be equal). Stage totals and the
failed ratio are reported with the per-layer metrics because a stage only
exists on the workloads that run its command; elsewhere they read 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from tracer import LAYERS
from workloads import STAGES

# Bounds: the share of the parent's median a metric may worsen by. On the
# 2-vCPU host the benchmark was defined on, the speed of the same code moved
# by up to 1.8x within minutes: over ten seeds the spread of wall and set-up
# times was 0.09-0.24 of the median, and the medians of two sets of ten
# drifted by up to 43%. So the time bounds are the largest allowed, and
# parent and change must be run alternately. Peak RSS repeats to within 0.5%.
END_TO_END = (
    ("wall_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.10),
)


@dataclass
class TraceSummary:
    calls: dict
    total: dict
    self_time: dict
    counts: dict

    def layer_self(self, layer: str) -> float:
        return sum((v for k, v in self.self_time.items() if k.split(".")[0] == layer), 0.0)


def _calls(span):
    return "count", lambda t: t.calls.get(span, 0)


def _self(span):
    return "s", lambda t: t.self_time.get(span, 0.0)


def _count(name, unit="count"):
    return unit, lambda t: t.counts.get(name, 0)


def _hit_ratio(t):
    hits = t.counts.get("agents.cache.hits", 0)
    lookups = hits + t.counts.get("agents.cache.misses", 0)
    return hits / lookups if lookups else 0.0


_SPAN_METRICS = {
    "grid.solve_newton.calls": _calls("grid.solve_newton"),
    "grid.solve_newton.self_s": _self("grid.solve_newton"),
    "grid.newton_iterations": _count("grid.newton_iterations"),
    "grid.solve_failures": _count("grid.solve_failures"),
    "grid.build_ybus.calls": _calls("grid.build_ybus"),
    "grid.extract_features.self_s": _self("grid.extract_features"),
    "scenario.build_dataset.self_s": _self("scenario.build_dataset"),
    "scenario.inject_anomaly.calls": _calls("scenario.inject_anomaly"),
    "scenario.dataset_to_jsonl.calls": _calls("scenario.dataset_to_jsonl"),
    "scenario.dataset_to_jsonl.self_s": _self("scenario.dataset_to_jsonl"),
    "scenario.dataset_from_files.calls": _calls("scenario.dataset_from_files"),
    "scenario.dataset_from_files.self_s": _self("scenario.dataset_from_files"),
    "scenario.features_to_csv.self_s": _self("scenario.features_to_csv"),
    "scenario.zscores.calls": _calls("scenario.zscores"),
    "promptkit.render_prompt.calls": _calls("promptkit.render_prompt"),
    "promptkit.render_prompt.self_s": _self("promptkit.render_prompt"),
    "promptkit.render_value_block.calls": _calls("promptkit.render_value_block"),
    "promptkit.render_value_block.self_s": _self("promptkit.render_value_block"),
    "promptkit.prompt_bytes": _count("promptkit.prompt_bytes", "bytes"),
    "promptkit.select_examples.self_s": _self("promptkit.select_examples"),
    "promptkit.parse_value_block.self_s": _self("promptkit.parse_value_block"),
    "promptkit.parse_verdict.calls": _calls("promptkit.parse_verdict"),
    "promptkit.parse_verdict.self_s": _self("promptkit.parse_verdict"),
    "promptkit.parse_mode.strict": _count("promptkit.parse_mode.strict"),
    "promptkit.parse_mode.lenient": _count("promptkit.parse_mode.lenient"),
    "promptkit.parse_mode.failed": _count("promptkit.parse_mode.failed"),
    "ruleoracle.reference_agent.calls": _calls("ruleoracle.reference_agent"),
    "ruleoracle.reference_agent.self_s": _self("ruleoracle.reference_agent"),
    "ruleoracle.three_sigma_label.calls": _calls("ruleoracle.three_sigma_label"),
    "agents.complete.calls": _calls("agents.complete"),
    "agents.complete.self_s": _self("agents.complete"),
    "agents.run_batch.self_s": _self("agents.run_batch"),
    "agents.cache.hits": _count("agents.cache.hits"),
    "agents.cache.misses": _count("agents.cache.misses"),
    "agents.cache.hit_ratio": ("ratio", _hit_ratio),
    "agents.cache.get_s": ("s", lambda t: t.total.get("agents.ResponseCache.get", 0.0)),
    "agents.cache.put_s": ("s", lambda t: t.total.get("agents.ResponseCache.put", 0.0)),
    "detectors.train_autoencoder.self_s": _self("detectors.train_autoencoder"),
    "detectors.loss_and_gradients.calls": _calls("detectors.loss_and_gradients"),
    "detectors.loss_and_gradients.self_s": _self("detectors.loss_and_gradients"),
    "detectors.epochs": _count("detectors.epochs"),
    "detectors.reconstruction_error.calls": _calls("detectors.reconstruction_error"),
    "detectors.reconstruction_error.self_s": _self("detectors.reconstruction_error"),
    "detectors.calibrate_threshold.self_s": _self("detectors.calibrate_threshold"),
    "detectors.calibrate_hybrid_threshold.self_s":
        _self("detectors.calibrate_hybrid_threshold"),
    "detectors.llm_select_features.calls": _calls("detectors.llm_select_features"),
    "detectors.selection_fallbacks": _count("detectors.selection_fallbacks"),
    "detectors.model_io_s": ("s", lambda t: t.total.get("detectors.model_to_json", 0.0)
                             + t.total.get("detectors.model_from_json", 0.0)),
    "evalkit.load_dataset_dir.calls": _calls("evalkit.load_dataset_dir"),
    "evalkit.load_dataset_dir.self_s": _self("evalkit.load_dataset_dir"),
    "evalkit.run_experiment.self_s": _self("evalkit.run_experiment"),
    "evalkit.run_hybrid_experiment.self_s": _self("evalkit.run_hybrid_experiment"),
    "evalkit.run_detector_experiment.self_s": _self("evalkit.run_detector_experiment"),
    "evalkit.write_manifest.calls": _calls("evalkit.write_manifest"),
    "evalkit.write_manifest.self_s": _self("evalkit.write_manifest"),
    "evalkit.manifest_bytes": _count("evalkit.manifest_bytes", "bytes"),
    "cli.main.calls": _calls("cli.main"),
    "cli.bytes_written": _count("cli.bytes_written", "bytes"),
}
for _layer in LAYERS:
    _SPAN_METRICS[f"{_layer}.self_s"] = (
        "s", lambda t, layer=_layer: t.layer_self(layer))

# Counts that must not change between traced passes of one run.
EXACT_COUNTS = tuple(name for name, (unit, _) in _SPAN_METRICS.items()
                     if unit in ("count", "bytes"))

# Per-layer metrics computed by the worker rather than from spans.
_RUN_METRICS = (
    [(f"{stage}_s", "s") for stage in STAGES]
    + [("failed_ratio", "ratio"),
       ("trace.overhead_ratio", "ratio"),
       ("trace.pass_s", "s"),
       ("trace.coverage", "ratio")]
)

PER_LAYER = tuple(
    [(name, unit) for name, (unit, _) in _SPAN_METRICS.items()] + _RUN_METRICS
)


def span_metrics(summary: TraceSummary) -> dict[str, float]:
    return {name: fn(summary) for name, (unit, fn) in _SPAN_METRICS.items()}


def unit_of(name: str) -> str:
    return _UNITS[name]


_UNITS = {name: unit for name, unit, bound in END_TO_END}
_UNITS.update(PER_LAYER)
