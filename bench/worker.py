"""One benchmark process: set up, then run timed passes of one workload.

Started by run.py, never by hand. A `probe` process sets up and exits; a
`measure` process sets up, then runs passes for --seconds (one pass when
it is 0). With --trace 1 it first runs untraced passes for half the
budget, then wraps the package's layers (see tracer.py) and runs traced
passes for the other half.

The package is imported from the checkout's own src/ and driven only
through `gridsigma.cli.main` and public module functions. The result goes
to the JSON file named by --result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import gridsigma  # noqa: E402
from gridsigma import cli, evalkit, ruleoracle, scenario  # noqa: E402

import checks  # noqa: E402
import metrics  # noqa: E402
from tracer import LAYERS, Tracer, instrument, root_time, summarize, write_spans  # noqa: E402
from workloads import STAGES, WORKLOADS, Workload, scaled_samples  # noqa: E402


def run_cli(argv: list[str]) -> tuple[int, float, str]:
    """(exit code, seconds, error text) of one in-process CLI command."""
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed command, not a crashed benchmark
        rc, error = 1, traceback.format_exc()
    return rc, time.perf_counter() - start, error


class PassRunner:
    def __init__(self, workload: Workload, seed: int, samples: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.samples = samples
        self.work = work
        # Set once the package is instrumented; spans are recorded only
        # inside CLI commands, never during the checks.
        self.tracer: Tracer | None = None
        self.first_spans: list[list] | None = None
        self.count = 0
        self.first_digests: dict[str, str] | None = None
        self.problems: list[str] = []
        self._expected: dict[int, str] | None = None

    def _command(self, argv: list[str]) -> tuple[int, float, str]:
        if self.tracer is None:
            return run_cli(argv)
        self.tracer.active = True
        try:
            return run_cli(argv)
        finally:
            self.tracer.active = False

    def _steps(self, data: Path, out: dict) -> None:
        """Run the workload's steps back to back, then check them (untimed)."""
        steps = self.workload.steps
        for step in steps:
            argv = step.expand(str(data), self.seed, self.samples)
            rc, seconds, error = self._command(argv)
            out["stages"][step.stage] += seconds
            out["attempted"] += 1
            if rc != 0:
                out["failed"] += 1
                self.problems.append(f"pass {self.count}: `{argv[0]}` exited {rc} "
                                     f"{error}".rstrip())
        for step in steps:
            if step.manifest is None:
                continue
            try:
                doc = checks.load_manifest(data, step.manifest)
            except (OSError, ValueError) as exc:
                self.problems.append(f"pass {self.count}: manifest {step.manifest}: {exc}")
                continue
            attempted, failed = checks.operations(doc, step.completions)
            out["attempted"] += attempted
            out["failed"] += failed
            if step.rule_checked:
                self.problems += checks.rule_problems(
                    doc, self._expected_labels(data), step.manifest)
            if step.stage == "train_dl":
                self.problems += checks.detector_problems(doc)

    def _expected_labels(self, data: Path) -> dict[int, str]:
        if self._expected is None:
            ds = evalkit.load_dataset_dir(data)
            self._expected = {
                s.id: ruleoracle.three_sigma_label(scenario.zscores(s.features, ds.stats)).label
                for s in ds.split_samples("test")
            }
        return self._expected

    def run_pass(self) -> dict:
        data = self.work / f"pass{self.count}"
        shutil.rmtree(data, ignore_errors=True)
        self._expected = None
        if self.tracer is not None:
            self.tracer.reset()
        out = {"stages": {s: 0.0 for s in STAGES + ("report",)},
               "attempted": 0, "failed": 0}
        self._steps(data, out)
        out["wall_s"] = sum(out["stages"].values())
        if self.tracer is not None:
            self._summarize_trace(out)
        digests = checks.artifact_digests(data)
        if self.first_digests is None:
            self.first_digests = digests
        else:
            self.problems += checks.compare_digests(
                self.first_digests, digests, f"pass {self.count} vs pass 0")
        shutil.rmtree(data, ignore_errors=True)
        self.count += 1
        return out

    def _summarize_trace(self, out: dict) -> None:
        spans = self.tracer.spans
        summary = metrics.TraceSummary(*summarize(spans), self.tracer.counts)
        out["span_metrics"] = metrics.span_metrics(summary)
        layer_self = sum(summary.layer_self(layer) for layer in LAYERS)
        if abs(layer_self - root_time(spans)) > 1e-6 * out["wall_s"]:
            self.problems.append(f"pass {self.count}: layer self times do not sum "
                                 "to the traced command time")
        out["coverage"] = layer_self / out["wall_s"]
        if self.first_spans is None:
            self.first_spans = spans


def timed_passes(runner: PassRunner, budget_s: float) -> list[dict]:
    """At least one pass; another only while it should fit in the budget."""
    passes = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(runner.run_pass())
        now = time.monotonic()
        if now - start + (now - began) > budget_s:
            return passes


def traced_metrics(untraced: list[dict], traced: list[dict],
                   problems: list[str]) -> dict[str, float]:
    """Per-layer metrics: span metrics over the traced passes (median times,
    counts checked equal) and stage medians over the untraced passes."""
    out = {}
    for name in traced[0]["span_metrics"]:
        values = [p["span_metrics"][name] for p in traced]
        if name in metrics.EXACT_COUNTS:
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced passes: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    for stage in STAGES:
        out[f"{stage}_s"] = statistics.median(p["stages"][stage] for p in untraced)
    out["failed_ratio"] = (sum(p["failed"] for p in untraced)
                           / sum(p["attempted"] for p in untraced))
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    out["trace.overhead_ratio"] = traced_wall / statistics.median(
        p["wall_s"] for p in untraced)
    out["trace.pass_s"] = traced_wall
    out["trace.coverage"] = statistics.median(p["coverage"] for p in traced)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--role", choices=("probe", "measure"), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when run.py started this process")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(gridsigma.__file__).resolve().parents:
        print(f"gridsigma imported from {gridsigma.__file__}, not {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    samples = scaled_samples(workload, args.scale)
    args.work.mkdir(parents=True, exist_ok=True)
    result = {"attempted": 0, "failed": 0, "problems": [],
              "setup_s": time.monotonic() - args.t0}

    if args.role == "measure":
        runner = PassRunner(workload, args.seed, samples, args.work)
        budget = args.seconds / 2 if args.trace else args.seconds
        passes = untraced = timed_passes(runner, budget)
        if args.trace:
            runner.tracer = Tracer()
            instrument(runner.tracer)
            traced = timed_passes(runner, budget)
            passes = untraced + traced
            result["per_layer"] = traced_metrics(untraced, traced, runner.problems)
            result["traced_passes"] = len(traced)
            if args.spans is not None:
                write_spans(runner.first_spans, args.spans)
        result["passes"] = untraced
        result["attempted"] += sum(p["attempted"] for p in passes)
        result["failed"] += sum(p["failed"] for p in passes)
        result["problems"] += runner.problems
        result["digests"] = checks.summarize_digests(runner.first_digests)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
