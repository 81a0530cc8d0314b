"""gridsigma benchmark: times the CLI pipeline end to end and layer by layer.

    python3 bench/run.py --workload paper-pipeline --seed 42 --seconds 55 --trace 0

Run from anywhere; the package is taken from this checkout's src/. Each
run starts fresh worker processes (worker.py). With --trace 0, processes
that each set up and run one pass follow each other for --seconds, and
the end-to-end metrics are medians over them; with --trace 1, one process
runs untraced then traced passes and prints the per-layer metrics. Every pass is checked
(see checks.py); a failed check makes `correct` false and the exit code 1.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. A run record (host, versions, sample counts, artifact sha256)
is written under .bench_out/, and with --trace 1 the spans of the first
traced pass as well. BLAS is pinned to one thread in the workers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import metrics  # noqa: E402
from workloads import STAGES, WORKLOADS  # noqa: E402

SETUP_PROCESSES = 7
BLAS_THREADS = 1  # at or below nproc, so timings do not depend on OpenBLAS's own choice
DEADLINE_S = 170.0
OUT = ROOT / ".bench_out"
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: str(BLAS_THREADS) for name in _BLAS_ENV})
    env.pop("PYTHONPATH", None)  # the worker puts this checkout's src/ first
    return env


def _run_worker(args, role: str, index: int, work: Path, deadline: float,
                seconds: float) -> dict:
    result = work / f"worker{index}.json"
    argv = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(args.trace),
        "--scale", str(args.scale), "--role", role,
        "--work", str(work / f"worker{index}"), "--result", str(result),
    ]
    if args.trace:
        argv += ["--spans", str(OUT / f"{_stem(args)}.spans.jsonl")]
    argv += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(argv, stdout=sys.stderr, env=_worker_env(),
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker exited {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def _run_workers(args, work: Path, deadline: float) -> list[dict]:
    """Worker results in run order.

    With --trace 0 each measuring process sets up and runs one pass, and
    processes follow each other until --seconds is spent, so set-up is
    sampled across the whole run rather than in one burst; processes that
    only set up then bring the set-up samples to SETUP_PROCESSES.
    """
    if args.trace:
        return [_run_worker(args, "measure", 0, work, deadline, args.seconds)]
    results = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        results.append(_run_worker(args, "measure", len(results), work, deadline, 0))
        now = time.monotonic()
        if now - start + (now - began) > args.seconds:
            break
    while len(results) < SETUP_PROCESSES:
        results.append(_run_worker(args, "probe", len(results), work, deadline, 0))
    return results


def _stem(args) -> str:
    scale = "" if args.scale == 1.0 else f"-scale{args.scale}"
    return f"{args.workload}-seed{args.seed}{scale}-trace{args.trace}"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _host_record() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
    }


def _summary(values: list[float]) -> dict:
    return {"n": len(values), "median": statistics.median(values),
            "min": min(values), "max": max(values)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply sample counts (the smoke test uses 0.1)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gridsigma" / "__init__.py").is_file():
        print(f"error: no gridsigma package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        results = _run_workers(args, work, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = [r for r in results if "passes" in r]
    problems = [p for r in results for p in r["problems"]]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    digests = measured[0]["digests"] if measured else {}
    for i, r in enumerate(measured[1:], start=1):
        problems += checks.compare_digests(digests, r["digests"], f"process {i} vs process 0")
    timings = {"setup_s": _summary([r["setup_s"] for r in results])}
    if measured:
        passes = [p for r in measured for p in r["passes"]]
        timings["wall_s"] = _summary([p["wall_s"] for p in passes])
        for stage in STAGES:
            if any(p["stages"][stage] for p in passes):
                timings[f"{stage}_s"] = _summary([p["stages"][stage] for p in passes])
    else:
        problems.append("no timed pass ran")

    if args.trace:
        reported = measured[0]["per_layer"] if measured else {}
        names = [name for name, unit in metrics.PER_LAYER]
    else:
        reported = {
            "wall_s": timings.get("wall_s", {}).get("median"),
            "setup_s": timings["setup_s"]["median"],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in measured)
            if measured else None,
        }
        names = [name for name, unit, bound in metrics.END_TO_END]
    correct = not problems and all(reported.get(n) is not None for n in names)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "host": _host_record(),
        "correct": correct, "problems": problems,
        "attempted": attempted, "failed": failed,
        "timings": timings, "metrics": reported,
        "traced_passes": sum(r.get("traced_passes", 0) for r in results),
        "artifact_sha256": digests,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{_stem(args)}.json").write_text(json.dumps(record, indent=2) + "\n",
                                             encoding="utf-8")

    for problem in problems:
        print(f"check failed: {problem}")
    for name, t in timings.items():
        print(f"timing {name}: median {t['median']:.4f} s over n={t['n']} "
              f"(min {t['min']:.4f}, max {t['max']:.4f})")
    for path, digest in record["artifact_sha256"].items():
        print(f"sha256 {digest}  {path}")
    for name in names:
        if name in reported:
            print(f"{name} = {reported[name]} {metrics.unit_of(name)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": reported[n], "unit": metrics.unit_of(n)}
                    for n in names if reported.get(n) is not None},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
