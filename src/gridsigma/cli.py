"""Command-line entry point.

Subcommand per pipeline stage so a full benchmark is a sequence of discrete,
reproducible steps: generate -> train-dl -> run -> report. All randomness
flows from --seed; endpoint secrets come only from environment variables.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import agents, detectors, evalkit, grid, promptkit, scenario
from .errors import (
    MALFORMED_DOCUMENT, AgentError, DatasetError, DetectorError, GridSigmaError,
    read_text, replacing,
)

logger = logging.getLogger(__name__)

_AGENT_CHOICES = {
    "reference": agents.REFERENCE_RULE,
    "always-normal": agents.ALWAYS_NORMAL,
    "coin-flip": agents.COIN_FLIP,
    "http": agents.HTTP_ENDPOINT,
}

_RUN_PARADIGMS = {
    "zero-shot": promptkit.ZERO_SHOT,
    "few-shot": promptkit.FEW_SHOT,
    "icl": promptkit.ICL,
}
# `render` can also print the hybrid selection prompt; `hybrid` runs it.
_PARADIGM_CHOICES = {**_RUN_PARADIGMS, "hybrid": promptkit.HYBRID_SELECT}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridsigma",
        description="Power-grid telemetry anomaly-detection benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a labeled dataset")
    p.add_argument("--samples", type=int, default=1600,
                   help="total sample count (train:val:test = 6:1:1)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--load-csv", help="ingest this CSV instead of synthesizing")
    p.add_argument("--include-voltage", action="store_true",
                   help="use the 82-sensor layout with voltage magnitudes")
    p.add_argument("--k-inject", type=int, default=3)
    p.add_argument("--magnitude", type=float, default=0.15)

    p = sub.add_parser("render", help="print one rendered prompt")
    p.add_argument("--data", required=True)
    p.add_argument("--sample", type=int, required=True, help="sample id")
    p.add_argument("--paradigm", choices=sorted(_PARADIGM_CHOICES), default="zero-shot")
    p.add_argument("--variant", choices=list(promptkit.VARIANTS), default="z_only")
    p.add_argument("--k", type=int, default=-1, help="example count override")
    p.add_argument("--m", type=int, default=8, help="selection size (hybrid)")
    p.add_argument("--example-seed", type=int, default=7)

    p = sub.add_parser("run", help="evaluate an agent on the test split")
    p.add_argument("--data", required=True)
    p.add_argument("--paradigm", choices=sorted(_RUN_PARADIGMS), default="zero-shot")
    p.add_argument("--variant", choices=list(promptkit.VARIANTS), default="z_only")
    p.add_argument("--agent", choices=sorted(_AGENT_CHOICES), default="reference")
    p.add_argument("--k", type=int, default=-1)
    p.add_argument("--seed", type=int, default=7,
                   help="example selection / coin-flip seed")
    p.add_argument("--format", choices=["text", "md", "json"], default="text")

    p = sub.add_parser("train-dl", help="train and calibrate the detector")
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--patience", type=int, default=20)

    p = sub.add_parser("hybrid", help="LLM-selected sensors gating the detector")
    p.add_argument("--data", required=True)
    p.add_argument("--agent", choices=sorted(_AGENT_CHOICES), default="reference")
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--reference-topz", action="store_true",
                   help="bypass the agent and select by |z| directly")
    p.add_argument("--format", choices=["text", "md", "json"], default="text")

    p = sub.add_parser("export-finetune", help="write the LoRA training JSONL")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--variant", choices=list(promptkit.VARIANTS), default="z_only")

    p = sub.add_parser("report", help="tables from stored run manifests")
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=["text", "md", "json"], default="text")
    p.add_argument("--out", help="also write tables under this directory")

    return parser


def _write(path: Path, text: str) -> None:
    with replacing(path) as fh:
        fh.write(text)
    print(f"wrote {path}")


def _print_report(report: evalkit.MetricsReport, label: str, fmt: str) -> None:
    print(evalkit.ablation_table([(label, report)], fmt=fmt), end="")
    if report.invalid_count:
        print(f"invalid verdicts: {report.invalid_count} "
              f"(policy: {evalkit.AS_WRONG})")


def _cmd_generate(args) -> int:
    case = grid.builtin_ieee14()
    layout = grid.default_layout(case, include_voltage=args.include_voltage)
    sizes = _sizes_for(args.samples)
    n_normal = sizes.total // 2
    if args.load_csv:
        profile = scenario.ingest_load_csv(
            read_text(Path(args.load_csv)), len(case.buses)
        )
    else:
        profile = scenario.synth_load_profile(n_normal, len(case.buses), args.seed)
    ds = scenario.build_dataset(
        case, profile, layout, sizes=sizes, seed=args.seed,
        k_inject=args.k_inject, magnitude=args.magnitude,
    )
    for path in scenario.write_dataset_dir(ds, Path(args.out)):
        print(f"wrote {path}")
    return 0


def _sizes_for(total: int) -> scenario.SplitSizes:
    if total < 8:
        raise GridSigmaError(f"--samples must be at least 8, got {total}")
    if total % 8 != 0:
        raise GridSigmaError(
            f"--samples must be a multiple of 8 (6:1:1 split, balanced labels), "
            f"got {total}"
        )
    return scenario.SplitSizes(
        train=total * 6 // 8, validation=total // 8, test=total // 8
    )


def _cmd_render(args) -> int:
    ds = scenario.load_dataset_dir(args.data)
    cfg = promptkit.PromptConfig(
        paradigm=_PARADIGM_CHOICES[args.paradigm],
        variant=args.variant,
        k_examples=args.k,
        example_seed=args.example_seed,
        m_select=args.m,
    )
    if not 0 <= args.sample < len(ds.features):
        raise DatasetError(f"no sample with id {args.sample}")
    examples = promptkit.select_examples(ds, cfg)
    bundle = next(promptkit.render_prompts(ds, [args.sample], cfg, examples))
    print(bundle.text, end="")
    return 0


def _run_config(args, prompt: promptkit.PromptConfig) -> evalkit.RunConfig:
    # --seed seeds both the examples and a coin flip; every manifest records it.
    kind = _AGENT_CHOICES[args.agent]
    endpoint = (agents.EndpointConfig.from_env() if kind == agents.HTTP_ENDPOINT
                else None)
    return evalkit.RunConfig(prompt=prompt,
                             agent=agents.AgentKind(kind, args.seed, endpoint))


def _cmd_run(args) -> int:
    data = Path(args.data)
    run = _run_config(args, promptkit.PromptConfig(
        paradigm=_RUN_PARADIGMS[args.paradigm], variant=args.variant,
        k_examples=args.k, example_seed=args.seed,
    ))
    report, manifest = evalkit.run_experiment(
        run, scenario.load_dataset_dir(data),
        cache=agents.ResponseCache(data / "cache"), out_dir=data / "manifests",
    )
    _print_report(report, evalkit.PARADIGM_LABELS[run.prompt.paradigm], args.format)
    print(f"wrote {manifest['path']}")
    return 0


def _load_model(data: Path) -> detectors.DetectorModel:
    path = data / "model.json"
    if not path.exists():
        raise GridSigmaError(f"no trained model at {path}; run train-dl first")
    return detectors.model_from_json(read_text(path, DetectorError))


def _cmd_train_dl(args) -> int:
    data = Path(args.data)
    ds = scenario.load_dataset_dir(data)
    hyper = detectors.Hyper(
        lr=args.lr, batch=args.batch, epochs=args.epochs, patience=args.patience
    )
    model = detectors.train_autoencoder(
        ds.split_features("train", scenario.NORMAL), hyper, seed=args.seed,
        val_normals=ds.split_features("validation", scenario.NORMAL), stats=ds.stats,
    )
    model = detectors.calibrate(model, ds.split_features("validation"),
                                ds.anomalous[ds.split_ids("validation")])
    _write(data / "model.json", detectors.model_to_json(model))
    report, manifest = evalkit.run_detector_experiment(
        model, ds, out_dir=data / "manifests"
    )
    _print_report(report, "Traditional DL", "text")
    print(f"wrote {manifest['path']}")
    return 0


def _cmd_hybrid(args) -> int:
    data = Path(args.data)
    run = _run_config(args, promptkit.PromptConfig(
        paradigm=promptkit.HYBRID_SELECT, example_seed=args.seed, m_select=args.m,
    ))
    model = _load_model(data)
    report, manifest = evalkit.run_hybrid_experiment(
        run, model, scenario.load_dataset_dir(data),
        cache=agents.ResponseCache(data / "cache"), out_dir=data / "manifests",
        use_reference_selector=args.reference_topz,
    )
    _print_report(report, "LLM + DL", args.format)
    print(f"wrote {manifest['path']}")
    return 0


def _cmd_export_finetune(args) -> int:
    ds = scenario.load_dataset_dir(args.data)
    cfg = promptkit.PromptConfig(variant=args.variant)
    lines = agents.export_finetune_dataset(ds, cfg)
    out = Path(args.out)
    records = 0
    with replacing(out) as fh:
        for line in lines:
            fh.write(line)
            records += 1
    print(f"wrote {out}")
    print(f"records: {records}")
    return 0


def _cmd_report(args) -> int:
    manifest_dir = Path(args.data) / "manifests"
    if not manifest_dir.is_dir():
        raise GridSigmaError(f"no manifests under {manifest_dir}; run experiments first")
    runs = []
    for path in sorted(manifest_dir.glob("*.json")):
        try:
            runs.append(evalkit.manifest_run(json.loads(read_text(path))))
        except (*MALFORMED_DOCUMENT, AgentError) as exc:
            raise DatasetError(f"{path}: {type(exc).__name__}: {exc}") from None
    output = evalkit.build_report(runs, args.format)
    print(output, end="")
    if args.out:
        ext = {"text": "txt", "md": "md", "json": "json"}[args.format]
        _write(Path(args.out) / f"report.{ext}", output)
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "render": _cmd_render,
    "run": _cmd_run,
    "train-dl": _cmd_train_dl,
    "hybrid": _cmd_hybrid,
    "export-finetune": _cmd_export_finetune,
    "report": _cmd_report,
}


def _return_freed_heap() -> None:
    """Hand the heap pages freed by a command back to the OS (glibc's
    malloc_trim; a no-op elsewhere). Without it, a process that runs several
    commands through main keeps the pages of one command's peak whenever a
    small live allocation pins the top of the heap, and the next command's
    peak lands on top of them."""
    import ctypes

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # not glibc
        return
    trim(0)


def main(argv: "list[str] | None" = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except GridSigmaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        _return_freed_heap()


if __name__ == "__main__":
    sys.exit(main())
