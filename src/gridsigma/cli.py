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
from .errors import GridSigmaError

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

    p = sub.add_parser("stats", help="recompute train-split statistics")
    p.add_argument("--data", required=True)

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
    p.add_argument("--invalid-policy", choices=list(evalkit.INVALID_POLICIES),
                   default=evalkit.AS_WRONG)
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
    p.add_argument("--invalid-policy", choices=list(evalkit.INVALID_POLICIES),
                   default=evalkit.AS_WRONG)
    p.add_argument("--format", choices=["text", "md", "json"], default="text")

    p = sub.add_parser("export-finetune", help="write the LoRA training JSONL")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--variant", choices=list(promptkit.VARIANTS), default="z_only")

    p = sub.add_parser("report", help="tables from stored run manifests")
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=["text", "md", "json"], default="text")
    p.add_argument("--out", help="also write tables under this directory")

    p = sub.add_parser("export-case", help="write the embedded IEEE 14-bus case")
    p.add_argument("--out", help="file path (stdout when omitted)")

    return parser


_WRITE_SLICE = 1 << 20  # characters per write, so no encoded copy of all of it


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for start in range(0, len(text), _WRITE_SLICE):
            fh.write(text[start : start + _WRITE_SLICE])
    print(f"wrote {path}")


def _print_report(report: evalkit.MetricsReport, label: str, fmt: str) -> None:
    print(evalkit.ablation_table([(label, report)], fmt=fmt), end="")
    if report.invalid_count:
        print(f"invalid verdicts: {report.invalid_count} "
              f"(policy: {report.invalid_policy})")


def _endpoint_for(agent_name: str) -> "agents.EndpointConfig | None":
    if agent_name != "http":
        return None
    return agents.EndpointConfig.from_env()


def _cmd_generate(args) -> int:
    case = grid.builtin_ieee14()
    layout = grid.default_layout(case, include_voltage=args.include_voltage)
    sizes = _sizes_for(args.samples)
    n_normal = sizes.total // 2
    if args.load_csv:
        profile = scenario.ingest_load_csv(
            Path(args.load_csv).read_text(encoding="utf-8"), len(case.buses)
        )
    else:
        profile = scenario.synth_load_profile(n_normal, len(case.buses), args.seed)
    ds = scenario.build_dataset(
        case, profile, layout, sizes=sizes, seed=args.seed,
        k_inject=args.k_inject, magnitude=args.magnitude,
    )
    blocks = scenario.dataset_blocks(ds)  # refuses a bad dataset before any write
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    jsonl_path, csv_path = out / "dataset.jsonl", out / "features.csv"
    with (jsonl_path.open("w", encoding="utf-8") as jsonl_file,
          csv_path.open("w", encoding="utf-8") as csv_file):
        for jsonl_block, csv_block in blocks:
            jsonl_file.write(jsonl_block)
            csv_file.write(csv_block)
    print(f"wrote {jsonl_path}")
    _write(out / "stats.json", scenario.stats_to_json(ds.stats))
    _write(out / "meta.json", scenario.meta_to_json(ds))
    print(f"wrote {csv_path}")
    return 0


def _sizes_for(total: int) -> scenario.SplitSizes:
    if total % 8 != 0:
        raise GridSigmaError(
            f"--samples must be a multiple of 8 (6:1:1 split, balanced labels), "
            f"got {total}"
        )
    return scenario.SplitSizes(
        train=total * 6 // 8, validation=total // 8, test=total // 8
    )


def _cmd_stats(args) -> int:
    stats = evalkit.load_dataset_dir(args.data, recompute_stats=True).stats
    _write(Path(args.data) / "stats.json", scenario.stats_to_json(stats))
    print(f"train samples: {stats.n}; features: {len(stats.mean)}")
    return 0


def _cmd_render(args) -> int:
    ds = evalkit.load_dataset_dir(args.data)
    cfg = promptkit.PromptConfig(
        paradigm=_PARADIGM_CHOICES[args.paradigm],
        variant=args.variant,
        k_examples=args.k,
        example_seed=args.example_seed,
        m_select=args.m,
    )
    sample = ds.by_id(args.sample)
    examples = promptkit.select_examples(ds.split_samples("train"), cfg, ds.stats)
    bundle = promptkit.render_prompt(sample, ds.stats, cfg, examples, ds.layout)
    print(bundle.text, end="")
    return 0


def _cmd_run(args) -> int:
    data = Path(args.data)
    run = evalkit.RunConfig(
        paradigm=_RUN_PARADIGMS[args.paradigm],
        variant=args.variant,
        agent=_AGENT_CHOICES[args.agent],
        data_dir=str(data),
        example_seed=args.seed,
        coin_seed=args.seed,
        invalid_policy=args.invalid_policy,
        k_examples=args.k,
        endpoint=_endpoint_for(args.agent),
    )
    report, manifest = evalkit.run_experiment(
        run, cache=agents.ResponseCache(data / "cache"), out_dir=data / "manifests"
    )
    _print_report(report, evalkit.PARADIGM_LABELS[run.paradigm], args.format)
    print(f"wrote {manifest['path']}")
    return 0


def _load_model(data: Path) -> detectors.DetectorModel:
    path = data / "model.json"
    if not path.exists():
        raise GridSigmaError(f"no trained model at {path}; run train-dl first")
    return detectors.model_from_json(path.read_text(encoding="utf-8"))


def _cmd_train_dl(args) -> int:
    data = Path(args.data)
    ds = evalkit.load_dataset_dir(data)
    train_normals = [
        s for s in ds.split_samples("train") if s.label == scenario.NORMAL
    ]
    val_normals = [
        s for s in ds.split_samples("validation") if s.label == scenario.NORMAL
    ]
    hyper = detectors.Hyper(
        lr=args.lr, batch=args.batch, epochs=args.epochs, patience=args.patience
    )
    dims = (len(ds.layout), 32, 8, 32, len(ds.layout))
    model = detectors.train_autoencoder(
        train_normals, hyper, seed=args.seed, val_normals=val_normals,
        layer_dims=dims, stats=ds.stats,
    )
    model = detectors.calibrate(model, ds.split_samples("validation"))
    _write(data / "model.json", detectors.model_to_json(model))
    report, manifest = evalkit.run_detector_experiment(
        model, ds, out_dir=data / "manifests"
    )
    _print_report(report, "Traditional DL", "text")
    print(f"wrote {manifest['path']}")
    return 0


def _cmd_hybrid(args) -> int:
    data = Path(args.data)
    run = evalkit.RunConfig(
        paradigm=promptkit.HYBRID_SELECT,
        variant=promptkit.VARIANT_Z_ONLY,
        agent=_AGENT_CHOICES[args.agent],
        data_dir=str(data),
        example_seed=args.seed,
        coin_seed=args.seed,
        invalid_policy=args.invalid_policy,
        m_select=args.m,
        endpoint=_endpoint_for(args.agent),
    )
    model = _load_model(data)
    cache = agents.ResponseCache(data / "cache")
    report, manifest = evalkit.run_hybrid_experiment(
        run, model, cache=cache, out_dir=data / "manifests",
        use_reference_selector=args.reference_topz,
    )
    _print_report(report, "LLM + DL", args.format)
    print(f"wrote {manifest['path']}")
    return 0


def _cmd_export_finetune(args) -> int:
    ds = evalkit.load_dataset_dir(args.data)
    cfg = promptkit.PromptConfig(variant=args.variant)
    text = agents.export_finetune_from_dataset(ds, cfg)
    _write(Path(args.out), text)
    print(f"records: {text.count(chr(10))}")
    return 0


def _cmd_report(args) -> int:
    data = Path(args.data)
    manifest_dir = data / "manifests"
    if not manifest_dir.is_dir():
        raise GridSigmaError(f"no manifests under {manifest_dir}; run experiments first")
    docs = {}
    for path in sorted(manifest_dir.glob("*.json")):
        docs[path.stem] = json.loads(path.read_text(encoding="utf-8"))

    sections: list[tuple[str, str]] = []

    zero_shot = [
        (evalkit.VARIANT_LABELS[d["config"]["variant"]], evalkit.report_from_manifest(d))
        for name, d in docs.items()
        if d.get("config", {}).get("paradigm") == promptkit.ZERO_SHOT
        and "variant" in d["config"]
    ]
    if zero_shot:
        sections.append(
            ("Zero-shot ablation", evalkit.ablation_table(zero_shot, fmt=args.format))
        )

    paradigm_rows = []
    for name, d in docs.items():
        cfg = d.get("config", {})
        paradigm = cfg.get("paradigm")
        if paradigm in (promptkit.FEW_SHOT, promptkit.ICL, promptkit.HYBRID_SELECT):
            paradigm_rows.append(
                (evalkit.PARADIGM_LABELS[paradigm], evalkit.report_from_manifest(d))
            )
    zs_best = [r for label, r in zero_shot if label == "Z_score"]
    if zs_best:
        paradigm_rows.append(("Zero-shot", zs_best[0]))
    if paradigm_rows:
        seen = set()
        unique_rows = []
        for label, rep in paradigm_rows:
            if label not in seen:
                seen.add(label)
                unique_rows.append((label, rep))
        sections.append(
            ("Prompting paradigms",
             evalkit.ablation_table(unique_rows, fmt=args.format))
        )

    dl = docs.get("dl_detector")
    hybrid = next(
        (d for name, d in docs.items() if name.startswith("hybrid_")), None
    )
    if dl and hybrid:
        rows = [
            ("Traditional DL", evalkit.report_from_manifest(dl)),
            ("LLM + DL", evalkit.report_from_manifest(hybrid)),
        ]
        sections.append(
            ("Traditional vs hybrid",
             evalkit.ablation_table(rows, fmt=args.format, with_lift=True))
        )

    if not sections:
        raise GridSigmaError("no reportable manifests found")
    chunks = []
    for title, table in sections:
        chunks.append(f"## {title}\n{table}" if args.format != "json" else table)
    output = "\n".join(chunks)
    print(output, end="" if output.endswith("\n") else "\n")
    if args.out:
        ext = {"text": "txt", "md": "md", "json": "json"}[args.format]
        _write(Path(args.out) / f"report.{ext}", output)
    return 0


def _cmd_export_case(args) -> int:
    text = grid.serialize_case(grid.builtin_ieee14())
    if args.out:
        _write(Path(args.out), text)
    else:
        print(text, end="")
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "render": _cmd_render,
    "run": _cmd_run,
    "train-dl": _cmd_train_dl,
    "hybrid": _cmd_hybrid,
    "export-finetune": _cmd_export_finetune,
    "report": _cmd_report,
    "export-case": _cmd_export_case,
}


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


if __name__ == "__main__":
    sys.exit(main())
