"""The benchmark's workloads: CLI command sequences run through cli.main.

Each workload is a closed loop with one caller in one process: the next
command starts when the previous one returns. Every pass starts from a
fresh data directory and an empty response cache, and uses the mock
agents only.

A third workload, prompt-sweep (the prompting ablation run against an
empty and then a warm response cache), was dropped: on the 2-vCPU host the
benchmark was defined on, its ten-seed spread of wall time reached 0.30 of
the median, above the largest bound a metric may have (0.25).

Placeholders in a step's argv: ``{data}`` (the pass's data directory),
``{seed}`` (the workload seed) and ``{samples}`` (the workload's sample
count, after ``--scale``).
"""

from __future__ import annotations

from dataclasses import dataclass

# Per-pass stage totals reported for each workload. `report` runs in
# paper-pipeline but has no stage metric of its own (it takes milliseconds).
STAGES = ("generate", "train_dl", "run", "hybrid", "export_finetune")


@dataclass(frozen=True)
class Step:
    stage: str
    argv: tuple[str, ...]
    # Manifest the command writes, relative to {data}/manifests.
    manifest: str | None = None
    # Each manifest sample is one agent completion (an operation).
    completions: bool = False
    # Verdicts must equal three_sigma_label(zscores(features, stats)).
    rule_checked: bool = False

    def expand(self, data: str, seed: int, samples: int) -> list[str]:
        return [a.format(data=data, seed=seed, samples=samples) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    samples: int
    steps: tuple[Step, ...]


def _run(paradigm: str, variant: str, agent: str, manifest: str, seed: int | None = None,
         rule_checked: bool = False) -> Step:
    argv = ("run", "--data", "{data}", "--paradigm", paradigm,
            "--variant", variant, "--agent", agent)
    if seed is not None:
        argv += ("--seed", str(seed))
    return Step("run", argv, manifest=manifest, completions=True,
                rule_checked=rule_checked)


_GENERATE = Step("generate", ("generate", "--samples", "{samples}",
                              "--seed", "{seed}", "--out", "{data}"))


def _train_dl(epochs: int) -> Step:
    # patience = epochs turns early stopping off, so every seed trains the
    # same number of epochs; with the default patience the epoch count, and
    # so the stage's work, changes with the seed (8-14 s at 16,000 samples).
    # At seed 42 these are the epochs the defaults run, and the same model.
    return Step("train_dl", ("train-dl", "--data", "{data}", "--seed", "{seed}",
                             "--epochs", str(epochs), "--patience", str(epochs)),
                manifest="dl_detector.json")


PAPER_PIPELINE = Workload(
    name="paper-pipeline",
    why="The README walkthrough at the paper's 1,600 samples: every layer works "
        "and none dominates, so it shows how much of a layer's gain survives.",
    samples=1600,
    steps=(
        _GENERATE,
        _train_dl(200),
        _run("zero-shot", "z_only", "reference",
             "zero_shot_z_only_reference_rule.json", rule_checked=True),
        _run("few-shot", "z_only", "coin-flip",
             "few_shot_z_only_coin_flip7.json", seed=7),
        _run("icl", "mean_std_value_z", "reference",
             "icl_mean_std_value_z_reference_rule.json", rule_checked=True),
        Step("hybrid", ("hybrid", "--data", "{data}", "--reference-topz"),
             manifest="hybrid_reference_topz.json"),
        Step("hybrid", ("hybrid", "--data", "{data}", "--agent", "reference"),
             manifest="hybrid_reference_rule.json", completions=True),
        Step("export_finetune", ("export-finetune", "--data", "{data}",
                                 "--out", "{data}/finetune.jsonl")),
        Step("report", ("report", "--data", "{data}")),
    ),
)

BUILD_16K = Workload(
    name="build-16k",
    why="10x the paper's scale: grid solves, dataset output and detector "
        "training do the work; promptkit, ruleoracle and agents do none.",
    samples=16000,
    steps=(_GENERATE, _train_dl(144)),
)

WORKLOADS = {w.name: w for w in (PAPER_PIPELINE, BUILD_16K)}


def scaled_samples(workload: Workload, scale: float) -> int:
    """Sample count after ``scale``: a multiple of 8, at least 400 so that
    ``train-dl`` has its 100 normal training samples."""
    return max(400, 8 * round(workload.samples * scale / 8))
