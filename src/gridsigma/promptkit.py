"""Prompt rendering, example selection, and agent-output parsing.

Rendering is byte-deterministic: the same (dataset, sample id, config,
example ids) always produces the same text and content hash. The
value-block table grammar defined here is also what the deterministic
reference agent parses.
"""

from __future__ import annotations

import hashlib
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import PromptError
from .grid import FeatureLayout
from .scenario import ANOMALY, NORMAL, STD_FLOOR, Dataset, FeatureStats, zscores

ZERO_SHOT = "zero_shot"
FEW_SHOT = "few_shot"
ICL = "icl"
HYBRID_SELECT = "hybrid_select"
PARADIGMS = (ZERO_SHOT, FEW_SHOT, ICL, HYBRID_SELECT)

VARIANT_VALUE = "value"
VARIANT_MEAN_STD_VALUE = "mean_std_value"
VARIANT_MEAN_STD_VALUE_Z = "mean_std_value_z"
VARIANT_Z_ONLY = "z_only"
VARIANTS = (
    VARIANT_VALUE,
    VARIANT_MEAN_STD_VALUE,
    VARIANT_MEAN_STD_VALUE_Z,
    VARIANT_Z_ONLY,
)

_VARIANT_COLUMNS = {
    VARIANT_VALUE: ("value",),
    VARIANT_MEAN_STD_VALUE: ("value", "mean", "std"),
    VARIANT_MEAN_STD_VALUE_Z: ("value", "mean", "std", "|z|"),
    VARIANT_Z_ONLY: ("|z|",),
}

_VARIANT_DESCRIPTION = {
    VARIANT_VALUE: "the current value",
    VARIANT_MEAN_STD_VALUE: "value, mean, and std",
    VARIANT_MEAN_STD_VALUE_Z: "value, mean, std, and absolute z-score",
    VARIANT_Z_ONLY: "the absolute z-score",
}

_GROUP_TITLES = {
    "p_inj": ("P", "active power injections"),
    "q_inj": ("Q", "reactive power injections"),
    "p_flow": ("Pf", "active line flows"),
    "q_flow": ("Qf", "reactive line flows"),
    "v_mag": ("V", "voltage magnitudes"),
}

_DEFAULT_K = {ZERO_SHOT: 0, FEW_SHOT: 2, ICL: 10, HYBRID_SELECT: 0}

THRESHOLD = 3.0  # the 3-sigma rule: anomaly iff some |z| >= THRESHOLD
SELECTION_DECIMALS = 6  # so table rounding cannot reorder the |z| ranking


@dataclass(frozen=True)
class PromptConfig:
    paradigm: str = ZERO_SHOT
    variant: str = VARIANT_Z_ONLY
    k_examples: int = -1  # -1 resolves to the paradigm default
    example_seed: int = 7
    m_select: int = 8  # sensors requested by hybrid selection prompts

    def __post_init__(self):
        if self.paradigm not in PARADIGMS:
            raise PromptError(f"unknown paradigm {self.paradigm!r}")
        if self.variant not in VARIANTS:
            raise PromptError(f"unknown variant {self.variant!r}")
        if self.paradigm == HYBRID_SELECT and self.variant != VARIANT_Z_ONLY:
            raise PromptError(
                f"hybrid_select requires variant z_only, got {self.variant!r}"
            )
        if self.k_examples == -1:
            object.__setattr__(self, "k_examples", _DEFAULT_K[self.paradigm])
        k = self.k_examples
        if self.paradigm in (ZERO_SHOT, HYBRID_SELECT) and k != 0:
            raise PromptError(f"{self.paradigm} requires k_examples = 0, got {k}")
        if self.paradigm == FEW_SHOT and k != 2:
            raise PromptError(f"few_shot requires k_examples = 2, got {k}")
        if self.paradigm == ICL and k not in (10, 5):
            raise PromptError(f"icl requires k_examples in (10, 5), got {k}")
        if self.m_select < 1:
            raise PromptError(f"m_select must be >= 1, got {self.m_select}")

    @property
    def decimals(self) -> int:
        """Value-block decimals: SELECTION_DECIMALS for hybrid selection
        prompts, 4 for every other paradigm."""
        return SELECTION_DECIMALS if self.paradigm == HYBRID_SELECT else 4


@dataclass(frozen=True)
class PromptBundle:
    text: str
    config: PromptConfig
    content_hash: str


INVALID = "invalid"
STRICT = "strict"
LENIENT = "lenient"
FAILED = "failed"


@dataclass(frozen=True)
class AgentVerdict:
    label: str  # normal | anomaly | invalid
    rationale: str
    raw: str
    parse_mode: str  # strict | lenient | failed


# --------------------------------------------------------------------------
# Value block


def render_value_block(
    values: np.ndarray,
    stats: FeatureStats,
    layout: FeatureLayout,
    variant: str,
    decimals: int = 4,
) -> str:
    """Plain-text sensor table of one feature row, grouped by sensor kind,
    columns per variant.

    Each column is formatted in one pass; each row is one %-format that pads
    the sensor name and every cell to its column's width.
    """
    if variant not in _VARIANT_COLUMNS:
        raise PromptError(f"unknown variant {variant!r}")
    if len(stats.mean) != len(layout) or len(values) != len(layout):
        raise PromptError("sample/stats length does not match layout")
    columns = _VARIANT_COLUMNS[variant]
    cell_sources = {"value": values, "mean": stats.mean}
    if "std" in columns:
        cell_sources["std"] = np.maximum(stats.std, STD_FLOOR)
    if "|z|" in columns:
        cell_sources["|z|"] = np.abs(zscores(values, stats))

    cell_format = f"%.{decimals}f"
    col_cells = [
        [cell_format % v for v in np.asarray(cell_sources[c]).tolist()]
        for c in columns
    ]
    names = layout.names()
    row_format = f"%-{max(len('sensor'), max(map(len, names)))}s" + "".join(
        f"  %{max(len(c), max(map(len, cells)))}s"
        for c, cells in zip(columns, col_cells)
    )
    header = row_format % ("sensor", *columns)
    rows = [row_format % row for row in zip(names, *col_cells)]

    lines: list[str] = []
    for i, entry in enumerate(layout.entries):
        if i == 0 or entry.kind != layout.entries[i - 1].kind:
            if i > 0:
                lines.append("")
            tag, title = _GROUP_TITLES[entry.kind]
            lines.append(f"[{tag}] {title}")
            lines.append(header)
        lines.append(rows[i])
    return "\n".join(lines)


@dataclass(frozen=True)
class ValueBlockTable:
    columns: tuple[str, ...]
    names: tuple[str, ...]
    cells: dict  # column -> tuple[float, ...]


def parse_value_block(text: str) -> ValueBlockTable:
    """Parse a rendered value block back into named sensor rows.

    Grammar: group header lines start with '[', the column header line
    starts with 'sensor', data rows are whitespace-separated (name then one
    float per column). Raises PromptError on anything else.
    """
    columns: tuple[str, ...] | None = None
    names: list[str] = []
    cells: list[list[float]] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("["):
            continue
        tokens = stripped.split()
        if tokens[0] == "sensor":
            cols = tuple(tokens[1:])
            if columns is None:
                columns = cols
            elif cols != columns:
                raise PromptError("inconsistent column headers across groups")
            continue
        if columns is None:
            raise PromptError(f"data row before any column header: {stripped!r}")
        if len(tokens) != 1 + len(columns):
            raise PromptError(f"malformed table row: {stripped!r}")
        try:
            values = [float(t) for t in tokens[1:]]
        except ValueError:
            raise PromptError(f"non-numeric cell in row: {stripped!r}") from None
        names.append(tokens[0])
        cells.append(values)
    if columns is None or not names:
        raise PromptError("no table found in value block")
    by_col = {
        c: tuple(row[j] for row in cells) for j, c in enumerate(columns)
    }
    return ValueBlockTable(columns=columns, names=tuple(names), cells=by_col)


# --------------------------------------------------------------------------
# Prompt assembly

_ROLE_CLASSIFY = (
    "**Role Instruction**: You are a power system analyst. Your task is to "
    "determine whether the following sample indicates an anomaly."
)
_ROLE_SELECT = (
    "**Role Instruction**: You are a power system analyst. Your task is to "
    "identify the sensors most likely to be compromised in the following sample."
)

VALUE_BLOCK_HEADING = "**Value Block**:"
OUTPUT_FORMAT_HEADING = "**Output Format**:"


def _system_context(n_features: int) -> str:
    return (
        "**System Context**: The dataset includes real/reactive power "
        "injections (P_i, Q_i), line power flows (P_ij, Q_ij), and bus "
        f"voltage magnitudes (V), with {n_features} features per sample."
    )


def _anomaly_rule(n_features: int, variant: str) -> str:
    return "\n".join(
        [
            "**Anomaly Rule**: 3-sigma",
            f"- You will receive {n_features} sensor values.",
            "- If the mean, std, or z-score is not provided, you must infer "
            "them from the available values before making a decision.",
            "- Decision procedure:",
            "  - For each measurement i, compute z-score = (value - mean) / "
            f"std, where std := max(std, {STD_FLOOR:g}).",
            f'  - Label as "anomaly" if at least one measurement satisfies '
            f'|z| >= {THRESHOLD}; otherwise, label as "normal".',
            f"  - The Value Block below lists {_VARIANT_DESCRIPTION[variant]} "
            "for each measurement, grouped by sensor category.",
        ]
    )


_OUTPUT_FORMAT_CLASSIFY = "\n".join(
    [
        "**Output Format**: (must be exactly two lines):",
        "1) Label: normal OR anomaly (1 word only)",
        "2) Brief explanation for the classification",
        "**Answer**:",
    ]
)


def _output_format_select(m: int) -> str:
    return "\n".join(
        [
            f"**Output Format**: (must be at most {m} lines): list the names "
            f"of up to {m} suspicious sensors, one sensor name per line, most "
            "suspicious first.",
            "**Answer**:",
        ]
    )


def render_prompts(
    dataset: Dataset,
    ids: Iterable[int],
    config: PromptConfig,
    examples: Sequence[int] = (),
) -> Iterator[PromptBundle]:
    """Assemble one prompt per sample id in fixed block order, lazily.

    Features, stats, layout and example labels come from the dataset. The
    arguments are checked and the blocks every prompt shares (role,
    context, rule, examples and the Value Block heading) rendered at the
    call; the returned iterator pulls each id and renders its value block
    and the output format as it is pulled, so a caller holds only the
    prompts it keeps.
    """
    if len(examples) != config.k_examples:
        raise PromptError(
            f"{config.paradigm} expects {config.k_examples} examples, "
            f"got {len(examples)}"
        )
    stats, layout = dataset.stats, dataset.layout
    n = len(layout)
    parts = [
        _ROLE_SELECT if config.paradigm == HYBRID_SELECT else _ROLE_CLASSIFY,
        _system_context(n),
        _anomaly_rule(n, config.variant),
    ]
    if examples:
        shown = ["**Examples**:"]
        for num, ex in enumerate(examples, start=1):
            shown.append(f"Example {num}:")
            shown.append(render_value_block(
                dataset.features[ex], stats, layout, config.variant, config.decimals
            ))
            shown.append(f"Label: {ANOMALY if dataset.anomalous[ex] else NORMAL}")
            shown.append("")
        parts.append("\n".join(shown).rstrip())
    parts.append(VALUE_BLOCK_HEADING)
    prefix = "\n".join(parts) + "\n"
    if config.paradigm == HYBRID_SELECT:
        suffix = "\n" + _output_format_select(config.m_select) + "\n"
    else:
        suffix = "\n" + _OUTPUT_FORMAT_CLASSIFY + "\n"
    # Each content hash continues a copy of the prefix's sha256: the prefix
    # is hashed once, and no encoded copy of a whole prompt is made.
    prefix_digest = hashlib.sha256(prefix.encode("utf-8"))
    suffix_bytes = suffix.encode("utf-8")

    def bundles() -> Iterator[PromptBundle]:
        for i in ids:
            block = render_value_block(
                dataset.features[i], stats, layout, config.variant, config.decimals
            )
            digest = prefix_digest.copy()
            digest.update(block.encode("utf-8"))
            digest.update(suffix_bytes)
            yield PromptBundle(text=prefix + block + suffix, config=config,
                               content_hash=digest.hexdigest())

    return bundles()


def target_value_block(prompt_text: str) -> str:
    """Extract the target value block (after the last Value Block heading)."""
    start = prompt_text.rfind(VALUE_BLOCK_HEADING)
    if start == -1:
        raise PromptError("prompt has no Value Block heading")
    start += len(VALUE_BLOCK_HEADING)
    end = prompt_text.find(OUTPUT_FORMAT_HEADING, start)
    if end == -1:
        raise PromptError("prompt has no Output Format heading")
    return prompt_text[start:end]


# --------------------------------------------------------------------------
# Example selection


def select_examples(dataset: Dataset, config: PromptConfig) -> tuple[int, ...]:
    """Pick labeled exemplar ids from the train split, deterministically.

    Few-shot: one normal and one anomalous. ICL: k/2 normal plus anomalous
    cases stratified across max-|z| quartiles so anomaly strengths vary.
    Returned interleaved (normal, anomaly, ...).
    """
    k = config.k_examples
    if k == 0:
        return ()
    normals = dataset.split_ids("train", NORMAL)
    anomalies = dataset.split_ids("train", ANOMALY)
    n_normal = k // 2
    n_anomalous = k - n_normal
    for ids, need, kind in ((normals, n_normal, "normal"),
                            (anomalies, n_anomalous, "anomalous")):
        if len(ids) < need:
            raise PromptError(f"train split has {len(ids)} {kind} samples, need {need}")
    rng = np.random.default_rng(np.random.SeedSequence([config.example_seed, 4]))
    chosen = rng.choice(len(normals), size=n_normal, replace=False)
    picked_normal = normals[chosen].tolist()

    # Rank anomalies by max |z| at the prompt's decimals, ties by id, and
    # spread picks across four strength bins. Rounded, a near tie that the
    # BLAS kernel can reorder (|z| moves by ~1e-12) is a tie the id breaks.
    strength = np.abs(zscores(dataset.features[anomalies], dataset.stats)).max(axis=1)
    strength = strength.round(config.decimals)
    bins = np.array_split(np.lexsort((anomalies, strength)), 4)
    per_bin = [n_anomalous // 4 + (i < n_anomalous % 4) for i in range(4)]
    picked_anomalous: list[int] = []
    for b, want in zip(bins, per_bin):
        if want == 0:
            continue
        if len(b) < want:
            raise PromptError("not enough anomalous samples to stratify")
        chosen = rng.choice(len(b), size=want, replace=False)
        picked_anomalous.extend(anomalies[b[np.sort(chosen)]].tolist())

    out: list[int] = []
    for i in range(max(n_normal, n_anomalous)):
        out += picked_normal[i : i + 1] + picked_anomalous[i : i + 1]
    return tuple(out)


# --------------------------------------------------------------------------
# Verdict parsing

_LABEL_LINE = re.compile(
    r"^(?:1\))?\s*(?:label\s*:)?\s*(normal|anomaly)\s*[.!]?$", re.IGNORECASE
)
_NORMAL_TOKEN = re.compile(r"\bnormal\b", re.IGNORECASE)
_ANOMALY_TOKEN = re.compile(r"\banomaly\b", re.IGNORECASE)


def parse_verdict(raw: str) -> AgentVerdict:
    """Parse agent output against the two-line schema.

    Strict: exactly two non-empty lines, line 1 (after an optional
    "Label:" / "1)" prefix, case-insensitive) is "normal" or "anomaly".
    Lenient fallback: the first line containing exactly one of the two
    tokens decides. Anything else is an invalid verdict.
    """
    lines = [line.strip() for line in raw.splitlines() if line.strip()]
    if len(lines) == 2:
        match = _LABEL_LINE.match(lines[0])
        if match:
            return AgentVerdict(
                label=match.group(1).lower(),
                rationale=lines[1],
                raw=raw,
                parse_mode=STRICT,
            )
    for i, line in enumerate(lines):
        has_normal = bool(_NORMAL_TOKEN.search(line))
        has_anomaly = bool(_ANOMALY_TOKEN.search(line))
        if has_normal != has_anomaly:
            rationale = " ".join(lines[i + 1 :])
            return AgentVerdict(
                label=NORMAL if has_normal else ANOMALY,
                rationale=rationale,
                raw=raw,
                parse_mode=LENIENT,
            )
    return AgentVerdict(label=INVALID, rationale="", raw=raw, parse_mode=FAILED)


def parse_selection(raw: str, layout: FeatureLayout, m: int) -> tuple[int, ...]:
    """Sensor indices named one per line in a selection reply, in reply order.

    Each line is stripped; lines that name no sensor of the layout, and
    repeats, are dropped. Parsing stops at m sensors.
    """
    ranked: list[int] = []
    for line in raw.splitlines():
        idx = layout.index_of(line.strip())
        if idx is None or idx in ranked:
            continue
        ranked.append(idx)
        if len(ranked) == m:
            break
    return tuple(ranked)
