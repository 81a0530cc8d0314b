"""Three-sigma decision rule and the deterministic reference agent.

The rule is the ground-truth-style detector; the reference agent re-derives
the same decision purely from rendered prompt text, which bounds how well a
perfectly rule-following language model could do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PromptError
from . import promptkit
from .promptkit import (
    FAILED,
    HYBRID_SELECT,
    INVALID,
    STRICT,
    AgentVerdict,
    PromptBundle,
)
from .scenario import ANOMALY, NORMAL, STD_FLOOR

DEFAULT_THRESHOLD = 3.0


@dataclass(frozen=True)
class RuleVerdict:
    label: str  # normal | anomaly
    violating: frozenset[int]
    max_abs_z: float


def three_sigma_label(z, threshold: float = DEFAULT_THRESHOLD) -> RuleVerdict:
    """Anomaly iff any |z[i]| >= threshold (inclusive); lists all violators.

    A NaN z has no verdict: it raises ValueError, as an empty vector does.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    z = np.asarray(z, dtype=float)
    if z.size == 0:
        raise ValueError("empty z vector")
    nan_at = np.flatnonzero(np.isnan(z))
    if nan_at.size:
        raise ValueError(f"NaN z at index {nan_at[0]}")
    abs_z = np.abs(z)
    violating = frozenset(int(i) for i in np.nonzero(abs_z >= threshold)[0])
    return RuleVerdict(
        label=ANOMALY if violating else NORMAL,
        violating=violating,
        max_abs_z=float(abs_z.max()),
    )


def top_abs_z(abs_z, m: int) -> list[int]:
    """Indices of the m largest |z|, descending; ties break toward lower index."""
    return sorted(range(len(abs_z)), key=lambda i: (-abs_z[i], i))[:m]


def _abs_z_from_table(table: promptkit.ValueBlockTable) -> np.ndarray:
    """Recover |z| per sensor, inferring mean/std from values when absent."""
    cols = set(table.columns)
    if "|z|" in cols:
        return np.abs(np.asarray(table.cells["|z|"], dtype=float))
    values = np.asarray(table.cells["value"], dtype=float)
    if "mean" in cols and "std" in cols:
        mean = np.asarray(table.cells["mean"], dtype=float)
        std = np.asarray(table.cells["std"], dtype=float)
    else:
        # The prompt instructs inferring the statistics from the values given.
        mean = np.full(len(values), values.mean())
        std = np.full(len(values), values.std())
    return np.abs((values - mean) / np.maximum(std, STD_FLOOR))


def rationale_for(
    verdict: RuleVerdict,
    names: list[str],
    abs_z,
    threshold: float = DEFAULT_THRESHOLD,
) -> str:
    """One-line explanation naming the first violating sensor (or none)."""
    thr = promptkit.format_threshold(threshold)
    if verdict.label == ANOMALY:
        first = min(verdict.violating)
        return f"sensor {names[first]} |z|={abs_z[first]:.4f} exceeds {thr}"
    return f"all measurements lie within {thr} standard deviations"


def _invalid(problem: str, detail: str) -> AgentVerdict:
    return AgentVerdict(
        label=INVALID,
        rationale=f"{problem}: {detail}",
        raw=f"ERROR: {problem}",
        parse_mode=FAILED,
    )


def reference_agent(prompt: PromptBundle) -> AgentVerdict:
    """Execute the prompt's stated decision procedure on its own value block.

    Classification prompts yield the two-line schema; hybrid selection
    prompts yield one suspicious sensor name per line, ranked by |z|.
    An unparseable value block, or one whose |z| is NaN for some sensor,
    yields an invalid verdict with a diagnostic.
    """
    try:
        table = promptkit.parse_value_block(promptkit.target_value_block(prompt.text))
        abs_z = _abs_z_from_table(table)
    except PromptError as exc:
        return _invalid("value block could not be parsed", str(exc))
    unknown = np.flatnonzero(np.isnan(abs_z))
    if unknown.size:
        return _invalid("value block has a NaN |z|", f"sensor {table.names[unknown[0]]}")
    if prompt.config.paradigm == HYBRID_SELECT:
        top = top_abs_z(abs_z, prompt.config.m_select)
        raw = "\n".join(table.names[i] for i in top)
        return AgentVerdict(
            label=NORMAL, rationale="selection reply", raw=raw, parse_mode=STRICT
        )
    verdict = three_sigma_label(abs_z, prompt.config.threshold)
    rationale = rationale_for(verdict, list(table.names), abs_z, prompt.config.threshold)
    return AgentVerdict(
        label=verdict.label,
        rationale=rationale,
        raw=f"{verdict.label}\n{rationale}",
        parse_mode=STRICT,
    )
