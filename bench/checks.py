"""Correctness checks on a pass's artifacts, run outside the timed region.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

MIN_DETECTOR_F1 = 0.80


def artifact_digests(data: Path) -> dict[str, str]:
    """sha256 of every file under the pass's data directory, by relative path."""
    return {
        path.relative_to(data).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(data.rglob("*")) if path.is_file()
    }


def summarize_digests(digests: dict[str, str]) -> dict[str, str]:
    """Per-file digests, with the content-addressed cache folded into one."""
    out = {k: v for k, v in digests.items() if not k.startswith("cache/")}
    cache = sorted((k, v) for k, v in digests.items() if k.startswith("cache/"))
    if cache:
        joined = "".join(f"{k}\0{v}\n" for k, v in cache).encode("utf-8")
        out[f"cache/ ({len(cache)} files)"] = hashlib.sha256(joined).hexdigest()
    return out


def compare_digests(first: dict[str, str], now: dict[str, str], what: str) -> list[str]:
    problems = [f"{what}: {k} missing" for k in sorted(first.keys() - now.keys())]
    problems += [f"{what}: unexpected {k}" for k in sorted(now.keys() - first.keys())]
    problems += [f"{what}: {k} differs" for k in sorted(first.keys() & now.keys())
                 if first[k] != now[k]]
    return problems


def load_manifest(data: Path, name: str) -> dict:
    return json.loads((data / "manifests" / name).read_text(encoding="utf-8"))


def operations(doc: dict, completions: bool) -> tuple[int, int]:
    """(attempted, failed) agent completions recorded in a manifest.

    A completion fails when its verdict is invalid (parse mode `failed`) or
    when a hybrid selection fell back to scoring every sensor.
    """
    if not completions:
        return 0, 0
    failed = sum(
        1 for s in doc["samples"]
        if s.get("label") == "invalid" or s.get("parse_mode") == "failed"
        or s.get("selection_source") == "full"
    )
    return len(doc["samples"]), failed


def rule_problems(doc: dict, expected: dict[int, str], what: str) -> list[str]:
    """Every verdict equals the three-sigma rule applied to the raw features."""
    if not doc["samples"]:
        return [f"{what}: no samples"]
    wrong = [s["id"] for s in doc["samples"] if s["label"] != expected[s["id"]]]
    if wrong:
        return [f"{what}: {len(wrong)} verdicts differ from the rule, e.g. id {wrong[0]}"]
    return []


def detector_problems(doc: dict) -> list[str]:
    f1 = doc["metrics"]["as_wrong"]["f1"]
    if f1 is None or f1 < MIN_DETECTOR_F1:
        return [f"detector test F1 {f1} below {MIN_DETECTOR_F1}"]
    return []
