"""Writers for the tests.

Straightforward reference versions of the dataset writers and the value
block renderer: one json.dumps per sample dict, csv.writer with one float()
per cell, and per-cell f-strings padded with ljust/rjust. The package's
templated versions must produce the same bytes.

Writers of the case-text and load-CSV formats, which the package only
reads: the tests write a case or a profile and check that the package reads
back exactly what was written.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from gridsigma.grid import PQ, PV, SLACK, GridCase
from gridsigma.scenario import STD_FLOOR, zscores

_COLUMNS = {
    "value": ("value",),
    "mean_std_value": ("value", "mean", "std"),
    "mean_std_value_z": ("value", "mean", "std", "|z|"),
    "z_only": ("|z|",),
}
_GROUP_TITLES = {
    "p_inj": ("P", "active power injections"),
    "q_inj": ("Q", "reactive power injections"),
    "p_flow": ("Pf", "active line flows"),
    "q_flow": ("Qf", "reactive line flows"),
    "v_mag": ("V", "voltage magnitudes"),
}


def dataset_to_jsonl(ds) -> str:
    return "".join(
        json.dumps(
            {
                "id": s.id,
                "hour": s.hour,
                "label": s.label,
                "injected": list(s.injected),
                "deltas": list(s.deltas),
                "features": [float(v) for v in s.features],
            },
            separators=(",", ":"),
        )
        + "\n"
        for s in ds.samples
    )


def features_to_csv(ds) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "hour", "label"] + ds.layout.names())
    for s in ds.samples:
        writer.writerow([s.id, s.hour, s.label] + [repr(float(v)) for v in s.features])
    return out.getvalue()


def render_value_block(sample, stats, layout, variant, decimals=4) -> str:
    columns = _COLUMNS[variant]
    cell_sources = {
        "value": sample.features,
        "mean": stats.mean,
        "std": np.maximum(stats.std, STD_FLOOR),
        "|z|": np.abs(zscores(sample.features, stats)),
    }
    groups: list[tuple[str, list[int]]] = []
    for i, entry in enumerate(layout.entries):
        if groups and groups[-1][0] == entry.kind:
            groups[-1][1].append(i)
        else:
            groups.append((entry.kind, [i]))
    name_width = max(len("sensor"), max(len(e.name) for e in layout.entries))
    col_cells = {
        c: [f"{cell_sources[c][i]:.{decimals}f}" for i in range(len(layout))]
        for c in columns
    }
    col_width = {c: max(len(c), max(len(v) for v in col_cells[c])) for c in columns}
    lines: list[str] = []
    for gi, (kind, indices) in enumerate(groups):
        tag, title = _GROUP_TITLES[kind]
        if gi > 0:
            lines.append("")
        lines.append(f"[{tag}] {title}")
        header = "sensor".ljust(name_width)
        for c in columns:
            header += "  " + c.rjust(col_width[c])
        lines.append(header)
        for i in indices:
            row = layout.entries[i].name.ljust(name_width)
            for c in columns:
                row += "  " + col_cells[c][i].rjust(col_width[c])
            lines.append(row)
    return "\n".join(lines)


_BUS_KIND_CODE = {PQ: 1, PV: 2, SLACK: 3}


def serialize_case(case: GridCase) -> str:
    """Render a GridCase back to case text; parse_case(serialize_case(c)) == c."""
    base = case.base_mva
    mva = _exact_emitter(lambda v: v * base, lambda s: s / base)
    deg = _exact_emitter(math.degrees, math.radians)
    out = [f"baseMVA {_fmt(case.base_mva)}", ""]
    out.append("bus")
    out.append("# id type Pd_MW Qd_MVAr Gs_MW Bs_MVAr Vm_pu Va_deg")
    for b in case.buses:
        out.append(
            " ".join(
                [
                    str(b.id),
                    str(_BUS_KIND_CODE[b.kind]),
                    mva(b.p_load),
                    mva(b.q_load),
                    mva(b.g_shunt),
                    mva(b.b_shunt),
                    _fmt(b.v_mag_init),
                    deg(b.v_ang_init),
                ]
            )
        )
    out.append("")
    out.append("gen")
    out.append("# bus Pg_MW Vset_pu Qmin_MVAr Qmax_MVAr")
    for g in case.gens:
        out.append(
            " ".join(
                [
                    str(g.bus),
                    mva(g.p_set),
                    _fmt(g.v_set),
                    mva(g.q_min),
                    mva(g.q_max),
                ]
            )
        )
    out.append("")
    out.append("branch")
    out.append("# from to r_pu x_pu b_pu tap shift_deg status")
    for br in case.branches:
        out.append(
            " ".join(
                [
                    str(br.from_bus),
                    str(br.to_bus),
                    _fmt(br.r),
                    _fmt(br.x),
                    _fmt(br.b_charging),
                    _fmt(br.tap),
                    deg(br.shift),
                    "1" if br.in_service else "0",
                ]
            )
        )
    out.append("")
    return "\n".join(out)


def _fmt(x: float) -> str:
    return repr(float(x))


def _exact_emitter(encode, decode):
    """Emit file-unit text whose re-parse reproduces the stored value bit-exactly.

    Unit conversion rounds twice, so the nearest file-unit float may miss the
    stored value by an ulp; probe neighbouring floats for an exact preimage.
    """

    def emit(value: float) -> str:
        candidate = encode(value)
        probe = candidate
        for _ in range(4):
            if decode(float(repr(probe))) == value:
                return repr(probe)
            probe = math.nextafter(probe, math.inf)
        probe = math.nextafter(candidate, -math.inf)
        for _ in range(4):
            if decode(float(repr(probe))) == value:
                return repr(probe)
            probe = math.nextafter(probe, -math.inf)
        return repr(candidate)

    return emit


def export_load_csv(profile, bus_ids: list[int]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(bus_ids)
    for row in profile.scale:
        writer.writerow([repr(float(v)) for v in row])
    return out.getvalue()
