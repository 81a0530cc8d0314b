"""Network model, the embedded IEEE 14-bus case, AC power flow, and sensor
extraction.

All electrical quantities are per-unit on the case's MVA base. The IEEE
14-bus case is kept as constant bus, generator and branch tables in the
published units (MW, MVAr, degrees); ``builtin_ieee14`` converts them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CaseFormatError, PowerFlowError

SLACK = "slack"
PV = "PV"
PQ = "PQ"


@dataclass(frozen=True)
class Bus:
    id: int
    kind: str  # slack | PV | PQ
    p_load: float  # pu
    q_load: float  # pu
    g_shunt: float  # pu
    b_shunt: float  # pu
    v_mag_init: float  # pu
    v_ang_init: float  # rad


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    r: float
    x: float
    b_charging: float
    tap: float = 1.0
    shift: float = 0.0  # rad
    in_service: bool = True


@dataclass(frozen=True)
class Generator:
    bus: int
    p_set: float  # pu
    v_set: float  # pu


@dataclass(frozen=True)
class GridCase:
    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    gens: tuple[Generator, ...]

    def bus_index(self) -> dict[int, int]:
        return {bus.id: i for i, bus in enumerate(self.buses)}

    def validate(self) -> None:
        ids = [b.id for b in self.buses]
        for bus in self.buses:
            if bus.kind not in (SLACK, PV, PQ):
                raise CaseFormatError(f"bus {bus.id} has unknown kind {bus.kind!r}")
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise CaseFormatError(f"duplicate bus id {dup[0]}")
        slacks = [b for b in self.buses if b.kind == SLACK]
        if len(slacks) == 0:
            raise CaseFormatError("no slack bus")
        if len(slacks) > 1:
            raise CaseFormatError(f"{len(slacks)} slack buses, expected exactly one")
        known = set(ids)
        for br in self.branches:
            if br.from_bus not in known or br.to_bus not in known:
                raise CaseFormatError(
                    f"branch {br.from_bus}-{br.to_bus} references an unknown bus"
                )
            if br.r < 0:
                raise CaseFormatError(f"branch {br.from_bus}-{br.to_bus} has r < 0")
            if br.x == 0:
                raise CaseFormatError(
                    f"branch {br.from_bus}-{br.to_bus} has zero reactance"
                )
            if br.in_service and br.tap <= 0:
                raise CaseFormatError(
                    f"branch {br.from_bus}-{br.to_bus} has non-positive tap"
                )
        for gen in self.gens:
            if gen.bus not in known:
                raise CaseFormatError(f"generator references unknown bus {gen.bus}")
        gen_buses = {g.bus for g in self.gens}
        for bus in self.buses:
            if bus.kind == PV and bus.id not in gen_buses:
                raise CaseFormatError(f"PV bus {bus.id} hosts no generator")


@dataclass(frozen=True)
class PowerFlowSolution:
    """One hour's solution, or a stack of hours with a leading hour axis."""

    v_mag: np.ndarray  # per bus, pu
    v_ang: np.ndarray  # per bus, rad
    p_inj: np.ndarray  # per bus, pu
    q_inj: np.ndarray  # per bus, pu
    p_flow_from: np.ndarray  # per branch, sending end, pu
    q_flow_from: np.ndarray  # per branch, sending end, pu
    iterations: int | np.ndarray  # per hour when stacked
    max_mismatch: float | np.ndarray  # per hour when stacked


@dataclass(frozen=True)
class LayoutEntry:
    name: str
    kind: str  # p_inj | q_inj | p_flow | q_flow | v_mag
    index: int  # bus ordinal for injections/voltages, branch ordinal for flows


@dataclass(frozen=True)
class FeatureLayout:
    entries: tuple[LayoutEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    def index_of(self, name: str) -> int | None:
        for i, e in enumerate(self.entries):
            if e.name == name:
                return i
        return None


def default_layout(case: GridCase, include_voltage: bool = False) -> FeatureLayout:
    """Sensor order P_1..P_n, Q_1..Q_n, Pf_1..Pf_m, Qf_1..Qf_m (V_1..V_n optional)."""
    entries: list[LayoutEntry] = []
    for i, bus in enumerate(case.buses):
        entries.append(LayoutEntry(f"P_{bus.id}", "p_inj", i))
    for i, bus in enumerate(case.buses):
        entries.append(LayoutEntry(f"Q_{bus.id}", "q_inj", i))
    for k in range(len(case.branches)):
        entries.append(LayoutEntry(f"Pf_{k + 1}", "p_flow", k))
    for k in range(len(case.branches)):
        entries.append(LayoutEntry(f"Qf_{k + 1}", "q_flow", k))
    if include_voltage:
        for i, bus in enumerate(case.buses):
            entries.append(LayoutEntry(f"V_{bus.id}", "v_mag", i))
    layout = FeatureLayout(tuple(entries))
    names = layout.names()
    if len(set(names)) != len(names):
        raise CaseFormatError("layout sensor names are not unique")
    return layout


# --------------------------------------------------------------------------
# Embedded IEEE 14-bus test system (standard published data, 100 MVA base).

IEEE14_BASE_MVA = 100.0

# id, kind, Pd MW, Qd MVAr, Gs MW, Bs MVAr, Vm pu, Va deg
IEEE14_BUSES = (
    (1, SLACK, 0.0, 0.0, 0.0, 0.0, 1.060, 0.00),
    (2, PV, 21.7, 12.7, 0.0, 0.0, 1.045, -4.98),
    (3, PV, 94.2, 19.0, 0.0, 0.0, 1.010, -12.72),
    (4, PQ, 47.8, -3.9, 0.0, 0.0, 1.019, -10.33),
    (5, PQ, 7.6, 1.6, 0.0, 0.0, 1.020, -8.78),
    (6, PV, 11.2, 7.5, 0.0, 0.0, 1.070, -14.22),
    (7, PQ, 0.0, 0.0, 0.0, 0.0, 1.062, -13.37),
    (8, PV, 0.0, 0.0, 0.0, 0.0, 1.090, -13.36),
    (9, PQ, 29.5, 16.6, 0.0, 19.0, 1.056, -14.94),
    (10, PQ, 9.0, 5.8, 0.0, 0.0, 1.051, -15.10),
    (11, PQ, 3.5, 1.8, 0.0, 0.0, 1.057, -14.79),
    (12, PQ, 6.1, 1.6, 0.0, 0.0, 1.055, -15.07),
    (13, PQ, 13.5, 5.8, 0.0, 0.0, 1.050, -15.16),
    (14, PQ, 14.9, 5.0, 0.0, 0.0, 1.036, -16.04),
)

# bus, Pg MW, Vset pu
IEEE14_GENS = (
    (1, 232.4, 1.060),
    (2, 40.0, 1.045),
    (3, 0.0, 1.010),
    (6, 0.0, 1.070),
    (8, 0.0, 1.090),
)

# from, to, r pu, x pu, b pu, tap (0 means 1.0), shift deg, status
IEEE14_BRANCHES = (
    (1, 2, 0.01938, 0.05917, 0.0528, 0, 0, 1),
    (1, 5, 0.05403, 0.22304, 0.0492, 0, 0, 1),
    (2, 3, 0.04699, 0.19797, 0.0438, 0, 0, 1),
    (2, 4, 0.05811, 0.17632, 0.0340, 0, 0, 1),
    (2, 5, 0.05695, 0.17388, 0.0346, 0, 0, 1),
    (3, 4, 0.06701, 0.17103, 0.0128, 0, 0, 1),
    (4, 5, 0.01335, 0.04211, 0.0, 0, 0, 1),
    (4, 7, 0.0, 0.20912, 0.0, 0.978, 0, 1),
    (4, 9, 0.0, 0.55618, 0.0, 0.969, 0, 1),
    (5, 6, 0.0, 0.25202, 0.0, 0.932, 0, 1),
    (6, 11, 0.09498, 0.19890, 0.0, 0, 0, 1),
    (6, 12, 0.12291, 0.25581, 0.0, 0, 0, 1),
    (6, 13, 0.06615, 0.13027, 0.0, 0, 0, 1),
    (7, 8, 0.0, 0.17615, 0.0, 0, 0, 1),
    (7, 9, 0.0, 0.11001, 0.0, 0, 0, 1),
    (9, 10, 0.03181, 0.08450, 0.0, 0, 0, 1),
    (9, 14, 0.12711, 0.27038, 0.0, 0, 0, 1),
    (10, 11, 0.08205, 0.19207, 0.0, 0, 0, 1),
    (12, 13, 0.22092, 0.19988, 0.0, 0, 0, 1),
    (13, 14, 0.17093, 0.34802, 0.0, 0, 0, 1),
)


def builtin_ieee14() -> GridCase:
    """The IEEE 14-bus system in per-unit (14 buses, 20 branches, 5 gens)."""
    base = IEEE14_BASE_MVA
    buses = tuple(
        Bus(bus_id, kind, pd / base, qd / base, gs / base, bs / base, vm,
            math.radians(va))
        for bus_id, kind, pd, qd, gs, bs, vm, va in IEEE14_BUSES
    )
    gens = tuple(Generator(bus, pg / base, vset) for bus, pg, vset in IEEE14_GENS)
    branches = tuple(
        Branch(f, t, r, x, b, tap if tap != 0 else 1.0, math.radians(shift),
               status != 0)
        for f, t, r, x, b, tap, shift, status in IEEE14_BRANCHES
    )
    return GridCase(base, buses, branches, gens)


# --------------------------------------------------------------------------
# AC power flow (polar-form Newton-Raphson)


def _branch_two_port(br: Branch):
    """(y_ff, y_ft, y_tf, y_tt) of the branch pi-model with tap and shift.

    The from-end and to-end currents are i_f = y_ff v_f + y_ft v_t and
    i_t = y_tf v_f + y_tt v_t.
    """
    ys = 1.0 / complex(br.r, br.x)
    ysh = 0.5j * br.b_charging
    tap = br.tap * np.exp(1j * br.shift)
    return (ys + ysh) / (tap * np.conj(tap)), -ys / np.conj(tap), -ys / tap, ys + ysh


def build_ybus(case: GridCase) -> np.ndarray:
    """Dense complex bus admittance matrix (pi-model with tap and shift)."""
    n = len(case.buses)
    idx = case.bus_index()
    ybus = np.zeros((n, n), dtype=complex)
    for br in case.branches:
        if not br.in_service:
            continue
        f, t = idx[br.from_bus], idx[br.to_bus]
        y_ff, y_ft, y_tf, y_tt = _branch_two_port(br)
        ybus[f, f] += y_ff
        ybus[f, t] += y_ft
        ybus[t, f] += y_tf
        ybus[t, t] += y_tt
    for bus in case.buses:
        ybus[idx[bus.id], idx[bus.id]] += complex(bus.g_shunt, bus.b_shunt)
    return ybus


def _newton_setup(case: GridCase, load_scale: np.ndarray, tol: float):
    """Ybus, scheduled injections (H, n), start voltages and PV/PQ bus lists.

    ``load_scale`` stacks one row of per-bus load multipliers per hour.
    """
    if tol <= 0:
        raise PowerFlowError("tol must be positive")
    idx = case.bus_index()
    ybus = build_ybus(case)
    load = np.array([complex(bus.p_load, bus.q_load) for bus in case.buses])
    s_spec = np.zeros(load_scale.shape, dtype=complex)
    # A zero load times an inf multiplier gives NaN, as a NaN multiplier
    # does; _newton_stack fails such an hour, so numpy need not warn.
    with np.errstate(invalid="ignore"):
        s_spec -= load * load_scale
    for g in case.gens:
        s_spec[:, idx[g.bus]] += g.p_set

    kinds = [bus.kind for bus in case.buses]
    v_mag = np.array([bus.v_mag_init for bus in case.buses], dtype=float)
    v_ang = np.array([bus.v_ang_init for bus in case.buses], dtype=float)
    v_ang[kinds.index(SLACK)] = 0.0  # reference angle
    for g in case.gens:
        if kinds[idx[g.bus]] in (SLACK, PV):
            v_mag[idx[g.bus]] = g.v_set
    pv = [i for i, kind in enumerate(kinds) if kind == PV]
    pq = [i for i, kind in enumerate(kinds) if kind == PQ]
    return ybus, s_spec, v_mag, v_ang, pv, pq


def solve_newton(
    case: GridCase,
    load_scale: "np.ndarray | list[float] | None" = None,
    tol: float = 1e-8,
    max_iter: int = 20,
) -> PowerFlowSolution:
    """Solve one hour's AC power flow from the case's stored initial voltages.

    ``load_scale`` multiplies each bus's P and Q load (defaults to ones).
    PV buses hold their voltage set points whatever reactive power that
    takes: generator Q limits are not enforced. Convergence requires the
    max absolute P mismatch over non-slack buses and Q mismatch over PQ
    buses to fall to ``tol`` or below. Raises PowerFlowError on
    non-convergence, a singular Jacobian or a non-finite mismatch.
    This is the one-hour case of ``solve_hours``.
    """
    n = len(case.buses)
    load_scale = np.asarray(np.ones(n) if load_scale is None else load_scale,
                            dtype=float)
    if load_scale.shape != (n,):
        raise PowerFlowError(
            f"load_scale length {load_scale.shape} does not match bus count {n}"
        )
    sol, errors = solve_hours(case, load_scale[None, :], tol, max_iter)
    if errors[0] is not None:
        raise PowerFlowError(errors[0])
    return PowerFlowSolution(
        sol.v_mag[0], sol.v_ang[0], sol.p_inj[0], sol.q_inj[0], sol.p_flow_from[0],
        sol.q_flow_from[0], int(sol.iterations[0]), float(sol.max_mismatch[0]),
    )


def solve_hours(
    case: GridCase, load_scale: np.ndarray, tol: float = 1e-8, max_iter: int = 20
) -> tuple[PowerFlowSolution, list[str | None]]:
    """Solve the AC power flow of every hour in ``load_scale`` (hours, buses).

    The case is validated and its Ybus built once, and all hours iterate
    as one stack, so the caller bounds the working memory by the number of
    hours it passes. The solution's arrays gain a leading hour axis; iterations
    and max_mismatch become per-hour arrays. The list holds, per hour, None
    or the message ``solve_newton`` would raise; a failed hour's voltages,
    injections and flows are NaN and the other hours are unaffected.
    """
    case.validate()
    n = len(case.buses)
    load_scale = np.asarray(load_scale, dtype=float)
    if load_scale.ndim != 2 or load_scale.shape[1] != n:
        raise PowerFlowError(
            f"load_scale shape {load_scale.shape} is not (hours, {n})"
        )
    ybus, s_spec, v_mag, v_ang, pv, pq = _newton_setup(case, load_scale, tol)
    v_mag, v_ang, s_calc, iterations, max_mismatch, errors = _newton_stack(
        ybus, s_spec, v_mag, v_ang, pv, pq, tol, max_iter
    )
    failed = np.array([e is not None for e in errors], dtype=bool)
    v_mag[failed] = v_ang[failed] = s_calc[failed] = np.nan
    s_from, _ = branch_flows(case, v_mag, v_ang)
    return PowerFlowSolution(
        v_mag=v_mag,
        v_ang=v_ang,
        p_inj=s_calc.real.copy(),
        q_inj=s_calc.imag.copy(),
        p_flow_from=s_from.real.copy(),
        q_flow_from=s_from.imag.copy(),
        iterations=iterations,
        max_mismatch=max_mismatch,
    ), errors


def _newton_stack(
    ybus: np.ndarray,
    s_spec: np.ndarray,
    v_mag: np.ndarray,
    v_ang: np.ndarray,
    pv: list[int],
    pq: list[int],
    tol: float,
    max_iter: int,
):
    """Polar Newton-Raphson on a stack of hours; ``s_spec`` is (H, n).

    The start voltages broadcast to (H, n). An hour stops iterating, and
    keeps its state, once its max absolute mismatch is at most ``tol``; the
    rest iterate on. An hour fails when its mismatch or schedule is not finite,
    when its Jacobian is singular, or when it has not converged after
    ``max_iter`` iterations. Returns v_mag, v_ang, s_calc, iterations and
    max_mismatch per hour, and per hour None or the reason it failed.
    """
    hours = len(s_spec)
    v_mag = np.array(np.broadcast_to(v_mag, s_spec.shape))
    v_ang = np.array(np.broadcast_to(v_ang, s_spec.shape))
    s_calc = np.empty(s_spec.shape, dtype=complex)
    iterations = np.zeros(hours, dtype=int)
    max_mismatch = np.zeros(hours)
    errors: list[str | None] = [None] * hours
    pvpq = np.array(sorted(pv + pq), dtype=np.intp)
    pq_idx = np.array(pq, dtype=np.intp)
    active = np.arange(hours)
    iteration = 0
    while True:
        v = v_mag[active] * np.exp(1j * v_ang[active])
        ibus = _bus_currents(ybus, v)
        s = v * np.conj(ibus)
        mis = s - s_spec[active]
        f = np.concatenate([mis.real[:, pvpq], mis.imag[:, pq_idx]], axis=1)
        worst = np.abs(f).max(axis=1, initial=0.0)
        s_calc[active] = s
        max_mismatch[active] = worst
        iterations[active] = iteration
        finite = np.isfinite(worst)
        if iteration == 0:
            # The mismatch leaves out the slack bus: check its load here.
            finite &= np.isfinite(s_spec).all(axis=1)
        for r in active[~finite]:
            errors[r] = f"non-finite mismatch at iteration {iteration}"
        pending = finite & (worst > tol)
        if iteration >= max_iter:
            for r, w in zip(active[pending], worst[pending]):
                errors[r] = (
                    f"no convergence in {max_iter} iterations (mismatch {w:.3e})"
                )
            break
        active = active[pending]
        if not active.size:
            break
        jac = _jacobian(ybus, v[pending], ibus[pending], pvpq, pq_idx)
        dx, singular = _solve_each(jac, -f[pending])
        for r in active[singular]:
            errors[r] = f"singular Jacobian at iteration {iteration + 1}"
        active, dx = active[~singular], dx[~singular]
        v_ang[active[:, None], pvpq] += dx[:, : len(pvpq)]
        v_mag[active[:, None], pq_idx] += dx[:, len(pvpq) :]
        iteration += 1
    return v_mag, v_ang, s_calc, iterations, max_mismatch, errors


def _bus_currents(ybus: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Ybus @ V for each hour's row of v.

    numpy computes a lone row's product as a matrix-vector product, which
    can round differently from the matrix-matrix product of a stack. A lone
    row is therefore multiplied as a stack of two copies, so that an hour's
    bits do not depend on how many hours share its stack (the chunking test
    in tests/test_scenario.py checks this against the BLAS in use).
    """
    if len(v) == 1:
        return (np.concatenate([v, v]) @ ybus.T)[:1]
    return v @ ybus.T


def _jacobian(
    ybus: np.ndarray, v: np.ndarray, ibus: np.ndarray, pvpq: np.ndarray, pq: np.ndarray
) -> np.ndarray:
    """Stacked Jacobian [[dP/dVa, dP/dVm], [dQ/dVa, dQ/dVm]], one per hour.

    Rows are P at pvpq then Q at pq; columns are Va at pvpq then Vm at pq.
    The derivatives are MATPOWER's polar dSbus_dV taken element-wise: with
    W_ik = V_i conj(Y_ik V_k), dS/dVa = j (diag(V conj(I)) - W) and
    dS/dVm = W_ik / |V_k| + diag(conj(I) V / |V|).
    """
    diag = np.arange(v.shape[1])
    v_abs = np.abs(v)
    w = v[:, :, None] * np.conj(ybus * v[:, None, :])
    ds_dva = -1j * w
    ds_dva[:, diag, diag] += 1j * v * np.conj(ibus)
    ds_dvm = w / v_abs[:, None, :]
    ds_dvm[:, diag, diag] += np.conj(ibus) * v / v_abs
    rows_p, rows_q = pvpq[:, None], pq[:, None]
    return np.block(
        [
            [ds_dva.real[:, rows_p, pvpq], ds_dvm.real[:, rows_p, pq]],
            [ds_dva.imag[:, rows_q, pvpq], ds_dvm.imag[:, rows_q, pq]],
        ]
    )


def _solve_each(jac: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve every hour's Newton step; a singular Jacobian fails only its hour.

    Returns the steps and the per-hour mask of singular Jacobians.
    """
    singular = np.zeros(len(jac), dtype=bool)
    try:
        return np.linalg.solve(jac, rhs[:, :, None])[:, :, 0], singular
    except np.linalg.LinAlgError:
        pass
    dx = np.zeros_like(rhs)
    for r in range(len(jac)):
        try:
            dx[r] = np.linalg.solve(jac[r], rhs[r])
        except np.linalg.LinAlgError:
            singular[r] = True
    return dx, singular


def branch_flows(case: GridCase, v_mag: np.ndarray, v_ang: np.ndarray):
    """Sending- and receiving-end complex flows per branch (pu).

    ``v_mag`` and ``v_ang`` are per bus, with any leading axes (such as
    hours); the flows keep those axes. Out-of-service branches carry 0.
    """
    idx = case.bus_index()
    f = np.array([idx[br.from_bus] for br in case.branches], dtype=np.intp)
    t = np.array([idx[br.to_bus] for br in case.branches], dtype=np.intp)
    in_service = np.array([br.in_service for br in case.branches], dtype=bool)
    y_ff, y_ft, y_tf, y_tt = np.array(
        [_branch_two_port(br) if br.in_service else (0, 0, 0, 0)
         for br in case.branches],
        dtype=complex,
    ).reshape(-1, 4).T
    v = v_mag * np.exp(1j * v_ang)
    v_f, v_t = v[..., f], v[..., t]
    s_from = np.where(in_service, v_f * np.conj(y_ff * v_f + y_ft * v_t), 0)
    s_to = np.where(in_service, v_t * np.conj(y_tf * v_f + y_tt * v_t), 0)
    return s_from, s_to


def extract_features(sol: PowerFlowSolution, layout: FeatureLayout) -> np.ndarray:
    """Project a solution onto the layout's sensor order.

    A stacked solution (see ``solve_hours``) gives one row per hour.
    """
    sources = (
        ("p_inj", sol.p_inj),
        ("q_inj", sol.q_inj),
        ("p_flow", sol.p_flow_from),
        ("q_flow", sol.q_flow_from),
        ("v_mag", sol.v_mag),
    )
    offset, size, start = {}, {}, 0
    for kind, vec in sources:
        offset[kind], size[kind] = start, vec.shape[-1]
        start += vec.shape[-1]
    columns = np.empty(len(layout), dtype=np.intp)
    for i, entry in enumerate(layout.entries):
        if not 0 <= entry.index < size[entry.kind]:
            raise IndexError(
                f"layout entry {entry.name} index {entry.index} out of range"
            )
        columns[i] = offset[entry.kind] + entry.index
    return np.concatenate([vec for _, vec in sources], axis=-1)[..., columns]
