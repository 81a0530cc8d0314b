import hashlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gridsigma.errors import CaseFormatError, PowerFlowError
from gridsigma.grid import (
    PQ,
    PV,
    SLACK,
    Branch,
    Bus,
    Generator,
    GridCase,
    branch_flows,
    builtin_ieee14,
    default_layout,
    extract_features,
    solve_hours,
    solve_newton,
)

from reference_pf import solve_reference, two_bus_receiving_voltage


def two_bus_case(p_mw=50.0, q_mvar=10.0, r=0.01, x=0.1):
    """A slack bus feeding a PQ load over one line, on a 100 MVA base."""
    return GridCase(
        base_mva=100.0,
        buses=(
            Bus(1, SLACK, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0),
            Bus(2, PQ, p_mw / 100.0, q_mvar / 100.0, 0.0, 0.0, 1.0, 0.0),
        ),
        branches=(Branch(1, 2, r, x, 0.0),),
        gens=(Generator(1, 0.0, 1.0),),
    )


def no_load_case(n_buses):
    """A chain of unloaded buses behind a slack bus at 1.0 pu."""
    return GridCase(
        base_mva=100.0,
        buses=tuple(
            Bus(i, SLACK if i == 1 else PQ, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
            for i in range(1, n_buses + 1)
        ),
        branches=tuple(
            Branch(i, i + 1, 0.01 * i, 0.1 * i, 0.0) for i in range(1, n_buses)
        ),
        gens=(Generator(1, 0.0, 1.0),),
    )


def replaced(case, field, i, **changes):
    """The case with item i of its ``field`` tuple changed."""
    items = list(getattr(case, field))
    items[i] = replace(items[i], **changes)
    return replace(case, **{field: tuple(items)})


def active_losses(case, sol):
    """Total active power dissipated in branches (pu)."""
    s_from, s_to = branch_flows(case, sol.v_mag, sol.v_ang)
    return float(np.sum(s_from.real + s_to.real))


class TestBuiltinIeee14:
    def test_counts(self):
        case = builtin_ieee14()
        assert len(case.buses) == 14
        assert len(case.branches) == 20
        assert len(case.gens) == 5

    def test_bit_identical_per_unit_values(self):
        # A float's repr round-trips exactly, so this hash pins every per-unit
        # value, angle and flag that the published tables convert to.
        digest = hashlib.sha256(repr(builtin_ieee14()).encode()).hexdigest()
        assert digest == (
            "3c1be432b4f350b7c6c33bd98d4a2d40c7b5b4f0976325c399492a20d063dea2"
        )


class TestValidate:
    def test_two_bus_case_is_valid(self):
        two_bus_case().validate()

    def test_no_slack_bus(self):
        with pytest.raises(CaseFormatError, match="no slack bus"):
            replaced(two_bus_case(), "buses", 0, kind=PQ).validate()

    def test_two_slack_buses(self):
        with pytest.raises(CaseFormatError,
                           match="2 slack buses, expected exactly one"):
            replaced(two_bus_case(), "buses", 1, kind=SLACK).validate()

    def test_duplicate_bus_id(self):
        with pytest.raises(CaseFormatError, match="duplicate bus id 1"):
            replaced(two_bus_case(), "buses", 1, id=1).validate()

    def test_zero_reactance(self):
        with pytest.raises(CaseFormatError, match="branch 1-2 has zero reactance"):
            replaced(two_bus_case(), "branches", 0, x=0.0).validate()

    def test_negative_resistance(self):
        with pytest.raises(CaseFormatError, match="branch 1-2 has r < 0"):
            replaced(two_bus_case(), "branches", 0, r=-0.01).validate()

    @pytest.mark.parametrize("tap", [0.0, -1.0])
    def test_non_positive_tap_in_service(self, tap):
        with pytest.raises(CaseFormatError, match="branch 1-2 has non-positive tap"):
            replaced(two_bus_case(), "branches", 0, tap=tap).validate()

    def test_non_positive_tap_out_of_service_allowed(self):
        replaced(two_bus_case(), "branches", 0, tap=0.0, in_service=False).validate()

    def test_unknown_branch_endpoint(self):
        with pytest.raises(CaseFormatError, match="unknown bus"):
            replaced(two_bus_case(), "branches", 0, to_bus=9).validate()

    def test_pv_bus_without_generator(self):
        with pytest.raises(CaseFormatError, match="PV bus 2 hosts no generator"):
            replaced(two_bus_case(), "buses", 1, kind=PV).validate()

    def test_unknown_bus_kind(self):
        # 'pq' is not PQ: the solver would drop the bus's P and Q equations.
        case = replaced(builtin_ieee14(), "buses", 3, kind="pq")
        with pytest.raises(CaseFormatError, match="bus 4 has unknown kind 'pq'"):
            case.validate()
        with pytest.raises(CaseFormatError, match="bus 4 has unknown kind"):
            solve_newton(case)

    def test_generator_on_unknown_bus(self):
        ieee14 = builtin_ieee14()
        case = replace(ieee14, gens=ieee14.gens + (Generator(99, 0.1, 1.0),))
        with pytest.raises(CaseFormatError,
                           match="generator references unknown bus 99"):
            case.validate()
        with pytest.raises(CaseFormatError,
                           match="generator references unknown bus 99"):
            solve_hours(case, np.ones((3, 14)))


class TestSolveNewton:
    def test_ieee14_converges_quickly(self, ieee14):
        sol = solve_newton(ieee14, tol=1e-8)
        assert sol.iterations <= 10
        assert sol.max_mismatch <= 1e-8

    def test_one_hour_of_solve_hours(self, ieee14):
        scale = np.linspace(0.7, 1.1, 14)
        sol = solve_newton(ieee14, scale)
        stacked, errors = solve_hours(ieee14, scale[None, :])
        assert errors == [None]
        assert type(sol.iterations) is int and type(sol.max_mismatch) is float
        assert sol.iterations == stacked.iterations[0]
        for name in ("v_mag", "v_ang", "p_inj", "q_inj", "p_flow_from", "q_flow_from"):
            row = getattr(sol, name)
            assert row.shape == getattr(stacked, name).shape[1:]
            assert row.tobytes() == getattr(stacked, name)[0].tobytes()

    def test_ieee14_matches_reference_solver(self, ieee14):
        sol = solve_newton(ieee14, tol=1e-10)
        vm_ref, va_ref = solve_reference(ieee14)
        assert np.max(np.abs(sol.v_mag - vm_ref)) < 1e-6
        assert np.max(np.abs(sol.v_ang - va_ref)) < 1e-6

    def test_slack_bus_pinned(self, ieee14):
        sol = solve_newton(ieee14)
        assert sol.v_mag[0] == pytest.approx(1.06)
        assert sol.v_ang[0] == 0.0

    def test_no_load_fixed_point(self):
        sol = solve_newton(no_load_case(3))
        assert np.allclose(sol.v_mag, 1.0, atol=1e-12)
        assert np.allclose(sol.v_ang, 0.0, atol=1e-12)
        assert np.allclose(sol.p_flow_from, 0.0, atol=1e-12)
        assert np.allclose(sol.q_flow_from, 0.0, atol=1e-12)
        assert sol.iterations == 0

    def test_two_bus_closed_form(self):
        case = two_bus_case(p_mw=50.0, q_mvar=10.0, r=0.01, x=0.1)
        sol = solve_newton(case, tol=1e-12, max_iter=50)
        v2 = two_bus_receiving_voltage(0.5, 0.1, 0.01, 0.1)
        assert abs(sol.v_mag[1] - v2) < 1e-9

    def test_power_balance(self, ieee14):
        for scale in (0.8, 1.0, 1.2):
            sol = solve_newton(ieee14, np.full(14, scale))
            assert abs(sol.p_inj.sum() - active_losses(ieee14, sol)) <= 1e-7

    def test_branch_flows_balance_each_bus(self, ieee14):
        # Flows out of a bus over its branches plus its shunt draw equal the
        # bus's net injection, so each branch's pi-model terms are checked.
        idx = ieee14.bus_index()
        shunt = np.array([complex(b.g_shunt, -b.b_shunt) for b in ieee14.buses])
        for scale in (1.0, 0.7, 1.15):
            sol = solve_newton(ieee14, np.full(14, scale))
            s_from, s_to = branch_flows(ieee14, sol.v_mag, sol.v_ang)
            out = sol.v_mag**2 * shunt
            for k, br in enumerate(ieee14.branches):
                out[idx[br.from_bus]] += s_from[k]
                out[idx[br.to_bus]] += s_to[k]
            assert np.max(np.abs(out - (sol.p_inj + 1j * sol.q_inj))) <= 1e-10

    def test_convergence_over_load_range(self, ieee14):
        rng = np.random.default_rng(7)
        for _ in range(10):
            scale = rng.uniform(0.6, 1.2, size=14)
            sol = solve_newton(ieee14, scale, tol=1e-8)
            assert sol.max_mismatch <= 1e-8
            assert sol.iterations <= 10

    def test_deterministic(self, ieee14):
        scale = np.linspace(0.7, 1.1, 14)
        a = solve_newton(ieee14, scale)
        b = solve_newton(ieee14, scale)
        assert np.array_equal(a.v_mag, b.v_mag)
        assert np.array_equal(a.v_ang, b.v_ang)
        assert np.array_equal(a.p_flow_from, b.p_flow_from)

    def test_non_convergence_reports_mismatch(self, ieee14):
        with pytest.raises(PowerFlowError, match=r"no convergence in 0 iterations.*mismatch"):
            solve_newton(ieee14, max_iter=0)

    def test_singular_jacobian_reports_iteration(self):
        case = replaced(two_bus_case(), "branches", 0, in_service=False)
        with pytest.raises(PowerFlowError, match="singular Jacobian at iteration 1"):
            solve_newton(case)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_load_fails(self, ieee14, bad):
        scale = np.ones(14)
        scale[3] = bad
        with pytest.raises(PowerFlowError, match="non-finite mismatch"):
            solve_newton(ieee14, scale)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_load_at_slack_bus_fails(self, ieee14, bad):
        # The mismatch leaves out the slack bus, so only the scheduled
        # injection can show the bad multiplier.
        scale = np.ones((2, 14))
        scale[1, 0] = bad
        with pytest.raises(PowerFlowError, match="non-finite mismatch at iteration 0"):
            solve_newton(ieee14, scale[1])
        _, errors = solve_hours(ieee14, scale)
        assert errors == [None, "non-finite mismatch at iteration 0"]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_load_at_unloaded_bus_fails_without_warning(self, ieee14, bad):
        # Bus 7 has no load, so its scheduled injection is 0 x inf = NaN.
        scale = np.ones((2, 14))
        scale[1, 6] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PowerFlowError, match="non-finite mismatch at iteration 0"):
                solve_newton(ieee14, scale[1])
            _, errors = solve_hours(ieee14, scale)
        assert errors == [None, "non-finite mismatch at iteration 0"]

    def test_solve_hours_fails_each_hour_as_solve_newton(self, ieee14):
        scale = np.ones((5, 14))
        scale[1] = 3.9  # needs 6 iterations
        scale[3, 3] = np.nan
        sol, errors = solve_hours(ieee14, scale, max_iter=4)
        for h in range(5):
            try:
                one = solve_newton(ieee14, scale[h], max_iter=4)
            except PowerFlowError as exc:
                assert errors[h] == str(exc)
                assert np.isnan(sol.v_mag[h]).all()
            else:
                assert errors[h] is None
                assert sol.iterations[h] == one.iterations
                assert np.max(np.abs(sol.p_flow_from[h] - one.p_flow_from)) <= 1e-12
        assert errors.count(None) == 3

    def test_load_scale_length_checked(self, ieee14):
        with pytest.raises(PowerFlowError, match="load_scale"):
            solve_newton(ieee14, np.ones(5))


class TestGeneratedCases:
    @pytest.mark.parametrize("seed", range(20))
    def test_taps_and_phase_shifts_match_reference_solver(self, seed):
        # A meshed 5-bus case with a PV bus, shunts, off-nominal taps and
        # phase shifts on every branch; the IEEE 14-bus case has no shift.
        rng = np.random.default_rng(seed)
        buses = [Bus(1, SLACK, 0.0, 0.0, 0.0, 0.0, 1.06, 0.0)]
        for b in range(2, 6):
            buses.append(Bus(b, PV if b == 2 else PQ, rng.uniform(0.0, 0.6),
                             rng.uniform(-0.1, 0.3), 0.0, rng.uniform(0.0, 0.2),
                             1.0, 0.0))
        branches = [
            Branch(f, t, rng.uniform(0.005, 0.05), rng.uniform(0.05, 0.2),
                   rng.uniform(0.0, 0.05), tap=rng.uniform(0.95, 1.05),
                   shift=math.radians(rng.uniform(-5.0, 5.0)))
            for f, t in ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (4, 5))
        ]
        gens = (Generator(1, 0.0, 1.06), Generator(2, rng.uniform(0.1, 0.5), 1.03))
        case = GridCase(100.0, tuple(buses), tuple(branches), gens)
        sol = solve_newton(case, tol=1e-10)
        vm_ref, va_ref = solve_reference(case)
        assert np.max(np.abs(sol.v_mag - vm_ref)) < 1e-6
        assert np.max(np.abs(sol.v_ang - va_ref)) < 1e-6
        assert abs(sol.p_inj.sum() - active_losses(case, sol)) <= 1e-9


class TestFeatures:
    def test_default_layout_counts_and_order(self, ieee14):
        layout = default_layout(ieee14)
        names = layout.names()
        assert len(names) == 68
        assert names[0] == "P_1" and names[13] == "P_14"
        assert names[14] == "Q_1" and names[27] == "Q_14"
        assert names[28] == "Pf_1" and names[47] == "Pf_20"
        assert names[48] == "Qf_1" and names[67] == "Qf_20"

    def test_voltage_layout(self, ieee14):
        layout = default_layout(ieee14, include_voltage=True)
        assert len(layout) == 82
        assert layout.names()[-1] == "V_14"

    def test_extract_features_length(self, ieee14, layout68):
        sol = solve_newton(ieee14)
        assert extract_features(sol, layout68).shape == (68,)

    def test_no_load_features_zero(self):
        case = no_load_case(2)
        sol = solve_newton(case)
        feats = extract_features(sol, default_layout(case))
        assert np.allclose(feats, 0.0, atol=1e-12)

    def test_v_mag_entry_appended(self, ieee14):
        from gridsigma.grid import FeatureLayout, LayoutEntry

        base = default_layout(ieee14)
        layout = FeatureLayout(base.entries + (LayoutEntry("V_3", "v_mag", 2),))
        sol = solve_newton(ieee14)
        feats = extract_features(sol, layout)
        assert len(feats) == 69
        assert feats[-1] == sol.v_mag[2]

    def test_out_of_range_index(self, ieee14):
        from gridsigma.grid import FeatureLayout, LayoutEntry

        layout = FeatureLayout((LayoutEntry("P_99", "p_inj", 99),))
        sol = solve_newton(ieee14)
        with pytest.raises(IndexError):
            extract_features(sol, layout)
