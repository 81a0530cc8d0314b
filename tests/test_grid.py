import warnings

import numpy as np
import pytest

from gridsigma.errors import CaseFormatError, PowerFlowError
from gridsigma.grid import (
    Branch,
    Bus,
    Generator,
    GridCase,
    branch_flows,
    builtin_ieee14,
    default_layout,
    extract_features,
    parse_case,
    solve_hours,
    solve_newton,
)

from legacy_formats import serialize_case
from reference_pf import solve_reference, two_bus_receiving_voltage

TWO_BUS_TEXT = """
baseMVA 100.0
bus
1 3 0.0  0.0 0.0 0.0 1.0 0.0
2 1 50.0 10.0 0.0 0.0 1.0 0.0
gen
1 0.0 1.0 -9999 9999
branch
1 2 0.01 0.1 0.0 0 0 1
"""


def two_bus_case(p_mw=50.0, q_mvar=10.0, r=0.01, x=0.1):
    return parse_case(
        TWO_BUS_TEXT.replace("50.0 10.0", f"{p_mw} {q_mvar}")
        .replace("0.01 0.1", f"{r} {x}")
    )


def active_losses(case, sol):
    """Total active power dissipated in branches (pu)."""
    s_from, s_to = branch_flows(case, sol.v_mag, sol.v_ang)
    return float(np.sum(s_from.real + s_to.real))


class TestParseCase:
    def test_minimal_two_bus(self):
        case = parse_case(TWO_BUS_TEXT)
        assert len(case.buses) == 2
        assert len(case.branches) == 1
        assert case.buses[0].kind == "slack"
        assert case.buses[1].p_load == pytest.approx(0.5)

    def test_embedded_ieee14_counts(self):
        case = builtin_ieee14()
        assert len(case.buses) == 14
        assert len(case.branches) == 20
        assert len(case.gens) == 5

    def test_no_slack_bus(self):
        text = TWO_BUS_TEXT.replace("1 3 0.0", "1 1 0.0")
        with pytest.raises(CaseFormatError, match="no slack bus"):
            parse_case(text)

    def test_missing_section(self):
        text = "\n".join(
            line for line in TWO_BUS_TEXT.splitlines() if "gen" not in line
        ).replace("1 0.0 1.0 -9999 9999\n", "")
        with pytest.raises(CaseFormatError, match="missing gen section"):
            parse_case(text)

    def test_duplicate_bus_id_reports_line(self):
        text = TWO_BUS_TEXT.replace("2 1 50.0", "1 1 50.0")
        with pytest.raises(CaseFormatError, match=r"line \d+: duplicate bus id 1"):
            parse_case(text)

    def test_zero_reactance_reports_line(self):
        text = TWO_BUS_TEXT.replace("1 2 0.01 0.1", "1 2 0.01 0.0")
        with pytest.raises(CaseFormatError, match=r"line \d+: .*zero reactance"):
            parse_case(text)

    def test_non_numeric_cell_reports_line(self):
        text = TWO_BUS_TEXT.replace("50.0", "fifty")
        bad_line = text.splitlines().index("2 1 fifty 10.0 0.0 0.0 1.0 0.0") + 1
        with pytest.raises(CaseFormatError, match=f"line {bad_line}"):
            parse_case(text)

    def test_unknown_branch_endpoint(self):
        text = TWO_BUS_TEXT.replace("1 2 0.01", "1 9 0.01")
        with pytest.raises(CaseFormatError, match="unknown bus"):
            parse_case(text)

    def test_pv_bus_without_generator(self):
        text = TWO_BUS_TEXT.replace("2 1 50.0", "2 2 50.0")
        with pytest.raises(CaseFormatError, match="PV bus 2 hosts no generator"):
            parse_case(text)


class TestSerializeRoundTrip:
    def test_ieee14_round_trip_identity(self):
        case = builtin_ieee14()
        assert parse_case(serialize_case(case)) == case

    def test_two_bus_round_trip(self):
        case = parse_case(TWO_BUS_TEXT)
        assert parse_case(serialize_case(case)) == case

    @pytest.mark.parametrize("seed", range(20))
    def test_round_trip_on_generated_decimal_cases(self, seed):
        rng = np.random.default_rng(seed)

        def num():
            return round(float(rng.uniform(-200, 200)), 4)

        text_lines = ["baseMVA 100.0", "bus"]
        text_lines.append("1 3 0.0 0.0 0.0 0.0 1.06 0.0")
        for b in range(2, 6):
            text_lines.append(
                f"{b} 1 {num()} {num()} 0.0 {num()} 1.0 {round(float(rng.uniform(-20, 20)), 3)}"
            )
        text_lines.append("gen")
        text_lines.append("1 100.0 1.06 -9999 9999")
        text_lines.append("branch")
        for b in range(2, 6):
            text_lines.append(
                f"1 {b} {abs(num()) / 1000} {abs(num()) / 1000 + 0.01} 0.0 "
                f"{round(float(rng.uniform(0.9, 1.1)), 3)} {round(float(rng.uniform(-5, 5)), 2)} 1"
            )
        case = parse_case("\n".join(text_lines))
        assert parse_case(serialize_case(case)) == case


class TestSolveNewton:
    def test_ieee14_converges_quickly(self, ieee14):
        sol = solve_newton(ieee14, tol=1e-8)
        assert sol.iterations <= 10
        assert sol.max_mismatch <= 1e-8

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
        text = """
        baseMVA 100.0
        bus
        1 3 0.0 0.0 0.0 0.0 1.0 0.0
        2 1 0.0 0.0 0.0 0.0 1.0 0.0
        3 1 0.0 0.0 0.0 0.0 1.0 0.0
        gen
        1 0.0 1.0 -9999 9999
        branch
        1 2 0.01 0.1 0.0 0 0 1
        2 3 0.02 0.2 0.0 0 0 1
        """
        sol = solve_newton(parse_case(text))
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
        text = TWO_BUS_TEXT.replace("1 2 0.01 0.1 0.0 0 0 1", "1 2 0.01 0.1 0.0 0 0 0")
        with pytest.raises(PowerFlowError, match="singular Jacobian at iteration 1"):
            solve_newton(parse_case(text))

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
        text = """
        baseMVA 100.0
        bus
        1 3 0.0 0.0 0.0 0.0 1.0 0.0
        2 1 0.0 0.0 0.0 0.0 1.0 0.0
        gen
        1 0.0 1.0 -9999 9999
        branch
        1 2 0.01 0.1 0.0 0 0 1
        """
        case = parse_case(text)
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
