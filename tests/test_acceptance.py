"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Criteria with runtime bounds time the measured section only.
"""

import time

import numpy as np
import pytest

import legacy_formats
from gridsigma import agents, detectors, evalkit, promptkit, ruleoracle
from gridsigma.cli import main
from gridsigma.grid import builtin_ieee14, solve_newton
from gridsigma.promptkit import VARIANTS, PromptConfig, parse_value_block
from gridsigma.ruleoracle import three_sigma_label
from gridsigma.scenario import ANOMALY, NORMAL, zscores

from conftest import GOLDEN_DIR
from reference_pf import solve_reference


def _report(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_power_flow_correctness():
    start = time.perf_counter()
    case = builtin_ieee14()
    sol = solve_newton(case, tol=1e-8)
    assert sol.iterations <= 10
    assert sol.max_mismatch <= 1e-8
    vm_ref, va_ref = solve_reference(case)
    vm_err = float(np.max(np.abs(sol.v_mag - vm_ref)))
    va_err = float(np.max(np.abs(sol.v_ang - va_ref)))
    assert vm_err < 1e-6
    assert va_err < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(
        1,
        f"IEEE 14-bus converged in {sol.iterations} iterations, "
        f"|Vm err| {vm_err:.2e} pu, |Va err| {va_err:.2e} rad, {elapsed:.3f}s",
    )


def test_criterion_2_oracle_brute_force_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20240917)
    agree = 0
    for _ in range(1000):
        z = rng.normal(0.0, 1.6, size=68)
        verdict = three_sigma_label(z)
        # independent index scan
        violating = set()
        for i in range(68):
            magnitude = z[i] if z[i] >= 0 else -z[i]
            if magnitude >= 3.0:
                violating.add(i)
        expected = ANOMALY if violating else NORMAL
        assert verdict.label == expected
        assert verdict.violating == violating
        agree += 1
    elapsed = time.perf_counter() - start
    assert agree == 1000
    assert elapsed < 1.0
    _report(2, f"1000/1000 exact agreement with independent scan, {elapsed:.3f}s")


@pytest.mark.parametrize("variant", ["mean_std_value_z", "z_only"])
def test_criterion_3_end_to_end_rule_fidelity(dataset42, variant):
    start = time.perf_counter()
    run = evalkit.RunConfig(
        prompt=PromptConfig(paradigm="zero_shot", variant=variant),
        agent=agents.AgentKind(agents.REFERENCE_RULE),
    )
    _, manifest = evalkit.run_experiment(run, dataset=dataset42)
    test_split = dataset42.split_samples("test")
    assert len(manifest["samples"]) == len(test_split)
    disagreements = 0
    for entry, sample in zip(manifest["samples"], test_split):
        direct = three_sigma_label(zscores(sample.features, dataset42.stats))
        disagreements += entry["label"] != direct.label
    elapsed = time.perf_counter() - start
    assert disagreements == 0
    assert elapsed < 10.0
    _report(
        3,
        f"variant {variant}: 100% agreement over {len(test_split)} test "
        f"samples, {elapsed:.2f}s",
    )


def test_criterion_4_metric_identities():
    f1_hybrid = evalkit.f1_from(0.965, 0.980)
    f1_dl = evalkit.f1_from(0.980, 0.803)
    assert f1_hybrid == pytest.approx(0.972, abs=0.0005)
    assert f1_dl == pytest.approx(0.883, abs=0.0005)
    lift_pct = evalkit.lift(0.972, 0.883) * 100
    assert abs(lift_pct - 10.08) <= 0.1
    _report(
        4,
        f"f1(0.965,0.980)={f1_hybrid:.4f}, f1(0.980,0.803)={f1_dl:.4f}, "
        f"lift={lift_pct:.2f}%",
    )


def test_criterion_5_detector_learning(dataset42, model42, record_property):
    start = time.perf_counter()
    report, _ = evalkit.run_detector_experiment(model42, dataset42)
    elapsed = time.perf_counter() - start
    assert report.f1 is not None
    assert report.f1 >= 0.80
    assert elapsed < 120.0
    # Measured value recorded as the regression baseline for this seed:
    # 0.9899 when frozen. The band tolerates BLAS-order variation across
    # platforms while still catching real regressions.
    record_property("test_f1", report.f1)
    assert report.f1 == pytest.approx(0.9899, abs=0.05)
    _report(5, f"autoencoder test F1 {report.f1:.4f} >= 0.80, scoring {elapsed:.2f}s")


def test_criterion_6_hybrid_dominance(dataset42, model42):
    start = time.perf_counter()
    standalone, _ = evalkit.run_detector_experiment(model42, dataset42)
    run = evalkit.RunConfig(
        prompt=PromptConfig(paradigm="hybrid_select", m_select=8),
        agent=agents.AgentKind(agents.REFERENCE_RULE),
    )
    hybrid, _ = evalkit.run_hybrid_experiment(
        run, model42, dataset=dataset42, use_reference_selector=True
    )
    elapsed = time.perf_counter() - start
    assert hybrid.f1 >= standalone.f1
    assert elapsed < 60.0
    _report(
        6,
        f"hybrid F1 {hybrid.f1:.4f} >= standalone F1 {standalone.f1:.4f}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_7_gradient_check():
    start = time.perf_counter()
    rng = np.random.default_rng(314)
    dims = (6, 4, 2, 4, 6)
    weights, biases = detectors._init_params(dims, rng)
    x = rng.normal(size=(7, 6))
    _, grads_w, grads_b = detectors.loss_and_gradients(x, weights, biases)
    eps = 1e-5
    worst = 0.0
    for _ in range(100):
        layer = int(rng.integers(len(weights)))
        use_weights = bool(rng.integers(2))
        target = weights if use_weights else biases
        grad = grads_w if use_weights else grads_b
        flat = int(rng.integers(target[layer].size))
        multi = np.unravel_index(flat, target[layer].shape)
        keep = target[layer][multi]
        target[layer][multi] = keep + eps
        up, _, _ = detectors.loss_and_gradients(x, weights, biases)
        target[layer][multi] = keep - eps
        down, _, _ = detectors.loss_and_gradients(x, weights, biases)
        target[layer][multi] = keep
        numeric = (up - down) / (2 * eps)
        analytic = grad[layer][multi]
        rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    assert worst < 1e-4
    assert elapsed < 5.0
    _report(7, f"max relative gradient error {worst:.2e} over 100 probes, "
               f"{elapsed:.2f}s")


def test_criterion_8_injection_audit(dataset42):
    start = time.perf_counter()
    normals_by_hour = {
        s.hour: s for s in legacy_formats.samples(dataset42) if s.label == NORMAL
    }
    checked = 0
    for s in legacy_formats.samples(dataset42):
        if s.label == NORMAL:
            assert s.injected == () and s.deltas == ()
            continue
        assert len(s.injected) == 3
        base = normals_by_hour[s.hour]
        for idx, delta in zip(s.injected, s.deltas):
            floor = max(0.15 * abs(base.features[idx]), 0.05)
            assert abs(delta) >= floor - 1e-15
            assert s.features[idx] == base.features[idx] + delta
        untouched = [i for i in range(len(s.features)) if i not in s.injected]
        assert np.array_equal(s.features[untouched], base.features[untouched])
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 800
    assert elapsed < 1.0
    _report(8, f"audited {checked} anomalous + 800 normal samples, {elapsed:.2f}s")


def test_criterion_9_prompt_stability(dataset42):
    # Byte-stable goldens: rendered twice from scratch, compared to disk.
    from test_promptkit import fixture_samples
    from gridsigma.grid import default_layout

    layout = default_layout(builtin_ieee14())
    samples = fixture_samples(layout)
    ds = legacy_formats.dataset_of(samples, layout)
    target = samples[11]
    rendered = {}
    for _ in range(2):
        for variant in VARIANTS:
            for paradigm, examples in (
                ("zero_shot", []),
                ("few_shot", [samples[0], samples[2]]),
                ("icl", samples[:10]),
            ):
                cfg = PromptConfig(paradigm=paradigm, variant=variant)
                text = next(promptkit.render_prompts(
                    ds, [target.id], cfg, [s.id for s in examples]
                )).text
                key = f"{paradigm}_{variant}"
                assert rendered.setdefault(key, text) == text
    for key, text in rendered.items():
        golden = (GOLDEN_DIR / f"{key}.txt").read_bytes()
        assert text.encode("utf-8") == golden, key

    # Strictly nested column sets across the zero-shot variants.
    tables = {
        v: parse_value_block(
            promptkit.render_value_block(target.features, ds.stats, layout, v)
        )
        for v in VARIANTS
    }
    c1 = set(tables["value"].columns)
    c2 = set(tables["mean_std_value"].columns)
    c3 = set(tables["mean_std_value_z"].columns)
    assert c1 < c2 < c3
    assert not set(tables["z_only"].columns) & {"mean", "std"}
    _report(9, f"{len(rendered)} golden snapshots byte-stable; column sets "
               "strictly nested, z-only disjoint from mean/std")


def test_criterion_10_pipeline_determinism(tmp_path):
    artifacts = [
        "dataset.jsonl",
        "dataset.columns",
        "stats.json",
        "meta.json",
        "features.csv",
        "model.json",
        "manifests/dl_detector.json",
        "manifests/zero_shot_z_only_reference_rule.json",
        "manifests/few_shot_z_only_coin_flip7.json",
        "manifests/hybrid_reference_topz.json",
        "reports/report.txt",
    ]
    for name in ("run1", "run2"):
        data = tmp_path / name
        assert main(["generate", "--samples", "400", "--seed", "42",
                     "--out", str(data)]) == 0
        assert main(["train-dl", "--data", str(data), "--seed", "42"]) == 0
        assert main(["run", "--data", str(data), "--paradigm", "zero-shot",
                     "--variant", "z_only", "--agent", "reference"]) == 0
        assert main(["run", "--data", str(data), "--paradigm", "few-shot",
                     "--variant", "z_only", "--agent", "coin-flip",
                     "--seed", "7"]) == 0
        assert main(["hybrid", "--data", str(data), "--reference-topz"]) == 0
        assert main(["report", "--data", str(data),
                     "--out", str(data / "reports")]) == 0
    for rel in artifacts:
        a = (tmp_path / "run1" / rel).read_bytes()
        b = (tmp_path / "run2" / rel).read_bytes()
        assert a == b, f"{rel} differs between identical runs"
    _report(10, f"two full pipeline runs byte-identical across "
                f"{len(artifacts)} artifacts")
