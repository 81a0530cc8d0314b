import hashlib
import io
import json
import re
import shutil
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsigma import agents, cli, evalkit, promptkit, scenario
from gridsigma.errors import DatasetError, GridSigmaError
from gridsigma.grid import builtin_ieee14, default_layout
from gridsigma.ruleoracle import top_abs_z
from gridsigma.evalkit import (
    AS_WRONG,
    EXCLUDED,
    SOURCE_FULL,
    SOURCE_LLM,
    ConfusionCounts,
    MetricsReport,
    RunConfig,
    ablation_table,
    confusion,
    f1_from,
    lift,
    metrics,
    run_experiment,
    run_hybrid_experiment,
)
from gridsigma.scenario import (
    ANOMALY,
    NORMAL,
    SplitSizes,
    build_dataset,
    meta_to_json,
    stats_to_json,
    synth_load_profile,
    zscores,
)
from gridsigma.ruleoracle import three_sigma_label

import legacy_formats
from http_stub import endpoint_for

INVALID = promptkit.INVALID


class TestConfusion:
    def test_perfect_predictions(self):
        preds = [ANOMALY, NORMAL, ANOMALY]
        counts, invalid = confusion(preds, preds)
        assert counts.fp == counts.fn == 0
        assert counts.tp == 2 and counts.tn == 1
        assert invalid == 0

    def test_invalid_as_wrong_on_true_anomaly(self):
        counts, invalid = confusion([INVALID], [ANOMALY], AS_WRONG)
        assert counts.fn == 1
        assert invalid == 1

    def test_invalid_excluded_shrinks_total(self):
        counts, invalid = confusion(
            [INVALID, ANOMALY], [ANOMALY, ANOMALY], EXCLUDED
        )
        assert counts.total == 1
        assert invalid == 1

    def test_length_mismatch(self):
        with pytest.raises(GridSigmaError):
            confusion([NORMAL], [NORMAL, NORMAL])

    def test_brute_force_recount_1000(self):
        rng = np.random.default_rng(5)
        labels = [NORMAL, ANOMALY, INVALID]
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            preds = [labels[i] for i in rng.integers(0, 3, size=n)]
            truths = [labels[i] for i in rng.integers(0, 2, size=n)]
            counts, invalid = confusion(preds, truths, AS_WRONG)
            # independent recount
            tp = fp = fn = tn = inv = 0
            for p, t in zip(preds, truths):
                if p == INVALID:
                    inv += 1
                    p = NORMAL if t == ANOMALY else ANOMALY
                if t == ANOMALY and p == ANOMALY:
                    tp += 1
                elif t == ANOMALY:
                    fn += 1
                elif p == ANOMALY:
                    fp += 1
                else:
                    tn += 1
            assert (counts.tp, counts.fp, counts.fn, counts.tn) == (tp, fp, fn, tn)
            assert invalid == inv


class TestMetrics:
    def test_all_half(self):
        report = metrics(ConfusionCounts(tp=1, fp=1, fn=1, tn=1))
        assert report.accuracy == report.recall == report.precision == report.f1 == 0.5

    def test_all_one(self):
        report = metrics(ConfusionCounts(tp=5, fp=0, fn=0, tn=5))
        assert report.accuracy == report.recall == report.precision == report.f1 == 1.0

    def test_undefined_precision(self):
        report = metrics(ConfusionCounts(tp=0, fp=0, fn=3, tn=2))
        assert report.precision is None
        assert report.f1 is None
        assert report.accuracy == pytest.approx(0.4)

    def test_accuracy_identity_audit(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            c = ConfusionCounts(*[int(x) for x in rng.integers(0, 50, size=4)])
            if c.total == 0:
                continue
            report = metrics(c)
            assert report.accuracy == (c.tp + c.tn) / c.total

    def test_f1_between_precision_and_recall_1000(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 1000:
            c = ConfusionCounts(*[int(x) for x in rng.integers(0, 30, size=4)])
            report = metrics(c)
            if None in (report.precision, report.recall, report.f1):
                continue
            low = min(report.precision, report.recall)
            high = max(report.precision, report.recall)
            assert low - 1e-12 <= report.f1 <= high + 1e-12
            checked += 1


class TestF1From:
    def test_hybrid_row_identity(self):
        assert f1_from(0.965, 0.980) == pytest.approx(0.972, abs=0.0005)

    def test_traditional_dl_row_identity(self):
        assert f1_from(0.980, 0.803) == pytest.approx(0.883, abs=0.0005)

    def test_both_zero_undefined(self):
        assert f1_from(0.0, 0.0) is None

    @given(st.floats(min_value=0.001, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_harmonic_mean_of_equals(self, x):
        assert f1_from(x, x) == pytest.approx(x, rel=1e-12)

    def test_f1_lift_reproduces_published_delta(self):
        value = lift(0.972, 0.883)
        assert abs(value * 100 - 10.08) <= 0.1


class TestRunExperiment:
    def test_reference_rule_matches_oracle_rate(self, dataset42):
        run = RunConfig(
            prompt=promptkit.PromptConfig(paradigm="zero_shot", variant="z_only"),
            agent=agents.AgentKind(agents.REFERENCE_RULE),
        )
        report, manifest = run_experiment(run, dataset=dataset42)
        test = dataset42.split_samples("test")
        oracle_rate = np.mean(
            [
                three_sigma_label(zscores(s.features, dataset42.stats)).label
                == s.label
                for s in test
            ]
        )
        assert report.accuracy == pytest.approx(float(oracle_rate))
        for entry, sample in zip(manifest["samples"], test):
            direct = three_sigma_label(zscores(sample.features, dataset42.stats))
            assert entry["label"] == direct.label

    def test_always_normal_degenerate(self, dataset42):
        run = RunConfig(
            prompt=promptkit.PromptConfig(paradigm="zero_shot", variant="z_only"),
            agent=agents.AgentKind(agents.ALWAYS_NORMAL),
        )
        report, _ = run_experiment(run, dataset=dataset42)
        assert report.recall == 0.0
        assert report.accuracy == 0.5

    def test_coin_flip_deterministic(self, dataset42):
        run = RunConfig(
            prompt=promptkit.PromptConfig(paradigm="few_shot", variant="z_only"),
            agent=agents.AgentKind(agents.COIN_FLIP, seed=3),
        )
        a, _ = run_experiment(run, dataset=dataset42)
        b, _ = run_experiment(run, dataset=dataset42)
        assert a == b

    def test_examples_excluded_and_recorded(self, dataset42):
        run = RunConfig(
            prompt=promptkit.PromptConfig(paradigm="icl", variant="z_only"),
            agent=agents.AgentKind(agents.REFERENCE_RULE),
        )
        report, manifest = run_experiment(run, dataset=dataset42)
        assert len(manifest["example_ids"]) == 10
        target_ids = {e["id"] for e in manifest["samples"]}
        assert not target_ids & set(manifest["example_ids"])
        assert report.counts.total == len(manifest["samples"])

    def test_manifest_written_and_stable(self, dataset42, tmp_path):
        run = RunConfig(
            prompt=promptkit.PromptConfig(paradigm="zero_shot", variant="value"),
            agent=agents.AgentKind(agents.ALWAYS_NORMAL),
        )
        _, m1 = run_experiment(run, dataset=dataset42, out_dir=tmp_path / "a")
        _, m2 = run_experiment(run, dataset=dataset42, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / evalkit.manifest_name(run)).read_bytes()
        b = (tmp_path / "b" / evalkit.manifest_name(run)).read_bytes()
        assert a == b
        doc = json.loads(a)
        assert set(doc["metrics"]) == {AS_WRONG, EXCLUDED}
        assert doc["dataset_digest"]


class TestRunIdentity:
    @pytest.mark.parametrize("paradigm, k", [("zero_shot", 0), ("few_shot", 2),
                                             ("icl", 10)])
    def test_manifest_records_the_resolved_k(self, dataset42, paradigm, k):
        run = RunConfig(prompt=promptkit.PromptConfig(paradigm=paradigm))
        _, manifest = run_experiment(run, dataset42)
        assert manifest["config"]["k_examples"] == k
        assert manifest["config"]["decimals"] == 4

    @pytest.mark.parametrize("use_reference_selector", [False, True])
    def test_hybrid_manifest_records_the_selection_prompt(
            self, dataset42, model42, use_reference_selector):
        head = replace(dataset42, splits={**dataset42.splits,
                                          "test": dataset42.splits["test"][:10]})
        run = RunConfig(prompt=promptkit.PromptConfig(paradigm=promptkit.HYBRID_SELECT,
                                                      m_select=5))
        _, manifest = run_hybrid_experiment(
            run, model42, head, use_reference_selector=use_reference_selector)
        config = manifest["config"]
        assert config["decimals"] == promptkit.SELECTION_DECIMALS == 6
        assert (config["paradigm"], config["variant"]) == ("hybrid_select", "z_only")
        assert (config["k_examples"], config["m_select"]) == (0, 5)

    @pytest.mark.parametrize("paradigm", ["few_shot", "icl"])
    def test_hybrid_drops_the_examples_of_a_run_prompt(self, dataset42, model42,
                                                       paradigm):
        head = replace(dataset42, splits={**dataset42.splits,
                                          "test": dataset42.splits["test"][:10]})
        zero_shot = run_hybrid_experiment(RunConfig(), model42, head)
        with_examples = run_hybrid_experiment(
            RunConfig(prompt=promptkit.PromptConfig(paradigm=paradigm)), model42, head)
        assert with_examples == zero_shot
        assert with_examples[1]["config"]["k_examples"] == 0

    @pytest.mark.parametrize("paradigm, k, agent, name", [
        ("icl", -1, agents.AgentKind(agents.REFERENCE_RULE),
         "icl_z_only_reference_rule.json"),
        ("icl", 10, agents.AgentKind(agents.REFERENCE_RULE),
         "icl_z_only_reference_rule.json"),
        ("icl", 5, agents.AgentKind(agents.REFERENCE_RULE),
         "icl_z_only_reference_rule_k5.json"),
        ("few_shot", -1, agents.AgentKind(agents.COIN_FLIP, seed=3),
         "few_shot_z_only_coin_flip3.json"),
        ("zero_shot", 0, agents.AgentKind(agents.ALWAYS_NORMAL, seed=3),
         "zero_shot_z_only_always_normal.json"),
    ])
    def test_manifest_name(self, paradigm, k, agent, name):
        prompt = promptkit.PromptConfig(paradigm=paradigm, k_examples=k)
        assert evalkit.manifest_name(RunConfig(prompt=prompt, agent=agent)) == name


def _hybrid_records(dataset, model, n, agent=agents.REFERENCE_RULE, endpoint=None):
    """Targets and manifest records of a hybrid run on the first n test samples."""
    head = replace(dataset, splits={**dataset.splits, "test": dataset.splits["test"][:n]})
    run = RunConfig(prompt=promptkit.PromptConfig(paradigm=promptkit.HYBRID_SELECT),
                    agent=agents.AgentKind(agent), endpoint=endpoint)
    _, manifest = run_hybrid_experiment(run, model, dataset=head)
    return head.split_samples("test"), manifest["samples"]


class TestHybridStatsCheck:
    @pytest.mark.parametrize("field", ["mean", "std"])
    def test_differing_sensor_named_with_both_values(self, dataset42, model42, field):
        ours = getattr(model42.input_stats, field).copy()
        ours[17] = np.nextafter(ours[17], np.inf)
        model = replace(model42, input_stats=replace(model42.input_stats, **{field: ours}))
        theirs = getattr(dataset42.stats, field)[17]
        name = dataset42.layout.entries[17].name
        with pytest.raises(DatasetError, match=re.escape(
                "the model was trained on other stats than the dataset's "
                f"stats.json ({field} of {name}: {float(ours[17])!r} against "
                f"{float(theirs)!r}); rerun train-dl")):
            run_hybrid_experiment(RunConfig(), model, dataset42)

    def test_differing_count_gives_both_counts(self, dataset42, model42):
        model = replace(model42, input_stats=replace(model42.input_stats, n=600))
        with pytest.raises(DatasetError, match=re.escape(
                "trained on other stats (n=600) than the dataset's stats.json "
                "(n=1200); rerun train-dl")):
            run_hybrid_experiment(RunConfig(), model, dataset42)


class TestHybridSelection:
    def test_llm_selection_matches_reference(self, dataset42, model42):
        targets, records = _hybrid_records(dataset42, model42, 40)
        for s, record in zip(targets, records):
            want = top_abs_z(np.abs(zscores(s.features, dataset42.stats)), 8)
            assert record["selection"] == want.tolist()
            assert record["selection_source"] == SOURCE_LLM

    def test_misspelled_sensor_dropped(self, dataset42, model42, monkeypatch):
        def fake_complete(prompt, agent, endpoint=None, cache=None):
            return "Pf_7\nNot_A_Sensor\nQ_3\n"

        monkeypatch.setattr(agents, "complete", fake_complete)
        _, records = _hybrid_records(dataset42, model42, 1)
        names = [dataset42.layout.entries[i].name for i in records[0]["selection"]]
        assert names == ["Pf_7", "Q_3"]

    def test_unreachable_endpoint_falls_back_to_full(self, dataset42, model42):
        endpoint = agents.EndpointConfig(
            base_url="http://127.0.0.1:1",  # nothing listens here
            model_name="m",
            timeout=0.2,
            retries=0,
        )
        _, records = _hybrid_records(
            dataset42, model42, 1, agents.HTTP_ENDPOINT, endpoint
        )
        assert records[0]["selection_source"] == SOURCE_FULL
        assert records[0]["selection"] == []

    def test_empty_reply_falls_back_to_full(self, dataset42, model42, monkeypatch):
        monkeypatch.setattr(agents, "complete", lambda *a, **k: "nothing useful\n")
        _, records = _hybrid_records(dataset42, model42, 1)
        assert records[0]["selection_source"] == SOURCE_FULL

    def test_timeout_falls_back_for_that_sample_only(
        self, dataset42, model42, stub_server
    ):
        config = promptkit.PromptConfig(
            paradigm=promptkit.HYBRID_SELECT, variant=promptkit.VARIANT_Z_ONLY, m_select=8,
        )
        slow = dataset42.split_ids("test")[1]
        slow_text = next(promptkit.render_prompts(dataset42, [slow], config)).text

        def behavior(text, n):
            if text == slow_text:
                return {"kind": "sleep", "seconds": 1.0}
            return {"kind": "reply", "text": "Pf_7\nQ_3"}

        stub_server.behavior = behavior
        endpoint = endpoint_for(stub_server, timeout=0.3, retries=0)
        _, records = _hybrid_records(
            dataset42, model42, 4, agents.HTTP_ENDPOINT, endpoint
        )
        assert [r["selection_source"] for r in records] == [
            SOURCE_LLM, SOURCE_FULL, SOURCE_LLM, SOURCE_LLM
        ]
        assert len(stub_server.requests) == 4

    def test_programming_error_propagates(self, dataset42, model42, monkeypatch):
        def broken_complete(*args, **kwargs):
            raise TypeError("not an agent failure")

        monkeypatch.setattr(agents, "complete", broken_complete)
        with pytest.raises(TypeError, match="not an agent failure"):
            _hybrid_records(dataset42, model42, 1)


class TestAblationTable:
    def _report(self, acc, rec, prec, f1):
        return MetricsReport(
            accuracy=acc, recall=rec, precision=prec, f1=f1,
            counts=ConfusionCounts(1, 1, 1, 1),
        )

    def test_zero_shot_variant_rows(self):
        rows = [
            ("Z_score", self._report(0.785, 0.645, 0.896, 0.750)),
            ("Value", self._report(0.525, 0.120, 0.632, 0.202)),
            ("Mean-Std-Value-Z", self._report(0.605, 0.795, 0.576, 0.668)),
            ("Mean-Std-Value", self._report(0.522, 0.565, 0.521, 0.542)),
        ]
        table = ablation_table(rows)
        lines = table.strip().splitlines()
        assert lines[0].split()[:2] == ["Configuration", "Accuracy"]
        body = [line.split()[0] for line in lines[2:]]
        assert body == ["Value", "Mean-Std-Value", "Mean-Std-Value-Z", "Z_score"]

    def test_five_paradigm_order(self):
        rows = [
            ("Hybrid", self._report(0.973, 0.965, 0.980, 0.972)),
            ("ICL", self._report(0.815, 0.865, 0.786, 0.824)),
            ("Zero-shot", self._report(0.785, 0.645, 0.896, 0.750)),
            ("Fine-tuned", self._report(0.805, 0.990, 0.723, 0.835)),
            ("Few-shot", self._report(0.775, 0.880, 0.727, 0.796)),
        ]
        table = ablation_table(rows)
        body = [line.split()[0] for line in table.strip().splitlines()[2:]]
        # No paradigm reports as "Fine-tuned", so the label sorts as unknown,
        # after every canonical row.
        assert body == ["Zero-shot", "Few-shot", "ICL", "Hybrid", "Fine-tuned"]

    def test_lift_row_matches_published_numbers(self):
        rows = [
            ("Traditional DL", self._report(0.870, 0.980, 0.803, 0.883)),
            ("LLM + DL", self._report(0.973, 0.965, 0.980, 0.972)),
        ]
        table = ablation_table(rows, with_lift=True)
        lift_line = table.strip().splitlines()[-1]
        assert lift_line.startswith("Performance lift")
        cells = lift_line.split()
        assert cells[-1] == "10.08%"
        assert cells[-4] == "11.84%"
        assert cells[-3] == "-1.53%"

    def test_duplicate_rows_rejected(self):
        rows = [("Hybrid", self._report(1, 1, 1, 1)), ("Hybrid", self._report(1, 1, 1, 1))]
        with pytest.raises(GridSigmaError, match="duplicate"):
            ablation_table(rows)

    def test_undefined_renders_na(self):
        rows = [("Zero-shot", self._report(0.5, None, None, None))]
        table = ablation_table(rows)
        assert "n/a" in table

    def test_json_format(self):
        rows = [("Zero-shot", self._report(0.785, 0.645, 0.896, 0.750))]
        doc = json.loads(ablation_table(rows, fmt="json"))
        assert doc["rows"][0]["configuration"] == "Zero-shot"
        assert doc["rows"][0]["f1"] == 0.750

    def test_md_format(self):
        rows = [("Zero-shot", self._report(0.785, 0.645, 0.896, 0.750))]
        table = ablation_table(rows, fmt="md")
        assert table.startswith("| Configuration")
        assert "| Zero-shot" in table


def _write_dataset(data, jsonl: bytes, stats_text: str, meta_text: str):
    data.mkdir(parents=True, exist_ok=True)
    (data / "dataset.jsonl").write_bytes(jsonl)
    (data / "stats.json").write_text(stats_text, encoding="utf-8")
    (data / "meta.json").write_text(meta_text, encoding="utf-8")
    return data


@pytest.fixture(scope="module")
def tiny_files():
    """A 6-sample dataset and its three files: dataset.jsonl as bytes."""
    case = builtin_ieee14()
    ds = build_dataset(case, synth_load_profile(3, len(case.buses), seed=1),
                       default_layout(case),
                       sizes=SplitSizes(train=2, validation=2, test=2), seed=1)
    jsonl = legacy_formats.written(ds)[0].encode()
    return ds, jsonl, stats_to_json(ds.stats), meta_to_json(ds)


def _same_samples(loaded, built):
    assert len(loaded.features) == len(built.features)
    for a, b in zip(legacy_formats.samples(loaded), legacy_formats.samples(built)):
        assert (a.id, a.hour, a.label, a.injected, a.deltas) == (
            b.id, b.hour, b.label, b.injected, b.deltas)
        assert a.features.tobytes() == b.features.tobytes()


class TestStreamedLoader:
    """load_dataset_dir reads dataset.jsonl line by line, each line's bytes
    hashed and then decoded; the file is opened with a read buffer of a few
    bytes, so lines and characters fall across the reads behind each line."""

    @pytest.fixture(autouse=True, params=[1, 5, 7])
    def small_reads(self, request, monkeypatch):
        path_open = Path.open
        opened = []

        def small_buffer_open(path, mode="r", *args, **kwargs):
            if mode != "rb":
                return path_open(path, mode, *args, **kwargs)
            opened.append(path.name)
            return io.BufferedReader(io.FileIO(path), request.param)

        monkeypatch.setattr(Path, "open", small_buffer_open)
        yield
        assert opened == ["dataset.jsonl"]

    def test_multibyte_character_across_chunks(self, tiny_files, tmp_path):
        ds, jsonl, stats_text, meta_text = tiny_files
        # Keys the loader does not read may hold any text: é, € and an emoji
        # take 2, 3 and 4 bytes, so the small reads split each of them.
        jsonl = jsonl.replace(b'{"id":1,', '{"note":"é€\U0001F600","id":1,'.encode(), 1)
        assert "€".encode() in jsonl
        data = _write_dataset(tmp_path / "d", jsonl, stats_text, meta_text)
        loaded = scenario.load_dataset_dir(data)
        _same_samples(loaded, ds)
        assert loaded.jsonl_digest == hashlib.sha256(jsonl).hexdigest()

    @pytest.mark.parametrize("edit", [
        lambda raw: raw.rstrip(b"\n"),
        lambda raw: b"\n" + raw.replace(b"\n", b"\n\n", 3) + b"\n  \n",
        lambda raw: raw.replace(b"\n", b"\r\n"),
        lambda raw: raw.replace(b"\n", b"\r\n").rstrip(b"\r\n"),
    ], ids=["no-final-newline", "blank-lines", "crlf", "crlf-no-final-newline"])
    def test_line_endings(self, tiny_files, tmp_path, edit):
        ds, jsonl, stats_text, meta_text = tiny_files
        jsonl = edit(jsonl)
        data = _write_dataset(tmp_path / "d", jsonl, stats_text, meta_text)
        loaded = scenario.load_dataset_dir(data)
        _same_samples(loaded, ds)
        assert loaded.jsonl_digest == hashlib.sha256(jsonl).hexdigest()

    @pytest.mark.parametrize("where", [0.0, 0.5, 1.0], ids=["first", "middle", "last"])
    def test_non_utf8_byte_gives_file_offset(self, tiny_files, tmp_path, where):
        _, jsonl, stats_text, meta_text = tiny_files
        # Inside a line; "last" makes it the last byte of a file that does
        # not end in a newline. The offset counts the lines before it.
        at = int(where * (len(jsonl) - 2)) + 1
        assert (jsonl.count(b"\n", 0, at) > 0) == (where > 0)
        jsonl = jsonl[:at] + b"\xff" + jsonl[at:]
        data = _write_dataset(tmp_path / "d", jsonl.rstrip(b"\n"), stats_text,
                              meta_text)
        with pytest.raises(DatasetError, match=re.escape(
                f"{data / 'dataset.jsonl'}: not UTF-8 text "
                f"(byte {at}: invalid start byte)")):
            scenario.load_dataset_dir(data)

    def test_truncated_character_at_end_gives_file_offset(self, tiny_files, tmp_path):
        _, jsonl, stats_text, meta_text = tiny_files
        data = _write_dataset(tmp_path / "d", jsonl + "é".encode()[:1], stats_text,
                              meta_text)
        with pytest.raises(DatasetError, match=re.escape(
                f"not UTF-8 text (byte {len(jsonl)}: unexpected end of data)")):
            scenario.load_dataset_dir(data)


def test_line_longer_than_any_read_buffer(tiny_files, tmp_path):
    ds, jsonl, stats_text, meta_text = tiny_files
    note = "€" * (1 << 20)  # 3 MiB of text on line 2
    jsonl = jsonl.replace(b'{"id":1,', f'{{"note":"{note}","id":1,'.encode(), 1)
    data = _write_dataset(tmp_path / "d", jsonl, stats_text, meta_text)
    loaded = scenario.load_dataset_dir(data)
    _same_samples(loaded, ds)
    assert loaded.jsonl_digest == hashlib.sha256(jsonl).hexdigest()


@pytest.fixture(scope="module")
def dir42(dataset42, tmp_path_factory):
    """The seed-42 dataset's files, as `generate` writes them, but without
    the dataset.columns cache: each load parses dataset.jsonl."""
    data = tmp_path_factory.mktemp("d42")
    scenario.write_dataset_dir(dataset42, data)
    (data / scenario.COLUMNS_FILE).unlink()
    return data


class TestLoadedDataset:
    def test_evalkit_name_is_the_scenario_loader(self):
        assert evalkit.load_dataset_dir is scenario.load_dataset_dir

    def test_digest_is_that_of_the_file(self, dir42):
        raw = (dir42 / "dataset.jsonl").read_bytes()
        assert len(raw) > 4 * io.DEFAULT_BUFFER_SIZE  # read in several buffers
        loaded = scenario.load_dataset_dir(dir42)
        assert loaded.jsonl_digest == hashlib.sha256(raw).hexdigest()

    def test_features_bit_equal_and_read_only(self, dir42, dataset42):
        loaded = scenario.load_dataset_dir(dir42)
        _same_samples(loaded, dataset42)
        for ds in (loaded, dataset42):
            first, last = ds.by_id(0).features, ds.by_id(len(ds.features) - 1).features
            # Row views of one (n, d) matrix.
            assert first.base is last.base is not None
            assert first.base.shape == (len(ds.features), len(ds.layout))
            with pytest.raises(ValueError, match="read-only"):
                last[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                first.base[0, 0] = 1.0

    def test_traced_peak_stays_below_one_and_a_half_files(self, dir42):
        size = (dir42 / "dataset.jsonl").stat().st_size
        tracemalloc.start()
        try:
            scenario.load_dataset_dir(dir42)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Holding the file's bytes and its decoded text took 2.35 files.
        assert peak < 1.5 * size

    def test_loaded_dataset_keeps_its_matrix_and_columns_only(self, tmp_path):
        # 4,000 samples: the matrix holds 544 bytes a row; the columns (hour,
        # label, injected indices and deltas with offsets, split ids) about 50.
        case = builtin_ieee14()
        ds = build_dataset(case, synth_load_profile(2000, len(case.buses), seed=3),
                           default_layout(case),
                           sizes=SplitSizes(train=3000, validation=500, test=500), seed=3)
        data = tmp_path / "d"
        scenario.write_dataset_dir(ds, data)
        (data / scenario.COLUMNS_FILE).unlink()  # the parse is measured
        del ds
        tracemalloc.start()
        try:
            loaded = scenario.load_dataset_dir(data)
            kept, peak = tracemalloc.get_traced_memory()
            blocks = sum(stat.count for stat in
                         tracemalloc.take_snapshot().statistics("filename"))
        finally:
            tracemalloc.stop()
        matrix = loaded.features.nbytes
        assert matrix == 4000 * 68 * 8
        assert kept <= 1.1 * matrix
        assert blocks < 1000  # no object per sample
        assert peak < 2 * matrix



# --------------------------------------------------------------------------
# dataset.columns, the cache of the loader's columns that `generate` writes

_COLUMN_NAMES = [name for name, _, _ in scenario._COLUMNS]


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """Directories `generate` wrote at 80 samples, by seed (42 and 43)."""
    dirs = {}
    for seed in (42, 43):
        data = tmp_path_factory.mktemp(f"gen{seed}") / "data"
        assert cli.main(["generate", "--samples", "80", "--seed", str(seed),
                         "--out", str(data)]) == 0
        dirs[seed] = data
    return dirs


def _copy(data, tmp_path, cache=True) -> Path:
    """A copy of the dataset directory data, with or without dataset.columns."""
    copy = Path(shutil.copytree(data, tmp_path / "copy"))
    if not cache:
        (copy / scenario.COLUMNS_FILE).unlink()
    return copy


@pytest.fixture(scope="module")
def parsed42(generated, tmp_path_factory):
    """The seed-42 directory loaded by parsing dataset.jsonl: no cache."""
    return scenario.load_dataset_dir(
        _copy(generated[42], tmp_path_factory.mktemp("parsed42"), cache=False))


def _assert_same_load(a, b):
    arrays = [(name, getattr(a, name), getattr(b, name)) for name in _COLUMN_NAMES]
    arrays += [(f"splits[{name!r}]", a.splits[name], b.splits[name]) for name in b.splits]
    arrays += [(f"stats.{name}", getattr(a.stats, name), getattr(b.stats, name))
               for name in ("mean", "std")]
    for name, x, y in arrays:
        assert (x.dtype, x.shape, x.flags.writeable) == (
            y.dtype, y.shape, y.flags.writeable), name
        assert x.tobytes() == y.tobytes(), name
    assert a.splits.keys() == b.splits.keys()
    assert (a.stats.n, a.stats.split, a.layout, a.master_seed, a.jsonl_digest) == (
        b.stats.n, b.stats.split, b.layout, b.master_seed, b.jsonl_digest)


def _edited(name, change):
    """An edit of a dataset directory: the file name's bytes changed by change."""
    def edit(data):
        path = data / name
        raw = path.read_bytes()
        path.write_bytes(change(raw))
        assert path.read_bytes() != raw

    return edit


class TestColumnsCache:
    def test_header_then_an_np_save_record_per_column(self, generated, parsed42):
        data = generated[42]
        head, records = (data / scenario.COLUMNS_FILE).read_bytes().split(b"\n", 1)
        assert json.loads(head) == {
            "format": 1,
            "dataset.jsonl": hashlib.sha256(
                (data / "dataset.jsonl").read_bytes()).hexdigest(),
            "payload": hashlib.sha256(records).hexdigest(),
        }
        saved = io.BytesIO()
        for name in _COLUMN_NAMES:
            np.save(saved, getattr(parsed42, name), allow_pickle=False)
        assert records == saved.getvalue()

    def test_cache_load_equals_the_parse(self, generated, parsed42, monkeypatch,
                                         caplog):
        def no_parse(*args):
            raise AssertionError("dataset.jsonl was parsed")

        monkeypatch.setattr(scenario, "_parse_jsonl", no_parse)
        with caplog.at_level("WARNING", logger="gridsigma"):
            loaded = scenario.load_dataset_dir(generated[42])
        _assert_same_load(loaded, parsed42)
        assert not caplog.records

    @pytest.mark.parametrize("spoil, warnings", [
        (lambda cache, other: cache.unlink(), 0),
        (lambda cache, other: shutil.copyfile(other, cache), 1),
        (lambda cache, other: cache.write_bytes(cache.read_bytes()[:-100]), 1),
        (lambda cache, other: cache.write_bytes(_flip(cache.read_bytes(), 0.5)), 1),
        (lambda cache, other: cache.write_bytes(
            b"not a header\n" + cache.read_bytes().split(b"\n", 1)[1]), 1),
        (lambda cache, other: (cache.unlink(), cache.mkdir()), 1),
        (lambda cache, other: cache.write_bytes(cache.read_bytes() + b"\0"), 1),
        # numpy's header parser raises tokenize.TokenError on this one.
        (lambda cache, other: cache.write_bytes(
            cache.read_bytes().replace(b"{'descr'", b"}'descr'", 1)), 1),
    ], ids=["absent", "stale", "truncated", "flipped-payload-byte", "garbage-header",
            "directory", "trailing-byte", "npy-header-unparsable"])
    def test_unusable_cache_falls_back_to_the_parse(self, generated, parsed42,
                                                     tmp_path, caplog, spoil,
                                                     warnings):
        data = _copy(generated[42], tmp_path)
        cache = data / scenario.COLUMNS_FILE
        spoil(cache, generated[43] / scenario.COLUMNS_FILE)
        with caplog.at_level("WARNING", logger="gridsigma"):
            loaded = scenario.load_dataset_dir(data)
        _assert_same_load(loaded, parsed42)
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == warnings
        assert all(m.startswith(f"{cache} not used: ") for m in messages)

    @pytest.mark.parametrize("name, change, reason", [
        ("anomalous", lambda c: ~c,
         "sample 0: label 'anomaly' inconsistent with injected ()"),
        ("hours", lambda c: c[:-1], "hours holds 79 values, not 80"),
        ("injected", lambda c: c[:-1], "ends run from 0 to 120, not from 0 to 119"),
        ("deltas", lambda c: c[:-1], "deltas holds 119 values, not 120"),
        ("ends", lambda c: np.concatenate((c[:-2], c[-1:] + 1, c[-1:])),
         "sample 79: its offsets decrease"),
        # Each step of np.diff wraps to a positive count; the offsets still fall.
        ("ends", lambda c: np.concatenate(
            (c[:41], [2**63 - 1, -2**63 + 5, -2**62, 0], c[45:])),
         "sample 41: its offsets decrease"),
        ("features", lambda c: np.where(np.arange(c.size).reshape(c.shape) == 5,
                                        np.nan, c),
         "sample 0: non-finite feature or delta"),
        # Sample 40 is the first anomaly, so its first index is the first.
        ("injected", lambda c: np.where(np.arange(c.size) == 0, 68, c).astype("<i4"),
         "sample 40: injected [68, 19, 59] outside the 68 features"),
        ("hours", lambda c: c.astype("<i4"),
         "hours is a <i4 record of shape (80,), not <i8 in 1 dimensions"),
        ("anomalous", lambda c: c.astype("u1"),
         "anomalous is a |u1 record of shape (80,), not |b1 in 1 dimensions"),
        ("features", lambda c: c.ravel(),
         "features is a <f8 record of shape (5440,), not <f8 in 2 dimensions"),
        ("features", lambda c: {"descr": "<f8", "fortran_order": False,
                                "shape": (1 << 40, 68)},
         "features runs past the end of the file"),
    ], ids=["labels", "hours-short", "injected-short", "deltas-short", "ends-decrease",
            "ends-wrap", "nan-feature", "injected-index", "hours-int32",
            "anomalous-uint8", "features-flat", "features-huge"])
    def test_cache_of_other_columns_falls_back(self, generated, parsed42, tmp_path,
                                               caplog, name, change, reason):
        # Both digests hold; a dict stands for a bare npy header, with no data.
        records = io.BytesIO()
        for n in _COLUMN_NAMES:
            column = getattr(parsed42, n)
            changed = change(column) if n == name else column
            if isinstance(changed, dict):
                np.lib.format.write_array_header_1_0(records, changed)
            else:
                np.save(records, changed, allow_pickle=False)
        header = {"format": 1, "dataset.jsonl": parsed42.jsonl_digest,
                  "payload": hashlib.sha256(records.getvalue()).hexdigest()}
        data = _copy(generated[42], tmp_path)
        cache = data / scenario.COLUMNS_FILE
        cache.write_bytes(json.dumps(header).encode() + b"\n" + records.getvalue())
        with caplog.at_level("WARNING", logger="gridsigma"):
            loaded = scenario.load_dataset_dir(data)
        _assert_same_load(loaded, parsed42)
        assert [r.getMessage() for r in caplog.records] == [f"{cache} not used: {reason}"]

    @pytest.mark.parametrize("edit", [
        _edited("dataset.jsonl",
                lambda raw: raw.replace(b'"label":"normal"', b'"label":"ok"', 1)),
        _edited("dataset.jsonl", lambda raw: re.sub(
            rb'(anomaly","injected":\[)\d+', rb"\g<1>68", raw, count=1)),
        _edited("dataset.jsonl", lambda raw: raw.replace(b'{"id":0,', b'{"id":1,', 1)),
        _edited("dataset.jsonl",
                lambda raw: raw.replace(b'"features":[', b'"features":[NaN,', 1)),
        _edited("dataset.jsonl", lambda raw: raw[:40] + b"\xff" + raw[40:]),
        lambda data: _drop_last_sensor(data),
    ], ids=["label", "injected-index", "id", "nan-feature", "not-utf8",
            "sensor-dropped-from-meta-and-stats"])
    def test_hand_edit_raises_what_the_parse_raises(self, generated, tmp_path, edit):
        data = _copy(generated[42], tmp_path)
        edit(data)
        with pytest.raises(DatasetError) as with_cache:
            scenario.load_dataset_dir(data)
        (data / scenario.COLUMNS_FILE).unlink()
        with pytest.raises(DatasetError) as without:
            scenario.load_dataset_dir(data)
        assert str(with_cache.value) == str(without.value)

    @settings(max_examples=60, deadline=None)
    @given(edits=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                    st.integers(0, 255)), min_size=1, max_size=3))
    def test_any_byte_edit_still_loads_as_the_parse(self, generated, parsed42,
                                                    tmp_path_factory, edits):
        data = _copy(generated[42], tmp_path_factory.mktemp("fuzz"))
        cache = data / scenario.COLUMNS_FILE
        raw = bytearray(cache.read_bytes())
        for where, value in edits:
            raw[int(where * len(raw))] = value
        cache.write_bytes(bytes(raw))
        _assert_same_load(scenario.load_dataset_dir(data), parsed42)


def test_empty_dataset_jsonl_is_a_dataset_error(generated, tmp_path, capsys):
    # No sample is left: the empty feature matrix must reach the sample-count
    # check without a numpy error on the way, and dataset.jsonl is named, not
    # the intact meta.json.
    data = _copy(generated[42], tmp_path, cache=False)
    (data / "dataset.jsonl").write_bytes(b"")
    message = "dataset.jsonl: 0 samples, fewer than the 80 that meta.json's splits name"
    with pytest.raises(DatasetError, match=re.escape(message)):
        scenario.load_dataset_dir(data)
    assert cli.main(["run", "--data", str(data)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_truncated_dataset_jsonl_names_its_sample_count(generated, tmp_path, capsys):
    data = _copy(generated[42], tmp_path, cache=False)
    lines = (data / "dataset.jsonl").read_bytes().splitlines(keepends=True)
    (data / "dataset.jsonl").write_bytes(b"".join(lines[:-1]))
    assert cli.main(["run", "--data", str(data)]) == 1
    assert capsys.readouterr().err == (
        "error: dataset.jsonl: 79 samples, fewer than the 80 that meta.json's "
        "splits name\n")


def _flip(raw: bytes, where: float) -> bytes:
    """raw with the bits of the byte at the fraction where of it flipped."""
    at = int(where * len(raw))
    return raw[:at] + bytes([raw[at] ^ 0xFF]) + raw[at + 1 :]


def _drop_last_sensor(data):
    """Drop the last sensor from meta.json's layout and from stats.json, so
    that both still agree and only dataset.jsonl has a feature too many."""
    for name, key in (("meta.json", "layout"), ("stats.json", "mean"),
                      ("stats.json", "std")):
        doc = json.loads((data / name).read_text())
        doc[key].pop()
        (data / name).write_text(json.dumps(doc, indent=2))
