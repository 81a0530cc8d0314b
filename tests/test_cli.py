import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gridsigma
import legacy_formats
from gridsigma import agents, cli, detectors, evalkit, promptkit, ruleoracle, scenario
from gridsigma.cli import main


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One small end-to-end pipeline shared by the read-only CLI tests."""
    data = tmp_path_factory.mktemp("cli") / "data"
    assert main(["generate", "--samples", "400", "--seed", "42",
                 "--out", str(data)]) == 0
    assert main(["train-dl", "--data", str(data), "--seed", "42"]) == 0
    assert main(["run", "--data", str(data), "--paradigm", "zero-shot",
                 "--variant", "z_only", "--agent", "reference"]) == 0
    return data


def _generate_capturing(monkeypatch, out, *flags, edit=lambda ds: ds):
    """Run `generate`, passing the dataset it builds through edit first;
    return the exit code and the dataset that was handed to the writers
    (None if edit raised)."""
    built = []
    build = scenario.build_dataset

    def capture(*args, **kwargs):
        built.append(edit(build(*args, **kwargs)))
        return built[-1]

    monkeypatch.setattr(cli.scenario, "build_dataset", capture)
    rc = main(["generate", "--seed", "3", "--out", str(out), *flags])
    return rc, built[0] if built else None


def _write_train_stats(data):
    """Rewrite stats.json from the train split that meta.json names, as
    `generate` computes it."""
    meta = json.loads((data / "meta.json").read_text())
    lines = (data / "dataset.jsonl").read_text().splitlines()
    train = np.array([json.loads(lines[i])["features"] for i in meta["splits"]["train"]])
    (data / "stats.json").write_text(
        scenario.stats_to_json(scenario.compute_stats(train, range(len(train)))))


def _spoil_last_sample(changes):
    def edit(ds):
        samples = legacy_formats.samples(ds)
        last = replace(samples[-1], **changes(samples[-1]))
        return legacy_formats.dataset_of(samples[:-1] + (last,), ds.layout, ds.splits,
                                         ds.stats, ds.master_seed)
    return edit


class TestGenerate:
    @pytest.mark.parametrize("flags", [[], ["--include-voltage"]],
                             ids=["68-sensors", "82-sensors"])
    def test_files_equal_legacy_writers(self, tmp_path, monkeypatch, capsys, flags):
        out = tmp_path / "d"
        rc, ds = _generate_capturing(monkeypatch, out, "--samples", "640", *flags)
        assert rc == 0
        assert len(ds.features) > 2 * scenario._BLOCK_ROWS
        assert (out / "dataset.jsonl").read_text(encoding="utf-8") == (
            legacy_formats.dataset_to_jsonl(ds))
        assert (out / "features.csv").read_text(encoding="utf-8") == (
            legacy_formats.features_to_csv(ds))
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {out / name}"
            for name in ("dataset.jsonl", "stats.json", "meta.json", "features.csv",
                         "dataset.columns")
        ]

    def test_in_memory_digest_is_written_file_digest(self, tmp_path, monkeypatch,
                                                     capsys):
        rc, ds = _generate_capturing(monkeypatch, tmp_path / "d", "--samples", "640")
        assert rc == 0 and ds.jsonl_digest is None
        digest = evalkit._dataset_digest_of(ds)
        assert digest == hashlib.sha256(
            legacy_formats.written(ds)[0].encode("utf-8")).hexdigest()
        assert digest == scenario.load_dataset_dir(tmp_path / "d").jsonl_digest

    @pytest.mark.parametrize("changes, message", [
        (lambda s: {"features": np.where(np.arange(len(s.features)) == 4,
                                         np.nan, s.features)},
         "non-finite feature or delta"),
        (lambda s: {"deltas": (np.inf,) + s.deltas[1:]}, "non-finite feature or delta"),
        (lambda s: {"injected": (68,), "deltas": (0.5,)},
         "injected [68] outside the 68 features"),
        (lambda s: {"injected": (), "deltas": ()},
         "label 'anomaly' inconsistent with injected ()"),
        (lambda s: {"label": "normal", "injected": (5,), "deltas": (0.5,)},
         "label 'normal' inconsistent with injected (5,)"),
    ], ids=["nan-feature", "inf-delta", "injected-index", "anomaly-without-index",
            "normal-with-index"])
    def test_refused_dataset_leaves_no_files(self, tmp_path, monkeypatch, capsys,
                                             changes, message):
        out = tmp_path / "d"
        # The writers refuse the spoilt last sample, as the loader would,
        # before any file is made.
        rc, _ = _generate_capturing(monkeypatch, out, "--samples", "640",
                                    edit=_spoil_last_sample(changes))
        assert rc == 1
        assert f"error: sample 639: {message}\n" in capsys.readouterr().err
        for name in ("dataset.jsonl", "features.csv", "stats.json", "meta.json",
                     "dataset.columns"):
            assert not (out / name).exists(), name

    def test_writes_expected_files(self, pipeline_dir, capsys):
        for name in ("dataset.jsonl", "stats.json", "meta.json", "features.csv"):
            assert (pipeline_dir / name).exists()

    def test_prints_written_paths(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["generate", "--samples", "80", "--seed", "1",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert str(out / "dataset.jsonl") in printed
        assert str(out / "stats.json") in printed

    def test_sample_count_validated(self, tmp_path):
        assert main(["generate", "--samples", "100", "--seed", "1",
                     "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("flags, message", [
        (["--k-inject", "0"], "k_inject must lie in [1, 68]"),
        (["--k-inject=-2"], "k_inject must lie in [1, 68]"),
        (["--k-inject", "69"], "k_inject must lie in [1, 68]"),
        (["--k-inject", "83", "--include-voltage"], "k_inject must lie in [1, 82]"),
        (["--magnitude", "nan"], "magnitude must be finite and positive, got nan"),
        (["--magnitude", "inf"], "magnitude must be finite and positive, got inf"),
        (["--magnitude", "0"], "magnitude must be finite and positive, got 0.0"),
        (["--magnitude=-1"], "magnitude must be finite and positive, got -1.0"),
        (["--samples", "0"], "--samples must be at least 8, got 0"),
        (["--samples=-8"], "--samples must be at least 8, got -8"),
    ], ids=["k-0", "k-negative", "k-69", "k-83-voltage", "magnitude-nan",
            "magnitude-inf", "magnitude-0", "magnitude-negative", "samples-0",
            "samples-negative"])
    def test_bad_injection_arguments_refused_before_solving(
            self, tmp_path, monkeypatch, capsys, flags, message):
        def no_solve(*args, **kwargs):
            raise AssertionError("an hour was solved")

        monkeypatch.setattr(scenario, "solve_hours", no_solve)
        out = tmp_path / "d"
        assert main(["generate", "--seed", "1", "--out", str(out), *flags]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_ingestion_path(self, tmp_path, capsys):
        profile_csv = tmp_path / "profile.csv"
        header = ",".join(str(i) for i in range(1, 15))
        rows = [",".join("1.0" for _ in range(14)) for _ in range(40)]
        profile_csv.write_text(header + "\n" + "\n".join(rows) + "\n")
        out = tmp_path / "d"
        assert main(["generate", "--samples", "80", "--seed", "1",
                     "--out", str(out), "--load-csv", str(profile_csv)]) == 0


class TestRunAndReport:
    def test_run_prints_metrics_table(self, pipeline_dir, capsys):
        assert main(["run", "--data", str(pipeline_dir), "--paradigm", "few-shot",
                     "--variant", "z_only", "--agent", "always-normal"]) == 0
        out = capsys.readouterr().out
        assert "Configuration" in out
        assert "Few-shot" in out
        assert "manifests" in out

    def test_manifest_written(self, pipeline_dir):
        path = pipeline_dir / "manifests" / "zero_shot_z_only_reference_rule.json"
        assert path.exists()
        doc = json.loads(path.read_text())
        assert doc["config"]["paradigm"] == "zero_shot"
        assert doc["config"]["model"] is None  # a mock agent calls no model
        assert "invalid_policy" not in doc["config"]
        assert set(doc["metrics"]) == {"as_wrong", "excluded"}
        assert len(doc["samples"]) == 50

    def test_manifest_digest_is_dataset_file_sha256(self, pipeline_dir):
        # The digest hashed from the file at load equals the digest of the
        # dataset re-serialised in memory.
        jsonl = (pipeline_dir / "dataset.jsonl").read_bytes()
        digest = hashlib.sha256(jsonl).hexdigest()
        loaded = scenario.load_dataset_dir(pipeline_dir)
        assert legacy_formats.written(loaded)[0].encode("utf-8") == jsonl
        path = pipeline_dir / "manifests" / "zero_shot_z_only_reference_rule.json"
        assert json.loads(path.read_text())["dataset_digest"] == digest

    def test_hybrid_command(self, pipeline_dir, capsys):
        assert main(["hybrid", "--data", str(pipeline_dir),
                     "--reference-topz"]) == 0
        out = capsys.readouterr().out
        assert "LLM + DL" in out

    def test_hybrid_with_reference_agent(self, pipeline_dir, capsys):
        assert main(["hybrid", "--data", str(pipeline_dir),
                     "--agent", "reference"]) == 0
        out = capsys.readouterr().out
        assert "LLM + DL" in out
        assert (pipeline_dir / "manifests" / "hybrid_reference_rule.json").exists()

    def test_mock_agents_write_no_cache(self, pipeline_dir, capsys):
        # The fixture ran `run --agent reference`; mock replies are recomputed
        # on every run, so neither command leaves a cache directory.
        assert not (pipeline_dir / "cache").exists()
        assert main(["hybrid", "--data", str(pipeline_dir), "--agent", "reference"]) == 0
        assert not (pipeline_dir / "cache").exists()

    def test_hybrid_with_nonselecting_agent_falls_back(self, pipeline_dir, capsys):
        # Coin-flip replies carry no sensor names: every selection falls back
        # to full-feature scoring but the run still produces metrics.
        assert main(["hybrid", "--data", str(pipeline_dir), "--agent",
                     "coin-flip", "--seed", "3"]) == 0
        doc = json.loads(
            (pipeline_dir / "manifests" / "hybrid_coin_flip3.json").read_text()
        )
        assert all(s["selection_source"] == "full" for s in doc["samples"])

    def test_include_voltage_layout_flows_through(self, tmp_path, capsys):
        data = tmp_path / "dv"
        assert main(["generate", "--samples", "80", "--seed", "5",
                     "--out", str(data), "--include-voltage"]) == 0
        assert main(["render", "--data", str(data), "--sample", "0"]) == 0
        out = capsys.readouterr().out
        assert "with 82 features per sample" in out
        assert "[V] voltage magnitudes" in out
        assert main(["run", "--data", str(data), "--paradigm", "zero-shot",
                     "--variant", "z_only", "--agent", "reference"]) == 0

    def test_hybrid_requires_model(self, tmp_path, capsys):
        data = tmp_path / "d"
        assert main(["generate", "--samples", "80", "--seed", "3",
                     "--out", str(data)]) == 0
        assert main(["hybrid", "--data", str(data),
                     "--agent", "reference"]) == 1
        assert "train-dl" in capsys.readouterr().err

    def test_report_contains_lift_section(self, pipeline_dir, capsys):
        assert main(["report", "--data", str(pipeline_dir)]) == 0
        out = capsys.readouterr().out
        assert "Traditional vs hybrid" in out
        assert "Performance lift" in out

    def test_report_without_manifests_fails(self, tmp_path):
        data = tmp_path / "d"
        assert main(["generate", "--samples", "80", "--seed", "3",
                     "--out", str(data)]) == 0
        assert main(["report", "--data", str(data)]) == 1


# The paper's published rows: (paradigm, variant, (accuracy, recall,
# precision, f1)), the detector's with no paradigm.
_PAPER_ROWS = [
    ("zero_shot", "value", (0.525, 0.120, 0.632, 0.202)),
    ("zero_shot", "mean_std_value", (0.522, 0.565, 0.521, 0.542)),
    ("zero_shot", "mean_std_value_z", (0.605, 0.795, 0.576, 0.668)),
    ("zero_shot", "z_only", (0.785, 0.645, 0.896, 0.750)),
    ("few_shot", "z_only", (0.775, 0.880, 0.727, 0.796)),
    ("icl", "z_only", (0.815, 0.865, 0.786, 0.824)),
    ("hybrid_select", "z_only", (0.973, 0.965, 0.980, 0.972)),
    (None, None, (0.870, 0.980, 0.803, 0.883)),
]


def _write_paper_manifests(data):
    """Hand-written manifests, one per paper row, with the configs the
    commands record; no two share a report label."""
    for paradigm, variant, (accuracy, recall, precision, f1) in _PAPER_ROWS:
        name = f"{paradigm}_{variant}_reference_rule.json"
        config = {"paradigm": paradigm, "variant": variant, "agent": "reference_rule",
                  "coin_seed": 7, "example_seed": 7,
                  "k_examples": {"few_shot": 2, "icl": 10}.get(paradigm, 0),
                  "m_select": 8, "decimals": 4, "model": None}
        if paradigm == "hybrid_select":
            name = "hybrid_reference_topz.json"
            config.update(selector="reference_topz", tau_hybrid=0.5, decimals=6)
        elif paradigm is None:
            name = "dl_detector.json"
            config = {"detector": "autoencoder", "threshold": 0.5, "train_seed": 42}
        metrics = {"accuracy": accuracy, "recall": recall, "precision": precision,
                   "f1": f1, "counts": {"tp": 1, "fp": 1, "fn": 1, "tn": 1},
                   "invalid_count": 0}
        evalkit.write_manifest({"config": config, "metrics": {"as_wrong": metrics}},
                               data / "manifests" / name)


_PAPER_REPORT_TEXT = """\
## Zero-shot ablation
Configuration     Accuracy  Recall  Precision  F1-score
-------------------------------------------------------
Value             52.5%     12.0%   63.2%      20.2%
Mean-Std-Value    52.2%     56.5%   52.1%      54.2%
Mean-Std-Value-Z  60.5%     79.5%   57.6%      66.8%
Z_score           78.5%     64.5%   89.6%      75.0%

## Prompting paradigms
Configuration  Accuracy  Recall  Precision  F1-score
----------------------------------------------------
Zero-shot      78.5%     64.5%   89.6%      75.0%
Few-shot       77.5%     88.0%   72.7%      79.6%
ICL            81.5%     86.5%   78.6%      82.4%
Hybrid         97.3%     96.5%   98.0%      97.2%

## Traditional vs hybrid
Configuration     Accuracy  Recall  Precision  F1-score
-------------------------------------------------------
Traditional DL    87.0%     98.0%   80.3%      88.3%
LLM + DL          97.3%     96.5%   98.0%      97.2%
Performance lift  11.84%    -1.53%  22.04%     10.08%
"""

_PAPER_REPORT_MD = """\
## Zero-shot ablation
| Configuration    | Accuracy | Recall | Precision | F1-score |
|------------------|----------|--------|-----------|----------|
| Value            | 52.5%    | 12.0%  | 63.2%     | 20.2%    |
| Mean-Std-Value   | 52.2%    | 56.5%  | 52.1%     | 54.2%    |
| Mean-Std-Value-Z | 60.5%    | 79.5%  | 57.6%     | 66.8%    |
| Z_score          | 78.5%    | 64.5%  | 89.6%     | 75.0%    |

## Prompting paradigms
| Configuration | Accuracy | Recall | Precision | F1-score |
|---------------|----------|--------|-----------|----------|
| Zero-shot     | 78.5%    | 64.5%  | 89.6%     | 75.0%    |
| Few-shot      | 77.5%    | 88.0%  | 72.7%     | 79.6%    |
| ICL           | 81.5%    | 86.5%  | 78.6%     | 82.4%    |
| Hybrid        | 97.3%    | 96.5%  | 98.0%     | 97.2%    |

## Traditional vs hybrid
| Configuration    | Accuracy | Recall | Precision | F1-score |
|------------------|----------|--------|-----------|----------|
| Traditional DL   | 87.0%    | 98.0%  | 80.3%     | 88.3%    |
| LLM + DL         | 97.3%    | 96.5%  | 98.0%     | 97.2%    |
| Performance lift | 11.84%   | -1.53% | 22.04%    | 10.08%   |
"""


@pytest.fixture()
def run_dir(pipeline_dir, tmp_path):
    """The shared pipeline's dataset, model and detector manifest, with no
    other manifest."""
    data = tmp_path / "data"
    (data / "manifests").mkdir(parents=True)
    for name in ("dataset.jsonl", "stats.json", "meta.json", "model.json",
                 "manifests/dl_detector.json"):
        shutil.copy(pipeline_dir / name, data / name)
    return data


def _report_doc(data, capsys) -> dict:
    """`report --format json --out data/reports`, parsed from the written file."""
    assert main(["report", "--data", str(data), "--format", "json",
                 "--out", str(data / "reports")]) == 0
    capsys.readouterr()
    return json.loads((data / "reports" / "report.json").read_text(encoding="utf-8"))


def _section(doc: dict, title: str) -> list[str]:
    """The row labels of the report section with that title."""
    [section] = [s for s in doc["sections"] if s["title"] == title]
    return [row["configuration"] for row in section["rows"]]


class TestReportRows:
    def test_unique_labels_keep_the_paper_layout(self, tmp_path, capsys):
        # With no two runs sharing a label, rows carry no suffix and the
        # text and md reports keep their established bytes.
        _write_paper_manifests(tmp_path)
        for fmt, want in (("text", _PAPER_REPORT_TEXT), ("md", _PAPER_REPORT_MD)):
            assert main(["report", "--data", str(tmp_path), "--format", fmt,
                         "--out", str(tmp_path / "reports")]) == 0
            assert capsys.readouterr().out.startswith(want)
            ext = {"text": "txt", "md": "md"}[fmt]
            assert (tmp_path / "reports" / f"report.{ext}").read_text() == want

    def test_json_report_is_one_document(self, tmp_path, capsys):
        _write_paper_manifests(tmp_path)
        doc = _report_doc(tmp_path, capsys)
        assert [s["title"] for s in doc["sections"]] == [
            "Zero-shot ablation", "Prompting paradigms", "Traditional vs hybrid"]
        assert _section(doc, "Zero-shot ablation") == [
            "Value", "Mean-Std-Value", "Mean-Std-Value-Z", "Z_score"]
        assert _section(doc, "Prompting paradigms") == [
            "Zero-shot", "Few-shot", "ICL", "Hybrid"]
        versus = doc["sections"][2]
        assert versus["columns"][0] == "Configuration"
        assert abs(versus["lift"]["f1"] * 100 - 10.08) <= 0.1
        assert all("lift" not in s for s in doc["sections"][:2])

    def test_two_agents_on_one_variant(self, run_dir, capsys):
        for agent in ("reference", "coin-flip"):
            assert main(["run", "--data", str(run_dir), "--paradigm", "zero-shot",
                         "--variant", "z_only", "--agent", agent]) == 0
        doc = _report_doc(run_dir, capsys)
        assert _section(doc, "Zero-shot ablation") == [
            "Z_score (coin_flip7)", "Z_score (reference_rule)"]
        assert _section(doc, "Prompting paradigms") == [
            "Zero-shot (coin_flip7)", "Zero-shot (reference_rule)"]

    def test_each_hybrid_run_gets_its_own_lift_table(self, run_dir, capsys):
        for flags in (["--reference-topz"], ["--agent", "reference"],
                      ["--agent", "coin-flip"]):
            assert main(["hybrid", "--data", str(run_dir), *flags]) == 0
        doc = _report_doc(run_dir, capsys)
        selectors = ["coin_flip7", "reference_rule", "reference_topz"]
        assert _section(doc, "Prompting paradigms") == [
            f"Hybrid ({s})" for s in selectors]
        manifests = run_dir / "manifests"
        dl = json.loads((manifests / "dl_detector.json").read_text())
        for selector, section in zip(selectors, doc["sections"][1:], strict=True):
            assert section["title"] == f"Traditional vs hybrid ({selector})"
            detector, hybrid = section["rows"]
            assert detector["configuration"] == "Traditional DL"
            assert detector["f1"] == dl["metrics"]["as_wrong"]["f1"]
            run = json.loads((manifests / f"hybrid_{selector}.json").read_text())
            assert hybrid["f1"] == run["metrics"]["as_wrong"]["f1"]
            assert section["lift"]["f1"] == pytest.approx(
                evalkit.lift(hybrid["f1"], detector["f1"]))

    def test_icl_at_two_example_counts(self, run_dir, capsys):
        for k in ("5", "10"):
            assert main(["run", "--data", str(run_dir), "--paradigm", "icl",
                         "--variant", "z_only", "--k", k]) == 0
        manifests = run_dir / "manifests"
        assert (manifests / "icl_z_only_reference_rule.json").exists()
        k5 = json.loads((manifests / "icl_z_only_reference_rule_k5.json").read_text())
        assert len(k5["example_ids"]) == 5
        doc = _report_doc(run_dir, capsys)
        assert _section(doc, "Prompting paradigms") == ["ICL (k=10)", "ICL (k=5)"]

    def test_http_runs_against_two_models(self, run_dir, capsys, stub_server,
                                          monkeypatch):
        # Each model keeps its own manifests; the model is escaped for a file name.
        monkeypatch.setenv(agents.ENV_BASE_URL,
                           f"http://127.0.0.1:{stub_server.server_address[1]}")
        for model in ("model-a", "org/model-b"):
            monkeypatch.setenv(agents.ENV_MODEL, model)
            assert main(["run", "--data", str(run_dir), "--agent", "http"]) == 0
            assert main(["hybrid", "--data", str(run_dir), "--agent", "http"]) == 0
        manifests = run_dir / "manifests"
        for name in ("zero_shot_z_only_http_endpoint_model-a.json",
                     "zero_shot_z_only_http_endpoint_org%2Fmodel-b.json",
                     "hybrid_http_endpoint_model-a.json",
                     "hybrid_http_endpoint_org%2Fmodel-b.json"):
            assert (manifests / name).exists()
        doc = _report_doc(run_dir, capsys)
        assert _section(doc, "Zero-shot ablation") == [
            "Z_score (model model-a)", "Z_score (model org/model-b)"]
        assert _section(doc, "Prompting paradigms") == [
            "Zero-shot (model model-a)", "Zero-shot (model org/model-b)",
            "Hybrid (model model-a)", "Hybrid (model org/model-b)"]

    @pytest.mark.parametrize("key, value, message", [
        ("agent", "oracle", "AgentError: unknown agent kind 'oracle'"),
        ("variant", "z", "KeyError: 'z'"),
        ("variant", ["z_only"], "TypeError: unhashable type: 'list'"),
        ("paradigm", "hybrid", "KeyError: 'hybrid'"),
    ])
    def test_bad_config_is_domain_error(self, tmp_path, capsys, key, value, message):
        _write_paper_manifests(tmp_path)
        path = tmp_path / "manifests" / "few_shot_z_only_reference_rule.json"
        doc = json.loads(path.read_text())
        doc["config"][key] = value
        path.write_text(json.dumps(doc))
        assert main(["report", "--data", str(tmp_path)]) == 1
        assert f"{path}: {message}" in capsys.readouterr().err


class TestOtherCommands:
    def test_render_prints_prompt(self, pipeline_dir, capsys):
        assert main(["render", "--data", str(pipeline_dir), "--sample", "1",
                     "--paradigm", "icl", "--variant", "mean_std_value_z"]) == 0
        out = capsys.readouterr().out
        assert "You are a power system analyst" in out
        assert out.count("Example ") == 10

    def test_render_hybrid_prints_the_prompt_hybrid_sends(self, pipeline_dir, capsys,
                                                          monkeypatch):
        ds = scenario.load_dataset_dir(pipeline_dir)
        model = detectors.model_from_json((pipeline_dir / "model.json").read_text())
        sent = []
        complete = agents.complete

        def recording(prompt, *args, **kwargs):
            sent.append(prompt.text)
            return complete(prompt, *args, **kwargs)

        monkeypatch.setattr(agents, "complete", recording)
        run = evalkit.RunConfig(prompt=promptkit.PromptConfig(
            paradigm=promptkit.HYBRID_SELECT, m_select=4))
        evalkit.run_hybrid_experiment(run, model, ds)
        test = ds.split_ids("test").tolist()
        assert len(sent) == len(test)
        assert main(["render", "--data", str(pipeline_dir), "--sample", str(test[3]),
                     "--paradigm", "hybrid", "--m", "4"]) == 0
        assert capsys.readouterr().out == sent[3]

    def test_render_hybrid_refuses_other_variants(self, pipeline_dir, capsys):
        assert main(["render", "--data", str(pipeline_dir), "--sample", "1",
                     "--paradigm", "hybrid", "--variant", "value"]) == 1
        assert ("hybrid_select requires variant z_only, got 'value'"
                in capsys.readouterr().err)

    def test_export_finetune(self, pipeline_dir, tmp_path, capsys):
        out_file = tmp_path / "ft.jsonl"
        assert main(["export-finetune", "--data", str(pipeline_dir),
                     "--out", str(out_file)]) == 0
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == 300
        record = json.loads(lines[0])
        assert [m["role"] for m in record["messages"]] == ["user", "assistant"]

    def test_export_finetune_equals_the_records(self, pipeline_dir, tmp_path,
                                                capsys):
        out_file = tmp_path / "ft.jsonl"
        assert main(["export-finetune", "--data", str(pipeline_dir),
                     "--out", str(out_file)]) == 0
        assert capsys.readouterr().out == f"wrote {out_file}\nrecords: 300\n"
        ds = scenario.load_dataset_dir(pipeline_dir)
        assert out_file.read_text(encoding="utf-8") == "".join(
            agents.export_finetune_dataset(ds)
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ft.jsonl"]

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_failed_export_leaves_no_file(self, pipeline_dir, tmp_path, capsys,
                                          monkeypatch, existing):
        # Record 5 gets no gold answer: the export stops with exit code 1,
        # writes no output, removes its temporary file and leaves an
        # earlier output as it was.
        calls = []
        original = ruleoracle.reference_agent

        def failing_at_5(bundle):
            calls.append(bundle.content_hash)
            if len(calls) == 5:
                return promptkit.AgentVerdict(
                    label=promptkit.INVALID, rationale="no label line", raw="",
                    parse_mode=promptkit.FAILED,
                )
            return original(bundle)

        monkeypatch.setattr(ruleoracle, "reference_agent", failing_at_5)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out_file = out_dir / "ft.jsonl"
        if existing:
            out_file.write_text("earlier\n", encoding="utf-8")
        assert main(["export-finetune", "--data", str(pipeline_dir),
                     "--out", str(out_file)]) == 1
        assert len(calls) == 5
        assert "could not render a gold answer" in capsys.readouterr().err
        assert sorted(p.name for p in out_dir.iterdir()) == (
            ["ft.jsonl"] if existing else []
        )
        if existing:
            assert out_file.read_text(encoding="utf-8") == "earlier\n"

    def test_write_is_byte_exact_across_slices(self, tmp_path, capsys):
        text = "é€x\n" * 300_000  # 1.2 million characters: two slices
        cli._write(tmp_path / "out" / "f.txt", text)
        assert (tmp_path / "out" / "f.txt").read_bytes() == text.encode("utf-8")


_LOADED_HTTP_MODULES = """
import json, sys
from gridsigma.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(json.dumps(sorted({"requests", "urllib3"} & set(sys.modules))))
"""


def test_mock_commands_never_load_the_http_stack(tmp_path):
    data = str(tmp_path / "data")
    commands = [
        ["generate", "--samples", "400", "--seed", "42", "--out", data],
        ["train-dl", "--data", data, "--seed", "42"],
        ["run", "--data", data, "--agent", "reference"],
    ]
    src = Path(gridsigma.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_HTTP_MODULES, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


class TestErrors:
    def test_unknown_paradigm_is_usage_error(self, pipeline_dir):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--data", str(pipeline_dir), "--paradigm", "frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["run", "hybrid"])
    def test_invalid_policy_flag_is_usage_error(self, pipeline_dir, capsys, command):
        # Every run manifest holds both policies' metrics; the flag is gone.
        with pytest.raises(SystemExit) as exc:
            main([command, "--data", str(pipeline_dir), "--invalid-policy", "excluded"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --invalid-policy" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--frobnicate", "--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["stats", "--data", "d"], ["export-case"]],
                             ids=["stats", "export-case"])
    def test_removed_subcommand_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("sample_id", ["5000", "-3"])
    def test_render_unknown_sample_is_domain_error(self, pipeline_dir, capsys, sample_id):
        assert main(["render", "--data", str(pipeline_dir), "--sample", sample_id]) == 1
        assert f"no sample with id {sample_id}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["render", "--sample", "1", "--paradigm", "hybrid", "--m", "-3"],
        ["hybrid", "--m", "0"],
    ], ids=["render", "hybrid"])
    def test_selection_size_below_one_is_domain_error(self, pipeline_dir, capsys, argv):
        assert main([argv[0], "--data", str(pipeline_dir), *argv[1:]]) == 1
        assert f"m_select must be >= 1, got {argv[-1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["generate-over-file", "generate-under-file",
                                      "export-finetune-over-dir", "report-over-file",
                                      "run-manifests-over-file"])
    def test_unwritable_output_is_domain_error(self, pipeline_dir, tmp_path, capsys,
                                               case):
        afile, adir = tmp_path / "afile", tmp_path / "adir"
        afile.write_text("kept\n", encoding="utf-8")
        adir.mkdir()
        # A copy of the dataset, with a file where its manifests/ goes.
        data = self._corrupted_copy(pipeline_dir, tmp_path, None, None)
        (data / "manifests").write_text("kept\n", encoding="utf-8")
        argv, path = {
            "generate-over-file": (["generate", "--samples", "80", "--out", str(afile)],
                                   afile),
            "generate-under-file": (["generate", "--samples", "80",
                                     "--out", str(afile / "sub")], afile / "sub"),
            "export-finetune-over-dir": (["export-finetune", "--data", str(pipeline_dir),
                                          "--out", str(adir)], adir),
            "report-over-file": (["report", "--data", str(pipeline_dir),
                                  "--out", str(afile)], afile / "report.txt"),
            "run-manifests-over-file": (
                ["run", "--data", str(data)],
                data / "manifests" / "zero_shot_z_only_reference_rule.json"),
        }[case]
        assert main(argv) == 1  # an uncaught OSError would raise here instead
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {path}: ")
        assert afile.read_text(encoding="utf-8") == "kept\n"
        assert not any(adir.iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile", "data"]

    def test_every_command_returns_its_freed_heap(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "_return_freed_heap", lambda: calls.append(1))
        out = tmp_path / "d"
        assert main(["generate", "--samples", "80", "--seed", "1", "--out", str(out)]) == 0
        assert main(["run", "--data", str(tmp_path / "nope")]) == 1
        assert calls == [1, 1]

    def test_missing_dataset_is_domain_error(self, tmp_path, capsys):
        data = tmp_path / "nope"
        assert main(["run", "--data", str(data)]) == 1
        assert (f"error: dataset not found under {data}: {data / 'dataset.jsonl'}"
                in capsys.readouterr().err)

    def _corrupted_copy(self, pipeline_dir, tmp_path, name, edit):
        data = tmp_path / "data"
        data.mkdir()
        for f in ("dataset.jsonl", "stats.json", "meta.json", "model.json"):
            text = (pipeline_dir / f).read_text()
            (data / f).write_text(edit(text) if f == name else text)
        return data

    @pytest.mark.parametrize("name, edit, message", [
        ("meta.json", lambda t: t[:200], "meta.json: JSONDecodeError"),
        ("meta.json", lambda t: t.replace('"master_seed"', '"seed"'),
         "meta.json: KeyError"),
        ("stats.json", lambda t: t.replace("[\n", "[\n    0.5,\n", 1),
         "stats.json: mean must hold 68"),
        ("dataset.jsonl", lambda t: t.replace('"label":"normal"', '"label":"ok"', 1),
         "label 'ok'"),
        ("dataset.jsonl", lambda t: re.sub(r'(anomaly","injected":\[)\d+', r"\g<1>68", t,
                                          count=1),
         "outside the 68 features"),
    ], ids=["truncated-meta", "meta-key", "stats-length", "label", "injected-index"])
    def test_malformed_dataset_is_domain_error(self, pipeline_dir, tmp_path, capsys,
                                               name, edit, message):
        data = self._corrupted_copy(pipeline_dir, tmp_path, name, edit)
        assert main(["run", "--data", str(data)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name, argv", [
        ("dataset.jsonl", ["run"]),
        ("meta.json", ["run"]),
        ("stats.json", ["run"]),
        ("model.json", ["hybrid", "--reference-topz"]),
    ])
    def test_non_utf8_file_is_domain_error(self, pipeline_dir, tmp_path, capsys,
                                           name, argv):
        data = self._corrupted_copy(pipeline_dir, tmp_path, name, lambda t: t)
        raw = (data / name).read_bytes()
        (data / name).write_bytes(raw[:40] + b"\xff" + raw[40:])
        assert main([argv[0], "--data", str(data), *argv[1:]]) == 1
        assert f"{data / name}: not UTF-8 text (byte 40: invalid start byte)" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("name, argv", [
        ("dataset.jsonl", ["run"]),
        ("stats.json", ["train-dl"]),
        ("meta.json", ["run"]),
        ("model.json", ["hybrid", "--reference-topz"]),
        ("load.csv", ["generate", "--samples", "80", "--load-csv"]),
        ("manifests/x.json", ["report"]),
    ], ids=["dataset", "stats", "meta", "model", "load-csv", "manifest"])
    def test_directory_in_place_of_an_input_is_domain_error(
            self, pipeline_dir, tmp_path, capsys, name, argv):
        data = self._corrupted_copy(pipeline_dir, tmp_path, None, None)
        path = data / name
        if path.exists():
            path.unlink()
        path.mkdir(parents=True)
        if argv[0] == "generate":
            argv = [*argv, str(path), "--out", str(tmp_path / "out")]
        else:
            argv = [argv[0], "--data", str(data), *argv[1:]]
        assert main(argv) == 1  # an uncaught IsADirectoryError would raise here
        assert f"error: cannot read {path}: Is a directory" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["stats.json", "meta.json", "load.csv"])
    def test_missing_input_is_domain_error(self, pipeline_dir, tmp_path, capsys, name):
        data = self._corrupted_copy(pipeline_dir, tmp_path, None, None)
        path = data / name
        path.unlink(missing_ok=True)
        if name == "load.csv":
            argv = ["generate", "--samples", "80", "--out", str(tmp_path / "out"),
                    "--load-csv", str(path)]
        else:
            argv = ["run", "--data", str(data)]
        assert main(argv) == 1
        assert f"error: cannot read {path}: No such file or directory" in (
            capsys.readouterr().err)

    def test_non_utf8_load_csv_is_domain_error(self, tmp_path, capsys):
        profile_csv = tmp_path / "profile.csv"
        profile_csv.write_bytes(b"1,2,3\n0.9,\xff1.0,1.1\n")
        out = tmp_path / "d"
        assert main(["generate", "--samples", "80", "--out", str(out),
                     "--load-csv", str(profile_csv)]) == 1
        assert f"{profile_csv}: not UTF-8 text (byte 10" in capsys.readouterr().err
        assert not out.exists()

    def test_short_bias_is_domain_error(self, pipeline_dir, tmp_path, capsys):
        def edit(text):
            doc = json.loads(text)
            doc["biases"][0].pop()
            return json.dumps(doc)

        data = self._corrupted_copy(pipeline_dir, tmp_path, "model.json", edit)
        assert main(["hybrid", "--data", str(data), "--reference-topz"]) == 1
        assert "layer 0 bias shape" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(threshold=float("inf")), "threshold inf is not finite"),
        (lambda doc: doc["weights"][1][0].__setitem__(2, float("nan")),
         "weights hold a non-finite value"),
    ], ids=["inf-threshold", "nan-weight"])
    def test_non_finite_model_is_domain_error(self, pipeline_dir, tmp_path, capsys,
                                              edit, message):
        def edit_text(text):
            doc = json.loads(text)
            edit(doc)
            return json.dumps(doc)  # writes Infinity and NaN, which json.loads reads

        data = self._corrupted_copy(pipeline_dir, tmp_path, "model.json", edit_text)
        assert main(["hybrid", "--data", str(data), "--reference-topz"]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw[:40] + b"\xff" + raw[40:],
         "not UTF-8 text (byte 40: invalid start byte)"),
        (lambda raw: raw[:200], "JSONDecodeError"),
        (lambda raw: b'{"config": {"paradigm": "few_shot"}}', "KeyError: 'metrics'"),
        (lambda raw: b'{"config": {}, "metrics": []}', "KeyError: 'as_wrong'"),
    ], ids=["non-utf8", "truncated", "keyless", "metrics-list"])
    def test_malformed_manifest_is_domain_error(self, pipeline_dir, tmp_path, capsys,
                                                edit, message):
        data = tmp_path / "data"
        shutil.copytree(pipeline_dir / "manifests", data / "manifests")
        path = data / "manifests" / "zero_shot_z_only_reference_rule.json"
        path.write_bytes(edit(path.read_bytes()))
        assert main(["report", "--data", str(data)]) == 1
        assert f"{path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["train-dl"], ["hybrid", "--reference-topz"]],
                             ids=["train-dl", "hybrid"])
    def test_empty_test_split_is_domain_error(self, pipeline_dir, tmp_path, capsys,
                                              argv):
        def no_test_split(text):
            meta = json.loads(text)
            meta["splits"]["test"] = []
            return json.dumps(meta)

        data = self._corrupted_copy(pipeline_dir, tmp_path, "meta.json", no_test_split)
        assert main([argv[0], "--data", str(data), *argv[1:]]) == 1
        assert "test split is empty" in capsys.readouterr().err

    def test_non_utf8_cache_entry_is_domain_error(self, pipeline_dir, tmp_path, capsys,
                                                  stub_server, monkeypatch):
        # Only HTTP replies are cached: fill the cache from the stub endpoint,
        # corrupt every entry, and rerun against the same cache.
        monkeypatch.setenv(agents.ENV_BASE_URL,
                           f"http://127.0.0.1:{stub_server.server_address[1]}")
        monkeypatch.setenv(agents.ENV_MODEL, "stub-model")
        monkeypatch.delenv(agents.ENV_API_KEY, raising=False)
        data = self._corrupted_copy(pipeline_dir, tmp_path, None, None)  # unmodified
        assert main(["run", "--data", str(data), "--agent", "http"]) == 0
        sent = len(stub_server.requests)
        entries = list((data / "cache").rglob("*.txt"))
        assert len(entries) == sent > 0
        for entry in entries:
            entry.write_bytes(b"\xff" + entry.read_bytes())
        capsys.readouterr()
        assert main(["run", "--data", str(data), "--agent", "http"]) == 1
        assert "not UTF-8 text (byte 0: invalid start byte)" in capsys.readouterr().err
        assert len(stub_server.requests) == sent

    @pytest.mark.parametrize("case", ["surrogate-reply", "file-at-shard-path"])
    def test_http_run_ends_without_traceback_or_temp_file(
            self, pipeline_dir, tmp_path, capsys, stub_server, monkeypatch, case):
        monkeypatch.setenv(agents.ENV_BASE_URL,
                           f"http://127.0.0.1:{stub_server.server_address[1]}")
        monkeypatch.setenv(agents.ENV_MODEL, "stub-model")
        monkeypatch.delenv(agents.ENV_API_KEY, raising=False)
        data = self._corrupted_copy(pipeline_dir, tmp_path, None, None)  # unmodified
        if case == "surrogate-reply":
            stub_server.behavior = lambda text, n: {"kind": "reply",
                                                    "text": "normal\n\ud800 odd"}
        else:  # a file at every shard path a cache entry can have
            (data / "cache").mkdir()
            for shard in range(256):
                (data / "cache" / f"{shard:02x}").write_text("kept\n")
        rc = main(["run", "--data", str(data), "--agent", "http"])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert list(data.rglob("*.tmp")) == []
        if case == "surrogate-reply":  # each prompt is an invalid verdict
            assert rc == 0
            assert "invalid verdicts: 50 (policy: as_wrong)" in captured.out
            assert not (data / "cache").exists()
        else:
            assert rc == 1  # and one error line, which names the entry
            assert re.fullmatch(r"error: cannot write .*/cache/(..)/\1[0-9a-f]{62}"
                                r"\.txt: File exists\n", captured.err)

    @pytest.mark.parametrize("flags, message", [
        (["--batch", "0"], "batch must be >= 1, got 0"),
        (["--batch", "-5"], "batch must be >= 1, got -5"),
        (["--epochs", "0"], "epochs must be >= 1, got 0"),
    ], ids=["batch-0", "batch-negative", "epochs-0"])
    def test_untrainable_settings_are_domain_errors(self, pipeline_dir, tmp_path,
                                                    capsys, flags, message):
        data = self._corrupted_copy(pipeline_dir, tmp_path, None, None)  # unmodified
        assert main(["train-dl", "--data", str(data), *flags]) == 1
        assert message in capsys.readouterr().err
        assert (data / "model.json").read_bytes() == (
            pipeline_dir / "model.json").read_bytes()

    def test_hand_edited_stats_is_domain_error(self, pipeline_dir, tmp_path, capsys):
        def edit(text):
            doc = json.loads(text)
            doc["mean"][3] += 1e-9
            return json.dumps(doc)

        data = self._corrupted_copy(pipeline_dir, tmp_path, "stats.json", edit)
        assert main(["run", "--data", str(data)]) == 1
        assert ("stats.json: mean differs from that of the 300 train samples"
                in capsys.readouterr().err)

    def test_moved_train_id_is_domain_error_until_stats_rerun(
            self, pipeline_dir, tmp_path, capsys):
        def move(text):
            doc = json.loads(text)
            doc["splits"]["test"].append(doc["splits"]["train"].pop(0))
            return json.dumps(doc)

        data = self._corrupted_copy(pipeline_dir, tmp_path, "meta.json", move)
        assert main(["run", "--data", str(data)]) == 1
        assert "stats.json: n differs" in capsys.readouterr().err
        _write_train_stats(data)
        assert main(["run", "--data", str(data)]) == 0

    def test_hybrid_refuses_model_trained_on_other_stats(self, pipeline_dir, tmp_path,
                                                         capsys):
        def halve_train_split(text):
            doc = json.loads(text)
            train = doc["splits"]["train"]
            doc["splits"]["train"] = train[: len(train) // 2]
            return json.dumps(doc)

        data = self._corrupted_copy(pipeline_dir, tmp_path, "meta.json",
                                    halve_train_split)
        _write_train_stats(data)
        assert main(["hybrid", "--data", str(data), "--reference-topz"]) == 1
        assert "trained on other stats (n=300)" in capsys.readouterr().err


class _Broken(Exception):
    """What a patched producer raises part-way through a write."""


def _raise_on_call(n):
    """Wrap a function so that its n-th call raises _Broken."""
    def wrap(real):
        calls = []

        def broken(*args, **kwargs):
            calls.append(None)
            if len(calls) == n:
                raise _Broken
            return real(*args, **kwargs)
        return broken
    return wrap


def _unencodable(real):
    """Wrap a text producer so that its text ends in a lone surrogate, which
    UTF-8 cannot encode: the write of that text raises."""
    return lambda *args, **kwargs: real(*args, **kwargs) + "\ud800"


def _cli(*argv):
    """Run the command argv, each argument formatted with data=<data dir>."""
    return lambda data: main([arg.format(data=data) for arg in argv])


def _cache_put(data):
    """Put an agent's reply in the cache under the data directory."""
    reply = agents.complete(None, agents.AgentKind(agents.ALWAYS_NORMAL))
    agents.ResponseCache(data / "cache").put("ab01", reply)
    return 0


_GENERATE = _cli("generate", "--samples", "80", "--out", "{data}")
# Each file the CLI writes, under the data directory: what writes it, the
# function that produces its bytes, how that function is broken and what the
# broken write raises.
_WRITES = {
    "model.json": (_cli("train-dl", "--data", "{data}", "--epochs", "2"),
                   (detectors, "model_to_json"), _unencodable, UnicodeEncodeError),
    "manifests/zero_shot_z_only_reference_rule.json": (
        _cli("run", "--data", "{data}"), (evalkit, "_metrics_doc"),
        lambda real: lambda report: {"f1": object()}, TypeError),
    "reports/report.txt": (_cli("report", "--data", "{data}", "--out", "{data}/reports"),
                           (evalkit, "build_report"), _unencodable, UnicodeEncodeError),
    "finetune.jsonl": (_cli("export-finetune", "--data", "{data}",
                            "--out", "{data}/finetune.jsonl"),
                       (ruleoracle, "reference_agent"), _raise_on_call(5), _Broken),
    "dataset.jsonl": (_GENERATE, (scenario, "_floats_text"), _raise_on_call(100),
                      _Broken),
    "features.csv": (_GENERATE, (scenario, "_floats_text"), _raise_on_call(100),
                     _Broken),
    "stats.json": (_GENERATE, (scenario, "stats_to_json"), _unencodable,
                   UnicodeEncodeError),
    "meta.json": (_GENERATE, (scenario, "meta_to_json"), _unencodable,
                  UnicodeEncodeError),
    scenario.COLUMNS_FILE: (_GENERATE, (scenario, "_raw"), _raise_on_call(4), _Broken),
    "cache/ab/ab01.txt": (_cache_put, (agents, "_mock_complete"), _unencodable,
                          UnicodeEncodeError),
}


class TestAtomicWrites:
    @pytest.mark.parametrize("name", list(_WRITES))
    def test_broken_write_keeps_the_old_file(self, pipeline_dir, tmp_path, monkeypatch,
                                             name):
        write, (owner, attr), breaking, error = _WRITES[name]
        data = Path(shutil.copytree(pipeline_dir, tmp_path / "data"))
        target = data / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(b"old\n")
        monkeypatch.setattr(owner, attr, breaking(getattr(owner, attr)))
        # 16-sample blocks, so that generate breaks with dataset.jsonl part-written.
        monkeypatch.setattr(scenario, "_BLOCK_ROWS", 16)
        monkeypatch.setattr(sys, "stdout", io.StringIO())  # it takes any text
        with pytest.raises(error):
            write(data)
        assert target.read_bytes() == b"old\n"
        assert list(target.parent.glob("*.tmp")) == []

        monkeypatch.undo()
        plain = tmp_path / "plain"
        plain.open("w").close()
        target.unlink()
        assert write(data) == 0
        assert target.stat().st_mode == plain.stat().st_mode
        assert list(target.parent.glob("*.tmp")) == []


class TestDeterminism:
    def test_run_manifest_same_without_the_columns_cache(self, pipeline_dir, tmp_path):
        data = Path(shutil.copytree(pipeline_dir, tmp_path / "data"))
        (data / scenario.COLUMNS_FILE).unlink()
        name = "manifests/zero_shot_z_only_reference_rule.json"
        (data / name).unlink()
        assert main(["run", "--data", str(data), "--paradigm", "zero-shot",
                     "--variant", "z_only", "--agent", "reference"]) == 0
        assert (data / name).read_bytes() == (pipeline_dir / name).read_bytes()

    def test_full_pipeline_byte_identical(self, tmp_path):
        dirs = []
        for name in ("a", "b"):
            data = tmp_path / name
            assert main(["generate", "--samples", "160", "--seed", "7",
                         "--out", str(data)]) == 0
            assert main(["run", "--data", str(data), "--paradigm", "zero-shot",
                         "--variant", "z_only", "--agent", "reference"]) == 0
            dirs.append(data)
        for rel in ("dataset.jsonl", "stats.json", "meta.json", "features.csv",
                    "manifests/zero_shot_z_only_reference_rule.json"):
            assert (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes(), rel
