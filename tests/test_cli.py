import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

import legacy_formats
from gridsigma import cli, evalkit, parse_case, scenario
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
    return the exit code and the dataset that was handed to the writers."""
    built = []
    build = scenario.build_dataset

    def capture(*args, **kwargs):
        built.append(edit(build(*args, **kwargs)))
        return built[-1]

    monkeypatch.setattr(cli.scenario, "build_dataset", capture)
    return main(["generate", "--seed", "3", "--out", str(out), *flags]), built[0]


def _spoil_last_sample(changes):
    def edit(ds):
        last = replace(ds.samples[-1], **changes(ds.samples[-1]))
        return replace(ds, samples=ds.samples[:-1] + (last,))
    return edit


class TestGenerate:
    @pytest.mark.parametrize("flags", [[], ["--include-voltage"]],
                             ids=["68-sensors", "82-sensors"])
    def test_files_equal_legacy_writers(self, tmp_path, monkeypatch, capsys, flags):
        out = tmp_path / "d"
        rc, ds = _generate_capturing(monkeypatch, out, "--samples", "640", *flags)
        assert rc == 0
        assert len(ds.samples) > 2 * scenario._BLOCK_ROWS
        assert (out / "dataset.jsonl").read_text(encoding="utf-8") == (
            legacy_formats.dataset_to_jsonl(ds))
        assert (out / "features.csv").read_text(encoding="utf-8") == (
            legacy_formats.features_to_csv(ds))
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {out / name}"
            for name in ("dataset.jsonl", "stats.json", "meta.json", "features.csv")
        ]

    def test_in_memory_digest_is_written_file_digest(self, tmp_path, monkeypatch,
                                                     capsys):
        rc, ds = _generate_capturing(monkeypatch, tmp_path / "d", "--samples", "640")
        assert rc == 0 and ds.jsonl_digest is None
        digest = evalkit._dataset_digest_of(ds)
        assert digest == hashlib.sha256(
            scenario.dataset_to_jsonl(ds).encode("utf-8")).hexdigest()
        assert digest == evalkit.load_dataset_dir(tmp_path / "d").jsonl_digest

    @pytest.mark.parametrize("changes, message", [
        (lambda s: {"features": np.where(np.arange(len(s.features)) == 4,
                                         np.nan, s.features)},
         "non-finite feature or delta"),
        (lambda s: {"label": "suspect"}, "label 'suspect'"),
    ], ids=["nan-feature", "unknown-label"])
    def test_refused_dataset_leaves_no_files(self, tmp_path, monkeypatch, capsys,
                                             changes, message):
        out = tmp_path / "d"
        rc, ds = _generate_capturing(monkeypatch, out, "--samples", "640",
                                     edit=_spoil_last_sample(changes))
        assert rc == 1
        assert f"sample {len(ds.samples) - 1}: {message}" in capsys.readouterr().err
        for name in ("dataset.jsonl", "features.csv", "stats.json", "meta.json"):
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
        assert len(doc["samples"]) == 50

    def test_manifest_digest_is_dataset_file_sha256(self, pipeline_dir):
        # The digest hashed from the file at load equals the digest of the
        # dataset re-serialised in memory.
        jsonl = (pipeline_dir / "dataset.jsonl").read_bytes()
        digest = hashlib.sha256(jsonl).hexdigest()
        loaded = evalkit.load_dataset_dir(pipeline_dir)
        assert scenario.dataset_to_jsonl(loaded).encode("utf-8") == jsonl
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

    def test_hybrid_with_nonselecting_agent_falls_back(self, pipeline_dir, capsys):
        # Coin-flip replies carry no sensor names: every selection falls back
        # to full-feature scoring but the run still produces metrics.
        assert main(["hybrid", "--data", str(pipeline_dir), "--agent",
                     "coin-flip", "--seed", "3"]) == 0
        doc = json.loads(
            (pipeline_dir / "manifests" / "hybrid_coin_flip.json").read_text()
        )
        assert all(s["selection_source"] == "full" for s in doc["samples"])

    def test_run_invalid_policy_flag(self, pipeline_dir, capsys):
        assert main(["run", "--data", str(pipeline_dir), "--paradigm", "zero-shot",
                     "--variant", "value", "--agent", "reference",
                     "--invalid-policy", "excluded"]) == 0
        doc = json.loads(
            (pipeline_dir / "manifests"
             / "zero_shot_value_reference_rule.json").read_text()
        )
        assert doc["config"]["invalid_policy"] == "excluded"

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


class TestOtherCommands:
    def test_stats_recompute(self, pipeline_dir, capsys):
        assert main(["stats", "--data", str(pipeline_dir)]) == 0
        assert "train samples: 300" in capsys.readouterr().out

    def test_render_prints_prompt(self, pipeline_dir, capsys):
        assert main(["render", "--data", str(pipeline_dir), "--sample", "1",
                     "--paradigm", "icl", "--variant", "mean_std_value_z"]) == 0
        out = capsys.readouterr().out
        assert "You are a power system analyst" in out
        assert out.count("Example ") == 10

    def test_export_finetune(self, pipeline_dir, tmp_path, capsys):
        out_file = tmp_path / "ft.jsonl"
        assert main(["export-finetune", "--data", str(pipeline_dir),
                     "--out", str(out_file)]) == 0
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == 300
        record = json.loads(lines[0])
        assert [m["role"] for m in record["messages"]] == ["user", "assistant"]

    def test_export_case_round_trips(self, tmp_path, capsys):
        out_file = tmp_path / "case14.txt"
        assert main(["export-case", "--out", str(out_file)]) == 0
        case = parse_case(out_file.read_text())
        assert len(case.buses) == 14

    def test_export_case_stdout(self, capsys):
        assert main(["export-case"]) == 0
        assert "baseMVA" in capsys.readouterr().out

    def test_write_is_byte_exact_across_slices(self, tmp_path, capsys):
        text = "é€x\n" * 300_000  # 1.2 million characters: two slices
        cli._write(tmp_path / "out" / "f.txt", text)
        assert (tmp_path / "out" / "f.txt").read_bytes() == text.encode("utf-8")


class TestErrors:
    def test_unknown_paradigm_is_usage_error(self, pipeline_dir):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--data", str(pipeline_dir), "--paradigm", "frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--frobnicate", "--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("sample_id", ["5000", "-3"])
    def test_render_unknown_sample_is_domain_error(self, pipeline_dir, capsys, sample_id):
        assert main(["render", "--data", str(pipeline_dir), "--sample", sample_id]) == 1
        assert f"no sample with id {sample_id}" in capsys.readouterr().err

    def test_missing_dataset_is_domain_error(self, tmp_path, capsys):
        assert main(["run", "--data", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err

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
    ], ids=["truncated-meta", "meta-key", "stats-length", "label"])
    def test_malformed_dataset_is_domain_error(self, pipeline_dir, tmp_path, capsys,
                                               name, edit, message):
        data = self._corrupted_copy(pipeline_dir, tmp_path, name, edit)
        assert main(["run", "--data", str(data)]) == 1
        assert message in capsys.readouterr().err

    def test_short_bias_is_domain_error(self, pipeline_dir, tmp_path, capsys):
        def edit(text):
            doc = json.loads(text)
            doc["biases"][0].pop()
            return json.dumps(doc)

        data = self._corrupted_copy(pipeline_dir, tmp_path, "model.json", edit)
        assert main(["hybrid", "--data", str(data), "--reference-topz"]) == 1
        assert "layer 0 bias shape" in capsys.readouterr().err

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
        assert main(["stats", "--data", str(data)]) == 0
        assert "train samples: 299" in capsys.readouterr().out
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
        assert main(["stats", "--data", str(data)]) == 0
        assert main(["hybrid", "--data", str(data), "--reference-topz"]) == 1
        assert "trained on other stats (n=300)" in capsys.readouterr().err


class TestDeterminism:
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
