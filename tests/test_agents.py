import json
import math
import re
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from gridsigma import agents, promptkit, ruleoracle
from gridsigma.agents import (
    AgentKind,
    EndpointConfig,
    ResponseCache,
    cache_key,
    complete,
    complete_batch,
    export_finetune_dataset,
    run_batch,
)
from gridsigma.errors import AgentError, GridSigmaError
from gridsigma.promptkit import PromptConfig
from gridsigma.scenario import ANOMALY, NORMAL

from http_stub import http_agent


@pytest.fixture(scope="module")
def bundles(dataset42):
    cfg = PromptConfig(paradigm="zero_shot", variant="z_only")
    return list(promptkit.render_prompts(dataset42, dataset42.split_ids("test")[:12], cfg))


class TestMocks:
    def test_reference_rule_matches_oracle(self, bundles, dataset42):
        from gridsigma.scenario import zscores
        from gridsigma.ruleoracle import three_sigma_label

        agent = AgentKind(agents.REFERENCE_RULE)
        for bundle, sample in zip(bundles, dataset42.split_samples("test")):
            raw = complete(bundle, agent)
            label = promptkit.parse_verdict(raw).label
            direct = three_sigma_label(zscores(sample.features, dataset42.stats))
            assert label == direct.label
            assert len([l for l in raw.splitlines() if l.strip()]) == 2

    def test_always_normal(self, bundles):
        raw = complete(bundles[0], AgentKind(agents.ALWAYS_NORMAL))
        assert raw == "normal\nNo measurement exceeds the rule."

    def test_coin_flip_deterministic(self, bundles):
        agent = AgentKind(agents.COIN_FLIP, seed=7)
        assert complete(bundles[0], agent) == complete(bundles[0], agent)

    def test_coin_flip_seed_changes_output_somewhere(self, bundles):
        a = [complete(b, AgentKind(agents.COIN_FLIP, seed=1)) for b in bundles]
        b = [complete(b, AgentKind(agents.COIN_FLIP, seed=2)) for b in bundles]
        assert a != b

    def test_unknown_kind_rejected(self):
        with pytest.raises(AgentError):
            AgentKind("telepathy")

    @pytest.mark.parametrize("kind", [agents.REFERENCE_RULE, agents.ALWAYS_NORMAL,
                                      agents.COIN_FLIP])
    def test_endpoint_refused(self, kind):
        # A mock agent calls no model, so none can be recorded for its run.
        endpoint = EndpointConfig(base_url="http://example.test", model_name="m1")
        with pytest.raises(AgentError, match=f"{kind} agent calls no endpoint"):
            AgentKind(kind, endpoint=endpoint)


class TestCache:
    def test_cache_round_trip_bytes(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        key = cache_key("prompt", "model", 0.0)
        text = "anomaly\nBecause of Pf_3.\n"
        cache.put(key, text)
        assert cache.get(key) == text
        assert (tmp_path / "cache" / key[:2] / f"{key}.txt").exists()

    def test_shared_directory_writers_do_not_collide(self, tmp_path):
        # Two caches on one directory stand in for two processes: their locks
        # do not exclude each other, so only the temp file name keeps one
        # writer from renaming the other's file or publishing a partial one.
        caches = [ResponseCache(tmp_path / "cache") for _ in range(2)]
        key = cache_key("prompt", "model", 0.0)
        texts = [c * 200_000 for c in "ab"]
        errors = []

        def writer(i):
            try:
                for _ in range(20):
                    caches[i % 2].put(key, texts[i % 2])
            except OSError as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert caches[0].get(key) in texts
        assert list((tmp_path / "cache").rglob("*.tmp")) == []

    def test_directory_at_an_entry_path_is_domain_error(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        key = cache_key("prompt", "model", 0.0)
        entry = tmp_path / "cache" / key[:2] / f"{key}.txt"
        entry.mkdir(parents=True)
        with pytest.raises(GridSigmaError, match=f"^cannot read {re.escape(str(entry))}: "):
            cache.get(key)

    def test_file_at_the_shard_path_is_domain_error(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        key = cache_key("prompt", "model", 0.0)
        (tmp_path / "cache").mkdir()
        (tmp_path / "cache" / key[:2]).write_text("kept\n")
        entry = tmp_path / "cache" / key[:2] / f"{key}.txt"
        with pytest.raises(GridSigmaError,
                           match=f"^cannot write {re.escape(str(entry))}: File exists$"):
            cache.put(key, "normal\n")
        assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == [key[:2]]

    def test_key_depends_on_model_and_temperature(self):
        base = cache_key("p", "m", 0.0)
        assert cache_key("p", "m2", 0.0) != base
        assert cache_key("p", "m", 0.5) != base
        assert cache_key("p2", "m", 0.0) != base

    def test_rerun_batch_hits_cache_no_network(self, stub_server, bundles, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        agent = http_agent(stub_server)
        first = run_batch(bundles, agent, cache)
        n_after_first = len(stub_server.requests)
        assert n_after_first == len(bundles)
        second = run_batch(bundles, agent, cache)
        assert len(stub_server.requests) == n_after_first  # zero new calls
        assert [v.raw for v in first] == [v.raw for v in second]

    @pytest.mark.parametrize("agent", [
        AgentKind(agents.REFERENCE_RULE),
        AgentKind(agents.ALWAYS_NORMAL),
        AgentKind(agents.COIN_FLIP, seed=7),
    ], ids=lambda a: a.kind)
    def test_mock_completions_never_cached(self, bundles, tmp_path, agent):
        # A mock reply is a pure function of the prompt: it is recomputed on
        # every call and leaves nothing in the cache directory.
        cache = ResponseCache(tmp_path / "cache")
        expected = {
            agents.REFERENCE_RULE: ruleoracle.reference_agent(bundles[0]).raw,
            agents.ALWAYS_NORMAL: "normal\nNo measurement exceeds the rule.",
            agents.COIN_FLIP: "normal\nCoin-flip verdict.",
        }[agent.kind]
        assert complete(bundles[0], agent, cache=cache) == expected
        assert complete(bundles[0], agent, cache=cache) == expected
        run_batch(bundles, agent, cache=cache)
        assert not (tmp_path / "cache").exists()


class TestHttpAgent:
    def test_batch_order_and_payload(self, stub_server, bundles):
        replies = {}

        def behavior(text, n):
            replies[text] = f"normal\nReply {len(replies)}."
            return {"kind": "reply", "text": replies[text]}

        stub_server.behavior = behavior
        verdicts = run_batch(bundles, http_agent(stub_server))
        assert len(verdicts) == len(bundles)
        for bundle, verdict in zip(bundles, verdicts):
            assert verdict.raw == replies[bundle.text]
        body = stub_server.requests[0]
        assert body["model"] == "stub-model"
        assert body["temperature"] == 0.0
        assert body["messages"][0]["role"] == "user"

    def test_retry_on_500_then_success(self, stub_server, bundles):
        def behavior(text, n):
            if n == 1:
                return {"kind": "status", "code": 500}
            return {"kind": "reply", "text": "anomaly\nSecond try."}

        stub_server.behavior = behavior
        raw = complete(bundles[0], http_agent(stub_server))
        assert raw == "anomaly\nSecond try."
        assert len(stub_server.requests) == 2

    def test_persistent_500_becomes_invalid_verdict(self, stub_server, bundles):
        stub_server.behavior = lambda text, n: {"kind": "status", "code": 500}
        verdicts = run_batch(bundles[:3], http_agent(stub_server, retries=1))
        assert all(v.label == promptkit.INVALID for v in verdicts)
        assert all(v.parse_mode == promptkit.FAILED for v in verdicts)

    def test_timeout_isolates_to_one_prompt(self, stub_server, bundles):
        slow_text = bundles[1].text

        def behavior(text, n):
            if text == slow_text:
                return {"kind": "sleep", "seconds": 1.0}
            return {"kind": "reply", "text": "normal\nFast."}

        stub_server.behavior = behavior
        agent = http_agent(stub_server, timeout=0.3, retries=0)
        verdicts = run_batch(bundles[:4], agent)
        assert verdicts[1].label == promptkit.INVALID
        others = [v.label for i, v in enumerate(verdicts) if i != 1]
        assert all(lbl == NORMAL for lbl in others)

    def test_complete_batch_returns_failures_in_place(self, stub_server, bundles):
        failing_text = bundles[2].text

        def behavior(text, n):
            if text == failing_text:
                return {"kind": "status", "code": 400}
            return {"kind": "reply", "text": "Pf_7"}

        stub_server.behavior = behavior
        replies = complete_batch(bundles[:4], http_agent(stub_server, retries=0), None)
        assert isinstance(replies[2], AgentError)
        assert "HTTP 400" in str(replies[2])
        assert [r for i, r in enumerate(replies) if i != 2] == ["Pf_7"] * 3

    def test_empty_completion_is_invalid(self, stub_server, bundles):
        stub_server.behavior = lambda text, n: {"kind": "reply", "text": "  "}
        verdicts = run_batch(bundles[:1], http_agent(stub_server, retries=0))
        assert verdicts[0].label == promptkit.INVALID

    def test_surrogate_completion_is_invalid_without_retry(self, stub_server, bundles,
                                                           tmp_path):
        # JSON escapes a lone surrogate, so resp.json() returns one, and UTF-8
        # cannot encode it into a cache entry.
        stub_server.behavior = lambda text, n: {"kind": "reply",
                                                "text": "normal\n\ud800 odd"}
        verdicts = run_batch(
            bundles[:3], http_agent(stub_server, retries=2),
            ResponseCache(tmp_path / "cache"),
        )
        assert [v.label for v in verdicts] == [promptkit.INVALID] * 3
        assert "completion is not UTF-8 text" in verdicts[0].rationale
        assert len(stub_server.requests) == 3
        assert list(tmp_path.iterdir()) == []  # no entry and no *.tmp file

    def test_malformed_json_is_invalid(self, stub_server, bundles):
        stub_server.behavior = lambda text, n: {"kind": "raw", "body": "not json"}
        verdicts = run_batch(bundles[:1], http_agent(stub_server, retries=0))
        assert verdicts[0].label == promptkit.INVALID

    @pytest.mark.parametrize("body", [
        "[]",
        '{"choices": []}',
        '{"choices": [{"message": null}]}',
    ])
    def test_wrong_shape_reply_is_retried_then_fails(self, stub_server, bundles,
                                                     body):
        stub_server.behavior = lambda text, n: {"kind": "raw", "body": body}
        replies = complete_batch(bundles[:1], http_agent(stub_server, retries=1), None)
        assert isinstance(replies[0], AgentError)
        assert "malformed completion" in str(replies[0])
        assert len(stub_server.requests) == 2

    def test_missing_endpoint_config(self, bundles):
        with pytest.raises(AgentError, match="http_endpoint agent needs an endpoint"):
            complete(bundles[0], AgentKind(agents.HTTP_ENDPOINT))

    def test_agent_repr_hides_the_api_key(self):
        endpoint = EndpointConfig(base_url="http://example.test", model_name="m1",
                                  api_key="secret")
        assert "secret" not in repr(AgentKind(agents.HTTP_ENDPOINT, endpoint=endpoint))

    def test_endpoint_from_env(self, monkeypatch):
        monkeypatch.setenv(agents.ENV_BASE_URL, "http://example.test")
        monkeypatch.setenv(agents.ENV_MODEL, "m1")
        monkeypatch.setenv(agents.ENV_API_KEY, "secret")
        cfg = EndpointConfig.from_env()
        assert cfg.base_url == "http://example.test"
        assert cfg.model_name == "m1"
        assert cfg.api_key == "secret"

    def test_endpoint_from_env_requires_vars(self, monkeypatch):
        monkeypatch.delenv(agents.ENV_BASE_URL, raising=False)
        monkeypatch.delenv(agents.ENV_MODEL, raising=False)
        with pytest.raises(AgentError):
            EndpointConfig.from_env()

    @pytest.mark.parametrize("setting", [
        {"retries": -1},
        {"timeout": 0.0},
        {"timeout": -1.0},
        {"timeout": float("nan")},
        {"timeout": float("inf")},
        {"timeout": 1e300},
        {"timeout": math.nextafter(threading.TIMEOUT_MAX, math.inf)},
        {"max_tokens": 0},
        {"backoff": -0.1},
        {"backoff": float("nan")},
        {"temperature": -0.5},
        {"temperature": float("nan")},
        {"max_in_flight": 0},
    ], ids=repr)
    def test_unworkable_settings_refused(self, setting):
        with pytest.raises(AgentError, match=next(iter(setting))):
            EndpointConfig(base_url="http://example.test", model_name="m1",
                           **setting)

    def test_longest_timeout_accepted(self, stub_server, bundles):
        agent = http_agent(stub_server, timeout=threading.TIMEOUT_MAX)
        raw = complete(bundles[0], agent)
        assert raw == "normal\nStub reply."

    def test_empty_batch_rejected(self):
        with pytest.raises(AgentError):
            run_batch([], AgentKind(agents.REFERENCE_RULE))

    def test_batch_without_endpoint_rejected(self, bundles):
        with pytest.raises(AgentError, match="endpoint"):
            run_batch(bundles[:1], AgentKind(agents.HTTP_ENDPOINT))


class CountingPrompts:
    """An iterator over bundles that records, at each pull, how many of the
    prompts pulled so far have no reply yet; ``answered`` counts replies."""

    def __init__(self, bundles, answered):
        self._bundles = iter(bundles)
        self._answered = answered
        self.pulled = 0
        self.unanswered = []

    def __iter__(self):
        return self

    def __next__(self):
        bundle = next(self._bundles)
        self.pulled += 1
        self.unanswered.append(self.pulled - len(self._answered))
        return bundle


@pytest.fixture
def answered(monkeypatch):
    """One entry per completion that has returned or raised."""
    done = []
    original = agents.complete

    def counting(*args):
        try:
            return original(*args)
        finally:
            done.append(1)

    monkeypatch.setattr(agents, "complete", counting)
    return done


class TestStreaming:
    """Batches pull prompts as they are answered, never all up front."""

    def test_mock_batch_pulls_one_prompt_per_reply(self, bundles, answered):
        prompts = CountingPrompts(bundles, answered)
        agent = AgentKind(agents.REFERENCE_RULE)
        replies = complete_batch(prompts, agent, None)
        assert prompts.unanswered == [1] * len(bundles)
        assert replies == [ruleoracle.reference_agent(b).raw for b in bundles]

    def test_http_batch_holds_at_most_max_in_flight(self, stub_server, bundles,
                                                    answered):
        # Replies arrive out of order (each prompt sleeps by its position)
        # and prompt 5 fails; the batch keeps prompt order all the same.
        position = {b.text: i for i, b in enumerate(bundles)}

        def behavior(text, n):
            i = position[text]
            if i == 5:
                return {"kind": "status", "code": 400}
            time.sleep(0.01 * (3 - i % 3))
            return {"kind": "reply", "text": f"normal\nPrompt {i}."}

        stub_server.behavior = behavior
        prompts = CountingPrompts(bundles, answered)
        replies = complete_batch(
            prompts, http_agent(stub_server, retries=0, max_in_flight=3), None,
        )
        assert prompts.pulled == len(bundles)
        assert max(prompts.unanswered) == 3
        assert isinstance(replies[5], AgentError)
        assert [r for i, r in enumerate(replies) if i != 5] == [
            f"normal\nPrompt {i}." for i in range(len(bundles)) if i != 5
        ]

    @pytest.mark.parametrize("kind", [agents.REFERENCE_RULE, agents.HTTP_ENDPOINT])
    def test_empty_iterable_rejected(self, stub_server, kind):
        agent = (http_agent(stub_server) if kind == agents.HTTP_ENDPOINT
                 else AgentKind(kind))
        with pytest.raises(AgentError, match="empty prompt batch"):
            complete_batch(iter([]), agent, None)
        assert stub_server.requests == []

    def test_export_yields_records_as_pulled(self, dataset42, monkeypatch):
        calls = []
        original = ruleoracle.reference_agent

        def recording(bundle):
            calls.append(bundle.text)
            return original(bundle)

        monkeypatch.setattr(ruleoracle, "reference_agent", recording)
        lines = train_export_lines(dataset42)
        assert calls == []
        next(lines)
        next(lines)
        first_two = dataset42.split_ids("train")[:2]
        assert calls == [b.text for b in promptkit.render_prompts(
            dataset42, first_two, PromptConfig())]


def train_export_lines(ds):
    return export_finetune_dataset(ds)


def train_export(ds):
    return "".join(train_export_lines(ds))


class TestFinetuneExport:
    def test_default_export_counts_and_schema(self, dataset42):
        text = train_export(dataset42)
        lines = text.strip().splitlines()
        assert len(lines) == 1200
        labels = []
        for line in lines:
            record = json.loads(line)
            roles = [m["role"] for m in record["messages"]]
            assert roles == ["user", "assistant"]
            verdict = promptkit.parse_verdict(record["messages"][1]["content"])
            assert verdict.parse_mode == "strict"
            labels.append(verdict.label)
        assert labels.count(NORMAL) == 600
        assert labels.count(ANOMALY) == 600

    def test_gold_labels_are_ground_truth(self, dataset42):
        text = train_export(dataset42)
        train = dataset42.split_samples("train")
        for sample, line in zip(train, text.strip().splitlines()):
            record = json.loads(line)
            answer = record["messages"][1]["content"]
            assert answer.splitlines()[0] == sample.label

    def test_rationale_agrees_with_label(self, dataset42):
        # A normal record gives the all-clear. An anomaly record names an
        # injected sensor: one at or above the threshold where the rule fires,
        # else the injected sensor with the largest |z| in the prompt's value
        # block, below the threshold.
        text = train_export(dataset42)
        train = dataset42.split_samples("train")
        names = dataset42.layout.names()
        pattern = re.compile(r"sensor (\S+) \|z\|=(\d+\.\d{4}) (exceeds|is below) 3\.0")
        missed = 0
        for sample, line in zip(train, text.splitlines(), strict=True):
            user, answer = (m["content"] for m in json.loads(line)["messages"])
            label, rationale = answer.split("\n")
            assert label == sample.label
            if label == NORMAL:
                assert rationale == "all measurements lie within 3.0 standard deviations"
                continue
            match = pattern.fullmatch(rationale)
            assert match, rationale
            name, shown, relation = match.groups()
            assert name in [names[i] for i in sample.injected]
            table = promptkit.parse_value_block(promptkit.target_value_block(user))
            abs_z = dict(zip(table.names, table.cells["|z|"]))
            assert shown == f"{abs_z[name]:.4f}"
            if relation == "exceeds":
                assert abs_z[name] >= 3.0
            else:
                missed += 1
                assert abs_z[name] == max(abs_z[names[i]] for i in sample.injected) < 3.0
        assert missed == 27

    def test_user_messages_are_the_zero_shot_prompts(self, dataset42):
        text = train_export(dataset42)
        cfg = PromptConfig(paradigm="zero_shot")
        train = dataset42.split_samples("train")
        for sample, line in list(zip(train, text.splitlines()))[::50]:
            user = json.loads(line)["messages"][0]["content"]
            assert user == next(promptkit.render_prompts(dataset42, [sample.id], cfg)).text

    def test_empty_train_rejected(self, dataset42):
        no_train = replace(dataset42, splits={**dataset42.splits,
                                              "train": np.empty(0, dtype=np.int64)})
        with pytest.raises(AgentError, match="train split is empty"):
            agents.export_finetune_dataset(no_train)
