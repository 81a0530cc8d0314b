"""Agent execution: HTTP chat endpoints, deterministic mocks, disk cache.

The wire protocol is the OpenAI-compatible chat-completions POST. Every
network completion is recorded in a content-addressed cache keyed by
digest(prompt text, model name, temperature), so re-running a batch with the
same cache does no network work and is fully auditable. Mock replies are a
pure function of the prompt, so they are recomputed and never cached.
``requests`` is imported on the first HTTP completion, so a process that
only runs mock agents never loads the HTTP stack.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import threading
import time
from collections import deque
from collections.abc import Iterable, Iterator
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .errors import AgentError, GridSigmaError, read_text, replacing
from . import promptkit, ruleoracle
from .promptkit import ZERO_SHOT, AgentVerdict, PromptBundle, PromptConfig
from .scenario import ANOMALY, NORMAL, Dataset

logger = logging.getLogger(__name__)

ENV_BASE_URL = "GRIDSIGMA_BASE_URL"
ENV_API_KEY = "GRIDSIGMA_API_KEY"
ENV_MODEL = "GRIDSIGMA_MODEL"

HTTP_ENDPOINT = "http_endpoint"
REFERENCE_RULE = "reference_rule"
ALWAYS_NORMAL = "always_normal"
COIN_FLIP = "coin_flip"


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model_name: str
    api_key: str = field(default="", repr=False)  # a secret; agent reprs show the rest
    temperature: float = 0.0
    max_tokens: int = 256
    timeout: float = 60.0
    max_in_flight: int = 8
    retries: int = 2
    backoff: float = 0.5

    def __post_init__(self):
        if not math.isfinite(self.temperature) or self.temperature < 0:
            raise AgentError("temperature must be a finite number >= 0")
        # socket.settimeout overflows on a timeout above threading.TIMEOUT_MAX.
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:
            raise AgentError(
                f"timeout must be a number > 0 and <= {threading.TIMEOUT_MAX}"
            )
        if not math.isfinite(self.backoff) or self.backoff < 0:
            raise AgentError("backoff must be a finite number >= 0")
        if self.max_tokens < 1:
            raise AgentError("max_tokens must be >= 1")
        if self.retries < 0:
            raise AgentError("retries must be >= 0")
        if self.max_in_flight < 1:
            raise AgentError("max_in_flight must be >= 1")

    @classmethod
    def from_env(cls) -> "EndpointConfig":
        base_url = os.environ.get(ENV_BASE_URL)
        model = os.environ.get(ENV_MODEL)
        if not base_url or not model:
            raise AgentError(
                f"http agent needs {ENV_BASE_URL} and {ENV_MODEL} set"
            )
        return cls(
            base_url=base_url,
            model_name=model,
            api_key=os.environ.get(ENV_API_KEY, ""),
        )


KINDS = (HTTP_ENDPOINT, REFERENCE_RULE, ALWAYS_NORMAL, COIN_FLIP)


@dataclass(frozen=True)
class AgentKind:
    """One of http_endpoint(endpoint), reference_rule, always_normal,
    coin_flip(seed). An http_endpoint agent needs its endpoint; a mock agent
    calls none and takes none."""

    kind: str
    seed: int = 0
    endpoint: EndpointConfig | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise AgentError(f"unknown agent kind {self.kind!r}")
        if self.kind == HTTP_ENDPOINT and self.endpoint is None:
            raise AgentError("http_endpoint agent needs an endpoint")
        if self.kind != HTTP_ENDPOINT and self.endpoint is not None:
            raise AgentError(f"{self.kind} agent calls no endpoint, but got one")


def cache_key(prompt_text: str, model_name: str, temperature: float) -> str:
    payload = f"{model_name}\x00{temperature!r}\x00".encode("utf-8")
    return hashlib.sha256(payload + prompt_text.encode("utf-8")).hexdigest()


class ResponseCache:
    """Content-addressed completion store: <dir>/<first-2-hex>/<digest>.txt.

    Concurrent readers are lock-free; writes are serialized and atomic.
    """

    def __init__(self, directory: "str | Path"):
        self.directory = Path(directory)
        self._write_lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.txt"

    def get(self, key: str) -> str | None:
        path = self._path(key)
        if not path.exists():
            return None
        # Not an AgentError: a corrupt entry stops the run instead of
        # becoming an invalid verdict.
        return read_text(path, GridSigmaError)

    def put(self, key: str, text: str) -> None:
        with self._write_lock, replacing(self._path(key)) as fh:
            fh.write(text)


def _http_complete(prompt: PromptBundle, endpoint: EndpointConfig) -> str:
    import requests  # here, so that mock-agent runs never load the HTTP stack

    url = endpoint.base_url.rstrip("/") + "/v1/chat/completions"
    headers = {"Content-Type": "application/json"}
    if endpoint.api_key:
        headers["Authorization"] = f"Bearer {endpoint.api_key}"
    body = {
        "model": endpoint.model_name,
        "messages": [{"role": "user", "content": prompt.text}],
        "temperature": endpoint.temperature,
        "max_tokens": endpoint.max_tokens,
    }
    last_error: Exception | None = None
    for attempt in range(endpoint.retries + 1):
        try:
            resp = requests.post(
                url, headers=headers, json=body, timeout=endpoint.timeout
            )
            if resp.status_code >= 500 or resp.status_code == 429:
                raise AgentError(f"HTTP {resp.status_code}: {resp.text[:200]}")
            if resp.status_code != 200:
                # Client errors do not improve on retry.
                raise _NoRetry(f"HTTP {resp.status_code}: {resp.text[:200]}")
            try:
                content = resp.json()["choices"][0]["message"]["content"]
            except (LookupError, TypeError, ValueError) as exc:
                # Not the chat-completion shape: retried like a transport error.
                raise AgentError(f"malformed completion: {exc!r}") from None
            if not isinstance(content, str) or not content.strip():
                raise _NoRetry("empty completion")
            try:
                content.encode("utf-8")
            except UnicodeEncodeError as exc:  # a lone surrogate, escaped in the JSON
                raise _NoRetry(f"completion is not UTF-8 text: {exc}") from None
            return content
        except _NoRetry as exc:
            raise AgentError(str(exc)) from None
        except (requests.RequestException, AgentError) as exc:
            last_error = exc
            if attempt < endpoint.retries:
                time.sleep(endpoint.backoff * (2**attempt))
    raise AgentError(f"transport failure after {endpoint.retries + 1} attempts: "
                     f"{last_error}")


class _NoRetry(Exception):
    pass


def _mock_complete(prompt: PromptBundle, agent: AgentKind) -> str:
    if agent.kind == REFERENCE_RULE:
        return ruleoracle.reference_agent(prompt).raw
    if agent.kind == ALWAYS_NORMAL:
        return f"{NORMAL}\nNo measurement exceeds the rule."
    if agent.kind == COIN_FLIP:
        digest = hashlib.sha256(
            f"{agent.seed}\x00".encode("utf-8") + prompt.text.encode("utf-8")
        ).digest()
        label = ANOMALY if digest[0] % 2 else NORMAL
        return f"{label}\nCoin-flip verdict."
    raise AgentError(f"not a mock agent: {agent.kind}")


def complete(
    prompt: PromptBundle, agent: AgentKind, cache: ResponseCache | None = None
) -> str:
    """Produce one completion.

    An HTTP completion is looked up in the cache first and recorded there
    after; a mock agent's reply is computed every time and never touches
    the cache.
    """
    endpoint = agent.endpoint
    if endpoint is None:
        return _mock_complete(prompt, agent)
    key = cache_key(prompt.text, endpoint.model_name, endpoint.temperature)
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit
    text = _http_complete(prompt, endpoint)
    if cache is not None:
        cache.put(key, text)
    return text


def complete_batch(
    prompts: Iterable[PromptBundle],
    agent: AgentKind,
    cache: ResponseCache | None,
) -> list[str | AgentError]:
    """One completion per prompt, in prompt order, with bounded concurrency.

    A prompt that fails yields its AgentError, also logged, in place of the
    reply text; any other exception propagates. Prompts are pulled from the
    iterable as they are answered and dropped after: a mock agent holds one
    at a time, an HTTP agent at most ``max_in_flight``, its requests in
    flight.
    """
    def one(prompt: PromptBundle) -> str | AgentError:
        try:
            return complete(prompt, agent, cache)
        except AgentError as exc:
            logger.warning("prompt %s failed: %s", prompt.content_hash[:12], exc)
            return exc

    endpoint = agent.endpoint
    if endpoint is None:
        replies = [one(p) for p in prompts]
    else:
        replies = []
        window: deque[Future] = deque()
        with ThreadPoolExecutor(max_workers=endpoint.max_in_flight) as pool:
            for prompt in prompts:
                window.append(pool.submit(one, prompt))
                if len(window) == endpoint.max_in_flight:
                    replies.append(window.popleft().result())
            replies.extend(future.result() for future in window)
    if not replies:
        raise AgentError("empty prompt batch")
    return replies


def run_batch(
    prompts: Iterable[PromptBundle],
    agent: AgentKind,
    cache: ResponseCache | None = None,
) -> list[AgentVerdict]:
    """Parsed verdicts of ``complete_batch``; a failed prompt becomes an
    invalid verdict, never an exception."""
    return [
        AgentVerdict(label=promptkit.INVALID, rationale=str(reply), raw="",
                     parse_mode=promptkit.FAILED)
        if isinstance(reply, AgentError) else promptkit.parse_verdict(reply)
        for reply in complete_batch(prompts, agent, cache)
    ]


def export_finetune_dataset(
    dataset: Dataset, config: PromptConfig | None = None
) -> Iterator[str]:
    """JSONL chat records supervising both the gold label and a rationale,
    one line per sample of the dataset's train split, yielded as each is
    rendered.

    The user message is the zero-shot rendering of each train sample; the
    assistant message carries the ground-truth injection label with the rule
    verdict's explanation. For a true anomaly the rule misses, the
    explanation names its strongest injected sensor and says it stays below
    the threshold, so no record answers "anomaly" with an all-clear. An
    empty split raises AgentError at the call; a sample with no gold answer
    raises it when its line is pulled.
    """
    train = dataset.split_ids("train")
    if not len(train):
        raise AgentError("train split is empty")
    if config is None:
        config = PromptConfig(paradigm=ZERO_SHOT)
    bundles = promptkit.render_prompts(dataset, train, config)

    def lines() -> Iterator[str]:
        for i, bundle in zip(train.tolist(), bundles):
            agent_view = ruleoracle.reference_agent(bundle)
            if agent_view.parse_mode == promptkit.FAILED:
                raise AgentError(
                    f"could not render a gold answer for sample {i}: "
                    f"{agent_view.rationale}"
                )
            rationale = agent_view.rationale
            label = ANOMALY if dataset.anomalous[i] else NORMAL
            if label == ANOMALY and agent_view.label != ANOMALY:
                injected = dataset.injected[dataset.ends[i] : dataset.ends[i + 1]]
                rationale = ruleoracle.missed_rationale(bundle, injected.tolist())
            answer = f"{label}\n{rationale}"
            record = {
                "messages": [
                    {"role": "user", "content": bundle.text},
                    {"role": "assistant", "content": answer},
                ]
            }
            yield json.dumps(record, separators=(",", ":")) + "\n"

    return lines()
