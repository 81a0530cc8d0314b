"""In-memory span tracer that wraps gridsigma's public functions from outside.

`instrument` replaces each public function of a layer module with a wrapper
at every name the package's modules look it up by: the defining module's own
globals (``promptkit.render_value_block``, called by ``render_prompt``) and
each ``from .x import f`` copy (``scenario.solve_newton``, called by
``build_dataset``). Private helpers are not wrapped, so their time is the
self time of the public function that calls them.

A span is ``[name, start, end, parent_index]``; spans of one traced pass
share the tracer and nest by the call stack (the package is single-threaded
with the mock agents). Spans are only recorded while ``active`` is set.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("grid", "scenario", "ruleoracle", "promptkit", "agents",
          "detectors", "evalkit", "cli")


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, fn, name: str, on_return=None, on_error=None):
        """Span-recording wrapper; hooks get (tracer, bound args, result|exc, span index)."""
        tracer = self
        signature = inspect.signature(fn) if (on_return or on_error) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer.spans.append(span)
            tracer._stack.append(index)
            error = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = exc
                raise
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
                if error is not None and on_error is not None:
                    on_error(tracer, signature.bind(*args, **kwargs), error, index)
            if on_return is not None:
                on_return(tracer, signature.bind(*args, **kwargs), result, index)
            return result

        return traced

    def count_only(self, fn, hook):
        """Wrapper that updates counters but records no span."""
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.active:
                hook(tracer, signature.bind(*args, **kwargs), result, -1)
            return result

        return counted

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []



# --------------------------------------------------------------------------
# Counters read from arguments and return values


def _newton_iterations(tracer, bound, result, index):
    tracer.counts["grid.newton_iterations"] += result.iterations


def _solve_failure(tracer, bound, exc, index):
    from gridsigma.errors import PowerFlowError

    if isinstance(exc, PowerFlowError):
        tracer.counts["grid.solve_failures"] += 1


def _prompt_bytes(tracer, bound, result, index):
    tracer.counts["promptkit.prompt_bytes"] += len(result.text.encode("utf-8"))


def _parse_mode(tracer, bound, result, index):
    tracer.counts[f"promptkit.parse_mode.{result.parse_mode}"] += 1


def _cache_get(tracer, bound, result, index):
    tracer.counts["agents.cache.misses" if result is None else "agents.cache.hits"] += 1


def _selection(tracer, bound, result, index):
    from gridsigma import detectors

    if result.source == detectors.SOURCE_FULL:
        tracer.counts["detectors.selection_fallbacks"] += 1


def _epochs(tracer, bound, result, index):
    """Mini-batches run inside this training span over batches per epoch."""
    bound.apply_defaults()
    args = bound.arguments
    hyper = args["hyper"]
    n = len(args["normals"])
    if args.get("val_normals") is None:
        n -= max(1, n // 10)
    per_epoch = -(-n // hyper.batch)
    batches = sum(1 for s in tracer.spans[index + 1:]
                  if s[0] == "detectors.loss_and_gradients")
    tracer.counts["detectors.epochs"] += batches / per_epoch


def _manifest_bytes(tracer, bound, result, index):
    tracer.counts["evalkit.manifest_bytes"] += Path(bound.arguments["path"]).stat().st_size


def _cli_bytes(tracer, bound, result, index):
    tracer.counts["cli.bytes_written"] += len(bound.arguments["text"].encode("utf-8"))


_RETURN_HOOKS = {
    "grid.solve_newton": _newton_iterations,
    "promptkit.render_prompt": _prompt_bytes,
    "promptkit.parse_verdict": _parse_mode,
    "detectors.llm_select_features": _selection,
    "detectors.train_autoencoder": _epochs,
    "evalkit.write_manifest": _manifest_bytes,
}
_ERROR_HOOKS = {"grid.solve_newton": _solve_failure}


def instrument(tracer: Tracer) -> None:
    """Wrap every layer's public functions in place, for the process's lifetime."""
    import gridsigma

    modules = {layer: importlib.import_module(f"gridsigma.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                name = f"{layer}.{attr}"
                wrappers[obj] = tracer.wrap(obj, name, _RETURN_HOOKS.get(name),
                                            _ERROR_HOOKS.get(name))
    for module in (gridsigma, *modules.values()):
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])

    cache = modules["agents"].ResponseCache
    cache.get = tracer.wrap(cache.get, "agents.ResponseCache.get", _cache_get)
    cache.put = tracer.wrap(cache.put, "agents.ResponseCache.put")
    cli = modules["cli"]
    cli._write = tracer.count_only(cli._write, _cli_bytes)


# --------------------------------------------------------------------------
# Aggregation


def summarize(spans: list[list]) -> tuple[dict, dict, dict]:
    """Per span name: call count, total seconds and self seconds.

    Self time is a span's duration minus its direct children's durations;
    children of one span never overlap because the package runs on one thread.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Counter = Counter()
    total: Counter = Counter()
    self_time: Counter = Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child_time[i]
    return calls, total, self_time


def write_spans(spans: list[list], path: Path) -> None:
    """One JSON array per line: name, start, end (perf_counter s), parent index."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def root_time(spans: list[list]) -> float:
    return sum(end - start for name, start, end, parent in spans if parent < 0)
