"""Spans around the package's public functions, patched in from outside.

Modules import names directly (``from .chem import mol_from_smiles``), so a
wrapper must replace each consumer's own binding, not only the defining
module's.  ``ms2smiles.similarity.mces`` resolves to the function (the
package re-exports it), so the MCES module is reached through
``sys.modules``.

Each thread keeps its own span stack.  A span's self time is its duration
minus the time its child spans cover; self times of all spans in a thread
therefore add up to the duration of that thread's root spans.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor

perf_counter = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[dict, Counter]] = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], defaultdict(float), Counter())
            self._local.state = state
            with self._lock:
                self._threads.append(state[1:])
        return state

    def wrap(self, name, fn, on_exit=None):
        """``fn`` inside a span named ``name``; ``on_exit(self_s, dur, args,
        result)`` sees each completed call (``result`` is None on error)."""

        def traced(*args, **kwargs):
            stack, self_s, calls = self._state()
            frame = [0.0]
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = perf_counter() - start
                stack.pop()
                own = dur - frame[0]
                self_s[name] += own
                calls[name] += 1
                if stack:
                    stack[-1][0] += dur
                if on_exit is not None:
                    on_exit(own, dur, args, result)

        traced.__wrapped__ = fn
        return traced

    def totals(self) -> tuple[dict[str, float], Counter]:
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        with self._lock:
            for thread_self, thread_calls in self._threads:
                for name, value in thread_self.items():
                    self_s[name] += value
                calls.update(thread_calls)
        return dict(self_s), calls


def patch(module, attr: str, make):
    """Replace ``module.attr`` with ``make(original)``."""
    setattr(module, attr, make(getattr(module, attr)))


def _timed_task(fn, arg):
    start = perf_counter()
    result = fn(arg)
    return result, perf_counter() - start


class TimedPool(ProcessPoolExecutor):
    """Process pool that reports each task's run time in its worker.

    Substituted for ``ProcessPoolExecutor`` in ``ms2smiles.evaluate`` so the
    per-spectrum latency is measured where the task runs, whatever the
    start method.  ``durations`` collects the times in the parent.
    """

    durations: list[float] = []

    def map(self, fn, *iterables, timeout=None, chunksize=1):
        pairs = super().map(_timed_task, itertools.repeat(fn), *iterables, timeout=timeout, chunksize=chunksize)
        for result, dur in pairs:
            TimedPool.durations.append(dur)
            yield result


def install_latency_timers(evaluate_mod, gateway_mod, spectrum_ms: list, request_ms: list) -> None:
    """Untraced mode: one ``perf_counter`` pair per spectrum and per request."""

    def timed(fn, sink):
        def inner(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                sink.append(1000.0 * (perf_counter() - start))

        return inner

    patch(evaluate_mod, "evaluate_one", lambda fn: timed(fn, spectrum_ms))
    patch(gateway_mod, "complete", lambda fn: timed(fn, request_ms))
    TimedPool.durations = []
    evaluate_mod.ProcessPoolExecutor = TimedPool


class LayerProbe:
    """Every per-layer span and counter of the traced run."""

    def __init__(self, bins: dict[str, str]):
        self.tracer = Tracer()
        self.bins = bins  # record id -> weight-bin key
        self._current_bin = threading.local()
        self.parsed_smiles: list[str] = []
        self.mces_calls: list[tuple[str, float, float, bool]] = []  # bin, self_s, dur, optimal
        self.overrun_s = 0.0
        self.cache_hits = 0

    def install(self, mces_budget: float) -> None:
        import ms2smiles.cli as cli
        import ms2smiles.dataset as dataset
        import ms2smiles.evaluate as evaluate
        import ms2smiles.gateway as gateway

        mces_module = sys.modules["ms2smiles.similarity.mces"]
        wrap = self.tracer.wrap

        def on_parse(own, dur, args, result):
            self.parsed_smiles.append(args[0])

        def on_mces(own, dur, args, result):
            optimal = result is not None and result.optimal
            self.mces_calls.append((self._current_bin.key, own, dur, optimal))
            self.overrun_s += max(0.0, dur - mces_budget)

        def on_cache_get(own, dur, args, result):
            self.cache_hits += result is not None

        def evaluate_one(fn):
            inner = wrap("evaluate.evaluate_one", fn)

            def set_bin(record, *args, **kwargs):
                self._current_bin.key = self.bins[record.id]
                return inner(record, *args, **kwargs)

            return set_bin

        for module in (evaluate, dataset):
            patch(module, "mol_from_smiles", lambda fn: wrap("chem.mol_from_smiles", fn, on_parse))
        for module in (evaluate, mces_module):
            patch(module, "canonical_smiles", lambda fn: wrap("chem.canonical_smiles", fn))
        patch(evaluate, "morgan_fingerprint", lambda fn: wrap("similarity.morgan_fingerprint", fn))
        patch(evaluate, "tanimoto", lambda fn: wrap("similarity.tanimoto", fn))
        patch(evaluate, "mces", lambda fn: wrap("similarity.mces", fn, on_mces))
        patch(cli, "load_dataset", lambda fn: wrap("dataset.load_dataset", fn))
        patch(evaluate, "weight_bin", lambda fn: wrap("dataset.weight_bin", fn))
        patch(evaluate, "parse_response", lambda fn: wrap("protocol.parse_response", fn))
        patch(cli, "render_prompt", lambda fn: wrap("protocol.render_prompt", fn))
        patch(evaluate, "evaluate_one", evaluate_one)
        patch(evaluate, "score_spectrum", lambda fn: wrap("evaluate.score_spectrum", fn))
        patch(evaluate, "audit_cot", lambda fn: wrap("evaluate.audit_cot", fn))
        patch(cli, "evaluate_records", lambda fn: wrap("evaluate.evaluate_records", fn))
        patch(cli, "aggregate", lambda fn: wrap("evaluate.aggregate", fn))
        patch(cli, "write_reports", lambda fn: wrap("evaluate.write_reports", fn))
        patch(cli, "run_batch", lambda fn: wrap("gateway.run_batch", fn))
        patch(gateway, "complete", lambda fn: wrap("gateway.complete", fn))
        patch(gateway.TranscriptCache, "get", lambda fn: wrap("gateway.cache_get", fn, on_cache_get))
        patch(gateway.TranscriptCache, "put", lambda fn: wrap("gateway.cache_put", fn))
        patch(gateway.HttpChatProvider, "fetch", lambda fn: wrap("gateway.fetch", fn))
