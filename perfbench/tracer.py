"""Span tracer that wraps bellghz functions from outside the package.

Each wrapped call records one span: its wall time (``total``) and that
time minus the time of the wrapped calls it made on the same thread
(``self``).  Span stacks are thread-local, because ``bellghz sweep`` runs
its rows on a thread pool; a shared stack would charge one thread's
children to another thread's span.  Totals are accumulated per request
under a lock and handed out by :meth:`Tracer.end_request`.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

from stats import SPAN_METRICS

#: Functions wrapped by the traced run, as ``module.function``: every span
#: a reported metric reads.  ``family.alpha`` and ``family.probability``
#: are left out on purpose: a ``lib-warm`` request calls them ~130k
#: times and the wrapper cost would swamp what it measures.
TARGETS = tuple(dict.fromkeys(span for _, span, _ in SPAN_METRICS))


def _terms_out(args, result) -> dict[str, float]:
    return {"terms_out": len(result.amps)}


def _postselect_terms(args, result) -> dict[str, float]:
    return {"terms_in": len(args[0].amps), "terms_kept": len(result[0].amps)}


#: Counters recorded at a span's boundary, from its arguments and result.
FACTS = {
    "fock.apply_transform": _terms_out,
    "fock.postselect": _postselect_terms,
}


class _Span:
    __slots__ = ("calls", "total", "self", "facts")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.facts: dict[str, float] = defaultdict(float)


class Tracer:
    """Wraps :data:`TARGETS` in every loaded bellghz module that binds them."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._spans: dict[str, _Span] = defaultdict(_Span)
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "bellghz" or name.startswith("bellghz.")
        }
        for target in TARGETS:
            short, func = target.split(".")
            if f"bellghz.{short}" not in modules:
                continue  # e.g. bellghz.cli, which the library workloads never import
            orig = getattr(modules[f"bellghz.{short}"], func)
            wrapped = self._wrap(target, orig)
            # ``from .circuit import run_pipeline`` and the package's own
            # re-exports bind the same object under other modules' names
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._originals.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._originals):
            setattr(mod, attr, orig)
        self._originals.clear()

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, func):
        facts = FACTS.get(name)

        @functools.wraps(func)
        def span(*args, **kwargs):
            stack = self._stack()
            child = [0.0]
            stack.append(child)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with self._lock:
                    rec = self._spans[name]
                    rec.calls += 1
                    rec.total += elapsed
                    rec.self += elapsed - child[0]
            if facts is not None:
                extra = facts(args, result)
                with self._lock:
                    for key, value in extra.items():
                        self._spans[name].facts[key] += value
            return result

        return span

    def end_request(self) -> dict[str, dict[str, float]]:
        """Spans recorded since the previous call, then start afresh."""
        with self._lock:
            spans, self._spans = self._spans, defaultdict(_Span)
        return {
            name: {"calls": rec.calls, "total": rec.total, "self": rec.self, **rec.facts}
            for name, rec in spans.items()
        }
