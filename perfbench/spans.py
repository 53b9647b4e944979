"""Timing spans around the library's public functions, installed from outside.

A traced child process calls `install(Tracer())` after `chebgaps.cli` is
imported. Each wrapper replaces a public name in the namespace where it is
looked up at call time, so the library itself is unchanged. A span is
`[name, start, end, parent, info]`: `parent` is the index of the enclosing
span (-1 for none) and `info` holds the counts the per-layer metrics need.
Spans stay in memory until `Tracer.dump` writes them once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, info=None, before=None):
        """Time every call of fn; info(args, result) fills the span's counts.
        before() runs first, inside the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                if before is not None:
                    before()
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                span[4] = info(args, out)
            return out

        return traced

    def wrap_generator(self, name: str, fn, info):
        """Time each item a generator function produces, one span per item,
        closed before the item is handed to the consumer."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                span = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    span[4] = 0
                    return
                finally:
                    self._close(span)
                span[4] = info(item)
                yield item

        return traced

    def count(self, name: str, fn):
        """Count calls of fn without a span, for functions called too often
        for a span each to be cheap."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[name] = self.counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def spec_variant(spec) -> str:
    """The scan variant a Chebotarev spec belongs to, as the metrics name it."""
    kind = type(spec).__name__
    if kind == "FactorizationType":
        return {3: "cubic", 4: "quartic"}.get(len(spec.poly) - 1, "facttype")
    return {"Congruence": "congruence", "NewformCongruence": "newform",
            "QuadFormRep": "quadform"}.get(kind, kind)


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions where chebgaps calls them."""
    cli = importlib.import_module("chebgaps.cli")
    chebsets = importlib.import_module("chebgaps.chebsets")
    gapscan = importlib.import_module("chebgaps.gapscan")
    sieve = importlib.import_module("chebgaps.sieve")
    variational = importlib.import_module("chebgaps.variational")

    def patch(module, attr, name, **kw):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), **kw))

    # optimize_rayleigh imports scipy.linalg itself; wrap eigh on first use so
    # the import cost stays inside the call, as in an untraced run
    eigh_patched = []

    def patch_eigh():
        if not eigh_patched:
            patch(importlib.import_module("scipy.linalg"), "eigh", "variational.eigh")
            eigh_patched.append(True)

    gapscan.iter_prime_segments = tracer.wrap_generator(
        "gapscan.iter_prime_segments", gapscan.iter_prime_segments, len
    )
    patch(gapscan, "members_in_segment", "gapscan.members_in_segment",
          info=lambda a, out: [spec_variant(a[0]), len(a[1]), len(out)])
    patch(chebsets, "tau_mod_stream", "chebsets.tau_mod_stream")
    patch(variational, "symmetric_basis", "variational.symmetric_basis",
          info=lambda a, out: [len(out), sum(len(elt) for _, elt in out)])
    variational.SimplexPolynomial.evaluate = tracer.count(
        "variational.evaluate", variational.SimplexPolynomial.evaluate
    )
    patch(sieve, "lambda_table", "sieve.lambda_table", info=lambda a, out: len(out))
    patch(sieve, "weight_table", "sieve.weight_table", info=lambda a, out: len(out))
    for attr in ("sum_s1", "sum_s2", "predicted_terms", "prime_divisors", "PrimeTable"):
        patch(sieve, attr, "sieve." + attr)
    patch(cli, "scan", "cli.scan", info=lambda a, out: spec_variant(a[0]))
    patch(cli, "run_to_json", "cli.run_to_json", info=lambda a, out: len(out["windows"]))
    patch(cli, "optimize_rayleigh", "cli.optimize_rayleigh", before=patch_eigh,
          info=lambda a, out: len(out.dropped))
    patch(cli, "run_all", "cli.run_all",
          info=lambda a, out: [[r.number, r.elapsed] for r in out])
    patch(cli, "main", "cli.main")
