"""Spans and call counts around the package's layer boundaries, taken from outside.

`Tracer.installed(package)` rebinds, for the length of a `with` block, the
names each module looks up from the layer below (for example
`amicable.pairs.build_sieve` or `amicable.divisor.factorize`) to timing
wrappers, and puts the originals back on exit. The package source is never
edited.

Two kinds of wrapper keep the cost bounded:

* `span` stores one record per call: name, parent span, start, end and the
  time covered by its children. Used for ops and for layer calls that happen
  a handful of times per op (sieve builds, cycle and pair verification,
  exports).
* `counted` is for calls made once per number (aliquot_s, factorize,
  is_prime, sigma, sigma_brute). They run millions of times on the cycle
  workload, so they are folded into one (count, total, child time) record per
  parent span and name instead of being stored one by one.

Self time is a call's duration minus the time its wrapped children cover.

Spans inside forked pool workers are not collected: a worker records into its
own copy of the tracer, and that copy dies with the worker.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

ROOT = -1  # parent index of spans opened outside any other span


class Tracer:
    def __init__(self) -> None:
        # [name, parent, start, end, child_s] per span; parent indexes this list.
        self.spans: list[list] = []
        # (parent span, name) -> [count, total_s, child_s]
        self.totals: dict[tuple[int, str], list] = {}
        # One frame per active wrapped call: [nearest span index, child_s].
        self._stack: list[list] = [[ROOT, 0.0]]

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [name, stack[-1][0], 0.0, 0.0, 0.0]
            frame = [len(spans), 0.0]
            spans.append(record)
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                stack[-1][1] += end - start
                record[2], record[3], record[4] = start, end, frame[1]

        return wrapper

    def counted(self, name, fn):
        """Aggregate calls of fn; `name` is a string or a function of the first argument."""
        totals, stack = self.totals, self._stack
        name_of = name if callable(name) else (lambda _arg: name)

        def wrapper(arg, *rest):
            parent = stack[-1][0]
            frame = [parent, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(arg, *rest)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][1] += elapsed
                key = (parent, name_of(arg))
                record = totals.get(key)
                if record is None:
                    totals[key] = [1, elapsed, frame[1]]
                else:
                    record[0] += 1
                    record[1] += elapsed
                    record[2] += frame[1]

        return wrapper

    @contextmanager
    def installed(self, package):
        """Wrap the cross-layer names of `package` (the imported amicable) while active."""
        bound = package.numeric.PRIME_DETERMINISTIC_BOUND

        def regime(n: int) -> str:
            if n < bound:
                return "numeric.is_prime.deterministic"
            return "numeric.is_prime.probabilistic"

        patches = (
            ("pairs", "build_sieve", self.span, "divisor.build_sieve"),
            ("pairs", "aliquot_s", self.counted, "divisor.aliquot_s"),
            ("pairs", "sigma_brute", self.counted, "divisor.sigma_brute"),
            ("cycles", "build_sieve", self.span, "divisor.build_sieve"),
            ("cycles", "aliquot_s", self.counted, "divisor.aliquot_s"),
            # module-internal, but the only way to see cycle re-verification
            ("cycles", "verify_cycle", self.span, "cycles.verify_cycle"),
            ("generators", "sigma", self.counted, "divisor.sigma"),
            ("generators", "is_prime", self.counted, regime),
            ("generators", "verify_pair_by_sigma", self.span, "generators.verify_pair_by_sigma"),
            ("divisor", "factorize", self.counted, "numeric.factorize"),
            # factorize and the rho splitter look is_prime up in their own module
            ("numeric", "is_prime", self.counted, regime),
        )
        saved = []
        try:
            for module_name, attr, wrap, name in patches:
                module = getattr(package, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- reading the record back -------------------------------------------

    def duration(self, index: int) -> float:
        span = self.spans[index]
        return span[3] - span[2]

    def self_time(self, index: int) -> float:
        span = self.spans[index]
        return span[3] - span[2] - span[4]

    def named(self, name: str) -> list[int]:
        return [i for i, span in enumerate(self.spans) if span[0] == name]

    def calls(self, name: str, parents=None) -> tuple[int, float, float]:
        """(count, total_s, self_s) of counted calls, optionally under given parent spans."""
        count = total = child = 0.0
        for (parent, key), (n, t, c) in self.totals.items():
            if key == name and (parents is None or parent in parents):
                count += n
                total += t
                child += c
        return int(count), total, total - child

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "parent": p, "start": s, "end": e, "self_s": e - s - c}
                for n, p, s, e, c in self.spans
            ],
            "counted": [
                {"parent": parent, "name": name, "count": n, "total_s": t, "self_s": t - c}
                for (parent, name), (n, t, c) in self.totals.items()
            ],
        }
