"""Seeded request streams for the three benchmark workloads.

A workload is a stream of batches.  Each batch starts by clearing the
shared sequence cache (what a fresh CLI process would see) and then issues
its requests in order with the cache kept.  The seed chooses which inputs
each batch uses; the program only ever receives the generated argv.

Input cost grows steeply with the index (about n^2.4 for ``fib`` and n^3
for ``factor``), so a uniform draw would make one seed's run much heavier
than another's.  Every workload therefore splits its input domain into
contiguous strata and draws one unit per stratum in each round, visiting
the strata in a van der Corput order that starts at the heaviest one.
Any prefix of a round then covers the domain evenly, and so does a run
that stops part way through a round.  Within a stratum the units are
drawn without replacement, in a seeded order, until all have been used,
so a run that goes through the domain several times holds about the same
inputs whatever the seed.

This module does not import spreadpoly: inputs stay the same whatever
the program under test does.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator


def divisor_count(n: int) -> int:
    count = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            count += 1 if d * d == n else 2
        d += 1
    return count


def strata(domain: list[int], k: int) -> list[list[int]]:
    """Split the ascending domain into k contiguous groups of near-equal size."""
    return [domain[i * len(domain) // k : (i + 1) * len(domain) // k] for i in range(k)]


def balanced_order(k: int) -> list[int]:
    """Strata in van der Corput order, heaviest first, so every prefix is spread out."""
    order: list[int] = []
    i = 0
    while len(order) < k:
        v, denom, j = 0.0, 1.0, i
        while j:
            denom *= 2
            v += (j & 1) / denom
            j >>= 1
        s = k - 1 - int(v * k)
        if s not in order:
            order.append(s)
        i += 1
    return order


@dataclass(frozen=True)
class Workload:
    """A named request stream.

    ``domain`` holds the units a batch is drawn from (an index, a sweep
    bound or a session start); ``expand`` turns one unit and the running
    request number into the batch's argv lists.
    """

    name: str
    domain: list[int]
    k: int
    expand: Callable[[int, int], list[list[str]]]
    requests: Callable[[], Iterator[list[str]]]  # every argv any seed can produce

    def batches(self, seed: int) -> Iterator[list[list[str]]]:
        """The endless batch stream of one seed."""
        rng = random.Random(f"{self.name}:{seed}")
        groups = strata(self.domain, self.k)
        order = balanced_order(self.k)
        decks: list[list[int]] = [[] for _ in groups]
        issued = 0
        for _ in itertools.count():
            for s in order:
                if not decks[s]:
                    decks[s] = rng.sample(groups[s], len(groups[s]))
                batch = self.expand(decks[s].pop(), issued)
                issued += len(batch)
                yield batch


def _factor_argv(n: int, i: int) -> list[list[str]]:
    return [["factor", str(n), "--format", "record", "--route", "min" if i % 2 == 0 else "fast"]]


def _verify_argv(sweep: int, i: int) -> list[list[str]]:
    return [["verify", "--sweep", str(sweep), "--format", "record"]]


def _fib_session(length: int) -> Callable[[int, int], list[list[str]]]:
    return lambda start, i: [["fib", str(n), "--format", "record"] for n in range(start, start + length)]


def factor_cold(lo: int, hi: int, min_divisors: int, k: int) -> Workload:
    domain = [n for n in range(lo, hi + 1) if divisor_count(n) >= min_divisors]
    return Workload(
        "factor-cold",
        domain,
        k,
        _factor_argv,
        lambda: (argv for n in domain for i in (0, 1) for argv in _factor_argv(n, i)),
    )


def fib_warm(lo: int, hi: int, length: int, k: int) -> Workload:
    session = _fib_session(length)
    return Workload(
        "fib-warm",
        list(range(lo, hi)),
        k,
        session,
        lambda: (["fib", str(n), "--format", "record"] for n in range(lo, hi - 1 + length)),
    )


def verify_cold(lo: int, hi: int, k: int) -> Workload:
    domain = list(range(lo, hi + 1))
    return Workload(
        "verify-cold",
        domain,
        k,
        _verify_argv,
        lambda: (argv for s in domain for argv in _verify_argv(s, 0)),
    )


WORKLOADS = {
    w.name: w
    for w in (
        factor_cold(720, 1260, 24, 9),
        fib_warm(600, 1000, 40, 8),
        verify_cold(150, 250, 16),
    )
}

# The same streams at a size small enough for the self-test.
TINY = {
    w.name: w
    for w in (
        factor_cold(24, 96, 8, 4),
        fib_warm(20, 36, 4, 4),
        verify_cold(4, 7, 2),
    )
}
