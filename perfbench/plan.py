"""Inputs of every benchmark workload, generated from ``--seed``.

Nothing here imports the program: a :class:`Plan` is plain data (query
strings, floats, integers), so the program under test only ever sees
generated inputs.  The seed picks query points, request order, arrival
jitter and the Monte Carlo root seed.  It never picks the ``(n, delta)``
sets, the request counts per endpoint, the pass counts or the trial
budget, so the amount of work in a run does not depend on it.

Every run executes all three phases (serve, library sweep, sharded
Monte Carlo), so that every end-to-end metric is measured on every
workload.  A run is a number of rounds, each doing a short slice of
every phase, and every metric is a median over many such slices spread
over the whole run (or a percentile of the pooled samples).  On a
shared host the processor speed drifts over seconds; a metric drawn
from one stretch of a run would follow that drift, a median over
slices from every stretch does not.

The library phase alternates between two halves of its curve set and
of its large-n queries, so that a round stays short.  A sweep metric is
the sum over curves (or queries) of the median time of that curve, the
time of one pass over the whole set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

WORKLOADS = ("serve_mix", "mc_shards")
#: The set-up that ``setup_s`` times on each workload (see ``probe.py``).
SETUP = {"serve_mix": "serve", "mc_shards": "mc"}

#: Run length the sizes below are calibrated for.
BASE_SECONDS = 36
#: Rounds in a run of BASE_SECONDS.  ``--seconds`` scales the number of
#: rounds (kept even, at least 2); the work in one round is fixed.
BASE_ROUNDS = 8

#: (n, delta) curves the server warms and the serve mix queries: the
#: paper's worked cases (n=3, delta=1 and n=4, delta=4/3) plus two more.
SERVE_CURVES: Tuple[Tuple[int, Fraction], ...] = (
    (3, Fraction(1)),
    (4, Fraction(4, 3)),
    (5, Fraction(1, 2)),
    (6, Fraction(2)),
)
#: n of the asymptotic-tier serve queries (beyond the exact tier's max_n).
SERVE_LARGE_N = (1_000, 10_000, 100_000)
#: Share of each endpoint in the serve mix, in requests per 10.
SERVE_MIX = (("threshold", 7), ("oblivious", 1), ("optimal", 1),
             ("asymptotic", 1))
#: Open-loop arrival rate: about half the closed-loop saturated
#: throughput of the mix (400-500 req/s on a shared 2-vCPU x86-64 guest
#: when this benchmark was written).  Fixed, so the latency figures
#: compare across commits.
SERVE_RATE_PER_S = 200.0
#: Open-loop requests per slice.
SERVE_OPEN_PER_SLICE = 70
#: Closed-loop bursts per slice, and requests per connection in a burst.
SERVE_BURSTS_PER_SLICE = 3
SERVE_BURST_PER_CONNECTION = 30

#: The library sweep's exact curves, n = 3..10: the paper anchors
#: (n=3, delta=1 and n=4, delta=4/3), then delta = 1/2, in two halves
#: of about equal cost that alternate between rounds.  Larger deltas at
#: n = 9, 10 cost several times more per pass.
LIBRARY_GROUPS: Tuple[Tuple[Tuple[int, Fraction], ...], ...] = (
    ((3, Fraction(1)), (5, Fraction(1, 2)), (7, Fraction(1, 2)),
     (10, Fraction(1, 2))),
    ((4, Fraction(4, 3)), (6, Fraction(1, 2)), (8, Fraction(1, 2)),
     (9, Fraction(1, 2))),
)
LIBRARY_GRID_POINTS = 2001
#: Memory-warm passes over a round's curves at each of the four points
#: of a round where they run (after the library, serve, Monte Carlo and
#: second serve phases).
WARM_PASSES = 3
#: Log-spaced n of the regime-dispatcher queries, 21 .. 10^6: threshold
#: queries in one half, oblivious ones in the other.
LARGE_N = (21, 98, 458, 2_138, 9_986, 46_636, 217_803, 1_000_000)
#: n of ``near_optimal_symmetric_threshold``, one per half.
NEAR_OPTIMAL_N = (1_000, 100_000)
#: Small n where the asymptotic mixture is forced and its bracket is
#: checked against the exact value.
BRACKET_N = (12, 16, 20)

#: Monte Carlo system: n=4 threshold players, delta=4/3, beta=3/5,
#: every transport once per round on one shard plan.
MC_N, MC_DELTA, MC_BETA = 4, Fraction(4, 3), Fraction(3, 5)
MC_TRIALS = 2_000_000
#: Shards per workload: on ``mc_shards`` a fine plan, where per-shard
#: dispatch is a visible share of the time; on ``serve_mix`` a coarse
#: one, where the trial kernel dominates and dispatch is bypassed.
MC_SHARDS = {"serve_mix": 32, "mc_shards": 256}

#: A large-n item: (kind, n, delta, point); kind is "threshold" or
#: "oblivious" (a regime-dispatcher query at *point*) or "near_optimal"
#: (a threshold search; point is None).
LargeN = Tuple[str, int, Fraction, Optional[Fraction]]


@dataclass(frozen=True)
class ServePlan:
    #: per slice: open-loop paths in send order, with due times in
    #: seconds from the slice's start
    requests: Tuple[Tuple[str, ...], ...]
    offsets: Tuple[Tuple[float, ...], ...]
    #: per slice: closed-loop bursts, each one back-to-back list per
    #: connection
    closed_requests: Tuple[Tuple[Tuple[Tuple[str, ...], ...], ...], ...]

    def sent(self, s: int) -> Tuple[str, ...]:
        """Every path slice *s* sends."""
        return self.requests[s] + tuple(
            path for burst in self.closed_requests[s] for lst in burst
            for path in lst)


@dataclass(frozen=True)
class LibraryPlan:
    #: curves of round r: groups[r % len(groups)]; same for large_n
    groups: Tuple[Tuple[Tuple[int, Fraction], ...], ...]
    grid: Tuple[float, ...]
    warm_passes: int
    large_n: Tuple[Tuple[LargeN, ...], ...]
    brackets: Tuple[Tuple[int, Fraction, Fraction], ...]

    @property
    def curves(self) -> Tuple[Tuple[int, Fraction], ...]:
        return tuple(c for group in self.groups for c in group)


@dataclass(frozen=True)
class McPlan:
    trials: int
    shards: int
    root_seed: int


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    seconds: int
    rounds: int
    serve: ServePlan
    library: LibraryPlan
    mc: McPlan

    def operation_counts(self) -> Dict[str, int]:
        """What a run does, by kind; a function of workload and seconds
        only (the seed-invariance self-test pins that)."""
        counts: Dict[str, int] = {"rounds": self.rounds}
        for s, bursts in enumerate(self.serve.closed_requests):
            loops = [("open", self.serve.requests[s])] + [
                (f"closed{b}", lst) for b, burst in enumerate(bursts)
                for lst in burst]
            for loop, paths in loops:
                for path in paths:
                    curve = path.split("?", 1)[1].split("&")[:2]  # n, delta
                    key = f"serve.slice{s}.{loop}.{endpoint_of(path)}.{curve}"
                    counts[key] = counts.get(key, 0) + 1
        lib = self.library
        counts["library.curves"] = len(lib.curves)
        counts["library.grid_points"] = len(lib.grid)
        counts["library.warm_passes"] = lib.warm_passes
        for g, items in enumerate(lib.large_n):
            for kind, n, _, _ in items:
                counts[f"library.large_n.{g}.{kind}.{n}"] = 1
        counts["library.brackets"] = len(lib.brackets)
        counts["mc.shards"] = self.mc.shards
        counts["mc.trials"] = self.mc.trials
        return counts


def endpoint_of(path: str) -> str:
    """The mix kind of one generated request path."""
    if path.startswith("/v1/optimal-strategy"):
        return "optimal"
    if "algorithm=oblivious" in path:
        return "oblivious"
    n = int(path.split("n=", 1)[1].split("&", 1)[0])
    return "asymptotic" if n > 32 else "threshold"  # ServeConfig.max_n


def rounds_for(seconds: int) -> int:
    return max(2, 2 * round(BASE_ROUNDS * seconds / BASE_SECONDS / 2))


def _point(rng: random.Random, lo: float, hi: float) -> float:
    # six decimals keep query strings short and exactly reproducible
    return round(rng.uniform(lo, hi), 6)


def _serve_paths(rng: random.Random, count: int) -> List[str]:
    """*count* (a multiple of 10) requests in blocks of 10 that each hold
    the mix exactly; the seed orders each block and picks the points."""
    block = [kind for kind, per_ten in SERVE_MIX for _ in range(per_ten)]
    kinds: List[str] = []
    for _ in range(count // len(block)):
        rng.shuffle(block)
        kinds += block
    paths = []
    seen = {kind: 0 for kind, _ in SERVE_MIX}  # round robin per kind
    for kind in kinds:
        i = seen[kind]
        seen[kind] += 1
        n, delta = SERVE_CURVES[i % len(SERVE_CURVES)]
        if kind == "threshold":
            paths.append(
                f"/v1/winning-probability?n={n}&delta={delta}"
                f"&beta={_point(rng, 0.05, 0.95)}"
            )
        elif kind == "oblivious":
            paths.append(
                f"/v1/winning-probability?n={n}&delta={delta}"
                f"&algorithm=oblivious&alpha={_point(rng, 0.05, 0.95)}"
            )
        elif kind == "optimal":
            paths.append(f"/v1/optimal-strategy?n={n}&delta={delta}")
        else:
            big = SERVE_LARGE_N[i % len(SERVE_LARGE_N)]
            paths.append(
                f"/v1/winning-probability?n={big}&delta={big // 3}"
                f"&beta={_point(rng, 0.55, 0.75)}"
            )
    return paths


def _fraction_point(rng: random.Random, lo: float, hi: float) -> Fraction:
    return Fraction(_point(rng, lo, hi)).limit_denominator(10**9)


def make_plan(workload: str, seed: int, seconds: int) -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if seconds < 1:
        raise ValueError(f"seconds must be >= 1, got {seconds}")
    rng = random.Random(seed)
    rounds = rounds_for(seconds)
    spacing = 1.0 / SERVE_RATE_PER_S
    requests, offsets, closed = [], [], []
    # two serve slices per round, one after the library phase and one
    # after the Monte Carlo phase, so the serve samples span the run
    for _ in range(2 * rounds):
        requests.append(tuple(_serve_paths(rng, SERVE_OPEN_PER_SLICE)))
        offsets.append(tuple(
            i * spacing + rng.uniform(0.0, 0.5) * spacing
            for i in range(SERVE_OPEN_PER_SLICE)
        ))
        closed.append(tuple(
            tuple(tuple(_serve_paths(rng, SERVE_BURST_PER_CONNECTION))
                  for _ in range(2))
            for _ in range(SERVE_BURSTS_PER_SLICE)))
    serve = ServePlan(requests=tuple(requests), offsets=tuple(offsets),
                      closed_requests=tuple(closed))

    # one point in each of G-2 equal cells: the seed moves the points,
    # not how many fall where the batch layer needs exact fallbacks
    cells = LIBRARY_GRID_POINTS - 2
    grid = [(i + rng.random()) / cells for i in range(cells)]
    large_n = []
    for kind, lo, hi, near_n in (("threshold", 0.55, 0.75, NEAR_OPTIMAL_N[0]),
                                 ("oblivious", 0.3, 0.7, NEAR_OPTIMAL_N[1])):
        items: List[LargeN] = [(kind, n, Fraction(n, 3),
                                _fraction_point(rng, lo, hi))
                               for n in LARGE_N]
        items.append(("near_optimal", near_n, Fraction(near_n, 3), None))
        large_n.append(tuple(items))
    brackets = tuple((n, Fraction(n, 3), _fraction_point(rng, 0.55, 0.75))
                     for n in BRACKET_N)
    library = LibraryPlan(
        groups=LIBRARY_GROUPS,
        grid=(0.0, *grid, 1.0),
        warm_passes=WARM_PASSES,
        large_n=tuple(large_n),
        brackets=brackets,
    )
    mc = McPlan(trials=MC_TRIALS, shards=MC_SHARDS[workload],
                root_seed=rng.randrange(2**32))
    return Plan(workload=workload, seed=seed, seconds=seconds, rounds=rounds,
                serve=serve, library=library, mc=mc)
