"""Seeded random instances, plus the three published size-class presets.

All randomness flows through one :class:`flexshop.rng.Rng` stream in a fixed
draw order, so equal parameters and seed always yield byte-identical
instances. The draw order is part of the format and must not be reshuffled:

1. Per job, in job order: operation count, then layer sizes, then one
   mandatory arc per operation into the next layer, then the optional
   consecutive-layer arcs in ascending (tail, head) order.
2. Overlap fractions, over all operations ascending, successors only.
3. The machine count.
4. Per operation ascending: eligible-set size, the eligible machines, the
   reference machine and its processing time, then the remaining machines'
   processing times ascending.
5. Per machine ascending: window count, then per window a divisor draw.
6. Per operation ascending: size, color, varnish.
7. Per machine ascending: the four setup-rule constants.
8. Per operation ascending: release time.
9. Per precedence-source operation ascending: the pinning draws.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Instance, Machine, Operation, SetupRule
from .rng import Rng


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


_SIZE_BOUND = 4_000_000  # n * o_max * m_max, about 10x large 100's 200 * 20 * 100


@dataclass(frozen=True)
class GenParams:
    n: int          # jobs
    o_min: int      # operations per job, inclusive bounds
    o_max: int
    m_min: int      # machines, inclusive bounds
    m_max: int
    q: int          # max unavailability windows per machine
    seed: int = 0

    def validate(self) -> None:
        if self.n < 1 or self.o_min < 1 or self.m_min < 1 or self.q < 1:
            raise ValueError("n, o_min, m_min, and q must all be at least 1")
        if self.o_min > self.o_max or self.m_min > self.m_max:
            raise ValueError("empty range: need o_min <= o_max and m_min <= m_max")
        if self.n * self.o_max * self.m_max > _SIZE_BOUND:
            raise ValueError(f"n * o_max * m_max = {self.n * self.o_max * self.m_max} is above the "
                             f"generator's bound of {_SIZE_BOUND:,}")


_CLASS_NAMES = ("small", "medium", "large")


def params_for_class(name: str, k: int) -> GenParams:
    """Preset parameters for instance `k` (1-based) of a published size class.

    Each class interpolates linearly (with ceilings) from its first to its
    last instance; `k` may run past the published count, extrapolating the
    same line.
    """
    if name not in _CLASS_NAMES:
        raise ValueError(f"unknown instance class {name!r}, expected one of {_CLASS_NAMES}")
    if k < 1:
        raise ValueError(f"instance number must be >= 1, got {k}")
    if name == "small":
        return GenParams(n=1 + _ceil_div(3 * k, 30), o_min=2, o_max=3 + _ceil_div(2 * k, 30),
                         m_min=2, m_max=3 + _ceil_div(2 * k, 30), q=4)
    if name == "medium":
        return GenParams(n=4 + _ceil_div(6 * k, 20), o_min=6, o_max=7 + _ceil_div(5 * k, 20),
                         m_min=6, m_max=7 + _ceil_div(13 * k, 20), q=8)
    return GenParams(n=11 + _ceil_div(189 * k, 100), o_min=5, o_max=6 + _ceil_div(14 * k, 100),
                     m_min=9 + _ceil_div(20 * k, 100), m_max=10 + _ceil_div(90 * k, 100), q=8)


@dataclass(frozen=True)
class JobDag:
    count: int
    arcs: tuple[tuple[int, int], ...]   # 1-based within the job
    layers: tuple[tuple[int, ...], ...]


def gen_job_dag(rng: Rng, o_min: int, o_max: int) -> JobDag:
    """One job's precedence DAG, layered.

    Layer sizes are drawn 1..4 until the operation count is covered (the last
    draw is truncated to fit). Every operation gets one mandatory arc to a
    uniformly chosen operation of the next layer; every other consecutive-layer
    pair becomes an arc with probability 85/100.
    """
    count = rng.uniform(o_min, o_max)
    layers: list[tuple[int, ...]] = []
    next_id = 1
    while next_id <= count:
        size = min(rng.uniform(1, 4), count - next_id + 1)
        layers.append(tuple(range(next_id, next_id + size)))
        next_id += size

    arcs: dict[tuple[int, int], None] = {}  # insertion-ordered: the draw order and the membership test
    for lower, upper in zip(layers, layers[1:]):
        for v in lower:
            arcs[v, rng.choice(upper)] = None
        for v in lower:
            for w in upper:
                if (v, w) not in arcs and rng.bernoulli(85, 100):
                    arcs[v, w] = None
    return JobDag(count=count, arcs=tuple(arcs), layers=tuple(layers))


def generate(params: GenParams) -> Instance:
    """A full random instance; see the module docstring for the draw order."""
    params.validate()
    rng = Rng(params.seed)

    # 1. job DAGs, operations numbered globally in creation order
    job_of: list[int] = []
    arcs: list[tuple[int, int]] = []
    sources: list[int] = []
    offset = 0
    for j in range(1, params.n + 1):
        dag = gen_job_dag(rng, params.o_min, params.o_max)
        job_of.extend([j] * dag.count)
        heads = {w for _, w in dag.arcs}
        arcs.extend((offset + v, offset + w) for v, w in dag.arcs)
        sources.extend(offset + v for v in range(1, dag.count + 1) if v not in heads)
        offset += dag.count
    o = offset

    # 2. overlap fractions
    has_succ = {i for i, _ in arcs}
    theta = [100] * (o + 1)
    for i in range(1, o + 1):
        if i in has_succ and rng.bernoulli(10, 100):
            theta[i] = rng.uniform(50, 99)

    # 3. machine count
    m = rng.uniform(params.m_min, params.m_max)

    # 4. eligibility and processing times
    eligible: list[dict[int, int]] = [{}]
    for i in range(1, o + 1):
        f = rng.uniform(_ceil_div(3 * m, 10), _ceil_div(7 * m, 10))
        chosen = sorted(rng.sample(range(1, m + 1), f))
        k_ref = chosen[rng.uniform(0, f - 1)]
        p_ref = rng.uniform(1, 99)
        times = {k_ref: p_ref}
        for k in chosen:
            if k != k_ref:
                times[k] = rng.uniform(p_ref, min(3 * p_ref, 99))
        eligible.append(dict(sorted(times.items())))

    # 5. unavailability windows, paced by each machine's mean load
    windows: list[tuple[tuple[int, int], ...]] = [()]
    for k in range(1, m + 1):
        q_k = rng.uniform(1, params.q)
        loads = [times[k] for times in eligible[1:] if k in times]
        gap = 1 + _ceil_div(sum(loads), len(loads) * q_k) if loads else 1
        wins = []
        end = 0
        for ell in range(q_k):
            width = _ceil_div(gap, rng.uniform(2, 10)) + 1
            begin = gap if ell == 0 else end + gap
            end = begin + width
            wins.append((begin, end))
        windows.append(tuple(wins))

    # 6. operation features
    features = [(0, 0, 0)]
    for i in range(1, o + 1):
        features.append((rng.uniform(1, 10), rng.uniform(1, 4), rng.uniform(1, 6)))

    # 7. setup-rule constants
    rules: list[SetupRule | None] = [None]
    for k in range(1, m + 1):
        rules.append(SetupRule(st_smaller=rng.uniform(2, 6), st_larger=rng.uniform(2, 6),
                               ct=rng.uniform(2, 6), vt=rng.uniform(2, 6)))

    # 8. release times
    release = [0] * (o + 1)
    for i in range(1, o + 1):
        if not rng.bernoulli(975, 1000):
            release[i] = rng.uniform(1, 99)

    # 9. pinned operations: precedence sources only, at most one per machine,
    #    placed before the machine's first window with a fresh processing time;
    #    a drawn start before the operation's release leaves it unpinned
    fixed: dict[int, tuple[int, int]] = {}
    pinned_machines: set[int] = set()
    for i in sorted(sources):
        if not rng.bernoulli(1, 100):
            continue
        k = rng.choice(sorted(eligible[i]))
        if k in pinned_machines:
            continue
        p_new = rng.uniform(1, 99)
        latest = windows[k][0][0] - p_new
        if latest < 20:
            continue
        start = rng.uniform(20, latest)
        if start < release[i]:
            continue
        eligible[i] = {k: p_new}
        fixed[i] = (k, start)
        pinned_machines.add(k)

    operations = tuple(
        Operation(id=i, job=job_of[i - 1], eligible=eligible[i], theta_hundredths=theta[i],
                  release=release[i], fixed=fixed.get(i),
                  size=features[i][0], color=features[i][1], varnish=features[i][2])
        for i in range(1, o + 1))
    machines = tuple(Machine(id=k, setup=rules[k], windows=windows[k]) for k in range(1, m + 1))
    return Instance(num_machines=m, operations=operations, arcs=tuple(arcs), machines=machines)

