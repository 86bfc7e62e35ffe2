"""Constructions of partitions with quantified blocking-fraction floors.

Three builders are provided: a degree-driven two-branch construction for
simple fractional games, a preferred-size packing for anonymous games, and a
refinement of the packing for single-peaked anonymous games. Each returns the
partition together with a trace of every choice it made, and each is a pure
function of its inputs, so reruns are bit-identical.

The fractional construction's thresholds come from an asymptotic analysis
and would all round to zero at desk scale; they are clamped so the algorithm
stays total (the pool and the loop budget never drop below one, the degree
cut stays within [0, n-1]). Thresholds can be injected explicitly to
exercise regimes the clamped defaults cannot reach below n ~ 30000.

The anonymous builders take their size window as any iterable of sizes or
a SizeInterval. The single-peaked refinement takes the ordering of sizes as
a plain tuple, checks it is a permutation of 1..n, and sizes its blocks at
the upper median of the agents' restricted-peak positions along it.

All tie-breaks resolve by ascending agent id, then ascending size.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import EmptyIntervalError
from .games import Coalition, Partition, SimpleFHG, bits_of, check_ordering
from .verification import audit_green_anonymous

__all__ = [
    "FhgThresholds",
    "FhgIteration",
    "FhgStabilizerTrace",
    "stabilize_fhg",
    "AnonStabilizerTrace",
    "stabilize_anonymous",
    "stabilize_single_peaked",
    "choose_epsilon_floor",
]


@dataclass(frozen=True)
class FhgThresholds:
    """Clamped integer thresholds steering the fractional construction."""

    selection_pool: int  # how many lowest-degree agents are eligible
    loop_budget: int  # iterations, and hence guaranteed-agent count
    degree_cut: int  # "low degree" means degree <= degree_cut

    @classmethod
    def for_n(cls, n: int) -> "FhgThresholds":
        cube = n ** (1.0 / 3.0)
        pool = max(1, math.floor(cube / 62))
        budget = max(1, math.floor(cube / 124))
        cut = min(n - 1, max(0, math.floor(n - 31 * n ** (2.0 / 3.0))))
        return cls(pool, budget, cut)


@dataclass(frozen=True)
class FhgIteration:
    """One loop step: the agent selected, and either the partners merged with
    it (matching branch) or the agents expelled from the candidate club
    (clique branch)."""

    agent: int
    partners: tuple[int, ...] = ()
    removed: tuple[int, ...] = ()


@dataclass(frozen=True)
class FhgStabilizerTrace:
    phi: int
    branch: str  # "matching" | "clique"
    gr: tuple[int, ...]
    iterations: tuple[FhgIteration, ...]
    thresholds: FhgThresholds
    starved: bool = False


def stabilize_fhg(
    game: SimpleFHG, thresholds: FhgThresholds | None = None
) -> tuple[Partition, FhgStabilizerTrace]:
    """Build a partition that random coalitions rarely core-block.

    When enough agents have low out-degree, the lowest-degree ones are merged
    with a few neighbors each (favoring untouched singletons outside the
    pool); otherwise a near-clique of high-degree agents is split off. The
    run is starved when the pool or the candidate club empties before the
    loop budget is spent.
    """
    n = game.n
    if n < 2:
        raise ValueError("need at least two agents")
    th = thresholds or FhgThresholds.for_n(n)
    degrees = game.degrees()
    phi = sum(1 for d in degrees if d <= th.degree_cut)
    branch = "matching" if phi >= th.selection_pool else "clique"
    build = _matching_branch if branch == "matching" else _clique_branch
    partition, iterations = build(game, degrees, th)
    trace = FhgStabilizerTrace(
        phi=phi,
        branch=branch,
        gr=tuple(it.agent for it in iterations),
        iterations=iterations,
        thresholds=th,
        starved=len(iterations) < th.loop_budget,
    )
    return partition, trace


def _matching_branch(game, degrees, th):
    n = game.n
    pool = sorted(range(n), key=lambda i: (degrees[i], i))[: th.selection_pool]
    block = [1 << a for a in range(n)]  # agent -> mask of her current block
    iterations: list[FhgIteration] = []
    for _ in range(th.loop_budget):
        if not pool:
            break
        i = pool[0]
        d = degrees[i]
        target = 0 if d == 0 else -((-2 * d) // (n - d))  # ceil(2d / (n - d))
        neighbors = bits_of(game.adj_masks[i])
        preferred = [j for j in neighbors if block[j] == 1 << j and j not in pool]
        rest = [j for j in neighbors if j not in preferred]
        partners = tuple((preferred + rest)[:target])
        merged = block[i]
        for j in partners:
            merged |= block[j]
        for a in bits_of(merged):
            block[a] = merged
        pool = [a for a in pool if a != i and a not in partners]
        iterations.append(FhgIteration(agent=i, partners=partners))
    # each block once, at its lowest agent, so blocks run by lowest agent
    blocks = [Coalition(m) for a, m in enumerate(block) if m & -m == 1 << a]
    return Partition(blocks, n), tuple(iterations)


def _clique_branch(game, degrees, th):
    n = game.n
    everyone = (1 << n) - 1
    club = everyone
    taken = 0  # agents already selected
    iterations: list[FhgIteration] = []
    for _ in range(th.loop_budget):
        candidates = club & ~taken
        if not candidates:
            break
        i = max(bits_of(candidates), key=lambda a: (degrees[a], -a))
        keep = game.adj_masks[i] | 1 << i
        removed = bits_of(club & ~keep)
        club &= keep
        taken |= 1 << i
        iterations.append(FhgIteration(agent=i, removed=removed))
    blocks = [Coalition(club)]
    if club != everyone:
        blocks.append(Coalition(everyone ^ club))
    return Partition(blocks, n), tuple(iterations)


@dataclass(frozen=True)
class AnonStabilizerTrace:
    """Choices made while packing agents into preferred-size blocks.

    The single-peaked variant also records the window ranked by the
    ordering, the chosen position, and the three camps (agents whose
    restricted peak falls before / at / after the chosen size) plus their
    members that landed in full-size blocks.
    """

    sizes: tuple[int, ...]
    s_star: int
    q: int
    r: int
    green_agents: tuple[int, ...]
    ordered_sizes: tuple[int, ...] | None = None
    h_star: int | None = None
    peaked_before: tuple[int, ...] | None = None
    peaked_at: tuple[int, ...] | None = None
    peaked_after: tuple[int, ...] | None = None
    before_in_star: tuple[int, ...] | None = None
    at_in_star: tuple[int, ...] | None = None
    after_in_star: tuple[int, ...] | None = None


def _window(interval) -> tuple[int, ...]:
    """The window's sizes ascending, refusing an empty window; a value missing
    from a learned view raises later, from its ``value_of_size``."""
    sizes = tuple(sorted(interval))
    if not sizes:
        raise EmptyIntervalError("cannot stabilize over an empty size window")
    return sizes


def _restricted_peak(view, i, sizes):
    """Smallest size in ``sizes`` attaining agent i's maximum over them."""
    return max(sizes, key=lambda s: (view.value_of_size(i, s), -s))


def _pack(view, s_star, first) -> Partition:
    """Cut ``first`` and then every other agent, ascending, into blocks of
    ``s_star``; the n mod s_star agents left over form one remainder block."""
    n = view.n
    chosen = set(first)
    ordered = [*first, *(i for i in range(n) if i not in chosen)]
    return Partition([ordered[k : k + s_star] for k in range(0, n, s_star)], n)


def stabilize_anonymous(view, interval) -> tuple[Partition, AnonStabilizerTrace]:
    """Pack agents into blocks of the window size most of them prefer.

    ``view`` is an AnonymousHG or a LearnedAnonymous; ``interval`` is any
    iterable of sizes or a SizeInterval. Only sizes inside the window are
    consulted, so a partial learned table suffices. The most popular
    restricted-peak size s* wins (ties to the smaller size), agents peaking
    at s* are placed into the full blocks first, and the n mod s* leftover
    agents form one remainder block.
    """
    sizes = _window(interval)
    peaks = [_restricted_peak(view, i, sizes) for i in range(view.n)]
    counts = Counter(peaks)
    s_star = max(sizes, key=lambda s: (counts[s], -s))
    partition = _pack(view, s_star, [i for i, p in enumerate(peaks) if p == s_star])
    trace = AnonStabilizerTrace(
        sizes=sizes,
        s_star=s_star,
        q=view.n // s_star,
        r=view.n % s_star,
        green_agents=tuple(audit_green_anonymous(view, partition, sizes)),
    )
    return partition, trace


def stabilize_single_peaked(view, ordering, interval) -> tuple[Partition, AnonStabilizerTrace]:
    """Single-peaked refinement of the preferred-size packing.

    ``ordering`` lists the sizes 1..n, each once; a partial learned table
    cannot be checked for single-peakedness along it, so it is taken on
    trust. ``interval`` is any iterable of sizes or a SizeInterval. The
    window's sizes are ranked by the ordering; restricting single-peaked
    preferences to the window keeps them single-peaked, so each agent has a
    well-defined restricted peak position. The chosen position h* is the
    highest one such that at most half the agents peak strictly before it,
    which is the upper median of the peak positions, ``sorted(peaks)[n // 2]``.
    Agents peaking exactly at h* get priority for the full-size blocks,
    landing in the remainder block only if every full block is made of them.
    """
    n = view.n
    ordering = check_ordering(ordering, n)
    sizes = _window(interval)
    ordered_sizes = tuple(s for s in ordering if s in sizes)
    missing = [s for s in sizes if s not in ordered_sizes]
    if missing:
        raise ValueError(f"ordering {ordering} lacks the window sizes {missing}")
    position = {s: h for h, s in enumerate(ordered_sizes)}
    peak_pos = [position[_restricted_peak(view, i, sizes)] for i in range(n)]
    h_star = sorted(peak_pos)[n // 2]
    s_star = ordered_sizes[h_star]
    before = tuple(i for i, p in enumerate(peak_pos) if p < h_star)
    at = tuple(i for i, p in enumerate(peak_pos) if p == h_star)
    after = tuple(i for i, p in enumerate(peak_pos) if p > h_star)
    partition = _pack(view, s_star, at)
    in_star = [partition.size_of(i) == s_star for i in range(n)]
    trace = AnonStabilizerTrace(
        sizes=sizes,
        s_star=s_star,
        q=n // s_star,
        r=n % s_star,
        green_agents=tuple(audit_green_anonymous(view, partition, sizes)),
        ordered_sizes=ordered_sizes,
        h_star=h_star,
        peaked_before=before,
        peaked_at=at,
        peaked_after=after,
        before_in_star=tuple(i for i in before if in_star[i]),
        at_in_star=tuple(i for i in at if in_star[i]),
        after_in_star=tuple(i for i in after if in_star[i]),
    )
    return partition, trace


def choose_epsilon_floor(n: int, lam: float, klass: str) -> float:
    """Smallest blocking-fraction target each construction guarantees.

    The floors decrease with n and are vacuous (above 1) at small n; they
    become meaningful only at scales far beyond exhaustive verification.
    """
    if klass == "fhg":
        return 2.0 ** -(n ** (1.0 / 3.0) / 124 - 1)
    if klass == "anon":
        if lam < 1:
            raise ValueError("ratio bound must be >= 1")
        c = 1 / math.sqrt(13 * (lam + 1))
        return 4 * lam * 2.0 ** -(c * n ** (1.0 / 3.0))
    if klass == "anon-sp":
        if lam < 1:
            raise ValueError("ratio bound must be >= 1")
        return 4 * lam * 2.0 ** -(n / 4)
    raise ValueError(f"unknown game class {klass!r}; expected fhg, anon, or anon-sp")
