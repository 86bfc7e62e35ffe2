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

All tie-breaks resolve by ascending agent id, then ascending size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from .distributions import SizeInterval
from .errors import EmptyIntervalError, LearningError
from .games import Coalition, Partition, SimpleFHG, SinglePeakedCertificate, bits_of
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
    pool); otherwise a near-clique of high-degree agents is split off.
    """
    n = game.n
    if n < 2:
        raise ValueError("need at least two agents")
    th = thresholds or FhgThresholds.for_n(n)
    degrees = game.degrees()
    phi = sum(1 for d in degrees if d <= th.degree_cut)
    if phi >= th.selection_pool:
        return _matching_branch(game, degrees, th, phi)
    return _clique_branch(game, degrees, th, phi)


def _matching_branch(game, degrees, th, phi):
    n = game.n
    order = sorted(range(n), key=lambda i: (degrees[i], i))
    pool = order[: th.selection_pool]
    in_pool = set(pool)
    block_sets = [{i} for i in range(n)]  # agent -> her current block (shared objects)
    gr: list[int] = []
    iterations: list[FhgIteration] = []
    starved = False
    for _ in range(th.loop_budget):
        if not pool:
            starved = True
            break
        i = pool[0]
        gr.append(i)
        d = degrees[i]
        target = 0 if d == 0 else -((-2 * d) // (n - d))  # ceil(2d / (n - d))
        neighbors = list(bits_of(game.neighbors_mask(i)))
        preferred = [
            j for j in neighbors if len(block_sets[j]) == 1 and j not in in_pool
        ]
        preferred_set = set(preferred)
        rest = [j for j in neighbors if j not in preferred_set]
        partners = tuple((preferred + rest)[:target])
        if partners:
            merged = set(block_sets[i])
            for j in partners:
                merged |= block_sets[j]
            for a in merged:
                block_sets[a] = merged
        drop = set(partners) | {i}
        pool = [a for a in pool if a not in drop]
        in_pool -= drop
        iterations.append(FhgIteration(agent=i, partners=partners))
    partition = _partition_from_block_sets(block_sets, n)
    trace = FhgStabilizerTrace(
        phi=phi,
        branch="matching",
        gr=tuple(gr),
        iterations=tuple(iterations),
        thresholds=th,
        starved=starved,
    )
    return partition, trace


def _clique_branch(game, degrees, th, phi):
    n = game.n
    club = set(range(n))
    gr: list[int] = []
    iterations: list[FhgIteration] = []
    starved = False
    for _ in range(th.loop_budget):
        candidates = club - set(gr)
        if not candidates:
            starved = True
            break
        i = max(candidates, key=lambda a: (degrees[a], -a))
        keep = game.neighbors_mask(i) | (1 << i)
        removed = tuple(a for a in sorted(club) if not keep >> a & 1)
        club -= set(removed)
        gr.append(i)
        iterations.append(FhgIteration(agent=i, removed=removed))
    blocks = [Coalition.from_members(club)]
    outside = set(range(n)) - club
    if outside:
        blocks.append(Coalition.from_members(outside))
    partition = Partition(blocks, n)
    trace = FhgStabilizerTrace(
        phi=phi,
        branch="clique",
        gr=tuple(gr),
        iterations=tuple(iterations),
        thresholds=th,
        starved=starved,
    )
    return partition, trace


def _partition_from_block_sets(block_sets, n):
    seen = set()
    blocks = []
    for i in range(n):
        ident = id(block_sets[i])
        if ident not in seen:
            seen.add(ident)
            blocks.append(Coalition.from_members(block_sets[i]))
    blocks.sort(key=lambda b: (b.mask & -b.mask))
    return Partition(blocks, n)


@dataclass(frozen=True)
class AnonStabilizerTrace:
    """Choices made while packing agents into preferred-size blocks.

    The single-peaked variant also records the window ordered by the
    certificate, the chosen position, and the three camps (agents whose
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


def _interval_sizes(interval) -> tuple[int, ...]:
    if isinstance(interval, SizeInterval):
        return tuple(sorted(interval.sizes))
    return tuple(sorted(interval))


def _require_known(view, sizes):
    missing = [
        (i, s) for i in range(view.n) for s in sizes if not view.has_size(i, s)
    ]
    if missing:
        raise LearningError(f"valuations missing for (agent, size) pairs: {missing[:8]}")


def _restricted_peak(view, i, sizes):
    """Smallest size in ``sizes`` attaining agent i's maximum over them."""
    best_s = sizes[0]
    best_v = view.value_of_size(i, best_s)
    for s in sizes[1:]:
        v = view.value_of_size(i, s)
        if v > best_v:
            best_s, best_v = s, v
    return best_s


def _fill_blocks(ordered_agents, s_star, q, r, n):
    blocks = [
        Coalition.from_members(ordered_agents[k * s_star : (k + 1) * s_star])
        for k in range(q)
    ]
    if r:
        blocks.append(Coalition.from_members(ordered_agents[q * s_star :]))
    return Partition(blocks, n)


def stabilize_anonymous(view, interval) -> tuple[Partition, AnonStabilizerTrace]:
    """Pack agents into blocks of the window size most of them prefer.

    ``view`` is an AnonymousHG or a LearnedAnonymous; only sizes inside the
    window are consulted, so a partial learned table suffices. The most
    popular restricted-peak size s* wins (ties to the smaller size), agents
    peaking at s* are placed into the full blocks first, and the n mod s*
    leftover agents form one remainder block.
    """
    sizes = _interval_sizes(interval)
    if not sizes:
        raise EmptyIntervalError("cannot stabilize over an empty size window")
    n = view.n
    _require_known(view, sizes)
    peaks = [_restricted_peak(view, i, sizes) for i in range(n)]
    counts = {s: 0 for s in sizes}
    for p in peaks:
        counts[p] += 1
    s_star = max(sizes, key=lambda s: (counts[s], -s))
    q, r = divmod(n, s_star)
    ordered = [i for i in range(n) if peaks[i] == s_star] + [
        i for i in range(n) if peaks[i] != s_star
    ]
    partition = _fill_blocks(ordered, s_star, q, r, n)
    trace = AnonStabilizerTrace(
        sizes=sizes,
        s_star=s_star,
        q=q,
        r=r,
        green_agents=tuple(audit_green_anonymous(view, partition, sizes)),
    )
    return partition, trace


def stabilize_single_peaked(
    view, certificate: SinglePeakedCertificate, interval
) -> tuple[Partition, AnonStabilizerTrace]:
    """Single-peaked refinement of the preferred-size packing.

    The window's sizes are ranked by the certificate ordering; restricting
    single-peaked preferences to the window keeps them single-peaked, so each
    agent has a well-defined restricted peak position. The chosen position is
    the highest one such that at most half the agents peak strictly before
    it; agents peaking exactly there get priority for the full-size blocks,
    landing in the remainder block only if every full block is made of them.
    """
    sizes = _interval_sizes(interval)
    if not sizes:
        raise EmptyIntervalError("cannot stabilize over an empty size window")
    n = view.n
    _require_known(view, sizes)
    size_set = set(sizes)
    by_position = tuple(s for s in certificate.ordering if s in size_set)
    position_of = {s: h for h, s in enumerate(by_position)}
    peak_pos = []
    for i in range(n):
        s = _restricted_peak(view, i, sizes)
        peak_pos.append(position_of[s])
    k = len(by_position)
    # highest position h with |{i : peak position < h}| <= n/2
    h_star = 0
    before = 0
    counts_at = [0] * k
    for p in peak_pos:
        counts_at[p] += 1
    for h in range(k):
        if h > 0:
            before += counts_at[h - 1]
        if 2 * before <= n:
            h_star = h
    s_star = by_position[h_star]
    peaked_before = tuple(i for i in range(n) if peak_pos[i] < h_star)
    peaked_at = tuple(i for i in range(n) if peak_pos[i] == h_star)
    peaked_after = tuple(i for i in range(n) if peak_pos[i] > h_star)
    q, r = divmod(n, s_star)
    at_set = set(peaked_at)
    ordered = list(peaked_at) + [i for i in range(n) if i not in at_set]
    partition = _fill_blocks(ordered, s_star, q, r, n)
    in_star = {i for i in range(n) if partition.size_of(i) == s_star}
    trace = AnonStabilizerTrace(
        sizes=sizes,
        s_star=s_star,
        q=q,
        r=r,
        green_agents=tuple(audit_green_anonymous(view, partition, sizes)),
        ordered_sizes=by_position,
        h_star=h_star,
        peaked_before=peaked_before,
        peaked_at=peaked_at,
        peaked_after=peaked_after,
        before_in_star=tuple(i for i in peaked_before if i in in_star),
        at_in_star=tuple(i for i in peaked_at if i in in_star),
        after_in_star=tuple(i for i in peaked_after if i in in_star),
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
