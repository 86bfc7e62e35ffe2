"""Exact and statistical verification of core-blocking behaviour.

Each game class has one census, chosen by ``_census`` (any other object is a
``TypeError``), that answers ``blocks(mask)``, ``exists()`` and ``count``; the
last also counts the blockers disjoint from an ``avoid`` set in the same pass.
``blocks`` is the one test that a non-empty coalition core-blocks (each member
strictly prefers it to her own block): ``blocker_predicate`` returns it, and
``is_individually_rational`` asks it of every singleton.
Fractional games are censused bit-parallel: the coalition masks are cut into
blocks of 2^12, each agent's blocking test for a whole block is one Python int
of side-by-side lane counters, and a block's blockers are the lanes that pass
every agent's test, found with one AND per agent. Anonymous games need no
census and no guard: the agents that would strictly improve at size s form one
bitmask improve[s], a size-s coalition blocks iff it is a subset of it, so
C(|improve[s]|, s) size-s coalitions block. For the same reason their core
is searched over block-size assignments rather than set partitions.

Counts are split by coalition size, which is exactly what distribution-
weighted blocking mass needs. Fractions and masses are exact rationals.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from typing import Callable

from .errors import EmptyIntervalError
from .games import (
    AnonymousHG,
    Coalition,
    Partition,
    SimpleFHG,
    bits_of,
    mask_of,
)
from .limits import check_bell_guard, check_subset_guard

__all__ = [
    "BlockingReport",
    "exact_blocking",
    "exact_blocking_mass",
    "McEstimate",
    "mc_blocking",
    "blocker_predicate",
    "is_individually_rational",
    "audit_green_anonymous",
    "SpLemmaReport",
    "check_sp_lemmas",
    "certify_empty_core",
    "find_core_stable_partition",
    "has_blocker",
    "iter_set_partitions",
    "partition_from_assignment",
    "GrDecomposition",
    "gr_decomposition",
]

WITNESS_CAP = 100


@dataclass(frozen=True)
class BlockingReport:
    """Exact census of the core-blocking coalitions of one partition."""

    total_coalitions: int
    blocking_count: int
    fraction: Fraction
    mass: Fraction | None = None
    witnesses: tuple[Coalition, ...] = ()
    blocking_by_size: tuple[int, ...] = ()


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo blocking probability with a Hoeffding confidence radius."""

    samples: int
    hits: int
    p_hat: float
    ci_halfwidth: float


# The FHG census packs the coalitions of one block into one Python int per
# agent; blocks of 2^12 lanes keep each int a few KB, so memory stays flat.
_BLOCK_BITS = 12


class _FhgCensus:
    """The blocking questions for one partition of a fractional game."""

    __slots__ = ("n", "adj", "num", "den")

    def __init__(self, game: SimpleFHG, partition: Partition):
        self.n = game.n
        self.adj = adj = game.adj_masks
        own = [partition.block_of(i) for i in range(game.n)]
        self.num = [(adj[i] & block.mask).bit_count() for i, block in enumerate(own)]
        self.den = [block.size for block in own]

    def blocks(self, mask: int) -> bool:
        if not mask:
            raise ValueError("blocking candidates must be non-empty")
        adj, num, den = self.adj, self.num, self.den
        size = mask.bit_count()
        m = mask
        while m:
            low = m & -m
            i = low.bit_length() - 1
            if (adj[i] & mask).bit_count() * den[i] <= num[i] * size:
                return False
            m ^= low
        return True

    def exists(self) -> bool:
        check_subset_guard(self.n)
        return any(map(self.blocks, range(1, 1 << self.n)))

    def count(self, witness_cap: int = 0, avoid: int = 0):
        """Per-size blocker counts over the non-empty coalitions, the first
        ``witness_cap`` blockers in ascending mask order, and the number of
        blockers disjoint from ``avoid``.

        Bit-parallel: agents 0..b-1 vary across the 2^b lanes of a block, the
        others are fixed by the block index. Every lane is w bits wide, and for
        agent i lane S holds

            x_i(S) = K + T - 1 + den_i*|N_i & S| - num_i*|S| - K*[i in S]

        with T = 2^(w-1) and K = n^2 + 1. Outside S the K term keeps x_i(S) >= T;
        inside S, x_i(S) >= T iff den_i*|N_i & S| > num_i*|S|, i's blocking test.
        So S blocks iff the top bit of its lane is set for every agent, and one
        AND per agent tests a whole block.
        """
        n, adj, num, den = self.n, self.adj, self.num, self.den
        check_subset_guard(n)
        b = min(n, _BLOCK_BITS)
        # Invariant: 0 <= x_i(S) < 2^w for every S, because den_i*|N_i & S| and
        # num_i*|S| are at most n(n-1) < K and T > 2n^2 + 1 = 2K - 1. Adding c
        # times ``ones`` (c of either sign) therefore turns each lane's value into
        # another in-range value, and no carry or borrow crosses a lane.
        w = (2 * n * n + 1).bit_length() + 1
        top = 1 << (w - 1)
        big = n * n + 1
        ones = [1]  # ones[k]: a 1 in each of 2^k lanes
        by_size = [top]  # by_size[s]: top bits of the lanes with s low members
        free = top  # top bits of the lanes whose low members avoid ``avoid``
        for k in range(b):
            shift = w << k
            ones.append(ones[k] | ones[k] << shift)
            by_size = [x | y << shift for x, y in zip(by_size + [0], [0] + by_size)]
            if not avoid >> k & 1:
                free |= free << shift
        tops = ones[b] << (w - 1)
        base = []  # each agent's lanes over the low agents
        for i in range(n):
            v = big + top - 1
            for j in range(b):
                c = den[i] * (adj[i] >> j & 1) - num[i] - big * (j == i)
                v |= (v + c * ones[j]) << (w << j)
            base.append(v)
        counts = [0] * (n + 1)
        witnesses = []
        avoiding = 0
        for h in range(1 << (n - b)):
            high = h << b
            hsize = h.bit_count()
            acc = tops ^ top if h == 0 else tops  # lane 0 of block 0 is the empty coalition
            # agents placed by the block index: members first, then the varying ones
            for i in [*bits_of(high), *range(b)]:
                c = den[i] * (adj[i] & high).bit_count() - num[i] * hsize - big * (high >> i & 1)
                acc &= base[i] + c * ones[b] if c else base[i]
                if not acc:
                    break
            else:
                for s in range(b + 1):
                    counts[hsize + s] += (acc & by_size[s]).bit_count()
                if not high & avoid:
                    avoiding += (acc & free).bit_count()
                while acc and len(witnesses) < witness_cap:
                    low = acc & -acc
                    witnesses.append(high | low.bit_length() // w - 1)
                    acc ^= low
        return counts, witnesses, avoiding


class _AnonCensus:
    """The blocking questions for one partition of an anonymous game, in closed
    form from improve[s], the bitmask of agents strictly better off at size s."""

    __slots__ = ("n", "improve")

    def __init__(self, game: AnonymousHG, partition: Partition):
        self.n = n = game.n
        self.improve = improve = [0] * (n + 1)
        for i in range(n):
            current = game.value_of_size(i, partition.size_of(i))
            for s in range(1, n + 1):
                if game.value_of_size(i, s) > current:
                    improve[s] |= 1 << i

    def blocks(self, mask: int) -> bool:
        if not mask:
            raise ValueError("blocking candidates must be non-empty")
        return mask & ~self.improve[mask.bit_count()] == 0

    def exists(self) -> bool:
        return any(self.improve[s].bit_count() >= s for s in range(1, self.n + 1))

    def count(self, witness_cap: int = 0, avoid: int = 0):
        """As ``_FhgCensus.count``; witnesses by size, then lexicographic."""
        improve = self.improve
        witnesses = []
        for s in range(1, self.n + 1):
            witnesses += _first_meeting(improve[s], -1, s, witness_cap - len(witnesses))
        return _anon_counts(improve), witnesses, sum(_anon_counts(improve, avoid))


def _census(game, partition: Partition):
    if isinstance(game, SimpleFHG):
        return _FhgCensus(game, partition)
    if isinstance(game, AnonymousHG):
        return _AnonCensus(game, partition)
    raise TypeError(f"cannot enumerate blockers of {type(game).__name__}")


def blocker_predicate(game, partition: Partition) -> Callable[[int], bool]:
    """Return an exact mask -> bool test of the core-blocking condition; the
    empty mask is a ValueError."""
    return _census(game, partition).blocks


def is_individually_rational(game, partition: Partition) -> bool:
    """True iff no agent strictly prefers her singleton to her assigned block."""
    return not any(map(blocker_predicate(game, partition), (1 << i for i in range(partition.n))))


def _anon_counts(improve: list[int], avoid: int = 0) -> list[int]:
    """Per-size counts of blockers disjoint from ``avoid``."""
    return [0] + [math.comb((improve[s] & ~avoid).bit_count(), s) for s in range(1, len(improve))]


def _first_meeting(pool: int, hit: int, s: int, limit: int) -> list[int]:
    """Up to ``limit`` s-subsets of ``pool`` that meet ``hit``, as masks."""
    if limit <= 0:
        return []
    limit = min(limit, math.comb(pool.bit_count(), s) - math.comb((pool & ~hit).bit_count(), s))
    # with hit's members listed first, every subset meeting hit precedes any avoiding it
    order = bits_of(pool & hit) + bits_of(pool & ~hit)
    return [mask_of(c) for c in islice(combinations(order, s), limit)]


def exact_blocking(game, partition: Partition, dist=None) -> BlockingReport:
    """Count the core-blocking coalitions among all 2^n - 1 non-empty ones.

    When ``dist`` is given the report also carries the exact blocking mass.
    The report keeps the first ``WITNESS_CAP`` blockers as witnesses.
    Fractional games are censused bit-parallel behind the subset guard,
    witnesses in ascending mask order. Anonymous games are counted in closed
    form at any n, witnesses by ascending size, then as lexicographic
    combinations of the improving agents.
    """
    census = _census(game, partition)
    counts, witness_masks, _ = census.count(WITNESS_CAP)
    total = (1 << census.n) - 1
    blocking = sum(counts)
    return BlockingReport(
        total_coalitions=total,
        blocking_count=blocking,
        fraction=Fraction(blocking, total),
        mass=None if dist is None else _blocking_mass(census, dist, counts),
        witnesses=tuple(Coalition(m) for m in witness_masks),
        blocking_by_size=tuple(counts),
    )


def exact_blocking_mass(game, partition: Partition, dist) -> Fraction:
    """Exact probability that a coalition drawn from ``dist`` core-blocks.

    ``dist`` is a mass model (see ``distributions``): every blocker weighs
    the unit mass of its size, then each blocking family member trades that
    for the family mass. The census is skipped when every unit mass is 0, so
    a pure family needs no enumeration guard.
    """
    return _blocking_mass(_census(game, partition), dist)


def _blocking_mass(census, dist, counts=None) -> Fraction:
    """``exact_blocking_mass`` on a census, reusing its per-size ``counts`` if known."""
    if not hasattr(dist, "unit_mass_of_size"):
        raise TypeError(f"cannot compute blocking mass under {type(dist).__name__}")
    n = census.n
    unit = [Fraction(0)] + [dist.unit_mass_of_size(s) for s in range(1, n + 1)]
    mass = Fraction(0)
    if any(unit):
        counts = census.count()[0] if counts is None else counts
        mass = sum((counts[s] * unit[s] for s in range(1, n + 1)), mass)
    for c in dist.family:
        if census.blocks(c.mask):
            mass += dist.family_mass - unit[c.size]
    return mass


def mc_blocking(
    game, partition: Partition, dist, m: int, delta: float = 0.05, *, rng: random.Random
) -> McEstimate:
    """Estimate the blocking probability of ``partition`` from m independent draws.

    The draws come from ``dist.sample(rng)``, one after another, so a seeded
    ``random.Random`` makes the estimate reproducible. The confidence radius
    is the two-sided Hoeffding half-width sqrt(ln(2/delta) / (2m)).
    """
    if m < 1:
        raise ValueError("need at least one sample")
    pred = blocker_predicate(game, partition)
    hits = sum(1 for _ in range(m) if pred(dist.sample(rng).mask))
    return McEstimate(
        samples=m,
        hits=hits,
        p_hat=hits / m,
        ci_halfwidth=math.sqrt(math.log(2 / delta) / (2 * m)),
    )


def audit_green_anonymous(view, partition: Partition, sizes) -> list[int]:
    """Agents whose block size attains their maximum value over ``sizes``.

    Such agents cannot strictly improve in any coalition whose size stays
    inside ``sizes``, so coalitions containing them block only from outside
    the window. ``sizes`` is any iterable of sizes or a SizeInterval; an
    empty window raises EmptyIntervalError.
    """
    size_set = set(sizes)
    if not size_set:
        raise EmptyIntervalError("cannot audit green agents over an empty size window")
    green = []
    for i in range(view.n):
        top = max(view.value_of_size(i, s) for s in size_set)
        s = partition.size_of(i)
        if s in size_set and view.value_of_size(i, s) == top:
            green.append(i)
    return green


@dataclass(frozen=True)
class SpLemmaReport:
    """Structural audit of a single-peaked packing against the full blocker census.

    Checks that no blocker touches the at-peak agents placed in full-size
    blocks, that no window-sized blocker mixes the before-peak and after-peak
    camps, and, as ``count_ok``, that the number of window-sized blockers is
    at most the 2^(3n/4 + 1) ceiling, compared exactly.
    """

    ok: bool
    blockers: int
    blockers_in_window: int
    count_ok: bool
    at_peak_violations: tuple[Coalition, ...] = ()
    mixing_violations: tuple[Coalition, ...] = ()


def _mixing_witnesses(improve_s: int, before: int, after: int, s: int, limit: int) -> list[int]:
    """Up to ``limit`` s-subsets of ``improve_s`` meeting both disjoint camps, as masks."""
    found: list[int] = []
    bs = improve_s & before
    for b in bits_of(bs):  # b is the subset's lowest before-member, so none repeats
        pool = improve_s & ~(bs & ((2 << b) - 1))
        found += [m | 1 << b for m in _first_meeting(pool, after, s - 1, limit - len(found))]
    return found


def check_sp_lemmas(
    game: AnonymousHG, partition: Partition, sizes, trace
) -> SpLemmaReport:
    """Count all blockers in closed form and audit the single-peaked packing's lemmas.

    ``sizes`` is any iterable of sizes or a SizeInterval; ``trace`` must come
    from ``stabilize_single_peaked``, whose camps the lemmas are about.
    """
    if trace.at_in_star is None:
        raise ValueError(
            "check_sp_lemmas needs a stabilize_single_peaked trace; this one has no camps"
        )
    n = game.n
    size_set = set(sizes)
    at_mask = mask_of(trace.at_in_star)
    before_mask = mask_of(trace.before_in_star)
    after_mask = mask_of(trace.after_in_star)
    improve = _AnonCensus(game, partition).improve
    total = _anon_counts(improve)
    avoid_before = _anon_counts(improve, before_mask)
    avoid_after = _anon_counts(improve, after_mask)
    avoid_both = _anon_counts(improve, before_mask | after_mask)
    at_violations = []
    mixing_violations = []
    for s in range(1, n + 1):
        at_violations += _first_meeting(improve[s], at_mask, s, WITNESS_CAP - len(at_violations))
        if s in size_set:
            mixing = total[s] - avoid_before[s] - avoid_after[s] + avoid_both[s]
            room = min(mixing, WITNESS_CAP - len(mixing_violations))
            mixing_violations += _mixing_witnesses(improve[s], before_mask, after_mask, s, room)
    in_window = sum(total[s] for s in range(1, n + 1) if s in size_set)
    count_ok = in_window**4 <= 1 << (3 * n + 4)  # in_window <= 2^(3n/4 + 1), exactly
    return SpLemmaReport(
        ok=not at_violations and not mixing_violations and count_ok,
        blockers=sum(total),
        blockers_in_window=in_window,
        count_ok=count_ok,
        at_peak_violations=tuple(map(Coalition, at_violations)),
        mixing_violations=tuple(map(Coalition, mixing_violations)),
    )


def iter_set_partitions(n: int):
    """Yield every partition of [0, n) as a restricted-growth assignment.

    The assignment list is reused across iterations; copy it if you keep it.
    """
    if n <= 0:
        yield []
        return
    a = [0] * n
    m = [0] * n  # m[k] = max(a[0..k])
    while True:
        yield a
        k = n - 1
        while k > 0 and a[k] == m[k - 1] + 1:
            k -= 1
        if k == 0:
            return
        a[k] += 1
        m[k] = m[k - 1] if m[k - 1] >= a[k] else a[k]
        for j in range(k + 1, n):
            a[j] = 0
            m[j] = m[k]


def partition_from_assignment(assignment, n: int) -> Partition:
    """Build a Partition from agent -> block-label, labels in first-seen order."""
    masks: dict[int, int] = {}
    for i, label in enumerate(assignment):
        masks[label] = masks.get(label, 0) | 1 << i
    return Partition([Coalition(m) for m in masks.values()], n)


def has_blocker(game, partition: Partition) -> bool:
    """Existence of a core-blocking coalition, without a full census.

    For anonymous games this is closed-form: a blocker of size s exists iff
    at least s agents strictly improve at size s. Fractional games fall back
    to a guarded early-exit scan.
    """
    return _census(game, partition).exists()


def _anon_stable_profile(game: AnonymousHG) -> Partition | None:
    """A core-stable partition of an anonymous game, by a search over block sizes.

    A size-s blocker exists iff at least s agents strictly prefer size s to
    their own, so agents 0, 1, ... take sizes c = 1..n in turn, in ascending
    order, while imp[s] counts the assigned agents that would gain at size s.
    A branch dies once some imp[s] >= s (imp only grows) or once the seats
    missing from open blocks, sum over c of (-cnt[c] mod c), outnumber the
    agents left. An agent with the previous agent's row takes a size no
    smaller than that agent's. Each complete assignment reached is the size
    profile of a distinct set partition, so the Bell guard bounds the work.
    """
    n = game.n
    sizes = range(1, n + 1)
    rows = game.table()
    # better[i][c - 1]: the sizes agent i strictly prefers to size c; better_mask as bits
    better = [[[s for s in sizes if r[s - 1] > r[c - 1]] for c in sizes] for r in rows]
    better_mask = [[sum(1 << s for s in b) for b in per] for per in better]
    imp, cnt, size = [0] * (n + 1), [0] * (n + 1), [0] * n

    def place(i: int, deficit: int, full: int) -> bool:
        # full: the sizes s with imp[s] == s - 1, where one more gainer blocks
        if i == n:
            return True  # the deficit test below leaves only deficit 0 here
        lo = size[i - 1] if i and rows[i] == rows[i - 1] else 1
        for c in range(lo, n + 1):
            if better_mask[i][c - 1] & full:
                continue
            step = c - 1 if cnt[c] % c == 0 else -1  # opens a block, or fills a seat
            if deficit + step > n - 1 - i:
                continue
            nxt = full
            for s in better[i][c - 1]:
                imp[s] += 1
                nxt |= (imp[s] == s - 1) << s
            cnt[c] += 1
            size[i] = c
            if place(i + 1, deficit + step, nxt):
                return True
            cnt[c] -= 1
            for s in better[i][c - 1]:
                imp[s] -= 1
        return False

    stable = place(0, 0, 1 << 1)  # one agent gaining at size 1 already blocks
    del place  # it refers to itself; breaking that cycle frees the search state now
    if not stable:
        return None
    blocks = []
    for c in sizes:
        group = [i for i in range(n) if size[i] == c]
        blocks += [group[k : k + c] for k in range(0, len(group), c)]
    return Partition(blocks, n)


def find_core_stable_partition(game) -> Partition | None:
    """Some partition admitting no blocker (which one is unspecified), or None.

    Behind the Bell guard, anonymous games are searched over block-size
    assignments and fractional games over set partitions.
    """
    if not isinstance(game, (AnonymousHG, SimpleFHG)):
        raise TypeError(f"cannot enumerate blockers of {type(game).__name__}")
    check_bell_guard(game.n)
    if isinstance(game, AnonymousHG):
        return _anon_stable_profile(game)
    for assignment in iter_set_partitions(game.n):
        partition = partition_from_assignment(assignment, game.n)
        if not has_blocker(game, partition):
            return partition
    return None


def certify_empty_core(game) -> bool:
    """True iff every partition of the agents admits a core-blocking coalition.

    Runs ``find_core_stable_partition``, so it is gated by the Bell guard.
    """
    return find_core_stable_partition(game) is None


@dataclass(frozen=True)
class GrDecomposition:
    """Exact split of the blocking census around a guaranteed agent set."""

    total_coalitions: int
    avoiding_gr: int  # all coalitions disjoint from the set
    blockers_avoiding: int
    blockers_meeting: int

    @property
    def blockers(self) -> int:
        return self.blockers_avoiding + self.blockers_meeting


def gr_decomposition(game, partition: Partition, gr_agents) -> GrDecomposition:
    """Count blockers split by whether they touch ``gr_agents``.

    The blocking fraction is then bounded by P(coalition avoids the set) plus
    the fraction of blockers meeting it, and the census here makes both terms
    exact.
    """
    census = _census(game, partition)
    full = (1 << census.n) - 1
    gr_mask = mask_of(gr_agents) & full
    counts, _, avoiding = census.count(avoid=gr_mask)
    blockers = sum(counts)
    return GrDecomposition(
        total_coalitions=full,
        avoiding_gr=(1 << census.n - gr_mask.bit_count()) - 1,
        blockers_avoiding=avoiding,
        blockers_meeting=blockers - avoiding,
    )
