"""Instance generators, empty-core search, and extension constructions.

The extenders lift a small instance to any agent count while preserving an
empty core and a small always-relevant coalition family: the fractional
extension glues a fresh clique beside the base graph with no cross arcs, and
the single-peaked extension pushes all new sizes below every base agent's
current minimum while giving the new agents strictly size-increasing values.
Both single-peaked constructions return the game with its ordering, the
tuple of sizes that ``check_single_peaked`` returns for it; that call is
their self-check, since it raises on a game that is not single-peaked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .distributions import _randbelow
from .games import AnonymousHG, Coalition, Partition, SimpleFHG, check_single_peaked
from .limits import check_bell_guard, check_subset_guard
from .verification import certify_empty_core, partition_from_assignment

__all__ = [
    "random_fhg",
    "random_anon",
    "random_anon_sp",
    "random_partition",
    "EmptyCoreSearch",
    "find_empty_core_sp",
    "extend_fhg",
    "extend_anon_sp",
    "adversarial_family",
]


def _rng_of(seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def random_fhg(n: int, p: float, seed) -> SimpleFHG:
    """Directed Erdos-Renyi graph: each off-diagonal arc present w.p. ``p``.

    Arcs are drawn row-major with the diagonal skipped, so a fixed seed gives
    a bit-identical game.
    """
    if n < 1:
        raise ValueError("need at least one agent")
    if not 0 <= p <= 1:
        raise ValueError("arc probability must lie in [0, 1]")
    rng = _rng_of(seed)
    masks = []
    for i in range(n):
        row = 0
        for j in range(n):
            if j != i and rng.random() < p:
                row |= 1 << j
        masks.append(row)
    return SimpleFHG(n, masks)


def random_anon(n: int, seed) -> AnonymousHG:
    """Anonymous game with i.i.d. uniform per-(agent, size) values."""
    if n < 1:
        raise ValueError("need at least one agent")
    rng = _rng_of(seed)
    return AnonymousHG([[rng.random() for _ in range(n)] for _ in range(n)])


def random_anon_sp(n: int, seed) -> tuple[AnonymousHG, tuple[int, ...]]:
    """Anonymous game single-peaked in the natural ordering, with that
    ordering 1..n as ``check_single_peaked`` returns it.

    Each agent draws a peak uniformly from [1, n] and n distinct values; the
    largest sits at the peak and the rest are split at random between the
    two sides, strictly decreasing away from the peak. Splitting at random
    reaches every unimodal profile, not only the distance-symmetric ones;
    that breadth matters because empty-core instances exist among general
    unimodal profiles but not among the distance-symmetric ones at small n.

    The peak and the shuffle's swaps are drawn through ``getrandbits``
    exactly as ``randrange(1, n + 1)`` and ``shuffle`` draw them, so a seed
    gives the same game and leaves the generator in the same state.
    """
    if n < 1:
        raise ValueError("need at least one agent")
    rng = _rng_of(seed)
    getrandbits, random_ = rng.getrandbits, rng.random
    table = []
    for _ in range(n):
        peak = 1 + _randbelow(getrandbits, n)
        values = sorted([random_() for _ in range(n)], reverse=True)
        top, rest = values[0], values[1:]
        for i in range(n - 2, 0, -1):  # shuffle(rest): swap slot i with one of slots 0..i
            j = _randbelow(getrandbits, i + 1)
            rest[i], rest[j] = rest[j], rest[i]
        # sizes 1 .. peak-1 rise to the peak, sizes peak+1 .. n fall from it
        table.append(sorted(rest[: peak - 1]) + [top] + sorted(rest[peak - 1 :], reverse=True))
    game = AnonymousHG(table)
    return game, check_single_peaked(game)


def random_partition(n: int, seed) -> Partition:
    """Seeded random partition via a random restricted-growth string."""
    rng = _rng_of(seed)
    labels = []
    top = -1
    for _ in range(n):
        r = rng.randrange(top + 2)
        labels.append(r)
        top = max(top, r)
    return partition_from_assignment(labels, n)


@dataclass(frozen=True)
class EmptyCoreSearch:
    """Outcome of the rejection search for an empty-core instance."""

    game: AnonymousHG | None
    attempts: int

    @property
    def found(self) -> bool:
        return self.game is not None


def find_empty_core_sp(
    n: int = 7, max_attempts: int = 100_000, seed=0
) -> EmptyCoreSearch:
    """Search random single-peaked instances for one with an empty core.

    Each instance is certified by ``certify_empty_core``'s block-size search.
    The search is best-effort: a not-found result after ``max_attempts`` is
    a normal outcome, reported with the attempt count.
    """
    check_bell_guard(n)
    root = _rng_of(seed)
    for attempt in range(1, max_attempts + 1):
        game, _ = random_anon_sp(n, root.getrandbits(64))
        if certify_empty_core(game):
            return EmptyCoreSearch(game, attempt)
    return EmptyCoreSearch(None, max_attempts)


def extend_fhg(base: SimpleFHG, n: int) -> SimpleFHG:
    """Block-diagonal extension: base graph plus a fresh complete digraph.

    Base agents keep their arcs and value the newcomers 0; the newcomers form
    a clique among themselves and value all base agents 0.
    """
    if n <= base.n:
        raise ValueError(f"extension size {n} must exceed the base size {base.n}")
    new_block = ((1 << n) - 1) ^ ((1 << base.n) - 1)
    masks = list(base.adj_masks)
    for i in range(base.n, n):
        masks.append(new_block ^ (1 << i))
    return SimpleFHG(n, masks)


def extend_anon_sp(base: AnonymousHG, n: int) -> tuple[AnonymousHG, tuple[int, ...]]:
    """Single-peaked extension in the natural ordering, with that ordering.

    Base agents keep their values on the base sizes and rank every new size
    strictly below their current minimum, decreasing in size; new agents get
    strictly increasing values, peaking at the grand size. A base that is not
    single-peaked in the natural ordering is refused with a ValueError.
    """
    check_single_peaked(base)
    if n <= base.n:
        raise ValueError(f"extension size {n} must exceed the base size {base.n}")
    table = []
    for i in range(base.n):
        row = [base.value_of_size(i, s) for s in range(1, base.n + 1)]
        floor = min(row)
        row.extend(floor - k for k in range(1, n - base.n + 1))
        table.append(row)
    for _ in range(base.n, n):
        table.append([float(s) for s in range(1, n + 1)])
    game = AnonymousHG(table)
    return game, check_single_peaked(game)


def adversarial_family(n: int, base_n: int) -> list[Coalition]:
    """All non-empty subsets of the base block plus the newcomer block.

    This is the family that always contains a blocker for extensions of an
    empty-core base; it has 2^base_n coalitions, so materializing it is
    gated by the enumeration guard.
    """
    if not 0 < base_n < n:
        raise ValueError("need 0 < base_n < n")
    check_subset_guard(base_n, "adversarial family materialization")
    family = [Coalition(mask) for mask in range(1, 1 << base_n)]
    family.append(Coalition(((1 << n) - 1) ^ ((1 << base_n) - 1)))
    return family
