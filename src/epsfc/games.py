"""Game models, coalitions, partitions, and the core-blocking predicate.

Agents are the integers in [0, n). Coalitions are bit-indexed agent sets, so
set algebra on them compiles down to integer bit operations, and a coalition
over any n is a single Python integer.

Two valuation models are provided. In a simple fractional game each agent
values a coalition by the fraction of its members she points to in an
unweighted digraph; those values are exact rationals because core-blocking
is defined through strict inequalities and float ties would corrupt blocking
counts. In an anonymous game each agent values a coalition by its size only;
values are kept exactly as stored and never combined arithmetically, so
comparisons are exact as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import PartitionError, UndefinedValuationError


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(members: Iterable[int]) -> int:
    m = 0
    for i in members:
        if i < 0:
            raise ValueError(f"negative agent id {i}")
        m |= 1 << i
    return m


class Coalition:
    """A bit-packed set of agents.

    Instances are immutable and hash/compare by their bitmask, so they can be
    used as dict keys and set members freely.
    """

    __slots__ = ("mask", "size")

    def __init__(self, mask: int):
        if mask < 0:
            raise ValueError("coalition mask must be non-negative")
        self.mask = mask
        self.size = mask.bit_count()

    @classmethod
    def of(cls, *members: int) -> "Coalition":
        return cls(mask_of(members))

    @classmethod
    def from_members(cls, members: Iterable[int]) -> "Coalition":
        return cls(mask_of(members))

    def members(self) -> tuple[int, ...]:
        return tuple(bits_of(self.mask))

    def __iter__(self) -> Iterator[int]:
        return bits_of(self.mask)

    def __len__(self) -> int:
        return self.size

    def __contains__(self, agent: int) -> bool:
        return agent >= 0 and bool(self.mask >> agent & 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, Coalition) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __repr__(self) -> str:
        return f"Coalition({{{', '.join(map(str, self.members()))}}})"


@dataclass(frozen=True)
class PartitionCheck:
    """Outcome of validating candidate blocks against the agent set [0, n)."""

    ok: bool
    duplicates: tuple[int, ...] = ()
    missing: tuple[int, ...] = ()
    out_of_range: tuple[int, ...] = ()
    empty_blocks: int = 0


def _block_mask(block) -> int:
    return block.mask if isinstance(block, Coalition) else mask_of(block)


def validate_partition(blocks, n: int) -> PartitionCheck:
    """Check that ``blocks`` is a disjoint cover of [0, n).

    Accepts Coalition objects or plain iterables of agent ids, and reports
    duplicated agents, missing agents, out-of-range agents, and empty blocks.
    """
    seen = 0
    duplicates: set[int] = set()
    out_of_range: set[int] = set()
    empty = 0
    for block in blocks:
        bmask = _block_mask(block)
        if bmask == 0:
            empty += 1
            continue
        high = bmask >> n
        if high:
            out_of_range.update(i + n for i in bits_of(high))
            bmask &= (1 << n) - 1
        duplicates.update(bits_of(seen & bmask))
        seen |= bmask
    missing = tuple(bits_of(((1 << n) - 1) & ~seen))
    ok = not duplicates and not missing and not out_of_range and empty == 0
    return PartitionCheck(
        ok,
        tuple(sorted(duplicates)),
        missing,
        tuple(sorted(out_of_range)),
        empty,
    )


class Partition:
    """A disjoint cover of [0, n) by coalitions, with O(1) agent lookup."""

    __slots__ = ("n", "blocks", "assignment")

    def __init__(self, blocks: Sequence[Coalition], n: int):
        check = validate_partition(blocks, n)
        if not check.ok:
            raise PartitionError(f"invalid partition over {n} agents: {check}")
        self.n = n
        self.blocks = tuple(blocks)
        assignment = [0] * n
        for b, block in enumerate(self.blocks):
            for i in block:
                assignment[i] = b
        self.assignment = tuple(assignment)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], n: int) -> "Partition":
        coalitions = [
            b if isinstance(b, Coalition) else Coalition.from_members(b) for b in blocks
        ]
        return cls(coalitions, n)

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls([Coalition(1 << i) for i in range(n)], n)

    @classmethod
    def grand(cls, n: int) -> "Partition":
        return cls([Coalition((1 << n) - 1)], n)

    def block_of(self, agent: int) -> Coalition:
        return self.blocks[self.assignment[agent]]

    def block_index(self, agent: int) -> int:
        return self.assignment[agent]

    def size_of(self, agent: int) -> int:
        return self.blocks[self.assignment[agent]].size

    def block_masks(self) -> tuple[int, ...]:
        return tuple(b.mask for b in self.blocks)

    def __iter__(self) -> Iterator[Coalition]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __eq__(self, other) -> bool:
        # Block order is presentation, not content.
        return (
            isinstance(other, Partition)
            and self.n == other.n
            and frozenset(self.block_masks()) == frozenset(other.block_masks())
        )

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.block_masks())))

    def __repr__(self) -> str:
        inner = ", ".join(repr(sorted(b.members())) for b in self.blocks)
        return f"Partition([{inner}], n={self.n})"


class SimpleFHG:
    """Simple fractional game: an unweighted digraph over the agents.

    ``adj_masks[i]`` is the bitmask of i's out-neighbors; the diagonal is
    always empty. An agent values a coalition she belongs to by
    (out-neighbors inside it) / (coalition size), as an exact Fraction.
    """

    __slots__ = ("n", "adj_masks")

    def __init__(self, n: int, adj_masks: Sequence[int]):
        if len(adj_masks) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(adj_masks)}")
        full = (1 << n) - 1
        for i, row in enumerate(adj_masks):
            if row & ~full:
                raise ValueError(f"row {i} references agents outside [0, {n})")
            if row >> i & 1:
                raise ValueError(f"self-loop on agent {i}")
        self.n = n
        self.adj_masks = tuple(adj_masks)

    @classmethod
    def from_matrix(cls, rows: Sequence[Sequence[int]]) -> "SimpleFHG":
        n = len(rows)
        masks = []
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("adjacency matrix must be square")
            masks.append(mask_of(j for j, v in enumerate(row) if v))
        return cls(n, masks)

    def matrix(self) -> list[list[int]]:
        return [[self.adj_masks[i] >> j & 1 for j in range(self.n)] for i in range(self.n)]

    def neighbors_mask(self, i: int) -> int:
        return self.adj_masks[i]

    def degree(self, i: int) -> int:
        return self.adj_masks[i].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.adj_masks)

    def value(self, i: int, coalition: Coalition) -> Fraction:
        if i not in coalition:
            raise UndefinedValuationError(f"agent {i} is not in {coalition}")
        return Fraction((self.adj_masks[i] & coalition.mask).bit_count(), coalition.size)

    def member_values(self, coalition: Coalition) -> dict[int, Fraction]:
        """Every member's value of ``coalition``, in ascending member order."""
        mask, size, adj = coalition.mask, coalition.size, self.adj_masks
        return {i: Fraction((adj[i] & mask).bit_count(), size) for i in bits_of(mask)}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimpleFHG)
            and self.n == other.n
            and self.adj_masks == other.adj_masks
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj_masks))

    def __repr__(self) -> str:
        return f"SimpleFHG(n={self.n})"


class AnonymousHG:
    """Anonymous game: each agent values a coalition by its size alone.

    ``table[i][s-1]`` holds agent i's value for coalitions of size s. Values
    are stored as given and compared exactly; no arithmetic is ever done on
    them.
    """

    __slots__ = ("n", "_rows")

    def __init__(self, table: Sequence[Sequence[float]]):
        rows = tuple(tuple(float(v) for v in row) for row in table)
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"agent {i} has {len(row)} size values, expected {n}")
        self.n = n
        self._rows = rows

    def table(self) -> list[list[float]]:
        return [list(row) for row in self._rows]

    def value_of_size(self, i: int, s: int) -> float:
        if not 1 <= s <= self.n:
            raise ValueError(f"coalition size {s} outside [1, {self.n}]")
        return self._rows[i][s - 1]

    def has_size(self, i: int, s: int) -> bool:
        return 1 <= s <= self.n

    def value(self, i: int, coalition: Coalition) -> float:
        if i not in coalition:
            raise UndefinedValuationError(f"agent {i} is not in {coalition}")
        return self._rows[i][coalition.size - 1]

    def member_values(self, coalition: Coalition) -> dict[int, float]:
        """Every member's value of ``coalition``, in ascending member order."""
        s, rows = coalition.size - 1, self._rows
        return {i: rows[i][s] for i in bits_of(coalition.mask)}

    def peak(self, i: int) -> int:
        """The smallest size attaining agent i's maximum value."""
        row = self._rows[i]
        best = max(row)
        return row.index(best) + 1

    def __eq__(self, other) -> bool:
        return isinstance(other, AnonymousHG) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"AnonymousHG(n={self.n})"


def value(game, i: int, coalition: Coalition):
    """Agent i's valuation of a coalition she belongs to."""
    return game.value(i, coalition)


def blocks(game, coalition: Coalition, partition: Partition) -> bool:
    """True iff every member strictly prefers ``coalition`` to her current block."""
    if coalition.size == 0:
        raise ValueError("blocking candidates must be non-empty")
    for i in coalition:
        if not game.value(i, coalition) > game.value(i, partition.block_of(i)):
            return False
    return True


def is_individually_rational(game, partition: Partition) -> bool:
    """True iff no agent strictly prefers her singleton to her assigned block."""
    return not any(
        blocks(game, Coalition(1 << i), partition) for i in range(partition.n)
    )


@dataclass(frozen=True)
class SinglePeakedCertificate:
    """Witness that valuations are unimodal along ``ordering``.

    ``ordering`` lists the sizes 1..n in the certified order; ``peaks[i]`` is
    the size (not position) at which agent i's valuation peaks.
    """

    ordering: tuple[int, ...]
    peaks: tuple[int, ...]


@dataclass(frozen=True)
class SinglePeakedViolation:
    """First place the unimodality check fails: agent ``agent``'s value rises
    from position ``h`` to position ``k`` of the ordering after having fallen
    (positions are 1-based)."""

    agent: int
    h: int
    k: int


def check_single_peaked(game: AnonymousHG, ordering: Sequence[int] | None = None):
    """Certify unimodality of every agent's valuation along ``ordering``.

    Defaults to the natural ordering 1..n. Returns a SinglePeakedCertificate
    carrying per-agent peak sizes, or the first SinglePeakedViolation found.
    """
    n = game.n
    if ordering is None:
        order = tuple(range(1, n + 1))
    else:
        order = tuple(ordering)
        if sorted(order) != list(range(1, n + 1)):
            raise ValueError("ordering must be a permutation of the sizes 1..n")
    peaks = []
    for i in range(n):
        seq = [game.value_of_size(i, s) for s in order]
        fell = False
        for pos in range(1, n):
            if seq[pos] > seq[pos - 1]:
                if fell:
                    return SinglePeakedViolation(i, pos, pos + 1)
            elif seq[pos] < seq[pos - 1]:
                fell = True
        first_max = min(p for p in range(n) if seq[p] == max(seq))
        peaks.append(order[first_max])
    return SinglePeakedCertificate(order, tuple(peaks))
