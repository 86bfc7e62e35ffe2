"""Game models, coalitions and partitions.

Agents are the integers in [0, n). Coalitions are bit-indexed agent sets, so
set algebra on them compiles down to integer bit operations, and a coalition
over any n is a single Python integer. ``bits_of`` lists a mask's members as
an ascending tuple, looked up a byte at a time in cached per-offset tables.

Two valuation models are provided. In a simple fractional game each agent
values a coalition by the fraction of its members she points to in an
unweighted digraph; those values are exact rationals because core-blocking
is defined through strict inequalities and float ties would corrupt blocking
counts. In an anonymous game each agent values a coalition by its size only;
values are kept exactly as stored and never combined arithmetically, so
comparisons are exact as well. A single-peaked ordering is a plain tuple of
the sizes 1..n: ``check_single_peaked`` returns it once every agent's values
are unimodal along it, and raises otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import PartitionError


@lru_cache(maxsize=64)
def _byte_members(offset: int) -> tuple[tuple[int, ...], ...]:
    """For each byte value b, the ascending set bit positions of ``b << offset``.

    The cache keeps the rows of the 64 most recently used offsets, so masks
    of any width cannot grow it without limit.
    """
    return tuple(tuple(offset + j for j in range(8) if b >> j & 1) for b in range(256))


_LOW_BYTE = _byte_members(0)


def bits_of(mask: int) -> tuple[int, ...]:
    """The set bit positions of a non-negative ``mask``, ascending, as a tuple.

    Each non-zero byte of the mask contributes its row entry from
    ``_byte_members``; zero bytes are skipped.
    """
    members = _LOW_BYTE[mask & 255]
    mask >>= 8
    offset = 8
    while mask:
        if mask & 255:
            members += _byte_members(offset)[mask & 255]
        mask >>= 8
        offset += 8
    return members


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

    def members(self) -> tuple[int, ...]:
        return bits_of(self.mask)

    def __iter__(self) -> Iterator[int]:
        return iter(bits_of(self.mask))

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


class Partition:
    """A disjoint cover of [0, n) by coalitions or agent-id lists, with O(1) agent lookup.

    Any other list of blocks is a PartitionError naming the first fault found."""

    __slots__ = ("n", "blocks", "assignment")

    def __init__(self, blocks: Iterable, n: int):
        self.blocks = tuple(b if isinstance(b, Coalition) else Coalition.of(*b) for b in blocks)
        self.n = n
        assignment = [0] * n
        seen = 0
        for b, block in enumerate(self.blocks):
            mask = block.mask
            if not mask or mask >> n:
                raise PartitionError(f"block {list(block)} is empty or reaches past agent {n - 1}")
            if seen & mask:
                raise PartitionError(f"agent {(seen & mask).bit_length() - 1} is in two blocks")
            seen |= mask
            for i in block:
                assignment[i] = b
        if seen != (1 << n) - 1:
            raise PartitionError(f"agent {(~seen & seen + 1).bit_length() - 1} is in no block")
        self.assignment = tuple(assignment)

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls([Coalition(1 << i) for i in range(n)], n)

    @classmethod
    def grand(cls, n: int) -> "Partition":
        return cls([Coalition((1 << n) - 1)], n)

    def block_of(self, agent: int) -> Coalition:
        return self.blocks[self.assignment[agent]]

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


@lru_cache(maxsize=256)
def _shares(size: int) -> tuple[Fraction, ...]:
    """``Fraction(k, size)`` for k = 0..size, built once per size and shared; none for size 0."""
    return tuple(Fraction(k, size) for k in range(size + 1)) if size else ()


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

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.adj_masks)

    def member_values(self, coalition: Coalition) -> dict[int, Fraction]:
        """Every member's value of ``coalition``, in ascending member order."""
        mask, adj = coalition.mask, self.adj_masks
        shares = _shares(coalition.size)
        return {i: shares[(adj[i] & mask).bit_count()] for i in bits_of(mask)}

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
    them. They are kept by size, one column per size, so a coalition's
    values all come from the one column of its size.
    """

    __slots__ = ("n", "_cols")

    def __init__(self, table: Sequence[Sequence[float]]):
        rows = tuple(tuple(float(v) for v in row) for row in table)
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"a row has {len(row)} size values, expected {n}")
        self.n = n
        self._cols = tuple(zip(*rows))

    def table(self) -> list[list[float]]:
        return [list(row) for row in zip(*self._cols)]

    def value_of_size(self, i: int, s: int) -> float:
        if not 1 <= s <= self.n:
            raise ValueError(f"coalition size {s} outside [1, {self.n}]")
        return self._cols[s - 1][i]

    def member_values(self, coalition: Coalition) -> dict[int, float]:
        """Every member's value of ``coalition``, in ascending member order."""
        col = self._cols[coalition.size - 1]
        return {i: col[i] for i in bits_of(coalition.mask)}

    def __eq__(self, other) -> bool:
        return isinstance(other, AnonymousHG) and self._cols == other._cols

    def __hash__(self) -> int:
        return hash(self._cols)

    def __repr__(self) -> str:
        return f"AnonymousHG(n={self.n})"


def check_ordering(ordering, n: int) -> tuple[int, ...]:
    """``ordering`` as a tuple, once it lists each size 1..n exactly once as an int."""
    try:
        order = tuple(ordering)
        ok = all(type(s) is int for s in order) and sorted(order) == list(range(1, n + 1))
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"ordering {ordering!r} is not a permutation of the sizes 1..{n}")
    return order


def check_single_peaked(game: AnonymousHG, ordering=None) -> tuple[int, ...]:
    """The ordering (1..n when None), once every agent's values are unimodal along it.

    Raises ValueError naming the first agent whose value falls and then rises
    again, and the two 1-based positions of the ordering where it rises.
    """
    n = game.n
    order = tuple(range(1, n + 1)) if ordering is None else check_ordering(ordering, n)
    for i in range(n):
        seq = [game.value_of_size(i, s) for s in order]
        fell = False
        for pos in range(1, n):
            fell = fell or seq[pos] < seq[pos - 1]
            if fell and seq[pos] > seq[pos - 1]:
                raise ValueError(
                    f"not single-peaked: agent {i}'s value along the ordering {order} "
                    f"falls and then rises from position {pos} to {pos + 1}"
                )
    return order
