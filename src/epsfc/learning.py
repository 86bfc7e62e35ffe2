"""Learning valuations from sampled coalitions.

A sample is a ``SampleRecord``: the coalition and the tuple of its members'
values in ascending member order, the shape of a sample file's line.

Simple fractional games are recovered exactly: every sample containing agent
i is one linear equation over i's unknown arc indicators (the sum of
indicators over the other members equals value * size, an integer), and the
per-agent systems are solved in exact arithmetic. Each record is converted
once, member by member, to those integer counts: Fractions and ints
through ``as_integer_ratio``, floats by rounding within 1e-6, and a value off
the 1/size grid, outside [0, 1] or not finite is refused naming its agent.
A GF(2) elimination on the raw n-bit masks (bit i clear, rhs parity at bit
n) handles the common case: it reduces each row by its lowest set bit and
stops at full rank, n - 1 pivots, because full rank mod 2 implies full
rational rank; the unique 0/1 candidate is then replayed against every raw
integer equation, the rows after the stop included. Systems that are
rank-deficient or inconsistent mod 2 fall back to exact rational
elimination to decide the true rank. Floats never touch a rank decision.

Anonymous games are learned by direct tabulation: one observed (agent, size)
pair fixes that table entry forever, and a second observation disagreeing
with the first aborts learning, since the model promises exact values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Iterator

from .distributions import SizeInterval, delta_bound
from .errors import (
    EmptyIntervalError,
    InconsistentSampleError,
    LearningError,
    UnderdeterminedError,
)
from .games import Coalition, SimpleFHG, bits_of

__all__ = [
    "SampleRecord",
    "iter_samples",
    "draw_samples",
    "fhg_sample_size",
    "learn_fhg",
    "anon_sample_size",
    "LearnedAnonymous",
    "learn_anonymous",
    "mean_confidence_m",
    "default_alpha",
    "estimate_interval",
]


@dataclass(frozen=True, slots=True)
class SampleRecord:
    """One observed coalition and its members' values, in ascending member order."""

    coalition: Coalition
    values: tuple

    def __post_init__(self):
        if not isinstance(self.values, tuple):  # a list would make the record unhashable
            raise TypeError(f"values must be a tuple, not {type(self.values).__name__}")
        if len(self.values) != self.coalition.size:
            raise ValueError(f"{len(self.values)} values for {self.coalition.size} members")


def iter_samples(game, dist, m: int, rng) -> Iterator[SampleRecord]:
    """Lazily draw m coalitions from ``dist``, each evaluated for its members."""
    if m < 0:
        raise ValueError(f"cannot draw a negative number of samples ({m})")
    values_of = game.values_of
    return (SampleRecord(c, values_of(c)) for c in map(dist.sample, repeat(rng, m)))


def draw_samples(game, dist, m: int, rng) -> list[SampleRecord]:
    """Draw m coalitions from ``dist`` and evaluate them for their members."""
    return list(iter_samples(game, dist, m, rng))


def fhg_sample_size(n: int, delta: float) -> int:
    """Samples sufficient to recover a simple fractional game exactly with
    confidence 1 - delta under uniform coalition sampling."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return math.ceil(16 * math.log(n / delta)) + 4 * n


def _neighbor_counts(rec: SampleRecord) -> Iterator[tuple[int, int]]:
    """(member, neighbor count) for each member of one record.

    The count is the member's value times the coalition size: exact for
    rationals and recoverable from float64 because the denominator is the
    size. A Fraction or int (bool among them) is read through
    ``as_integer_ratio``; any other value is rounded within 1e-6, and
    refused when its scaled value is not finite.
    """
    size = rec.coalition.size
    for agent, value in zip(bits_of(rec.coalition.mask), rec.values):
        # Two checks, Fraction first: a tuple isinstance costs twice as much
        # on an exact Fraction, the common value.
        if isinstance(value, Fraction) or isinstance(value, int):
            num, den = value.as_integer_ratio()
            k, rem = divmod(num * size, den)
            exact = not rem
        else:
            scaled = value * size
            if not math.isfinite(scaled):
                raise InconsistentSampleError(
                    f"agent {agent}: value {value} of a size-{size} coalition "
                    "gives no finite neighbor count",
                    agent,
                )
            k = round(scaled)
            exact = abs(scaled - k) <= 1e-6
        if not exact:
            raise InconsistentSampleError(
                f"agent {agent}: value {value} of a size-{size} coalition "
                f"is not a multiple of 1/{size}",
                agent,
            )
        if not 0 <= k <= size:
            raise InconsistentSampleError(
                f"agent {agent}: value {value} outside [0, 1] for size {size}", agent
            )
        yield agent, k


def _solve_gf2(rows: list[tuple[int, int]], n: int) -> int | None:
    """Solve one agent's (mask, rhs) equations mod 2 over its n - 1 columns.

    Each row is packed as its raw mask (the agent's own bit clear) with the
    rhs parity at bit n and reduced by its lowest set bit against the pivots,
    which are keyed by their own lowest bit. Elimination stops once n - 1
    pivots exist: the unique solution of that prefix is returned as an
    out-neighbor mask, and the caller replays it against every row. Returns
    None when the rows run out first or are inconsistent mod 2.
    """
    rhs_bit = 1 << n
    pivots: dict[int, int] = {}
    pivot_of = pivots.get
    needed = n - 1
    for mask, rhs in rows:
        if not needed:
            break
        row = mask | (rhs & 1) << n
        low = row & -row
        pivot = pivot_of(low)
        while pivot is not None:
            row ^= pivot
            low = row & -row
            pivot = pivot_of(low)
        if low == rhs_bit:
            return None
        if low:
            pivots[low] = row
            needed -= 1
    if needed:
        return None
    # Every coefficient bit is a pivot column, so going down from the highest
    # pivot each one is its rhs plus the higher columns already solved.
    solution = 0
    for low in sorted(pivots, reverse=True):
        if (pivots[low] & (solution | rhs_bit)).bit_count() & 1:
            solution |= low
    return solution


def _solve_rational(rows: list[tuple[int, int]], cols: list[int]):
    """Exact Gauss-Jordan over Fractions.

    ``rows`` holds (raw coefficient bitmask, integer rhs) and ``cols`` the
    agents whose bits are unknowns. Returns the unique solution as a list of
    Fractions in ``cols`` order when the rank is len(cols), None when the
    system is underdetermined, and raises on inconsistency.
    """
    ncols = len(cols)
    matrix = [
        [Fraction(bits >> j & 1) for j in cols] + [Fraction(rhs)] for bits, rhs in rows
    ]
    rank = 0
    pivot_cols = []
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][c] != 0), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = 1 / matrix[rank][c]
        matrix[rank] = [x * inv for x in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][c] != 0:
                factor = matrix[r][c]
                matrix[r] = [x - factor * y for x, y in zip(matrix[r], matrix[rank])]
        pivot_cols.append(c)
        rank += 1
    for r in range(rank, len(matrix)):
        if matrix[r][ncols] != 0:
            raise InconsistentSampleError("sampled equations are mutually inconsistent")
    if rank < ncols:
        return None
    solution = [Fraction(0)] * ncols
    for r, c in enumerate(pivot_cols):
        solution[c] = matrix[r][ncols]
    return solution


def learn_fhg(n: int, samples: Iterable[SampleRecord]) -> SimpleFHG:
    """Recover the adjacency matrix of a simple fractional game exactly.

    Raises UnderdeterminedError listing every agent whose system has rational
    rank below n-1, and InconsistentSampleError when the equations admit no
    0/1 arc assignment (the samples were not produced by a simple game).
    """
    rows_by_agent: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for rec in samples:
        smask = rec.coalition.mask
        if smask >> n:
            raise ValueError(f"sample references agents outside [0, {n})")
        for i, k in _neighbor_counts(rec):
            rows_by_agent[i].append((smask ^ 1 << i, k))
    adj_masks = [0] * n
    underdetermined = []
    for i, rows in enumerate(rows_by_agent):
        candidate = _solve_gf2(rows, n)
        if candidate is not None:
            # Sound past the stop: any 0/1 solution of all rows solves the
            # full-rank prefix, whose solution mod 2 is unique.
            if _replays(rows, candidate):
                adj_masks[i] = candidate
                continue
            raise InconsistentSampleError(
                f"agent {i}: equations have full rank but no 0/1 arc assignment", i
            )
        cols = [j for j in range(n) if j != i]
        try:
            solution = _solve_rational(rows, cols)
        except InconsistentSampleError as exc:
            raise InconsistentSampleError(f"agent {i}: {exc}", i) from None
        if solution is None:
            underdetermined.append(i)
            continue
        if any(x not in (0, 1) for x in solution):
            raise InconsistentSampleError(
                f"agent {i}: unique rational solution is not 0/1-valued", i
            )
        adj_masks[i] = sum(1 << j for j, x in zip(cols, solution) if x == 1)
    if underdetermined:
        raise UnderdeterminedError(underdetermined)
    return SimpleFHG(n, adj_masks)


def _replays(rows: list[tuple[int, int]], adj_candidate: int) -> bool:
    """Check a candidate out-neighbor mask against every raw integer equation."""
    return all((adj_candidate & mask).bit_count() == rhs for mask, rhs in rows)


def anon_sample_size(n: int, delta: float, eps: float, lam: float) -> int:
    """Samples sufficient to learn all valuations at sizes inside the
    high-probability window, with confidence 1 - delta."""
    if not 0 < delta < 1 or not 0 < eps < 1:
        raise ValueError("delta and eps must lie in (0, 1)")
    if lam < 1:
        raise ValueError("ratio bound must be >= 1")
    return math.ceil(2 * lam * (1 + lam) * n * n * math.log(n * n / delta) / eps)


class LearnedAnonymous:
    """Partial anonymous valuation table plus the sampled-size mean."""

    __slots__ = ("n", "m", "_vals", "_size_sum")

    def __init__(self, n: int):
        self.n = n
        self.m = 0
        self._vals: list[dict[int, float]] = [{} for _ in range(n)]
        self._size_sum = 0

    def value_of_size(self, i: int, s: int) -> float:
        try:
            return self._vals[i][s]
        except KeyError:
            raise LearningError(
                f"agent {i}'s value at size {s} was never observed"
            ) from None

    @property
    def mu_hat(self) -> float:
        if self.m == 0:
            raise LearningError("mean size estimate undefined: no samples")
        return self._size_sum / self.m

    def known_table(self) -> list[list[bool]]:
        return [[s in self._vals[i] for s in range(1, self.n + 1)] for i in range(self.n)]

    def __repr__(self) -> str:
        known = sum(len(v) for v in self._vals)
        return f"LearnedAnonymous(n={self.n}, m={self.m}, known={known}/{self.n * self.n})"


def learn_anonymous(n: int, samples: Iterable[SampleRecord]) -> LearnedAnonymous:
    """Tabulate exact per-size values from samples and the mean sampled size.

    A sample whose coalition is empty or reaches past agent n - 1 is a
    ValueError: neither is a coalition of the n agents.
    """
    learned = LearnedAnonymous(n)
    vals = learned._vals
    top = 1 << n
    for rec in samples:
        mask = rec.coalition.mask
        s = rec.coalition.size
        if not 0 < mask < top:
            raise ValueError(
                f"sample references agents outside [0, {n})" if s else "sample has an empty coalition"
            )
        learned.m += 1
        learned._size_sum += s
        for i, v in zip(bits_of(mask), rec.values):
            v = float(v)
            existing = vals[i].get(s)
            if existing is None:
                vals[i][s] = v
            elif existing != v:
                raise InconsistentSampleError(
                    f"agent {i} reported {existing!r} and {v!r} for size {s}", i
                )
    return learned


def mean_confidence_m(n: int, alpha: float, delta: float) -> int:
    """Samples sufficient for the size-mean estimate to land within alpha of
    the true mean with confidence 1 - delta."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return math.ceil(n * n * math.log(2 / delta) / (2 * alpha * alpha))


def default_alpha(n: int, lam: float) -> float:
    return min(1 / (2 * math.sqrt(n)), n / (lam + 1))


def estimate_interval(
    learned: LearnedAnonymous, lam: float, eps: float, alpha: float | None = None
) -> SizeInterval:
    """Window of sizes certainly covering the high-probability size window.

    Widens the ideal window by the mean-estimation slack alpha on both ends,
    then keeps only the integer sizes whose value was learned for every
    agent, so a stabilizer can read each agent's value at each size kept.
    Raises EmptyIntervalError when nothing survives.
    """
    n = learned.n
    if alpha is None:
        alpha = default_alpha(n, lam)
    mu = learned.mu_hat
    delta = delta_bound(lam, eps, n)
    ends = [
        (1 - delta) * (mu - alpha),
        (1 - delta) * (mu + alpha),
        (1 + delta) * (mu - alpha),
        (1 + delta) * (mu + alpha),
    ]
    lo, hi = min(ends), max(ends)
    known = [s for s in range(1, n + 1) if all(s in row for row in learned._vals)]
    sizes = tuple(s for s in known if lo < s < hi)
    if not sizes:
        raise EmptyIntervalError(
            f"no fully-learned size lies in ({lo:.3f}, {hi:.3f}); "
            f"learned-for-all sizes: {known}"
        )
    return SizeInterval(lo, hi, sizes)
