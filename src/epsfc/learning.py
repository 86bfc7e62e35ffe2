"""Learning valuations from sampled coalitions.

Simple fractional games are recovered exactly: every sample containing agent
i is one linear equation over i's unknown arc indicators (the sum of
indicators over the other members equals value * size, an integer), and the
per-agent systems are solved in exact arithmetic. A GF(2) elimination on the
raw n-bit masks (bit i clear, rhs parity at bit n) handles the common case:
it reduces each row by its lowest set bit and stops at full rank, n - 1
pivots, because full rank mod 2 implies full rational rank; the unique 0/1
candidate is then replayed against every raw integer equation, the rows
after the stop included. Systems that are rank-deficient or inconsistent
mod 2 fall back to exact rational elimination to decide the true rank.
Floats never touch a rank decision.

Anonymous games are learned by direct tabulation: one observed (agent, size)
pair fixes that table entry forever, and a second observation disagreeing
with the first aborts learning, since the model promises exact values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .distributions import SizeInterval, delta_bound
from .errors import (
    EmptyIntervalError,
    InconsistentSampleError,
    LearningError,
    UnderdeterminedError,
)
from .games import Coalition, SimpleFHG

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
    """One observed coalition with each member's valuation of it."""

    coalition: Coalition
    member_values: Mapping[int, object] = field(default_factory=dict)

    def __post_init__(self):
        # One pass: OR the keys into a mask. Keys that are not agent ids of
        # this coalition (non-int, negative, past its top bit) leave it to the
        # set comparison, which also decides keys such as 1.0 or True.
        mask = self.coalition.mask
        top = mask.bit_length()
        seen = 0
        for i in self.member_values:
            if type(i) is not int or not 0 <= i < top:
                break
            seen |= 1 << i
        else:
            if seen == mask:
                return
        if set(self.member_values) != set(self.coalition.members()):
            raise ValueError("member_values must be keyed exactly by the coalition members")


def iter_samples(game, dist, m: int, rng) -> Iterator[SampleRecord]:
    """Lazily draw m coalitions from ``dist``, each evaluated for its members."""
    for _ in range(m):
        c = dist.sample(rng)
        yield SampleRecord(c, game.member_values(c))


def draw_samples(game, dist, m: int, rng) -> list[SampleRecord]:
    """Draw m coalitions from ``dist`` and evaluate them for their members."""
    return list(iter_samples(game, dist, m, rng))


def fhg_sample_size(n: int, delta: float) -> int:
    """Samples sufficient to recover a simple fractional game exactly with
    confidence 1 - delta under uniform coalition sampling."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return math.ceil(16 * math.log(n / delta)) + 4 * n


def _rhs_as_int(agent: int, value, size: int) -> int:
    """Neighbor count encoded by a sampled average; exact for rationals and
    recoverable from float64 because the denominator is the coalition size."""
    if isinstance(value, (Fraction, int)):
        k, rem = divmod(value.numerator * size, value.denominator)
        exact = not rem
    else:
        k = round(value * size)
        exact = abs(value * size - k) <= 1e-6
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
    return k


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
    for mask, rhs in rows:
        if len(pivots) == n - 1:
            break
        row = mask | (rhs & 1) << n
        low = row & -row
        while low in pivots:
            row ^= pivots[low]
            low = row & -row
        if low == rhs_bit:
            return None
        if low:
            pivots[low] = row
    if len(pivots) < n - 1:
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
        size = rec.coalition.size
        if smask >> n:
            raise ValueError(f"sample references agents outside [0, {n})")
        for i, v in rec.member_values.items():
            rows_by_agent[i].append((smask ^ 1 << i, _rhs_as_int(i, v, size)))
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

    def has_size(self, i: int, s: int) -> bool:
        return s in self._vals[i]

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

    def sizes_known_for_all(self) -> tuple[int, ...]:
        return tuple(
            s for s in range(1, self.n + 1) if all(s in self._vals[i] for i in range(self.n))
        )

    def __repr__(self) -> str:
        known = sum(len(v) for v in self._vals)
        return f"LearnedAnonymous(n={self.n}, m={self.m}, known={known}/{self.n * self.n})"


def learn_anonymous(n: int, samples: Iterable[SampleRecord]) -> LearnedAnonymous:
    """Tabulate exact per-size values from samples and the mean sampled size."""
    learned = LearnedAnonymous(n)
    for rec in samples:
        s = rec.coalition.size
        if rec.coalition.mask >> n:
            raise ValueError(f"sample references agents outside [0, {n})")
        learned.m += 1
        learned._size_sum += s
        for i, v in rec.member_values.items():
            v = float(v)
            existing = learned._vals[i].get(s)
            if existing is None:
                learned._vals[i][s] = v
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
    then keeps only the integer sizes that were learned for every agent.
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
    known = set(learned.sizes_known_for_all())
    sizes = tuple(s for s in range(1, n + 1) if lo < s < hi and s in known)
    if not sizes:
        raise EmptyIntervalError(
            f"no fully-learned size lies in ({lo:.3f}, {hi:.3f}); "
            f"learned-for-all sizes: {sorted(known)}"
        )
    return SizeInterval(lo, hi, sizes)
