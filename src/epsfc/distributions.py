"""Sampleable coalition distributions with exact point masses.

Every distribution here assigns probability to the non-empty subsets of the
agent set [0, n); the empty set carries no mass. Point masses are exact
rationals so that family masses, means, and tail windows can be checked
without floating-point slack.

Sampling takes an explicit ``random.Random``: callers own seeding, and
parallel users hand one independent stream to each worker. Uniform and
size-tilted draws go through ``rng.getrandbits`` exactly as ``rng.randrange``
would for a ``random.Random``: the width's bit length, redrawn until below
the width. They consume the same bits, so draws are reproducible bit-for-bit
for a fixed seed; the family draws call ``randrange`` itself. A subclass that
overrides ``random()`` without ``getrandbits`` is outside that contract.

The classes are the constructors: ``UniformCoalitions(n)``,
``SizeTilted(n, g)``, ``FamilyUniform(family, n)`` and
``AdversarialBounded(family, n, lam)``; each takes the agent count ``n``,
and a family outside [0, n) is refused. A family lists Coalitions or
0-based agent-id lists, and every exact number may be an int, a float, a
"p/q" string or a Fraction. ``d.lambda_bound()`` is the exact max/min
point-mass ratio, where one exists. The JSON specs, with their kind names
and 1-based agents, are read and written by ``io``.

Every distribution is one mass model: a unit mass per coalition size, plus
an explicit family whose members all carry one family mass instead. Point
masses and the size PMF are derived from those two in one place, and so is
the exact blocking mass in ``verification``: the blockers of each size weigh
its unit mass, then each blocking family member trades that for the family
mass. Uniform and size-tilted distributions have no family; the uniform
family distribution has unit mass 0 (its support is the family); the
two-level adversarial one has unit mass p/lambda and family mass p.

The ratio-bounded family is realized through per-size weights: tilting only
by size keeps the max/min point-mass ratio exact and equal to
max(g)/min(g), and sampling O(n), where a general table over 2^n coalitions
would be infeasible.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Sequence

from .errors import UnboundedLambdaError
from .games import Coalition

__all__ = [
    "UniformCoalitions",
    "SizeTilted",
    "FamilyUniform",
    "AdversarialBounded",
    "SizeInterval",
    "mean_size",
    "bartlett_bounds",
    "delta_bound",
    "size_interval",
    "mean_size_bounds",
]


def _randbelow(getrandbits, w: int) -> int:
    """A uniform int in [0, w), drawn as ``randrange(w)`` draws it for a ``random.Random``."""
    b = w.bit_length()
    r = getrandbits(b)
    while r >= w:
        r = getrandbits(b)
    return r


@lru_cache(maxsize=64)
def _draw_plan(n: int) -> tuple[tuple[tuple[int, int, int], ...], tuple[int, ...]]:
    """The partial Fisher-Yates steps over [0, n) and the agents' bits.

    Step k draws below the width w = n - k on w's bit length, so ``steps``
    holds ``(k, w, w.bit_length())`` for k < n and ``powers`` holds
    ``1 << i`` for i < n. The cache keeps the 64 most recent n, so a
    sweep over many n cannot grow it without limit.
    """
    steps = tuple((k, n - k, (n - k).bit_length()) for k in range(n))
    return steps, tuple(1 << i for i in range(n))


def _uniform_subset_mask(rng, n: int, s: int) -> int:
    """Uniform s-subset of [0, n) by partial Fisher-Yates.

    The steps come from the cached ``_draw_plan(n)``, and the slots hold each
    agent's bit rather than its id. Step k picks j in [k, n) with the bits
    ``rng.randrange(k, n)`` would draw, inlined from ``_randbelow`` (width 1
    too: it still redraws until 0), so the masks and the stream left behind
    are those of the randrange loop. Later steps never read slot k, so the
    swap only moves slot k's bit into slot j.
    """
    steps, powers = _draw_plan(n)
    getrandbits = rng.getrandbits
    idx = list(powers)
    mask = 0
    for k, w, b in steps[:s]:
        r = getrandbits(b)
        while r >= w:
            r = getrandbits(b)
        r += k
        mask |= idx[r]
        idx[r] = idx[k]
    return mask


class _MassModel:
    """Point masses from a per-size unit mass plus an explicit family.

    A coalition outside ``family`` has mass ``unit_mass_of_size(|S|)``, each
    member of ``family`` has mass ``family_mass``, and the empty set and
    coalitions reaching past agent n - 1 have none. Subclasses set ``n`` and
    define ``unit_mass_of_size``; those without a family keep the empty one.
    """

    __slots__ = ()
    family: tuple[Coalition, ...] = ()
    _family_masks: frozenset[int] = frozenset()

    def point_mass(self, coalition: Coalition) -> Fraction:
        if coalition.size == 0 or coalition.mask >> self.n:
            return Fraction(0)
        if coalition.mask in self._family_masks:
            return self.family_mass
        return self.unit_mass_of_size(coalition.size)

    def _set_family(self, coalitions: Iterable, n: int, name: str) -> None:
        """Store a duplicate-free list of non-empty coalitions inside [0, n)
        as the family; errors call it ``name``."""
        family = tuple(c if isinstance(c, Coalition) else Coalition.of(*c) for c in coalitions)
        masks = [c.mask for c in family]
        if 0 in masks:
            raise ValueError(f"{name} coalitions must be non-empty")
        if len(set(masks)) != len(masks):
            raise ValueError(f"{name} contains duplicate coalitions")
        if any(m >> n for m in masks):
            raise ValueError(f"{name} references agents outside [0, {n})")
        self.family = family
        self._family_masks = frozenset(masks)

    def size_pmf(self) -> tuple[Fraction, ...]:
        """Mass of each size, indexed 1..n at positions 1..n (index 0 unused)."""
        pmf = [Fraction(0)]
        pmf += (comb(self.n, s) * self.unit_mass_of_size(s) for s in range(1, self.n + 1))
        for c in self.family:
            pmf[c.size] += self.family_mass - self.unit_mass_of_size(c.size)
        return tuple(pmf)


class UniformCoalitions(_MassModel):
    """Uniform distribution over all 2^n - 1 non-empty coalitions."""

    __slots__ = ("n", "total")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one agent")
        self.n = n
        self.total = (1 << n) - 1

    def sample(self, rng) -> Coalition:
        return Coalition(1 + _randbelow(rng.getrandbits, self.total))

    def unit_mass_of_size(self, s: int) -> Fraction:
        return Fraction(1, self.total)

    def lambda_bound(self) -> Fraction:
        return Fraction(1)

    def __repr__(self) -> str:
        return f"UniformCoalitions(n={self.n})"


class SizeTilted(_MassModel):
    """P(S) proportional to a strictly positive per-size weight g(|S|).

    A size s is drawn with probability g(s)*C(n, s)/Z, then a uniform
    s-subset is drawn. Size selection uses exact integer cumulative weights
    over a common denominator, so no mass is lost to rounding.
    """

    __slots__ = ("n", "g", "_z", "_cum", "_total")

    def __init__(self, n: int, size_weights: Sequence):
        if len(size_weights) != n:
            raise ValueError(f"expected {n} size weights, got {len(size_weights)}")
        g = tuple(Fraction(w) for w in size_weights)
        if any(w <= 0 for w in g):
            raise ValueError("all size weights must be strictly positive")
        self.n = n
        self.g = g
        weights = [g[s - 1] * comb(n, s) for s in range(1, n + 1)]
        self._z = sum(weights, Fraction(0))
        den = math.lcm(*(w.denominator for w in weights))
        ints = [w.numerator * (den // w.denominator) for w in weights]
        cum = []
        acc = 0
        for w in ints:
            acc += w
            cum.append(acc)
        self._cum = cum
        self._total = acc

    def sample(self, rng) -> Coalition:
        k = _randbelow(rng.getrandbits, self._total)
        s = bisect_right(self._cum, k) + 1
        return Coalition(_uniform_subset_mask(rng, self.n, s))

    def unit_mass_of_size(self, s: int) -> Fraction:
        return self.g[s - 1] / self._z

    def lambda_bound(self) -> Fraction:
        return max(self.g) / min(self.g)

    def __repr__(self) -> str:
        return f"SizeTilted(n={self.n}, lambda={float(self.lambda_bound()):g})"


class FamilyUniform(_MassModel):
    """Uniform distribution over an explicit list of coalitions, its support.

    Coalitions outside the support have zero mass, so no finite point-mass
    ratio bounds this distribution; ``lambda_bound`` refuses accordingly.
    """

    __slots__ = ("n", "family", "family_mass", "_family_masks")

    def __init__(self, support: Iterable, n: int):
        self._set_family(support, n, "support")
        if not self.family:
            raise ValueError("support must be non-empty")
        self.family_mass = Fraction(1, len(self.family))
        self.n = n

    def sample(self, rng) -> Coalition:
        return self.family[rng.randrange(len(self.family))]

    def unit_mass_of_size(self, s: int) -> Fraction:
        return Fraction(0)

    def lambda_bound(self) -> Fraction:
        raise UnboundedLambdaError(
            "a family-uniform distribution puts zero mass off its support; "
            "no finite point-mass ratio bounds it"
        )

    def __repr__(self) -> str:
        return f"FamilyUniform(n={self.n}, support_size={len(self.family)})"


class AdversarialBounded(_MassModel):
    """Two-level distribution: mass p on an explicit family, p/lambda off it.

    p is ``family_mass``. It solves |F|*p + (2^n - 1 - |F|)*p/lambda = 1
    exactly, i.e. p = lambda / (|F|*(lambda - 1) + 2^n - 1), so each family
    coalition is exactly ``lambda`` times more likely than each one outside it.
    Sampling never enumerates 2^n subsets: a Bernoulli choice picks the
    family or its complement by exact mass, then a uniform member within.
    """

    __slots__ = ("n", "family", "lam", "family_mass", "_family_masks", "_branch_num", "_branch_den")

    def __init__(self, family: Iterable, n: int, lam):
        lam = Fraction(lam)
        if lam < 1:
            raise ValueError("ratio bound must be >= 1")
        self._set_family(family, n, "family")
        self.n = n
        self.lam = lam
        f = len(self.family)
        self.family_mass = lam / (f * (lam - 1) + (1 << n) - 1)
        branch = f * self.family_mass
        self._branch_num = branch.numerator
        self._branch_den = branch.denominator

    def sample(self, rng) -> Coalition:
        if self.family and rng.randrange(self._branch_den) < self._branch_num:
            return self.family[rng.randrange(len(self.family))]
        while True:
            mask = rng.randrange(1, 1 << self.n)
            if mask not in self._family_masks:
                return Coalition(mask)

    def unit_mass_of_size(self, s: int) -> Fraction:
        return self.family_mass / self.lam

    def lambda_bound(self) -> Fraction:
        f = len(self.family)
        if f == 0 or f == (1 << self.n) - 1:
            return Fraction(1)
        return self.lam

    def __repr__(self) -> str:
        return (
            f"AdversarialBounded(n={self.n}, family_size={len(self.family)}, "
            f"lambda={float(self.lam):g})"
        )


def mean_size(dist) -> Fraction:
    """Exact expected coalition size under ``dist``."""
    pmf = dist.size_pmf()
    return sum((s * pmf[s] for s in range(1, len(pmf))), Fraction(0))


def bartlett_bounds(a, lam):
    """Sandwich on the mass of a family covering an ``a`` fraction of the space.

    For a distribution whose point-mass ratios are bounded by ``lam``, a
    family containing ``a * 2^n`` of the 2^n subsets has mass between
    a/(a + lam*(1-a)) and lam*a/(lam*a + 1 - a). With lam = 1 both ends
    collapse to ``a``. Exact when called with Fractions, float otherwise.
    """
    if not 0 <= a <= 1:
        raise ValueError("family fraction must lie in [0, 1]")
    if lam < 1:
        raise ValueError("ratio bound must be >= 1")
    lo = a / (a + lam * (1 - a))
    hi = lam * a / (lam * a + 1 - a)
    return lo, hi


def delta_bound(lam, eps: float, n: int) -> float:
    """Relative half-width of the size window capturing all but eps/2 mass."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if lam < 1:
        raise ValueError("ratio bound must be >= 1")
    return math.sqrt(3 * (lam + 1) * math.log(4 / eps) / n)


@dataclass(frozen=True)
class SizeInterval:
    """An open real interval (lo, hi) together with the integer coalition
    sizes from [1, n] strictly inside it."""

    lo: float
    hi: float
    sizes: tuple[int, ...]

    def __contains__(self, s: int) -> bool:
        return s in self.sizes

    def __iter__(self) -> Iterator[int]:
        return iter(self.sizes)


def size_interval(mu, lam, eps: float, n: int) -> SizeInterval:
    """The open window ((1-delta)*mu, (1+delta)*mu) around the mean size.

    A coalition drawn from any distribution with point-mass ratios bounded by
    ``lam`` and mean size ``mu`` has size inside this window with probability
    at least 1 - eps/2.
    """
    delta = delta_bound(lam, eps, n)
    lo = (1 - delta) * mu
    hi = (1 + delta) * mu
    sizes = tuple(s for s in range(1, n + 1) if lo < s < hi)
    return SizeInterval(float(lo), float(hi), sizes)


def mean_size_bounds(n: int, lam) -> tuple[Fraction, Fraction]:
    """Exact bounds (n/(lam+1), lam*n/(lam+1)) on the mean coalition size."""
    lam = Fraction(lam)
    if lam < 1:
        raise ValueError("ratio bound must be >= 1")
    return Fraction(n) / (lam + 1), lam * n / (lam + 1)
