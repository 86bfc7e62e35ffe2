import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from epsfc import (
    AdversarialBounded,
    Coalition,
    FamilyUniform,
    SizeTilted,
    UnboundedLambdaError,
    UniformCoalitions,
    bartlett_bounds,
    delta_bound,
    mean_size,
    mean_size_bounds,
    size_interval,
)
from epsfc.distributions import _draw_plan, _uniform_subset_mask
from oracles import (
    brute_point_masses,
    reference_size_tilted_sampler,
    reference_subset_mask,
    reference_uniform_sample,
)


class TestPointMasses:
    def test_uniform_n2_thirds(self):
        masses = brute_point_masses(UniformCoalitions(2), 2)
        assert masses == {1: Fraction(1, 3), 2: Fraction(1, 3), 3: Fraction(1, 3)}

    def test_size_tilted_constant_weight_is_uniform(self):
        masses = brute_point_masses(SizeTilted(3, [5, 5, 5]), 3)
        assert set(masses.values()) == {Fraction(1, 7)}

    def test_size_tilted_2_1(self):
        # n=2, g=(2,1): singletons 2/5 each, the pair 1/5
        masses = brute_point_masses(SizeTilted(2, [2, 1]), 2)
        assert masses == {1: Fraction(2, 5), 2: Fraction(2, 5), 3: Fraction(1, 5)}

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_masses_sum_to_one(self, n):
        rng = random.Random(n)
        dists = [
            UniformCoalitions(n),
            SizeTilted(n, [rng.randrange(1, 9) for _ in range(n)]),
            AdversarialBounded([Coalition.of(0), Coalition.of(0, 1)], n, 4),
        ]
        for dist in dists:
            assert sum(brute_point_masses(dist, n).values()) == 1

    def test_family_uniform_masses(self):
        support = [Coalition.of(0), Coalition.of(1, 2)]
        d = FamilyUniform(support, n=3)
        assert d.point_mass(Coalition.of(0)) == Fraction(1, 2)
        assert d.point_mass(Coalition.of(0, 1)) == 0

    def test_family_singleton_support_deterministic(self):
        d = FamilyUniform([Coalition.of(0, 2)], n=3)
        rng = random.Random(3)
        assert all(d.sample(rng) == Coalition.of(0, 2) for _ in range(50))

    def test_family_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FamilyUniform([Coalition.of(5)], n=3)

    def test_family_covering_everything_matches_uniform(self):
        n = 4
        support = [Coalition(m) for m in range(1, 1 << n)]
        fam = FamilyUniform(support, n=n)
        uni = UniformCoalitions(n)
        assert brute_point_masses(fam, n) == brute_point_masses(uni, n)


class TestLambda:
    def test_uniform(self):
        assert UniformCoalitions(5).lambda_bound() == 1

    def test_size_tilted_ratio(self):
        assert SizeTilted(2, [2, 1]).lambda_bound() == 2
        assert SizeTilted(4, [3, 3, 3, 3]).lambda_bound() == 1

    def test_ratio_matches_brute_force(self):
        for n in (3, 5, 12):
            d = SizeTilted(n, list(range(2, n + 2)))
            masses = brute_point_masses(d, n).values()
            assert max(masses) / min(masses) == d.lambda_bound()

    def test_family_uniform_unbounded(self):
        with pytest.raises(UnboundedLambdaError):
            FamilyUniform([Coalition.of(0)], n=2).lambda_bound()

    def test_adversarial_lambda(self):
        d = AdversarialBounded([Coalition.of(0)], 4, Fraction(7, 2))
        assert d.lambda_bound() == Fraction(7, 2)
        masses = brute_point_masses(d, 4)
        assert max(masses.values()) / min(masses.values()) == Fraction(7, 2)


class TestAdversarial:
    def test_two_level_masses(self):
        fam = [Coalition.of(0), Coalition.of(1)]
        lam = 3
        n = 3
        d = AdversarialBounded(fam, n, lam)
        p = Fraction(lam, len(fam) * (lam - 1) + (1 << n) - 1)
        assert d.point_mass(Coalition.of(0)) == p
        assert d.point_mass(Coalition.of(2)) == p / lam

    def test_on_family_mass_formula(self):
        # |F| = 2^3 family inside n=5
        fam = [Coalition(m) for m in range(1, 1 << 3)] + [Coalition.of(3, 4)]
        lam = 6
        d = AdversarialBounded(fam, 5, lam)
        assert d.family_mass == Fraction(lam, 8 * (lam - 1) + (1 << 5) - 1)

    def test_lambda_one_is_uniform(self):
        d = AdversarialBounded([Coalition.of(0)], 3, 1)
        assert brute_point_masses(d, 3) == brute_point_masses(UniformCoalitions(3), 3)

    def test_duplicate_family_rejected(self):
        with pytest.raises(ValueError):
            AdversarialBounded([Coalition.of(0), Coalition.of(0)], 3, 2)

    def test_sampling_matches_masses(self):
        fam = [Coalition.of(0), Coalition.of(1, 2), Coalition.of(0, 1, 2)]
        d = AdversarialBounded(fam, 4, 3)
        masses = brute_point_masses(d, 4)
        rng = random.Random(5)
        m = 120_000
        freq = Counter(d.sample(rng).mask for _ in range(m))
        for mask, p in masses.items():
            assert abs(freq[mask] / m - float(p)) < 0.01


class TestSampling:
    def test_uniform_never_empty(self):
        d = UniformCoalitions(4)
        rng = random.Random(0)
        assert all(d.sample(rng).size >= 1 for _ in range(2000))

    def test_seeded_reproducibility(self):
        for make in (
            lambda: UniformCoalitions(9),
            lambda: SizeTilted(9, [1, 2, 3, 1, 2, 3, 1, 2, 3]),
            lambda: AdversarialBounded([Coalition.of(0, 1)], 9, 2),
            lambda: FamilyUniform([Coalition.of(i) for i in range(9)], 9),
        ):
            a = [make().sample(random.Random(77)).mask for _ in range(1)]
            run1 = []
            rng = random.Random(77)
            d = make()
            run1 = [d.sample(rng).mask for _ in range(200)]
            rng = random.Random(77)
            d = make()
            run2 = [d.sample(rng).mask for _ in range(200)]
            assert run1 == run2

    def test_size_tilted_empirical(self):
        d = SizeTilted(3, [3, 1, 2])
        masses = brute_point_masses(d, 3)
        rng = random.Random(42)
        m = 150_000
        freq = Counter(d.sample(rng).mask for _ in range(m))
        for mask, p in masses.items():
            assert abs(freq[mask] / m - float(p)) < 0.01

    def test_family_sampling_stays_on_support(self):
        support = [Coalition.of(0, 1), Coalition.of(2)]
        d = FamilyUniform(support, n=3)
        rng = random.Random(9)
        assert {d.sample(rng).mask for _ in range(500)} == {c.mask for c in support}


def workload_weights(n):
    """The size weights (n - 1 + s)/(n - 1) that the n = 60 learning benchmark tilts by."""
    return [Fraction(n - 1 + s, n - 1) for s in range(n)] if n > 1 else [1]


def same_stream(draw, reference, seed, count):
    """Whether ``draw`` and ``reference`` give the same ``count`` masks from one seed
    and leave the generator in the same state (the next ``random()`` agrees)."""
    a, b = random.Random(seed), random.Random(seed)
    ours = [draw(a) for _ in range(count)]
    theirs = [reference(b) for _ in range(count)]
    return ours == theirs and a.random() == b.random()


class TestStreamIdentity:
    """The samplers draw through getrandbits the bits the randrange samplers drew."""

    NS = range(1, 70)
    WIDE = (100, 128, 200)
    SEEDS = range(5)

    def test_subset_mask(self):
        for n in (*self.NS, *self.WIDE):
            for s in sorted({0, 1, n // 3, n // 2, n - 1, n}):
                for seed in self.SEEDS:
                    assert same_stream(
                        lambda rng: _uniform_subset_mask(rng, n, s),
                        lambda rng: reference_subset_mask(rng, n, s),
                        seed, 5,
                    ), (n, s, seed)

    def test_subset_mask_after_plan_eviction(self):
        # More distinct n than the plan cache holds, then the first n again:
        # their plans were evicted and are rebuilt.
        cap = _draw_plan.cache_info().maxsize
        ns = range(1, cap + 16)
        for n in (*ns, *ns[:16]):
            for s in (n // 2, n):
                assert same_stream(
                    lambda rng: _uniform_subset_mask(rng, n, s),
                    lambda rng: reference_subset_mask(rng, n, s),
                    n, 3,
                ), (n, s)
        assert _draw_plan.cache_info().currsize <= cap

    def test_uniform(self):
        for n in self.NS:
            d = UniformCoalitions(n)
            for seed in self.SEEDS:
                assert same_stream(
                    lambda rng: d.sample(rng).mask,
                    lambda rng: reference_uniform_sample(rng, n),
                    seed, 20,
                ), (n, seed)

    def test_size_tilted(self):
        picker = random.Random(2024)
        for n in self.NS:
            uneven = [Fraction(picker.randint(1, 9), picker.randint(1, 9)) for _ in range(n)]
            for g in ([1] * n, workload_weights(n), uneven):
                d = SizeTilted(n, g)
                for seed in self.SEEDS:
                    assert same_stream(
                        lambda rng: d.sample(rng).mask,
                        reference_size_tilted_sampler(n, g),
                        seed, 20,
                    ), (n, g, seed)

    # The first eight masks from random.Random(0) at n = 60, recorded from the
    # randrange samplers: they catch a drift that the oracle shares.
    def test_uniform_pin(self):
        rng = random.Random(0)
        assert [UniformCoalitions(60).sample(rng).mask for _ in range(8)] == [
            0x629F6FBD82C07CE, 0xE3E7068C2094CAD, 0xA5D2F36BAA9456, 0xF728B4F42485E3B,
            0x7C65C1E82E2E663, 0xEB1167B67A9C379, 0xD4713D6C8A7063A, 0xF7C1BD84DA5E70A,
        ]

    def test_size_tilted_pin(self):
        d = SizeTilted(60, workload_weights(60))
        rng = random.Random(0)
        assert [d.sample(rng).mask for _ in range(8)] == [
            0x6D06922FAF1000E, 0x6089F30144D62AB, 0xEB68EEF6287F62C, 0xAF57850C00078B5,
            0xF8319AD2B74EEF0, 0x3324EA8458EB9B6, 0x56E1836078CCA12, 0x4673BAF36B78F07,
        ]


class TestBartlettBounds:
    def test_lambda_one_collapses(self):
        for a in (Fraction(0), Fraction(1, 4), Fraction(1)):
            assert bartlett_bounds(a, 1) == (a, a)

    def test_half_two(self):
        assert bartlett_bounds(Fraction(1, 2), 2) == (Fraction(1, 3), Fraction(2, 3))

    def test_full_family(self):
        assert bartlett_bounds(1, 5) == (1, 5 / (5 + 0))  # (1, 1)
        lo, hi = bartlett_bounds(Fraction(1), 5)
        assert lo == 1 and hi == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            bartlett_bounds(1.5, 2)
        with pytest.raises(ValueError):
            bartlett_bounds(0.5, 0.5)

    def test_true_mass_within_bounds_exhaustive(self):
        # every size-defined family on n=7, several tilts
        n = 7
        for weights in ([1] * n, [2, 1, 1, 1, 1, 1, 2], [5, 4, 3, 2, 1, 1, 1]):
            d = SizeTilted(n, weights)
            lam = d.lambda_bound()
            pmf = d.size_pmf()
            for size_subset in range(1, 1 << n):
                sizes = [s for s in range(1, n + 1) if size_subset >> (s - 1) & 1]
                family_count = sum(math.comb(n, s) for s in sizes)
                a = Fraction(family_count, 1 << n)
                mass = sum((pmf[s] for s in sizes), Fraction(0))
                lo, hi = bartlett_bounds(a, lam)
                slack = Fraction(1, 1 << n)
                assert lo - slack <= mass <= hi + slack


class TestSizeInterval:
    def test_delta_formula(self):
        # lambda=1, eps=4/e^3, n=27 -> sqrt(3*2*3/27) = sqrt(2/3)
        eps = 4 / math.e**3
        assert delta_bound(1, eps, 27) == pytest.approx(math.sqrt(2 / 3), rel=1e-12)

    def test_open_endpoints(self):
        # lo=45, hi=55 must keep 46..54 and drop the endpoints
        iv = size_interval(50, 1, 0.9, 100)
        # construct explicitly instead: endpoints land elsewhere; check rule directly
        from epsfc.distributions import SizeInterval

        sizes = tuple(s for s in range(1, 101) if 45 < s < 55)
        assert sizes == tuple(range(46, 55))
        assert SizeInterval(45.0, 55.0, sizes).sizes == tuple(range(46, 55))

    def test_iterates_its_sizes(self):
        iv = size_interval(5.0, 1, 0.9, 10)
        assert iv.sizes and list(iv) == list(iv.sizes)
        assert sorted(iv) == sorted(iv.sizes) and set(iv) == set(iv.sizes)

    def test_wide_delta_keeps_low_sizes(self):
        iv = size_interval(3.0, 1, 0.5, 4)
        assert iv.lo <= 0
        assert iv.sizes == tuple(s for s in range(1, 5) if s < iv.hi)

    def test_membership(self):
        iv = size_interval(5.0, 1, 0.5, 10)
        for s in range(1, 11):
            assert (s in iv) == (iv.lo < s < iv.hi)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            size_interval(5.0, 1, 0.0, 10)

    def test_tail_mass_bound_exact(self):
        # P(size outside window) <= eps/2, checked exactly on the pmf
        n = 40
        for lam_weights, lam in ((None, 1), ([1 + s / (n - 1) for s in range(n)], 2)):
            d = UniformCoalitions(n) if lam_weights is None else SizeTilted(n, lam_weights)
            mu = mean_size(d)
            for eps in (0.1, 0.3):
                iv = size_interval(float(mu), lam, eps, n)
                pmf = d.size_pmf()
                outside = sum(
                    (pmf[s] for s in range(1, n + 1) if s not in iv), Fraction(0)
                )
                assert float(outside) <= eps / 2


class TestMeanSize:
    def test_bounds_formula(self):
        assert mean_size_bounds(4, 1) == (2, 2)
        assert mean_size_bounds(100, 3) == (25, 75)

    def test_exact_mean_uniform(self):
        # n * 2^(n-1) / (2^n - 1)
        d = UniformCoalitions(12)
        assert mean_size(d) == Fraction(12 * 2**11, 2**12 - 1)

    def test_mean_within_bounds(self):
        for n in (6, 11):
            weights = [1 + (s % 3) for s in range(n)]
            d = SizeTilted(n, weights)
            lam = d.lambda_bound()
            lo, hi = mean_size_bounds(n, lam)
            assert lo <= mean_size(d) <= hi

    def test_lemma4_empirical_tail(self):
        # size-tilted lambda=2: empirical out-of-window rate <= eps/2 + slack
        n, eps = 50, 0.2
        d = SizeTilted(n, [1 + s / (n - 1) for s in range(n)])
        iv = size_interval(float(mean_size(d)), 2, eps, n)
        rng = random.Random(11)
        m = 100_000
        hits = sum(1 for _ in range(m) if d.sample(rng).size not in iv)
        hoeffding = math.sqrt(math.log(2 / 0.001) / (2 * m))
        assert hits / m <= eps / 2 + 3 * hoeffding
