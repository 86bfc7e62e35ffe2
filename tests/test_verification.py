import math
import random
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsfc import (
    AdversarialBounded,
    AnonymousHG,
    Coalition,
    EmptyIntervalError,
    FamilyUniform,
    GuardError,
    LearnedAnonymous,
    Partition,
    SimpleFHG,
    SizeInterval,
    SizeTilted,
    UniformCoalitions,
    audit_green_anonymous,
    bartlett_bounds,
    certify_empty_core,
    check_single_peaked,
    check_sp_lemmas,
    exact_blocking,
    exact_blocking_mass,
    find_core_stable_partition,
    gr_decomposition,
    has_blocker,
    iter_set_partitions,
    mc_blocking,
    mean_size,
    size_interval,
    stabilize_anonymous,
    stabilize_fhg,
    stabilize_single_peaked,
)
from epsfc.games import mask_of
from epsfc.verification import WITNESS_CAP, blocker_predicate, partition_from_assignment
from oracles import (
    anon_blocking_count_closed_form,
    brute_point_masses,
    naive_anon_blocking_count,
    naive_anon_blocks,
    naive_fhg_blocking_count,
    naive_fhg_blocks,
    reference_stable_profile,
)
from epsfc.instances import (
    find_empty_core_sp,
    random_anon,
    random_anon_sp,
    random_fhg,
    random_partition,
)


def complete_digraph(n):
    return SimpleFHG.from_matrix([[1 if i != j else 0 for j in range(n)] for i in range(n)])


class TestExactBlocking:
    def test_grand_coalition_of_complete_graph(self):
        g = complete_digraph(6)
        report = exact_blocking(g, Partition.grand(6))
        assert report.blocking_count == 0
        assert report.fraction == 0

    def test_mutual_pair_vs_singletons(self):
        g = SimpleFHG.from_matrix([[0, 1], [1, 0]])
        report = exact_blocking(g, Partition.singletons(2))
        assert report.total_coalitions == 3
        assert report.blocking_count == 1
        assert report.fraction == Fraction(1, 3)
        assert report.witnesses == (Coalition.of(0, 1),)

    @pytest.mark.parametrize(
        "game",
        [LearnedAnonymous(4), SimpleNamespace(n=4), lambda c: True],
        ids=["learned-view", "foreign", "callable"],
    )
    @pytest.mark.parametrize(
        "call",
        [
            blocker_predicate,
            has_blocker,
            exact_blocking,
            lambda g, p: gr_decomposition(g, p, [0]),
            lambda g, p: exact_blocking_mass(g, p, UniformCoalitions(4)),
            lambda g, p: mc_blocking(g, p, UniformCoalitions(4), 10, rng=random.Random(0)),
            lambda g, p: find_core_stable_partition(g),
        ],
        ids=["predicate", "has_blocker", "exact", "gr", "mass", "mc", "core_search"],
    )
    def test_non_game_is_a_type_error(self, call, game):
        # a learned view, a foreign object or a callable is refused alike, by every entry point
        with pytest.raises(TypeError, match="cannot enumerate blockers of"):
            call(game, Partition.singletons(4))

    @pytest.mark.parametrize("seed", range(6))
    def test_fhg_matches_naive_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(5, 10)
        g = random_fhg(n, rng.choice([0.2, 0.5, 0.8]), rng.getrandbits(32))
        p = random_partition(n, rng.getrandbits(32))
        report = exact_blocking(g, p)
        naive = naive_fhg_blocking_count(
            g.matrix(), [sorted(b.members()) for b in p.blocks]
        )
        assert report.blocking_count == naive
        assert report.fraction == Fraction(naive, 2**n - 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_anon_matches_naive_and_closed_form(self, seed):
        rng = random.Random(100 + seed)
        n = rng.randrange(5, 10)
        g = random_anon(n, rng.getrandbits(32))
        p = random_partition(n, rng.getrandbits(32))
        report = exact_blocking(g, p)
        block_lists = [sorted(b.members()) for b in p.blocks]
        assert report.blocking_count == naive_anon_blocking_count(g.table(), block_lists)
        assert report.blocking_count == anon_blocking_count_closed_form(
            g.table(), block_lists
        )

    def test_incremental_census_matches_direct_predicate_scan(self):
        # the census (bit-parallel or closed form) and the stateless predicate must agree
        rng = random.Random(8)
        for game_maker in (
            lambda: random_fhg(8, rng.uniform(0.2, 0.8), rng.getrandbits(32)),
            lambda: random_anon(8, rng.getrandbits(32)),
        ):
            for _ in range(5):
                g = game_maker()
                p = random_partition(8, rng.getrandbits(32))
                pred = blocker_predicate(g, p)
                direct = sum(1 for m in range(1, 1 << 8) if pred(m))
                assert exact_blocking(g, p).blocking_count == direct

    def test_by_size_totals(self):
        g = random_fhg(8, 0.5, 5)
        p = Partition.singletons(8)
        report = exact_blocking(g, p)
        assert sum(report.blocking_by_size) == report.blocking_count
        # every witness actually blocks
        block_lists = [list(b.members()) for b in p.blocks]
        for w in report.witnesses:
            assert naive_fhg_blocks(g.matrix(), block_lists, w.mask)

    @pytest.mark.parametrize("klass", ["fhg", "anon"])
    def test_witness_cap(self, klass):
        # on singletons every coalition of two or more of the 10 agents blocks
        n = 10
        if klass == "fhg":
            g = complete_digraph(n)
            order = range(1, 1 << n)  # ascending mask
        else:
            g = AnonymousHG([[0] + [1] * (n - 1)] * n)
            # ascending size, then lexicographic in agent ids
            order = [mask_of(c) for s in range(1, n + 1) for c in combinations(range(n), s)]
        report = exact_blocking(g, Partition.singletons(n))
        assert report.blocking_count == 2**n - 1 - n == 1013
        first = [m for m in order if m.bit_count() >= 2][:WITNESS_CAP]
        assert [w.mask for w in report.witnesses] == first

    def test_guard(self, monkeypatch):
        monkeypatch.setenv("EPSFC_MAX_N", "6")
        g = random_fhg(7, 0.5, 1)
        with pytest.raises(GuardError):
            exact_blocking(g, Partition.singletons(7))


class TestBlockingMass:
    def test_uniform_mass_equals_fraction(self):
        g = random_fhg(9, 0.4, 11)
        p = random_partition(9, 3)
        report = exact_blocking(g, p, dist=UniformCoalitions(9))
        assert report.mass == report.fraction

    def test_constant_tilt_equals_fraction(self):
        g = random_anon(7, 2)
        p = random_partition(7, 5)
        d = SizeTilted(7, [3] * 7)
        assert exact_blocking_mass(g, p, d) == exact_blocking(g, p).fraction

    def test_tilted_mass_from_point_masses(self):
        g = random_fhg(7, 0.5, 9)
        p = random_partition(7, 7)
        d = SizeTilted(7, [1, 2, 3, 4, 3, 2, 1])
        pred = blocker_predicate(g, p)
        brute = sum(
            (d.point_mass(Coalition(m)) for m in range(1, 1 << 7) if pred(m)),
            Fraction(0),
        )
        assert exact_blocking_mass(g, p, d) == brute

    def test_family_mass(self):
        g = SimpleFHG.from_matrix([[0, 1], [1, 0]])
        p = Partition.singletons(2)
        d = FamilyUniform([Coalition.of(0, 1), Coalition.of(0)], n=2)
        assert exact_blocking_mass(g, p, d) == Fraction(1, 2)

    def test_adversarial_mass_from_point_masses(self):
        g = random_anon(6, 8)
        p = random_partition(6, 9)
        fam = [Coalition(m) for m in range(1, 1 << 3)]
        d = AdversarialBounded(fam, 6, 5)
        pred = blocker_predicate(g, p)
        brute = sum(
            (d.point_mass(Coalition(m)) for m in range(1, 1 << 6) if pred(m)),
            Fraction(0),
        )
        assert exact_blocking_mass(g, p, d) == brute



@st.composite
def mass_cases(draw):
    """A game of either class at n <= 7, a partition, and one of the four
    distribution kinds over the same agents."""
    n = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2**32))
    if draw(st.booleans()):
        game = random_fhg(n, draw(st.sampled_from([0.2, 0.5, 0.8])), seed)
    else:
        game = random_anon(n, seed)
    partition = random_partition(n, seed + 1)
    kind = draw(st.sampled_from(["uniform", "size_tilted", "family", "adversarial"]))
    min_size = 1 if kind == "family" else 0
    masks = st.sets(st.integers(1, (1 << n) - 1), min_size=min_size, max_size=12)
    if kind == "uniform":
        dist = UniformCoalitions(n)
    elif kind == "size_tilted":
        dist = SizeTilted(n, draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)))
    elif kind == "family":
        dist = FamilyUniform([Coalition(m) for m in draw(masks)], n=n)
    else:
        lam = draw(st.fractions(1, 9))
        dist = AdversarialBounded([Coalition(m) for m in draw(masks)], n, lam)
    return game, partition, dist


class TestMassModel:
    @settings(max_examples=300, deadline=None)
    @given(mass_cases())
    def test_blocking_mass_is_the_point_mass_of_the_blockers(self, case):
        game, partition, dist = case
        pred = blocker_predicate(game, partition)
        masses = brute_point_masses(dist, game.n)
        brute = sum((mass for m, mass in masses.items() if pred(m)), Fraction(0))
        mass = exact_blocking_mass(game, partition, dist)
        assert isinstance(mass, Fraction) and mass == brute
        assert exact_blocking(game, partition, dist=dist).mass == brute

    @settings(max_examples=300, deadline=None)
    @given(mass_cases())
    def test_size_pmf_sums_the_point_masses(self, case):
        game, _, dist = case
        by_size = [Fraction(0)] * (game.n + 1)
        for m, mass in brute_point_masses(dist, game.n).items():
            by_size[m.bit_count()] += mass
        assert dist.size_pmf() == tuple(by_size)
        assert sum(by_size) == 1

    def test_family_on_a_large_game_needs_no_census(self):
        game = random_fhg(30, 0.5, 4)
        partition = random_partition(30, 5)
        support = [Coalition(m) for m in (0b11, 0b111 << 20, (1 << 30) - 1, 1 << 29)]
        pred = blocker_predicate(game, partition)
        hits = sum(1 for c in support if pred(c.mask))
        dist = FamilyUniform(support, n=30)
        assert exact_blocking_mass(game, partition, dist) == Fraction(hits, len(support))
        with pytest.raises(GuardError):
            exact_blocking_mass(game, partition, AdversarialBounded(support, 30, 2))

    def test_foreign_distribution_refused(self):
        game = random_anon(4, 1)
        foreign = SimpleNamespace(n=4, sample=lambda rng: Coalition(1), point_mass=lambda c: 0)
        with pytest.raises(TypeError, match="SimpleNamespace"):
            exact_blocking_mass(game, Partition.singletons(4), foreign)

class TestMcBlocking:
    def test_zero_blockers_always_zero(self):
        g = complete_digraph(8)
        est = mc_blocking(g, Partition.grand(8), UniformCoalitions(8), 2000, rng=random.Random(1))
        assert est.hits == 0 and est.p_hat == 0.0

    def test_halfwidth_scaling(self):
        g = random_fhg(6, 0.5, 3)
        p = Partition.singletons(6)
        d = UniformCoalitions(6)
        a = mc_blocking(g, p, d, 1000, delta=0.05, rng=random.Random(2))
        b = mc_blocking(g, p, d, 4000, delta=0.05, rng=random.Random(2))
        assert a.ci_halfwidth == pytest.approx(2 * b.ci_halfwidth)
        assert a.ci_halfwidth == pytest.approx(math.sqrt(math.log(2 / 0.05) / 2000))

    def test_converges_to_exact_mass(self):
        g = random_fhg(10, 0.35, 17)
        p = random_partition(10, 23)
        d = UniformCoalitions(10)
        exact = float(exact_blocking_mass(g, p, d))
        for m in (1000, 10_000, 100_000):
            est = mc_blocking(g, p, d, m, delta=0.01, rng=random.Random(5))
            assert abs(est.p_hat - exact) <= est.ci_halfwidth

    def test_oracle_callable(self):
        # Every agent values size 2 alone, so the singletons' blockers are exactly the pairs.
        g = AnonymousHG([[0, 1, 0, 0, 0]] * 5)
        est = mc_blocking(g, Partition.singletons(5), UniformCoalitions(5), 5000, rng=random.Random(9))
        assert est.p_hat == pytest.approx(10 / 31, abs=0.03)

    @pytest.mark.parametrize("delta", [0, 1, 1.5, 3, -0.1, math.nan])
    def test_delta_outside_the_open_unit_interval_refused(self, delta):
        g = random_fhg(4, 0.5, 1)
        rng = random.Random(0)
        with pytest.raises(ValueError, match=r"^delta must lie in \(0, 1\)$"):
            mc_blocking(g, Partition.singletons(4), UniformCoalitions(4), 10, delta, rng=rng)
        assert rng.getstate() == random.Random(0).getstate()  # refused before any draw

    def test_seeded_determinism(self):
        g = random_anon(7, 1)
        p = random_partition(7, 1)
        d = UniformCoalitions(7)
        a = mc_blocking(g, p, d, 500, rng=random.Random(4))
        assert a == mc_blocking(g, p, d, 500, rng=random.Random(4))

    @pytest.mark.parametrize("klass", ["fhg", "anon"])
    @pytest.mark.parametrize("kind", ["uniform", "size_tilted", "family", "adversarial"])
    def test_consumes_the_stream_draw_by_draw(self, klass, kind):
        # the hits are the blockers among m successive dist.sample(rng) draws, nothing else
        n, m = 7, 200
        g = random_fhg(n, 0.5, 3) if klass == "fhg" else random_anon(n, 3)
        p = random_partition(n, 4)
        family = [Coalition(mask) for mask in range(1, 1 << n, 5)]
        d = {
            "uniform": UniformCoalitions(n),
            "size_tilted": SizeTilted(n, [1, 2, 3, 4, 3, 2, 1]),
            "family": FamilyUniform(family, n),
            "adversarial": AdversarialBounded(family, n, 3),
        }[kind]
        pred = blocker_predicate(g, p)
        rng = random.Random(6)
        expected = [d.sample(rng).mask for _ in range(m)]
        assert mc_blocking(g, p, d, m, rng=random.Random(6)).hits == sum(map(pred, expected))
        # the same draws in the same order: rejection sampling can bring a stream
        # with one extra or one skipped call back into step, hits and state alike
        drawn = []

        def sample(rng):
            drawn.append(d.sample(rng))
            return drawn[-1]

        mc_blocking(g, p, SimpleNamespace(sample=sample), m, rng=random.Random(6))
        assert [c.mask for c in drawn] == expected


class TestGreenAudit:
    def test_all_green_when_at_argmax(self):
        row = [0.1, 0.9, 0.5, 0.2]
        g = AnonymousHG([row] * 4)
        p = Partition([[0, 1], [2, 3]], 4)
        assert audit_green_anonymous(g, p, [1, 2, 3]) == [0, 1, 2, 3]

    def test_singleton_window(self):
        g = random_anon(6, 3)
        p = Partition([[0, 1], [2, 3], [4], [5]], 6)
        green = audit_green_anonymous(g, p, [2])
        assert green == [i for i in range(6) if p.size_of(i) == 2]

    @pytest.mark.parametrize("window", [[], set(), SizeInterval(0.5, 0.9, ())])
    def test_empty_window_names_the_window(self, window):
        with pytest.raises(EmptyIntervalError, match="empty size window"):
            audit_green_anonymous(random_anon(3, 1), Partition.grand(3), window)

    def test_size_interval_window(self):
        g = random_anon(6, 3)
        p = Partition([[0, 1], [2, 3], [4], [5]], 6)
        window = size_interval(2.0, 1, 0.9, 6)
        assert audit_green_anonymous(g, p, window) == audit_green_anonymous(g, p, list(window.sizes))

    def test_out_of_window_block_not_green(self):
        row = [1.0, 0.5, 0.2]
        g = AnonymousHG([row] * 3)
        p = Partition.grand(3)
        assert audit_green_anonymous(g, p, [1, 2]) == []

    def test_construction_green_count_matches_trace(self):
        rng = random.Random(31)
        for _ in range(15):
            n = rng.randrange(5, 12)
            g = random_anon(n, rng.getrandbits(32))
            sizes = sorted(rng.sample(range(1, n + 1), rng.randrange(2, min(6, n + 1))))
            partition, trace = stabilize_anonymous(g, sizes)
            assert tuple(audit_green_anonymous(g, partition, sizes)) == trace.green_agents


class TestSpLemmas:
    def _window(self, n):
        d = UniformCoalitions(n)
        return size_interval(float(mean_size(d)), 1, 0.1, n)

    @pytest.mark.parametrize("seed", range(5))
    def test_construction_passes(self, seed):
        n = 10
        g, ordering = random_anon_sp(n, 400 + seed)
        window = self._window(n)
        partition, trace = stabilize_single_peaked(g, ordering, window)
        report = check_sp_lemmas(g, partition, window, trace)
        assert report.ok and report.count_ok
        assert report.blockers_in_window <= 2 ** (3 * n / 4 + 1)

    def test_needs_a_single_peaked_trace(self):
        n = 8
        g, _ = random_anon_sp(n, 77)
        window = self._window(n)
        partition, trace = stabilize_anonymous(g, window)
        with pytest.raises(ValueError, match="stabilize_single_peaked trace"):
            check_sp_lemmas(g, partition, window, trace)

    def test_corrupted_partition_reports_witness(self):
        n = 8
        g, ordering = random_anon_sp(n, 77)
        window = self._window(n)
        partition, trace = stabilize_single_peaked(g, ordering, window)
        # swap one at-peak agent into the remainder-most block
        if trace.at_in_star and len(partition.blocks) > 1:
            a = trace.at_in_star[0]
            other = next(
                b for b in partition.blocks if a not in b
            )
            b_agent = other.members()[0]
            swapped = []
            for blk in partition.blocks:
                ms = set(blk.members())
                if a in ms:
                    ms = ms - {a} | {b_agent}
                elif b_agent in ms:
                    ms = ms - {b_agent} | {a}
                swapped.append(sorted(ms))
            corrupted = Partition(swapped, n)
            report = check_sp_lemmas(g, corrupted, window, trace)
            if not report.ok:
                assert report.at_peak_violations or report.mixing_violations

    def test_count_bound_beyond_float_range(self):
        # 2^(3n/4 + 1) overflows a float from n = 1364; the count test stays exact
        n = 1400
        g = AnonymousHG([[1.0] * n] * n)
        trace = SimpleNamespace(at_in_star=(), before_in_star=(), after_in_star=())
        report = check_sp_lemmas(g, Partition.grand(n), range(1, n + 1), trace)
        assert report.ok and report.count_ok
        assert report.blockers == 0

    def test_uniform_peaks_no_window_blockers(self):
        row = [0.2, 1.0, 0.6, 0.3, 0.1]
        g = AnonymousHG([row] * 5)
        partition, trace = stabilize_single_peaked(g, check_single_peaked(g), [2])
        report = check_sp_lemmas(g, partition, [2], trace)
        assert report.ok
        assert report.blockers_in_window == 0


class TestEmptyCore:
    def test_complete_graph_not_empty(self):
        assert not certify_empty_core(complete_digraph(6))

    def test_universal_peak_grand_stable(self):
        g = AnonymousHG([[float(s) for s in range(1, 6)] for _ in range(5)])
        assert not certify_empty_core(g)
        assert find_core_stable_partition(g) == Partition.grand(5)

    def test_fast_sweep_matches_generic(self):
        rng = random.Random(55)
        for _ in range(40):
            n = rng.randrange(4, 7)
            g = random_anon(n, rng.getrandbits(32))
            fast = find_core_stable_partition(g)
            generic = None
            for assignment in iter_set_partitions(n):
                p = partition_from_assignment(assignment, n)
                if not has_blocker(g, p):
                    generic = p
                    break
            assert (fast is None) == (generic is None)
            if fast is not None:
                assert not has_blocker(g, fast)

    def test_has_blocker_matches_enumeration(self):
        rng = random.Random(66)
        for _ in range(30):
            n = rng.randrange(4, 8)
            g = random_anon(n, rng.getrandbits(32))
            p = random_partition(n, rng.getrandbits(32))
            pred = blocker_predicate(g, p)
            direct = any(pred(m) for m in range(1, 1 << n))
            assert has_blocker(g, p) == direct

    def test_zero_fraction_iff_core_stable(self):
        rng = random.Random(71)
        for _ in range(20):
            n = rng.randrange(4, 8)
            g = random_fhg(n, rng.random(), rng.getrandbits(32))
            p = random_partition(n, rng.getrandbits(32))
            assert (exact_blocking(g, p).fraction == 0) == (not has_blocker(g, p))

    def test_bell_guard(self, monkeypatch):
        monkeypatch.setenv("EPSFC_MAX_N", "5")
        with pytest.raises(GuardError):
            certify_empty_core(random_anon(6, 1))


class TestSetPartitions:
    def test_bell_counts(self):
        bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]
        for n in range(1, 10):
            assert sum(1 for _ in iter_set_partitions(n)) == bell[n]

    def test_assignments_are_restricted_growth(self):
        for a in iter_set_partitions(5):
            assert a[0] == 0
            for k in range(1, 5):
                assert 0 <= a[k] <= max(a[:k]) + 1

    def test_all_distinct(self):
        seen = {tuple(a) for a in iter_set_partitions(6)}
        assert len(seen) == 203


class TestGrDecomposition:
    def test_identity_and_bound(self):
        rng = random.Random(14)
        sizes = [rng.randrange(6, 12) for _ in range(9)] + [20]
        for n in sizes:
            g = random_fhg(n, rng.uniform(0.2, 0.8), rng.getrandbits(32))
            partition, trace = stabilize_fhg(g)
            dec = gr_decomposition(g, partition, trace.gr)
            report = exact_blocking(g, partition)
            total = dec.total_coalitions
            # decomposition identity
            assert dec.blockers == report.blocking_count
            # closed form for the avoiding count
            gsz = len(trace.gr)
            assert dec.avoiding_gr == 2 ** (n - gsz) - 1
            # the bound the decomposition certifies
            assert report.fraction <= Fraction(dec.avoiding_gr, total) + Fraction(
                dec.blockers_meeting, total
            )

    def test_lemma7_style_bound(self):
        # blocking mass <= P(size outside window) + ratio-bound tail at 2^-greens
        rng = random.Random(21)
        for _ in range(10):
            n = rng.randrange(8, 13)
            g = random_anon(n, rng.getrandbits(32))
            d = UniformCoalitions(n)
            window = size_interval(float(mean_size(d)), 1, 0.2, n)
            partition, trace = stabilize_anonymous(g, window)
            green = audit_green_anonymous(g, partition, window)
            mass = exact_blocking_mass(g, partition, d)
            pmf = d.size_pmf()
            outside = sum(
                (pmf[s] for s in range(1, n + 1) if s not in window), Fraction(0)
            )
            _, hi = bartlett_bounds(Fraction(1, 2 ** len(green)), Fraction(1))
            assert mass <= outside + hi


def _blocker_masks(game, partition):
    """Every blocking mask, by a scan of the stateless predicate."""
    pred = blocker_predicate(game, partition)
    return [m for m in range(1, 1 << game.n) if pred(m)]


class TestAnonClosedForm:
    """The closed-form anonymous census against oracles and a full mask scan."""

    @given(
        st.integers(1, 12),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_census_witnesses_and_gr_split(self, n, single_peaked, rnd):
        seed = rnd.getrandbits(32)
        g = random_anon_sp(n, seed)[0] if single_peaked else random_anon(n, seed)
        p = random_partition(n, rnd.getrandbits(32))
        found = _blocker_masks(g, p)
        report = exact_blocking(g, p, UniformCoalitions(n))
        by_size = [0] * (n + 1)
        for m in found:
            by_size[m.bit_count()] += 1
        assert list(report.blocking_by_size) == by_size
        block_lists = [sorted(b.members()) for b in p.blocks]
        assert report.blocking_count == naive_anon_blocking_count(g.table(), block_lists)
        assert report.blocking_count == anon_blocking_count_closed_form(g.table(), block_lists)
        assert report.mass == Fraction(len(found), 2**n - 1)
        # documented order: ascending size, then lexicographic in agent ids
        first = sorted(found, key=lambda m: (m.bit_count(), Coalition(m).members()))
        assert [w.mask for w in report.witnesses] == first[:WITNESS_CAP]
        assert all(naive_anon_blocks(g.table(), block_lists, w.mask) for w in report.witnesses)

        gr = rnd.sample(range(n), rnd.randrange(n + 1))
        gr_mask = sum(1 << i for i in gr)
        dec = gr_decomposition(g, p, gr)
        assert dec.avoiding_gr == sum(1 for m in range(1, 1 << n) if not m & gr_mask)
        assert dec.blockers_avoiding == sum(1 for m in found if not m & gr_mask)
        assert dec.blockers_meeting == sum(1 for m in found if m & gr_mask)

    @given(
        st.integers(2, 12),
        st.booleans(),
        st.sampled_from([0.05, 0.2, 0.5]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_sp_lemma_counts_and_violations(self, n, stabilized, eps, rnd):
        g, ordering = random_anon_sp(n, rnd.getrandbits(32))
        window = size_interval(float(mean_size(UniformCoalitions(n))), 1, eps, n)
        partition, trace = stabilize_single_peaked(g, ordering, window)
        if not stabilized:
            # keep the packing's camps but audit an unrelated partition
            partition = random_partition(n, rnd.getrandbits(32))
        report = check_sp_lemmas(g, partition, window, trace)
        found = _blocker_masks(g, partition)
        at = sum(1 << i for i in trace.at_in_star)
        before = sum(1 << i for i in trace.before_in_star)
        after = sum(1 << i for i in trace.after_in_star)
        in_window = [m for m in found if m.bit_count() in window]
        touching = [m for m in found if m & at]
        mixing = [m for m in in_window if m & before and m & after]
        assert report.blockers == len(found)
        assert report.blockers_in_window == len(in_window)
        assert len(report.at_peak_violations) == min(len(touching), WITNESS_CAP)
        assert len(report.mixing_violations) == min(len(mixing), WITNESS_CAP)
        assert {c.mask for c in report.at_peak_violations} <= set(touching)
        assert {c.mask for c in report.mixing_violations} <= set(mixing)
        assert len(set(report.at_peak_violations)) == len(report.at_peak_violations)
        assert len(set(report.mixing_violations)) == len(report.mixing_violations)
        assert report.ok == (not touching and not mixing and report.count_ok)

    def test_census_is_unguarded_at_n_200(self, monkeypatch):
        monkeypatch.delenv("EPSFC_MAX_N", raising=False)
        n = 200
        g = random_anon(n, 3)
        p = random_partition(n, 4)
        report = exact_blocking(g, p, UniformCoalitions(n))
        expected = anon_blocking_count_closed_form(
            g.table(), [b.members() for b in p.blocks]
        )
        assert expected > 0
        assert report.blocking_count == expected
        assert report.mass == Fraction(expected, 2**n - 1)


def _first_stable_by_sweep(game):
    """First blocker-free partition in restricted-growth order, or None."""
    for assignment in iter_set_partitions(game.n):
        p = partition_from_assignment(assignment, game.n)
        if not has_blocker(game, p):
            return p
    return None


def _with_rows(game, picks):
    """The anonymous game whose agent i has the value row of agent picks[i]."""
    rows = game.table()
    return AnonymousHG([rows[k] for k in picks])


def _assert_reference_search(g):
    """The packed search returns the reference search's partition, blocks in the same order."""
    fast = find_core_stable_partition(g)
    blocks = reference_stable_profile(g.table())
    if blocks is None:
        assert fast is None
    else:
        assert fast is not None
        assert [sorted(b.members()) for b in fast.blocks] == blocks
    return fast


class TestAnonCoreSearch:
    """The block-size core search against the set-partition sweep and the reference search."""

    def _check(self, g):
        fast = _assert_reference_search(g)
        assert (fast is None) == (_first_stable_by_sweep(g) is None)
        if fast is not None:
            assert _blocker_masks(g, fast) == []
        return fast

    @given(
        st.integers(1, 7),
        st.sampled_from(["anon", "anon_sp", "repeated"]),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_sweep(self, n, kind, grouped, rnd):
        seed = rnd.getrandbits(32)
        if kind == "anon":
            g = random_anon(n, seed)
        elif kind == "anon_sp":
            g = random_anon_sp(n, seed)[0]
        else:
            # few distinct rows; grouped copies sit next to each other
            pool = rnd.randrange(1, min(n, 3) + 1)
            picks = [rnd.randrange(pool) for _ in range(n)]
            g = _with_rows(random_anon_sp(n, seed)[0], sorted(picks) if grouped else picks)
        self._check(g)

    @given(
        st.integers(1, 9),
        st.sampled_from(["anon", "anon_sp", "tied", "nan", "adjacent", "scattered"]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_search(self, n, kind, rnd):
        seed = rnd.getrandbits(32)
        if kind == "anon":
            g = random_anon(n, seed)
        elif kind in ("tied", "nan"):
            # one decimal leaves about ten distinct values, so rows tie across sizes;
            # a NaN value is strictly preferred to nothing and nothing to it
            g = AnonymousHG(
                [
                    [math.nan if kind == "nan" and v < 0.2 else round(v, 1) for v in row]
                    for row in random_anon(n, seed).table()
                ]
            )
        else:
            g = random_anon_sp(n, seed)[0]
            if kind != "anon_sp":
                picks = [rnd.randrange(min(n, 3)) for _ in range(n)]
                g = _with_rows(g, sorted(picks) if kind == "adjacent" else picks)
        _assert_reference_search(g)

    @pytest.mark.parametrize("n", [6, 7, 8, 14, 15, 16])
    def test_reference_search_across_lane_widths(self, n, monkeypatch):
        # the lane width (n + 1).bit_length() + 1 grows from 4 to 5 bits at n = 7 and to 6 at n = 15
        monkeypatch.setenv("EPSFC_MAX_N", "16")
        for seed in range(4):
            _assert_reference_search(random_anon_sp(n, seed)[0])
            _assert_reference_search(random_anon(n, seed))

    @pytest.mark.parametrize("n, seed", [(7, 1), (8, 0), (9, 1)])
    def test_empty_core_instances(self, n, seed):
        result = find_empty_core_sp(n=n, max_attempts=2000, seed=seed)
        assert result.found
        assert self._check(result.game) is None

    def test_repeated_rows_of_an_empty_core_instance(self):
        g = find_empty_core_sp(n=8, max_attempts=2000, seed=0).game
        rng = random.Random(8)
        for _ in range(8):
            picks = list(range(8))
            picks[rng.randrange(8)] = rng.randrange(8)
            self._check(_with_rows(g, sorted(picks)))
        assert self._check(_with_rows(g, [0] * 8)) is not None

    @pytest.mark.parametrize("n", [8, 9])
    def test_stable_games(self, n):
        for seed in range(3):
            assert self._check(random_anon(n, seed)) is not None


def _census_of_scan(game, partition):
    """Per-size counts and ascending blocker masks, by a scan of the stateless predicate."""
    found = _blocker_masks(game, partition)
    by_size = [0] * (game.n + 1)
    for m in found:
        by_size[m.bit_count()] += 1
    return by_size, found


class TestFhgCensus:
    """The bit-parallel fractional census against oracles and a full mask scan."""

    def _check(self, g, p, gr=()):
        n = g.n
        by_size, found = _census_of_scan(g, p)
        report = exact_blocking(g, p, UniformCoalitions(n))
        assert list(report.blocking_by_size) == by_size
        assert report.mass == Fraction(len(found), 2**n - 1)
        # documented order: ascending mask
        assert [w.mask for w in report.witnesses] == found[:WITNESS_CAP]
        gr_mask = sum(1 << i for i in gr)
        dec = gr_decomposition(g, p, gr)
        assert dec.avoiding_gr == 2 ** (n - len(gr)) - 1
        assert dec.blockers_avoiding == sum(1 for m in found if not m & gr_mask)
        assert dec.blockers_meeting == sum(1 for m in found if m & gr_mask)
        return report

    @given(
        st.integers(1, 12),
        st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_census_against_oracle_and_scan(self, n, p_edge, stabilized, rnd):
        g = random_fhg(n, p_edge, rnd.getrandbits(32))
        if stabilized and n >= 2:
            p = stabilize_fhg(g)[0]
        else:
            p = random_partition(n, rnd.getrandbits(32))
        gr = rnd.sample(range(n), rnd.randrange(n + 1))
        report = self._check(g, p, gr)
        naive = naive_fhg_blocking_count(g.matrix(), [sorted(b.members()) for b in p.blocks])
        assert report.blocking_count == naive

    @pytest.mark.parametrize("n", [13, 14, 15])
    def test_several_blocks(self, n):
        # beyond 12 agents the census runs over more than one block of lanes
        rng = random.Random(300 + n)
        for p_edge in (0.3, 0.7):
            g = random_fhg(n, p_edge, rng.getrandbits(32))
            partition, trace = stabilize_fhg(g)
            self._check(g, partition, gr=trace.gr)
            self._check(g, random_partition(n, rng.getrandbits(32)), gr=range(0, n, 3))
            # the avoid split's two halves: agents fixed by the block index, agents across lanes
            self._check(g, partition, gr=range(12, n))
            self._check(g, partition, gr=range(12))

    @pytest.mark.parametrize("gr", ["empty", "partial", "all"])
    def test_gr_split_extremes(self, gr):
        n = 14
        g = random_fhg(n, 0.5, 41)
        p = random_partition(n, 42)
        agents = {"empty": [], "partial": [1, 5, 12, 13], "all": list(range(n))}[gr]
        dec = gr_decomposition(g, p, agents)
        self._check(g, p, gr=agents)
        if gr == "empty":
            assert dec.blockers_meeting == 0 and dec.avoiding_gr == 2**n - 1
        if gr == "all":
            assert dec.blockers_avoiding == 0 and dec.avoiding_gr == 0

    def test_single_agent(self):
        g = SimpleFHG(1, [0])
        report = self._check(g, Partition.singletons(1), gr=[0])
        assert report.blocking_count == 0 and report.total_coalitions == 1

    def test_empty_graph_has_no_blocker(self):
        n = 13
        g = SimpleFHG(n, [0] * n)
        for p in (Partition.singletons(n), Partition.grand(n), random_partition(n, 5)):
            assert self._check(g, p, gr=[0, 7]).blocking_count == 0

    def test_complete_digraph(self):
        # on singletons every coalition of two or more agents blocks, so every
        # lane of every block but the first passes; the grand coalition gives
        # den_i = n and num_i = n - 1, the largest per-agent weights
        n = 14
        report = self._check(complete_digraph(n), Partition.singletons(n), gr=[3])
        assert list(report.blocking_by_size) == [0, 0] + [math.comb(n, s) for s in range(2, n + 1)]
        assert self._check(complete_digraph(n), Partition.grand(n), gr=[3]).blocking_count == 0
