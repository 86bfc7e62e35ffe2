import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsfc import (
    Coalition,
    EmptyIntervalError,
    InconsistentSampleError,
    LearningError,
    SampleRecord,
    SimpleFHG,
    UnderdeterminedError,
    UniformCoalitions,
    anon_sample_size,
    default_alpha,
    draw_samples,
    estimate_interval,
    fhg_sample_size,
    iter_samples,
    learn_anonymous,
    learn_fhg,
    mean_confidence_m,
)
from epsfc.instances import random_anon, random_fhg
from epsfc.learning import _solve_gf2
from oracles import fhg_row_solutions, members_of


class TestSampleRecord:
    def test_keys_exactly_the_members(self):
        rec = SampleRecord(Coalition.of(0, 3), {3: 0.5, 0: Fraction(1, 2)})
        assert rec.member_values == {0: 0.5, 3: 0.5}
        assert SampleRecord(Coalition(0), {}).member_values == {}

    @pytest.mark.parametrize(
        "values",
        [
            {0: 0.5},  # missing member 3
            {0: 0.5, 3: 0.5, 1: 0.5},  # extra key inside the mask's range
            {0: 0.5, 3: 0.5, 70: 0.5},  # extra key past its top bit
            {0: 0.5, -3: 0.5},  # negative key
            {0: 0.5, "3": 0.5},  # non-int key
            {0: 0.5, 3.5: 0.5},
            {0: 0.5, None: 0.5},
            {},
        ],
    )
    def test_wrong_keys_rejected(self, values):
        with pytest.raises(ValueError, match="keyed exactly by the coalition members"):
            SampleRecord(Coalition.of(0, 3), values)

    def test_keys_equal_to_members_accepted(self):
        # As with set equality: 3.0 == 3 and True == 1.
        SampleRecord(Coalition.of(1, 3), {True: 0.5, 3.0: 0.5})

    def test_slotted_and_frozen(self):
        rec = SampleRecord(Coalition.of(0), {0: 1.0})
        assert not hasattr(rec, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.coalition = Coalition.of(1)

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(0, 2**12 - 1),
        st.lists(
            st.one_of(
                st.integers(-3, 14),
                st.sampled_from([True, False, 2.0, 2.5, "1", None, Fraction(3), 10**30]),
            ),
            max_size=8,
        ),
    )
    def test_accepts_exactly_what_set_equality_accepts(self, mask, keys):
        values = dict.fromkeys(keys, 0.5)
        expected_ok = set(values) == set(members_of(mask))
        try:
            SampleRecord(Coalition(mask), values)
        except ValueError:
            assert not expected_ok
        else:
            assert expected_ok


class TestSampleSizes:
    def test_fhg_formula(self):
        # ceil(16 ln 100) + 40 = 74 + 40
        assert fhg_sample_size(10, 0.1) == 114

    def test_fhg_monotone_in_n(self):
        for n in (4, 8, 16, 32):
            assert fhg_sample_size(2 * n, 0.2) - fhg_sample_size(n, 0.2) >= 4 * n

    def test_fhg_near_one_delta(self):
        # the log term vanishes, leaving the 4n part (plus its ceiling)
        assert fhg_sample_size(1, 1 - 1e-12) == 4 + 1

    def test_anon_formula(self):
        # ceil(2*1*2*100*ln(1000)/0.1)
        assert anon_sample_size(10, 0.1, 0.1, 1) == 27632

    def test_anon_eps_halved_doubles(self):
        base = 2 * 1 * 2 * 100 * math.log(1000)
        assert anon_sample_size(10, 0.1, 0.05, 1) == math.ceil(base / 0.05)
        assert math.ceil(base / 0.05) == pytest.approx(2 * base / 0.1, rel=1e-3)

    def test_anon_lambda_factor(self):
        # lambda(1+lambda): 2 at lam=1, 6 at lam=2
        m1 = anon_sample_size(10, 0.1, 0.1, 1)
        m2 = anon_sample_size(10, 0.1, 0.1, 2)
        assert m2 == pytest.approx(3 * m1, rel=1e-3)

    def test_mean_confidence(self):
        # ceil(100 ln(20) / 0.5) = 600
        assert mean_confidence_m(10, 0.5, 0.1) == 600

    def test_mean_confidence_alpha_quarters(self):
        m1 = mean_confidence_m(12, 0.25, 0.1)
        m2 = mean_confidence_m(12, 0.5, 0.1)
        assert m1 == pytest.approx(4 * m2, rel=1e-3)

    def test_mean_confidence_log_unit(self):
        assert mean_confidence_m(1, 1, 2 / math.e**2) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            fhg_sample_size(5, 0)
        with pytest.raises(ValueError):
            anon_sample_size(5, 0.1, 1.5, 1)
        with pytest.raises(ValueError):
            mean_confidence_m(5, -1, 0.1)


def fhg_records(game, masks):
    records = []
    for mask in masks:
        c = Coalition(mask)
        records.append(SampleRecord(c, {i: game.value(i, c) for i in c}))
    return records


class TestLearnFhg:
    def test_single_unknown(self):
        g = SimpleFHG.from_matrix([[0, 1], [1, 0]])
        # {0,1} pins both arcs; singletons add trivial rows
        learned = learn_fhg(2, fhg_records(g, [0b11, 0b01, 0b10]))
        assert learned == g

    def test_never_included_agent_fails(self):
        g = random_fhg(4, 0.5, 7)
        rng = random.Random(3)
        records = [
            r
            for r in draw_samples(g, UniformCoalitions(4), 60, rng)
            if 0 not in r.coalition
        ]
        with pytest.raises(UnderdeterminedError) as exc:
            learn_fhg(4, records)
        assert 0 in exc.value.agents

    def test_gf2_deficient_rational_fallback(self):
        # rows {0,1},{1,2},{0,2} are dependent mod 2 but full-rank over Q
        g = SimpleFHG.from_matrix(
            [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 1, 1, 0]]
        )
        records = []
        for pair in [(0, 1), (1, 2), (0, 2)]:
            c = Coalition.of(3, *pair)
            records.append(SampleRecord(c, {i: g.value(i, c) for i in c}))
        with pytest.raises(UnderdeterminedError) as exc:
            learn_fhg(4, records)
        # agents 0..2 lack data, agent 3's system solved via the fallback
        assert exc.value.agents == (0, 1, 2)

    def test_non_binary_solution_rejected(self):
        # claim value 1/4 in a pair: implies half an arc
        c = Coalition.of(0, 1)
        rec = SampleRecord(c, {0: Fraction(1, 4), 1: Fraction(1, 2)})
        records = [rec, SampleRecord(Coalition.of(0), {0: Fraction(0)})]
        with pytest.raises(InconsistentSampleError):
            learn_fhg(2, records)

    def test_float_values_recovered_exactly(self):
        g = random_fhg(9, 0.5, 21)
        rng = random.Random(4)
        records = draw_samples(g, UniformCoalitions(9), 150, rng)
        as_floats = [
            SampleRecord(r.coalition, {i: float(v) for i, v in r.member_values.items()})
            for r in records
        ]
        assert learn_fhg(9, as_floats) == g

    def test_soundness_replay(self):
        # whatever is learned reproduces every sampled valuation exactly
        rng = random.Random(6)
        for _ in range(20):
            n = rng.randrange(4, 9)
            g = random_fhg(n, rng.random(), rng.getrandbits(32))
            records = draw_samples(g, UniformCoalitions(n), 4 * n + 30, rng)
            try:
                learned = learn_fhg(n, records)
            except LearningError:
                continue
            for r in records:
                for i, v in r.member_values.items():
                    assert learned.value(i, r.coalition) == v

    def test_empirical_rate_small(self):
        # at the guaranteed sample size the rate should be near-perfect
        n, delta, trials = 8, 0.2, 60
        m = fhg_sample_size(n, delta)
        hits = 0
        for t in range(trials):
            rng = random.Random(5000 + t)
            g = random_fhg(n, 0.4, rng.getrandbits(32))
            try:
                if learn_fhg(n, draw_samples(g, UniformCoalitions(n), m, rng)) == g:
                    hits += 1
            except LearningError:
                pass
        assert hits >= math.floor(trials * (1 - delta))


def agent_equations(records, i):
    return [(r.coalition.mask, r.member_values[i]) for r in records if i in r.coalition]


def agent_rows(records, i):
    """Agent i's (raw mask, neighbour count) rows, as learn_fhg builds them."""
    return [(mask ^ 1 << i, int(v * mask.bit_count())) for mask, v in agent_equations(records, i)]


@st.composite
def planted_fhg_samples(draw):
    """A random simple game on n <= 8 agents, exact samples of it, and up to
    two sampled values overwritten by multiples of 1/(2 * size) in [0, 1 + 1/size]."""
    n = draw(st.integers(1, 8))
    full = (1 << n) - 1
    game = SimpleFHG(n, [draw(st.integers(0, full)) & ~(1 << i) for i in range(n)])
    rng = draw(st.randoms(use_true_random=False))
    m = draw(st.integers(0, 6 * n + 10))
    records = fhg_records(game, [rng.randint(1, full) for _ in range(m)])
    corrupted = False
    for _ in range(draw(st.integers(0, 2)) if records else 0):
        r = rng.randrange(len(records))
        rec = records[r]
        values = dict(rec.member_values)
        size = rec.coalition.size
        values[rng.choice(sorted(values))] = Fraction(rng.randint(0, 2 * size + 2), 2 * size)
        corrupted |= values != rec.member_values
        records[r] = SampleRecord(rec.coalition, values)
    return n, game, records, corrupted


class TestLearnFhgOracle:
    @settings(max_examples=300, deadline=None)
    @given(planted_fhg_samples())
    def test_outcome_matches_brute_force(self, case):
        n, game, records, corrupted = case
        try:
            learned = learn_fhg(n, records)
        except InconsistentSampleError as exc:
            assert corrupted
            assert fhg_row_solutions(n, exc.agent, agent_equations(records, exc.agent)) == []
            return
        except UnderdeterminedError as exc:
            assert exc.agents and list(exc.agents) == sorted(set(exc.agents))
            return
        for i in range(n):
            assert fhg_row_solutions(n, i, agent_equations(records, i)) == [learned.adj_masks[i]]
        if not corrupted:
            assert learned == game

    def _late_row_records(self, late_value):
        # agent 0 reaches full rank (columns 1, 2) on the first two rows;
        # the third row is only checked by the integer replay
        g = SimpleFHG.from_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        records = fhg_records(g, [0b011, 0b101, 0b110, 0b111])
        last = records[-1]
        records[-1] = SampleRecord(last.coalition, {**last.member_values, 0: late_value})
        return records

    def test_mod2_inconsistency_after_full_rank(self):
        # x1 + x2 = 1/3 * 3 = 1 contradicts x1 = x2 = 1 mod 2
        records = self._late_row_records(Fraction(1, 3))
        assert _solve_gf2(agent_rows(records, 0), 3) == 0b110
        with pytest.raises(InconsistentSampleError) as exc:
            learn_fhg(3, records)
        assert exc.value.agent == 0

    def test_integer_inconsistency_after_full_rank(self):
        # x1 + x2 = 0 agrees with x1 = x2 = 1 mod 2, but not over the integers
        with pytest.raises(InconsistentSampleError) as exc:
            learn_fhg(3, self._late_row_records(Fraction(0)))
        assert exc.value.agent == 0

    def _fallback_records(self):
        # agent 3 only sees {0,1}, {1,2}, {0,2}: rank 2 mod 2, 3 over Q;
        # the pairs give agents 0..2 full rank mod 2
        g = SimpleFHG.from_matrix(
            [[0, 1, 0, 1], [1, 0, 0, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
        )
        masks = [0b0011, 0b0101, 0b0110, 0b1011, 0b1110, 0b1101]
        return g, fhg_records(g, masks)

    def test_gf2_deficient_rational_fallback_recovers_game(self):
        g, records = self._fallback_records()
        assert _solve_gf2(agent_rows(records, 3), 4) is None
        assert learn_fhg(4, records) == g

    def test_rational_inconsistency_names_the_agent(self):
        # a second {0,2,3} row for agent 3 says x0 + x2 = 0, not 2: the same
        # parity, so GF(2) stays deficient and the rational path refutes it
        g, records = self._fallback_records()
        dup = records[-1]
        assert dup.coalition.mask == 0b1101 and dup.member_values[3] == Fraction(2, 3)
        records.append(SampleRecord(dup.coalition, {**dup.member_values, 3: Fraction(0)}))
        assert _solve_gf2(agent_rows(records, 3), 4) is None
        with pytest.raises(InconsistentSampleError) as exc:
            learn_fhg(4, records)
        assert exc.value.agent == 3

    def test_float_records_through_the_fallback(self):
        g, records = self._fallback_records()
        as_floats = [
            SampleRecord(r.coalition, {i: float(v) for i, v in r.member_values.items()})
            for r in records
        ]
        assert learn_fhg(4, as_floats) == g

    def test_float_value_off_the_size_grid(self):
        g, records = self._fallback_records()
        last = records[-1]
        bad = {i: float(v) for i, v in last.member_values.items()}
        bad[2] = 0.4  # not a multiple of 1/3
        with pytest.raises(InconsistentSampleError) as exc:
            learn_fhg(4, records[:-1] + [SampleRecord(last.coalition, bad)])
        assert exc.value.agent == 2

    def test_single_agent(self):
        assert learn_fhg(1, []) == SimpleFHG(1, [0])
        assert learn_fhg(1, fhg_records(SimpleFHG(1, [0]), [1])) == SimpleFHG(1, [0])
        with pytest.raises(InconsistentSampleError) as exc:
            learn_fhg(1, [SampleRecord(Coalition.of(0), {0: 1})])
        assert exc.value.agent == 0


class TestIterableSamples:
    def test_learn_fhg_from_generator(self):
        g = random_fhg(10, 0.5, 3)
        records = draw_samples(g, UniformCoalitions(10), fhg_sample_size(10, 0.1), random.Random(3))
        assert learn_fhg(10, (r for r in records)) == learn_fhg(10, records) == g

    def test_learn_anonymous_from_generator(self):
        g = random_anon(6, 5)
        records = draw_samples(g, UniformCoalitions(6), 400, random.Random(5))
        from_list = learn_anonymous(6, records)
        from_gen = learn_anonymous(6, (r for r in records))
        assert from_gen.m == from_list.m == 400
        assert from_gen.mu_hat == from_list.mu_hat
        assert from_gen.known_table() == from_list.known_table()
        for i in range(6):
            for s in from_list.sizes_known_for_all():
                assert from_gen.value_of_size(i, s) == from_list.value_of_size(i, s)


    def test_iter_samples_is_lazy_and_matches_draw_samples(self):
        for game in (random_fhg(9, 0.5, 1), random_anon(9, 1)):
            dist = UniformCoalitions(9)
            stream = iter_samples(game, dist, 10**12, random.Random(8))
            first = [next(stream) for _ in range(50)]
            assert first == draw_samples(game, dist, 50, random.Random(8))
            for rec in first:
                c = rec.coalition
                assert rec.member_values == {i: game.value(i, c) for i in c}
                assert list(rec.member_values) == list(c.members())


@pytest.mark.slow
def test_anonymous_fold_at_the_paper_sample_size():
    """n = 100 at m = anon_sample_size(100, .2, .2, 1): the streamed draw ->
    learn fold keeps memory bounded by the n x n table, not by m."""
    n = 100
    m = anon_sample_size(n, 0.2, 0.2, 1)
    assert m == 2_163_956
    game = random_anon(n, 6)
    tracemalloc.start()
    try:
        learned = learn_anonymous(n, iter_samples(game, UniformCoalitions(n), m, random.Random(6)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert learned.m == m
    assert peak < 200 * 2**20
    for i in range(n):
        for s in range(1, n + 1):
            if learned.has_size(i, s):
                assert learned.value_of_size(i, s) == game.value_of_size(i, s)


class TestLearnAnonymous:
    def test_single_pair_sample(self):
        rec = SampleRecord(Coalition.of(0, 1), {0: 0.5, 1: 0.5})
        learned = learn_anonymous(2, [rec])
        assert learned.has_size(0, 2) and learned.has_size(1, 2)
        assert not learned.has_size(0, 1)
        assert learned.value_of_size(0, 2) == 0.5
        assert learned.mu_hat == 2.0

    def test_no_samples_mu_undefined(self):
        learned = learn_anonymous(3, [])
        assert learned.sizes_known_for_all() == ()
        with pytest.raises(LearningError):
            _ = learned.mu_hat

    def test_unknown_value_raises(self):
        learned = learn_anonymous(2, [])
        with pytest.raises(LearningError):
            learned.value_of_size(0, 1)

    def test_conflicting_values_abort(self):
        a = SampleRecord(Coalition.of(0, 1), {0: 0.5, 1: 0.5})
        b = SampleRecord(Coalition.of(0, 2), {0: 0.25, 2: 0.5})
        with pytest.raises(InconsistentSampleError):
            learn_anonymous(3, [a, b])

    def test_coverage_after_sampling(self):
        n = 8
        g = random_anon(n, 13)
        rng = random.Random(13)
        records = draw_samples(g, UniformCoalitions(n), 3000, rng)
        learned = learn_anonymous(n, records)
        observed = {(i, r.coalition.size) for r in records for i in r.coalition}
        for i in range(n):
            for s in range(1, n + 1):
                assert learned.has_size(i, s) == ((i, s) in observed)
                if learned.has_size(i, s):
                    assert learned.value_of_size(i, s) == g.value_of_size(i, s)

    def test_mu_hat_is_sample_mean(self):
        recs = [
            SampleRecord(Coalition.of(0), {0: 0.1}),
            SampleRecord(Coalition.of(0, 1, 2), {0: 0.2, 1: 0.2, 2: 0.2}),
        ]
        assert learn_anonymous(3, recs).mu_hat == 2.0


class TestSolverAgreement:
    def test_gf2_and_rational_routes_agree(self):
        from epsfc.learning import _solve_rational

        rng = random.Random(17)
        for _ in range(200):
            n = rng.randrange(3, 9)
            i = rng.randrange(n)
            cols = [j for j in range(n) if j != i]
            others = ((1 << n) - 1) ^ 1 << i
            nrows = rng.randrange(1, 14)
            planted = rng.randrange(1 << n) & others
            rows = []
            for _ in range(nrows):
                bits = rng.randrange(1 << n) & others
                rhs = (bits & planted).bit_count()
                rows.append((bits, rhs))
            gf2 = _solve_gf2(rows, n)
            rational = _solve_rational(rows, cols)
            as_mask = None
            if rational is not None:
                as_mask = sum(1 << j for j, x in zip(cols, rational) if x == 1)
            if gf2 is not None:
                # full rank mod 2 forces full rational rank and the same answer
                assert rational is not None
                assert gf2 == as_mask
                assert gf2 == planted
            if rational is not None and all(x in (0, 1) for x in rational):
                assert as_mask == planted


class TestEmpiricalGuarantees:
    def test_mean_estimate_concentration(self):
        # |mu_hat - mu| < alpha with frequency >= 1 - delta at the bound's m
        from epsfc import SizeTilted, mean_size

        n, alpha, delta = 12, 0.6, 0.2
        m = mean_confidence_m(n, alpha, delta)
        dist = SizeTilted(n, [1 + (s % 4) for s in range(n)])
        mu = float(mean_size(dist))
        trials, hits = 40, 0
        for t in range(trials):
            rng = random.Random(900 + t)
            sizes = [dist.sample(rng).size for _ in range(m)]
            if abs(sum(sizes) / m - mu) < alpha:
                hits += 1
        assert hits >= math.floor(trials * (1 - delta))

    def test_window_coverage_frequency(self):
        # window sizes are fully learned with frequency >= 1 - delta
        from epsfc import SizeTilted, mean_size, size_interval

        n, eps, delta = 7, 0.3, 0.3
        weights = [1 + s / (n - 1) for s in range(n)]
        dist = SizeTilted(n, weights)
        lam = float(dist.lambda_bound())
        m = anon_sample_size(n, delta, eps, lam)
        window = size_interval(float(mean_size(dist)), lam, eps, n)
        game = random_anon(n, 423)
        trials, hits = 15, 0
        for t in range(trials):
            rng = random.Random(501 + t)
            learned = learn_anonymous(n, draw_samples(game, dist, m, rng))
            if set(window.sizes) <= set(learned.sizes_known_for_all()):
                hits += 1
        assert hits >= math.floor(trials * (1 - delta))


class TestEstimateInterval:
    def _learned(self, n, sizes_per_agent, mu_sum, m):
        learned = learn_anonymous(n, [])
        learned.m = m
        learned._size_sum = mu_sum
        for i in range(n):
            for s in sizes_per_agent:
                learned._vals[i][s] = 0.5
        return learned

    def test_only_known_sizes_survive(self):
        learned = self._learned(6, [2, 3, 4], mu_sum=30, m=10)  # mu_hat = 3
        iv = estimate_interval(learned, 1, 0.5, alpha=0.0)
        assert set(iv.sizes) <= {2, 3, 4}

    def test_unknown_size_excluded(self):
        learned = self._learned(6, [2, 3, 4], mu_sum=30, m=10)
        del learned._vals[5][3]  # one agent misses size 3
        iv = estimate_interval(learned, 1, 0.5, alpha=0.0)
        assert 3 not in iv.sizes

    def test_empty_interval_raises(self):
        learned = self._learned(6, [], mu_sum=30, m=10)
        with pytest.raises(EmptyIntervalError):
            estimate_interval(learned, 1, 0.5)

    def test_wide_window_negative_low_end(self):
        # delta >= 1 and mu - alpha <= 0: everything below the top survives
        learned = self._learned(4, [1, 2, 3, 4], mu_sum=4, m=4)  # mu_hat = 1
        iv = estimate_interval(learned, 1, 0.1, alpha=2.0)
        assert iv.lo <= 0
        assert iv.sizes == tuple(s for s in range(1, 5) if s < iv.hi)

    def test_default_alpha(self):
        assert default_alpha(16, 1) == min(1 / 8, 8)
        assert default_alpha(4, 7) == min(0.25, 0.5)
