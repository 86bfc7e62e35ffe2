import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epsfc import (
    Coalition,
    EmptyIntervalError,
    InconsistentSampleError,
    LearningError,
    SampleRecord,
    SimpleFHG,
    SizeTilted,
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
from epsfc.io import stream_samples, write_samples
from epsfc.learning import _neighbor_counts, _solve_gf2
from oracles import (
    fhg_row_solutions,
    members_of,
    reference_fhg_draws,
    reference_rhs_as_int,
    reference_solve_gf2,
)


class TestSampleRecord:
    def test_values_in_member_order(self):
        rec = SampleRecord(Coalition.of(3, 0), (Fraction(1, 2), 0.25))
        assert dict(zip(rec.coalition.members(), rec.values)) == {0: Fraction(1, 2), 3: 0.25}
        assert SampleRecord(Coalition(0), ()).values == ()

    @pytest.mark.parametrize(
        "mask, values", [(0b1001, (0.5,)), (0b1001, (0.5, 0.5, 0.5)), (0b1001, ()), (0, (0.5,))]
    )
    def test_wrong_length_rejected(self, mask, values):
        size = mask.bit_count()
        with pytest.raises(ValueError, match=f"^{len(values)} values for {size} members$"):
            SampleRecord(Coalition(mask), values)

    @pytest.mark.parametrize("values", [[0.5, 0.25], None, "ab", iter((0.5, 0.25))])
    def test_values_must_be_a_tuple(self, values):
        with pytest.raises(TypeError, match=f"^values must be a tuple, not {type(values).__name__}$"):
            SampleRecord(Coalition.of(0, 1), values)

    def test_library_records_hold_tuples(self, tmp_path):
        for game in (random_fhg(6, 0.5, 2), random_anon(6, 2)):
            records = list(iter_samples(game, UniformCoalitions(6), 40, random.Random(3)))
            path = tmp_path / "samples.jsonl"
            write_samples(path, records)
            read = list(stream_samples(path, n=6))
            assert read == records
            assert set(read) == set(records)  # both sides hashable

    def test_slotted_and_frozen(self):
        rec = SampleRecord(Coalition.of(0), (1.0,))
        assert not hasattr(rec, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.coalition = Coalition.of(1)


@pytest.mark.parametrize("n", [1, 5, 16, 60])
def test_draw_samples_match_fresh_fractions(n):
    game = random_fhg(n, 0.3, n)
    tilted = SizeTilted(n, [Fraction(n + s, n) for s in range(n)])
    for dist in (UniformCoalitions(n), tilted):
        for seed in range(4):
            records = draw_samples(game, dist, 60, random.Random(seed))
            expected = reference_fhg_draws(game.matrix(), dist, 60, random.Random(seed))
            assert records == [SampleRecord(Coalition(m), vals) for m, vals in expected]


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
        records.append(SampleRecord(c, game.values_of(c)))
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
            records.append(SampleRecord(c, g.values_of(c)))
        with pytest.raises(UnderdeterminedError) as exc:
            learn_fhg(4, records)
        # agents 0..2 lack data, agent 3's system solved via the fallback
        assert exc.value.agents == (0, 1, 2)

    def test_non_binary_solution_rejected(self):
        # claim value 1/4 in a pair: implies half an arc
        c = Coalition.of(0, 1)
        rec = SampleRecord(c, (Fraction(1, 4), Fraction(1, 2)))
        records = [rec, SampleRecord(Coalition.of(0), (Fraction(0),))]
        with pytest.raises(InconsistentSampleError):
            learn_fhg(2, records)

    def test_unique_rational_solution_off_zero_one_rejected(self):
        # each of agent 0's three rows sums two arcs to 1: inconsistent mod 2,
        # so the rational fallback runs and finds every arc at 1/2
        third = Fraction(1, 3)
        records = [SampleRecord(Coalition.of(*s), (third,) * 3)
                   for s in [(0, 1, 2), (0, 2, 3), (0, 1, 3)]]
        with pytest.raises(InconsistentSampleError,
                           match="^agent 0: unique rational solution is not 0/1-valued$") as exc:
            learn_fhg(4, records)
        assert exc.value.agent == 0

    def test_record_past_the_last_agent_rejected(self):
        records = [SampleRecord(Coalition.of(0, 2), (Fraction(0), Fraction(0)))]
        with pytest.raises(ValueError, match=r"outside \[0, 2\)"):
            learn_fhg(2, records)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 1e308])
    def test_non_finite_float_names_the_agent(self, bad):
        # 1e308 is finite, but times the size 2 it is not
        records = [
            SampleRecord(Coalition.of(0), (0.0,)),
            SampleRecord(Coalition.of(0, 1), (0.5, bad)),
        ]
        with pytest.raises(InconsistentSampleError, match="agent 1: .* no finite neighbor count") as exc:
            learn_fhg(2, records)
        assert exc.value.agent == 1

    def test_float_values_recovered_exactly(self):
        g = random_fhg(9, 0.5, 21)
        rng = random.Random(4)
        records = draw_samples(g, UniformCoalitions(9), 150, rng)
        as_floats = [SampleRecord(r.coalition, tuple(map(float, r.values))) for r in records]
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
                assert learned.values_of(r.coalition) == r.values

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


def value_of(rec, i):
    """Member i's value in ``rec``."""
    return rec.values[members_of(rec.coalition.mask).index(i)]


def agent_equations(records, i):
    return [(r.coalition.mask, value_of(r, i)) for r in records if i in r.coalition]


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
        values = list(rec.values)
        size = rec.coalition.size
        values[rng.randrange(size)] = Fraction(rng.randint(0, 2 * size + 2), 2 * size)
        corrupted |= tuple(values) != rec.values
        records[r] = SampleRecord(rec.coalition, tuple(values))
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
        records[-1] = SampleRecord(last.coalition, (late_value, *last.values[1:]))  # agent 0
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
        assert dup.coalition.mask == 0b1101 and value_of(dup, 3) == Fraction(2, 3)
        records.append(SampleRecord(dup.coalition, (*dup.values[:2], Fraction(0))))
        assert _solve_gf2(agent_rows(records, 3), 4) is None
        with pytest.raises(InconsistentSampleError) as exc:
            learn_fhg(4, records)
        assert exc.value.agent == 3

    def test_float_records_through_the_fallback(self):
        g, records = self._fallback_records()
        as_floats = [SampleRecord(r.coalition, tuple(map(float, r.values))) for r in records]
        assert learn_fhg(4, as_floats) == g

    def test_float_value_off_the_size_grid(self):
        g, records = self._fallback_records()
        last = records[-1]
        bad = [float(v) for v in last.values]
        bad[1] = 0.4  # agent 2's value, not a multiple of 1/3
        with pytest.raises(InconsistentSampleError) as exc:
            learn_fhg(4, records[:-1] + [SampleRecord(last.coalition, tuple(bad))])
        assert exc.value.agent == 2

    def test_single_agent(self):
        assert learn_fhg(1, []) == SimpleFHG(1, [0])
        assert learn_fhg(1, fhg_records(SimpleFHG(1, [0]), [1])) == SimpleFHG(1, [0])
        with pytest.raises(InconsistentSampleError) as exc:
            learn_fhg(1, [SampleRecord(Coalition.of(0), (1,))])
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
        for i, row in enumerate(from_list.known_table()):
            for s in range(1, 7):
                if row[s - 1]:
                    assert from_gen.value_of_size(i, s) == from_list.value_of_size(i, s)


    def test_negative_count_refused_before_any_draw(self):
        rng = random.Random(8)
        with pytest.raises(ValueError, match="negative number of samples"):
            iter_samples(random_anon(3, 1), UniformCoalitions(3), -3, rng)
        assert rng.getstate() == random.Random(8).getstate()
        assert draw_samples(random_anon(3, 1), UniformCoalitions(3), 0, rng) == []

    def test_iter_samples_is_lazy_and_matches_draw_samples(self):
        for game in (random_fhg(9, 0.5, 1), random_anon(9, 1)):
            dist = UniformCoalitions(9)
            stream = iter_samples(game, dist, 10**12, random.Random(8))
            first = [next(stream) for _ in range(50)]
            assert first == draw_samples(game, dist, 50, random.Random(8))
            for rec in first:
                assert rec.values == game.values_of(rec.coalition)


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
    for i, row in enumerate(learned.known_table()):
        for s in range(1, n + 1):
            if row[s - 1]:
                assert learned.value_of_size(i, s) == game.value_of_size(i, s)


class TestLearnAnonymous:
    def test_single_pair_sample(self):
        rec = SampleRecord(Coalition.of(0, 1), (0.5, 0.5))
        learned = learn_anonymous(2, [rec])
        assert learned.known_table() == [[False, True], [False, True]]
        assert learned.value_of_size(0, 2) == 0.5
        assert learned.mu_hat == 2.0

    def test_no_samples_mu_undefined(self):
        learned = learn_anonymous(3, [])
        assert learned.known_table() == [[False] * 3] * 3
        with pytest.raises(LearningError):
            _ = learned.mu_hat

    def test_unknown_value_raises(self):
        learned = learn_anonymous(2, [])
        with pytest.raises(LearningError):
            learned.value_of_size(0, 1)

    def test_conflicting_values_abort(self):
        a = SampleRecord(Coalition.of(0, 1), (0.5, 0.5))
        b = SampleRecord(Coalition.of(0, 2), (0.25, 0.5))
        with pytest.raises(InconsistentSampleError):
            learn_anonymous(3, [a, b])

    def test_coverage_after_sampling(self):
        n = 8
        g = random_anon(n, 13)
        rng = random.Random(13)
        records = draw_samples(g, UniformCoalitions(n), 3000, rng)
        learned = learn_anonymous(n, records)
        observed = {(i, r.coalition.size) for r in records for i in r.coalition}
        for i, row in enumerate(learned.known_table()):
            for s in range(1, n + 1):
                assert row[s - 1] == ((i, s) in observed)
                if row[s - 1]:
                    assert learned.value_of_size(i, s) == g.value_of_size(i, s)

    def test_mu_hat_is_sample_mean(self):
        recs = [
            SampleRecord(Coalition.of(0), (0.1,)),
            SampleRecord(Coalition.of(0, 1, 2), (0.2, 0.2, 0.2)),
        ]
        assert learn_anonymous(3, recs).mu_hat == 2.0

    def test_empty_coalition_is_refused(self):
        recs = [SampleRecord(Coalition(0), ()), SampleRecord(Coalition(0b11), (0.5, 0.7))]
        with pytest.raises(ValueError, match="empty coalition"):
            learn_anonymous(2, recs)
        assert learn_anonymous(2, recs[1:]).mu_hat == 2.0

    def test_agent_past_n_is_refused(self):
        with pytest.raises(ValueError, match=r"outside \[0, 2\)"):
            learn_anonymous(2, [SampleRecord(Coalition.of(2), (0.5,))])


class _Ratio(Fraction):
    """A Fraction subclass, read like a Fraction."""


def sampled_values(size):
    """Values for a size-``size`` coalition: on and off the 1/size grid,
    inside and outside [0, 1], as Fraction, int, bool, float or _Ratio."""
    on_grid = st.integers(-2, size + 2)
    return st.one_of(
        on_grid.map(lambda k: Fraction(k, size)),
        st.fractions(min_value=-2, max_value=2, max_denominator=3 * size),
        on_grid.map(lambda k: _Ratio(k, size)),
        st.fractions(min_value=-2, max_value=2, max_denominator=3 * size).map(_Ratio),
        st.integers(-2, 3),
        st.booleans(),
        on_grid.map(lambda k: k / size),
        st.tuples(on_grid, st.floats(-1e-5, 1e-5)).map(lambda t: t[0] / size + t[1]),
        st.floats(),
    )


@st.composite
def valued_records(draw):
    n = draw(st.integers(1, 8))
    mask = draw(st.integers(1, (1 << n) - 1))
    size = mask.bit_count()
    return SampleRecord(Coalition(mask), tuple(draw(sampled_values(size)) for _ in range(size)))


def outcome(compute):
    """The value ``compute()`` returns, or the exception it raises as
    (type, agent, message)."""
    try:
        return compute()
    except Exception as exc:  # every outcome is compared, failures included
        return type(exc), getattr(exc, "agent", None), str(exc)


@st.composite
def gf2_systems(draw):
    """(rows, n) for one agent: rhs from a planted row (consistent, full rank
    when the rows span) or drawn freely (often inconsistent mod 2)."""
    n = draw(st.integers(1, 8))
    i = draw(st.integers(0, n - 1))
    others = ((1 << n) - 1) ^ 1 << i
    planted = draw(st.integers(0, others)) & others
    masks = draw(st.lists(st.integers(0, others).map(lambda b: b & others), max_size=3 * n))
    if draw(st.booleans()):
        rows = [(b, (b & planted).bit_count()) for b in masks]
    else:
        rows = [(b, draw(st.integers(0, n))) for b in masks]
    return rows, n


class TestPerRecordConversion:
    """The per-record counts and the GF(2) elimination against the
    per-equation code they replaced (``oracles``)."""

    @settings(max_examples=400, deadline=None)
    @given(valued_records())
    def test_counts_match_per_equation_reference(self, rec):
        size = rec.coalition.size
        ours = outcome(lambda: list(_neighbor_counts(rec)))
        theirs = outcome(
            lambda: [
                (i, reference_rhs_as_int(i, v, size))
                for i, v in zip(members_of(rec.coalition.mask), rec.values)
            ]
        )
        # The one intended difference: a float whose scaled value is not
        # finite is refused naming its agent; the reference let round() raise.
        if theirs[0] in (OverflowError, ValueError):
            agent = ours[1]
            value = value_of(rec, agent)
            assert ours[0] is InconsistentSampleError
            assert type(value) is float and not math.isfinite(value * size)
            assert f"agent {agent}: value {value} " in ours[2]
        else:
            assert ours == theirs

    @settings(max_examples=400, deadline=None)
    @given(gf2_systems())
    @example(([], 1))
    @example(([(0, 1)], 1))
    @example(([], 2))
    @example(([(0b10, 1)], 2))
    @example(([(0b10, 1), (0b10, 0)], 2))
    @example(([(0b00, 1), (0b10, 1)], 2))
    def test_gf2_matches_reference(self, system):
        rows, n = system
        assert _solve_gf2(rows, n) == reference_solve_gf2(rows, n)


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
            if all(row[s - 1] for row in learned.known_table() for s in window.sizes):
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
