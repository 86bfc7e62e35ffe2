import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsfc import (
    AnonymousHG,
    EmptyIntervalError,
    FhgThresholds,
    Partition,
    SimpleFHG,
    check_single_peaked,
    choose_epsilon_floor,
    stabilize_anonymous,
    stabilize_fhg,
    stabilize_single_peaked,
)
from epsfc.distributions import SizeInterval
from epsfc.errors import LearningError
from epsfc.instances import random_anon, random_anon_sp, random_fhg
from epsfc.learning import LearnedAnonymous
from oracles import (
    reference_stabilize_anonymous,
    reference_stabilize_single_peaked,
    simulate_fhg_construction,
)


def complete_digraph(n):
    return SimpleFHG.from_matrix([[1 if i != j else 0 for j in range(n)] for i in range(n)])


class TestFhgThresholds:
    def test_desk_scale_clamps(self):
        th = FhgThresholds.for_n(12)
        assert th == FhgThresholds(selection_pool=1, loop_budget=1, degree_cut=0)

    def test_degree_cut_clamped_to_range(self):
        for n in (2, 5, 100):
            th = FhgThresholds.for_n(n)
            assert 0 <= th.degree_cut <= n - 1
            assert th.selection_pool >= 1 and th.loop_budget >= 1


class TestStabilizeFhg:
    def test_complete_graph_clique_branch(self):
        g = complete_digraph(12)
        partition, trace = stabilize_fhg(g)
        assert trace.branch == "clique"
        assert trace.phi == 0
        assert partition == Partition.grand(12)
        assert all(it.removed == () for it in trace.iterations)

    def test_empty_graph_stays_singletons(self):
        g = SimpleFHG(9, [0] * 9)
        partition, trace = stabilize_fhg(g)
        assert trace.branch == "matching"
        assert trace.phi == 9
        assert partition == Partition.singletons(9)
        assert all(it.partners == () for it in trace.iterations)

    def test_star_replays_simulator(self):
        star = [[0] * 8 for _ in range(8)]
        for j in range(1, 8):
            star[0][j] = 1
        g = SimpleFHG.from_matrix(star)
        partition, trace = stabilize_fhg(g)
        th = trace.thresholds
        branch, phi, gr, log, blocks, starved = simulate_fhg_construction(
            star, th.selection_pool, th.loop_budget, th.degree_cut
        )
        assert trace.branch == branch
        assert trace.phi == phi
        assert trace.gr == tuple(gr)
        assert trace.starved == starved
        assert [(it.agent, it.partners) for it in trace.iterations] == log
        assert [list(b.members()) for b in partition.blocks] == blocks

    @pytest.mark.parametrize("seed", range(8))
    def test_random_replays_simulator_with_injected_thresholds(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(8, 15)
        g = random_fhg(n, rng.uniform(0.15, 0.7), rng.getrandbits(32))
        th = FhgThresholds(
            selection_pool=rng.randrange(2, 6),
            loop_budget=rng.randrange(1, 4),
            degree_cut=rng.randrange(0, n),
        )
        partition, trace = stabilize_fhg(g, th)
        branch, phi, gr, log, blocks, starved = simulate_fhg_construction(
            g.matrix(), th.selection_pool, th.loop_budget, th.degree_cut
        )
        assert trace.branch == branch and trace.phi == phi and trace.gr == tuple(gr)
        assert trace.starved == starved
        if branch == "matching":
            assert [(it.agent, it.partners) for it in trace.iterations] == log
        else:
            assert [(it.agent, it.removed) for it in trace.iterations] == log
        assert [list(b.members()) for b in partition.blocks] == blocks
        assert Partition(partition.blocks, n) == partition

    def test_matching_partner_counts(self):
        rng = random.Random(99)
        for _ in range(20):
            n = rng.randrange(8, 16)
            g = random_fhg(n, rng.uniform(0.2, 0.8), rng.getrandbits(32))
            th = FhgThresholds(3, 2, n - 1)  # everyone counts as low degree
            partition, trace = stabilize_fhg(g, th)
            assert trace.branch == "matching"
            for it in trace.iterations:
                d = g.degrees()[it.agent]
                want = 0 if d == 0 else math.ceil(2 * d / (n - d))
                assert len(it.partners) == min(want, d)
                assert all(g.adj_masks[it.agent] >> j & 1 for j in it.partners)
                block = partition.block_of(it.agent)
                assert it.agent in block
                assert all(j in block for j in it.partners)

    def test_clique_branch_gr_adjacent_to_club(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randrange(6, 14)
            g = random_fhg(n, rng.uniform(0.5, 1.0), rng.getrandbits(32))
            th = FhgThresholds(n + 1, 3, -1)  # phi = 0 forces the clique branch
            partition, trace = stabilize_fhg(g, th)
            assert trace.branch == "clique"
            club_mask = (1 << n) - 1
            for it in trace.iterations:
                for a in it.removed:
                    club_mask &= ~(1 << a)
            assert any(b.mask == club_mask for b in partition.blocks)
            for i in trace.gr:
                others = club_mask & ~(1 << i)
                assert g.adj_masks[i] & others == others

    def test_deterministic(self):
        g = random_fhg(13, 0.4, 5)
        assert stabilize_fhg(g) == stabilize_fhg(g)

    def test_needs_two_agents(self):
        with pytest.raises(ValueError):
            stabilize_fhg(SimpleFHG(1, [0]))


@st.composite
def _fhg_runs(draw):
    n = draw(st.integers(2, 12))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    adj = [[int(i != j and rows[i] >> j & 1) for j in range(n)] for i in range(n)]
    th = FhgThresholds(
        selection_pool=draw(st.integers(1, n + 1)),
        loop_budget=draw(st.integers(1, 5)),
        degree_cut=draw(st.integers(-1, n - 1)),
    )
    return adj, th


class TestFhgReplay:
    @settings(max_examples=300, deadline=None)
    @given(_fhg_runs())
    def test_every_trace_field_and_block_order_replays(self, run):
        adj, th = run
        partition, trace = stabilize_fhg(SimpleFHG.from_matrix(adj), th)
        branch, phi, gr, log, blocks, starved = simulate_fhg_construction(
            adj, th.selection_pool, th.loop_budget, th.degree_cut
        )
        assert (trace.branch, trace.phi, trace.gr, trace.starved) == (branch, phi, tuple(gr), starved)
        moved = "partners" if branch == "matching" else "removed"
        assert [(it.agent, getattr(it, moved)) for it in trace.iterations] == log
        assert [list(b.members()) for b in partition.blocks] == blocks


@st.composite
def _anon_runs(draw):
    """A game with many tied values, a window in any of its forms, and a
    shuffled size ordering; n = 0 uses sizes 1..3 so a window exists."""
    n = draw(st.integers(0, 14))
    levels = st.sampled_from([0.0, 0.25, 0.5, 1.0])
    table = draw(st.lists(st.lists(levels, min_size=n, max_size=n), min_size=n, max_size=n))
    span = n or 3
    sizes = draw(st.lists(st.integers(1, span), min_size=1, max_size=span, unique=True))
    form = draw(st.sampled_from(["list", "set", "interval"]))
    window = {
        "list": sizes,
        "set": set(sizes),
        "interval": SizeInterval(0.0, span + 1.0, tuple(sorted(sizes))),
    }[form]
    ordering = tuple(draw(st.permutations(range(1, span + 1))))
    return AnonymousHG(table), window, ordering


class TestAnonymousMatchesReference:
    """The packers against the reference bodies in tests/oracles.py: blocks
    in output order and every trace field."""

    @settings(max_examples=300, deadline=None)
    @given(_anon_runs())
    def test_preferred_size_packing(self, run):
        game, window, _ = run
        partition, trace = stabilize_anonymous(game, window)
        masks, fields = reference_stabilize_anonymous(game, window)
        assert [b.mask for b in partition.blocks] == masks
        assert dataclasses.asdict(trace) == fields

    @settings(max_examples=300, deadline=None)
    @given(_anon_runs())
    def test_single_peaked_packing(self, run):
        game, window, ordering = run
        if game.n == 0:
            # an ordering of the sizes 1..3 is not one of the empty size set
            with pytest.raises(ValueError, match="is not a permutation of the sizes 1..0"):
                stabilize_single_peaked(game, ordering, window)
            return
        partition, trace = stabilize_single_peaked(game, ordering, window)
        masks, fields = reference_stabilize_single_peaked(game, ordering, window)
        assert [b.mask for b in partition.blocks] == masks
        assert dataclasses.asdict(trace) == fields

    def test_no_agents_takes_the_last_position(self):
        # with n = 0 the only ordering is (), so every window size is missing
        # from it and no position can be taken
        with pytest.raises(ValueError, match=r"ordering \(\) lacks the window sizes \[1, 2, 3\]"):
            stabilize_single_peaked(AnonymousHG([]), (), [1, 2, 3])
        with pytest.raises(ValueError, match=r"ordering \(3, 1, 2\) is not a permutation"):
            stabilize_single_peaked(AnonymousHG([]), (3, 1, 2), [1, 2, 3])


class TestStabilizeAnonymous:
    def test_all_prefer_pairs(self):
        # n=5, window {1,2,3}, everyone peaks at 2: two pairs + singleton
        row = [0.2, 1.0, 0.5, 0.1, 0.1]
        g = AnonymousHG([row] * 5)
        partition, trace = stabilize_anonymous(g, [1, 2, 3])
        assert trace.s_star == 2 and trace.q == 2 and trace.r == 1
        sizes = sorted(b.size for b in partition.blocks)
        assert sizes == [1, 2, 2]
        assert len(trace.green_agents) == 4

    def test_grand_window(self):
        g = AnonymousHG([[0.1 * s for s in range(1, 5)] for _ in range(4)])
        partition, trace = stabilize_anonymous(g, [4])
        assert partition == Partition.grand(4)
        assert trace.green_agents == (0, 1, 2, 3)

    def test_mixed_peaks_priority_fill(self):
        # four agents peak 3, two peak 2 inside window {2,3}
        table = []
        for i in range(6):
            row = [0.0] * 6
            if i < 4:
                row[2], row[1] = 1.0, 0.5
            else:
                row[1], row[2] = 1.0, 0.5
            table.append(row)
        g = AnonymousHG(table)
        partition, trace = stabilize_anonymous(g, [2, 3])
        assert trace.s_star == 3 and trace.q == 2 and trace.r == 0
        assert sorted(partition.block_of(0).members()) == [0, 1, 2]
        assert sorted(partition.block_of(3).members()) == [3, 4, 5]
        assert trace.green_agents == (0, 1, 2, 3)

    def test_pigeonhole_green_count(self):
        # the pigeonhole count, capped by how many agents fit preferred blocks
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randrange(6, 14)
            g = random_anon(n, rng.getrandbits(32))
            sizes = sorted(rng.sample(range(1, n + 1), rng.randrange(1, min(5, n + 1))))
            partition, trace = stabilize_anonymous(g, sizes)
            assert Partition(partition.blocks, n) == partition
            guaranteed = min(math.ceil(n / len(sizes)), trace.q * trace.s_star)
            assert len(trace.green_agents) >= guaranteed

    def test_pigeonhole_unclamped_when_window_spans_all(self):
        rng = random.Random(8)
        for _ in range(10):
            n = rng.randrange(6, 14)
            g = random_anon(n, rng.getrandbits(32))
            sizes = list(range(1, n + 1))
            _, trace = stabilize_anonymous(g, sizes)
            assert len(trace.green_agents) >= math.ceil(n / len(sizes))

    def test_empty_window(self):
        g = random_anon(4, 1)
        with pytest.raises(EmptyIntervalError):
            stabilize_anonymous(g, [])
        with pytest.raises(EmptyIntervalError):
            stabilize_single_peaked(g, (1, 2, 3, 4), set())

    def test_unobserved_window_size(self):
        with pytest.raises(LearningError, match="agent 0's value at size 1 was never observed"):
            stabilize_anonymous(LearnedAnonymous(3), [1, 2])

    def test_window_size_outside_the_game(self):
        # an exact game has every value in 1..n, so a size outside it is the caller's error
        g = random_anon(4, 1)
        with pytest.raises(ValueError, match="coalition size 0 outside"):
            stabilize_anonymous(g, [0, 2])
        with pytest.raises(ValueError, match="lacks the window sizes"):
            stabilize_single_peaked(g, (1, 2, 3, 4), [2, 5])

    def test_deterministic(self):
        g = random_anon(9, 4)
        assert stabilize_anonymous(g, [2, 3]) == stabilize_anonymous(g, [2, 3])


class TestStabilizeSinglePeaked:
    def test_uniform_peaks_everyone_at_peak(self):
        row = [0.2, 1.0, 0.5, 0.1]
        g = AnonymousHG([row] * 4)
        partition, trace = stabilize_single_peaked(g, check_single_peaked(g), [1, 2, 3])
        assert trace.peaked_before == ()
        assert trace.peaked_at == (0, 1, 2, 3)
        assert trace.s_star == 2 and trace.r == 0
        assert all(b.size == 2 for b in partition.blocks)

    def test_hand_traced_half_split(self):
        # peaks (1,1,2,2) on window {1,2}: h* is the position of size 2
        table = [
            [1.0, 0.5, 0.3, 0.1],
            [1.0, 0.5, 0.3, 0.1],
            [0.5, 1.0, 0.3, 0.1],
            [0.5, 1.0, 0.3, 0.1],
        ]
        g = AnonymousHG(table)
        partition, trace = stabilize_single_peaked(g, check_single_peaked(g), [1, 2])
        assert trace.h_star == 1 and trace.s_star == 2 and trace.r == 0
        assert trace.peaked_before == (0, 1)
        assert trace.peaked_at == (2, 3)
        assert sorted(partition.block_of(2).members()) == [2, 3]
        assert sorted(partition.block_of(0).members()) == [0, 1]

    def test_at_peak_priority_over_remainder(self):
        # scarce at-peak agents never land in the remainder block
        rng = random.Random(12)
        for _ in range(25):
            n = rng.randrange(5, 13)
            g, ordering = random_anon_sp(n, rng.getrandbits(32))
            k = rng.randrange(2, n + 1)
            sizes = sorted(rng.sample(range(1, n + 1), k))
            partition, trace = stabilize_single_peaked(g, ordering, sizes)
            assert Partition(partition.blocks, n) == partition
            if trace.r:
                remainder = next(b for b in partition.blocks if b.size == trace.r)
                at_in_remainder = set(remainder.members()) & set(trace.peaked_at)
                if at_in_remainder:
                    # only allowed when every full block is all at-peak
                    full = [b for b in partition.blocks if b.size == trace.s_star]
                    assert all(
                        set(b.members()) <= set(trace.peaked_at) for b in full
                    )

    def test_half_bound_invariants(self):
        rng = random.Random(77)
        for _ in range(30):
            n = rng.randrange(4, 13)
            g, ordering = random_anon_sp(n, rng.getrandbits(32))
            sizes = list(range(1, n + 1))
            partition, trace = stabilize_single_peaked(g, ordering, sizes)
            assert 2 * len(trace.peaked_before) <= n
            assert 2 * (len(trace.peaked_before) + len(trace.peaked_at)) >= n
            # every at-peak agent in a full block sits at her peak size
            for i in trace.at_in_star:
                assert partition.size_of(i) == trace.s_star

    def test_deterministic(self):
        g, ordering = random_anon_sp(10, 5)
        sizes = [2, 3, 4]
        assert stabilize_single_peaked(g, ordering, sizes) == stabilize_single_peaked(
            g, ordering, sizes
        )

    def test_custom_ordering_positions(self):
        # single-peaked along (3, 1, 4, 2): values unimodal in that sequence
        ordering = (3, 1, 4, 2)
        rng = random.Random(41)
        table = []
        for _ in range(4):
            peak_pos = rng.randrange(4)
            levels = sorted((rng.random() for _ in range(4)), reverse=True)
            row = [0.0] * 4
            order_idx = sorted(range(4), key=lambda k: abs(k - peak_pos))
            for lv, k in zip(levels, order_idx):
                row[ordering[k] - 1] = lv
            table.append(row)
        g = AnonymousHG(table)
        assert check_single_peaked(g, ordering) == ordering
        partition, trace = stabilize_single_peaked(g, ordering, [1, 2, 3, 4])
        # window sizes must be ranked by the ordering, not naturally
        assert trace.ordered_sizes == ordering
        assert trace.s_star == trace.ordered_sizes[trace.h_star]
        assert Partition(partition.blocks, 4) == partition
        # camp split is by ordering position of each agent's restricted peak
        pos = {s: h for h, s in enumerate(ordering)}
        for i in range(4):
            peak = max(range(1, 5), key=lambda s: g.value_of_size(i, s))
            if pos[peak] < trace.h_star:
                assert i in trace.peaked_before
            elif pos[peak] == trace.h_star:
                assert i in trace.peaked_at
            else:
                assert i in trace.peaked_after

    def test_ordering_missing_window_sizes_names_them(self):
        # an ordering of some sizes only is refused before the window is read
        g, _ = random_anon_sp(8, 3)
        missing = r"ordering \(1, 2, 4\) is not a permutation of the sizes 1\.\.8"
        with pytest.raises(ValueError, match=missing):
            stabilize_single_peaked(g, (1, 2, 4), [2, 3, 4, 5])


class TestStarvation:
    def test_matching_pool_exhaustion_recorded(self):
        # pool of 2 but budget 3: the loop must stop early and say so
        g = SimpleFHG(6, [0] * 6)
        th = FhgThresholds(selection_pool=2, loop_budget=3, degree_cut=5)
        partition, trace = stabilize_fhg(g, th)
        assert trace.starved
        assert len(trace.gr) == 2
        assert Partition(partition.blocks, 6) == partition

    def test_clique_candidate_exhaustion_recorded(self):
        # complete graph never removes anyone; gr eats the club
        g = SimpleFHG.from_matrix([[1 if i != j else 0 for j in range(3)] for i in range(3)])
        th = FhgThresholds(selection_pool=10, loop_budget=5, degree_cut=-1)
        partition, trace = stabilize_fhg(g, th)
        assert trace.branch == "clique"
        assert trace.starved
        assert len(trace.gr) == 3


class TestEpsilonFloor:
    def test_single_peaked_value(self):
        assert choose_epsilon_floor(40, 1, "anon-sp") == 2**-8

    def test_anon_constant(self):
        # the exponent constant at lambda=1 is 1/sqrt(26)
        n = 1000
        floor = choose_epsilon_floor(n, 1, "anon")
        expected = 4 / 2 ** (n ** (1 / 3) / math.sqrt(26))
        assert floor == pytest.approx(expected, rel=1e-12)

    def test_monotone_decreasing_in_n(self):
        for klass in ("fhg", "anon", "anon-sp"):
            values = [choose_epsilon_floor(n, 1.5 if klass != "fhg" else 1, klass) for n in (10, 100, 1000, 10000)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            choose_epsilon_floor(10, 1, "nash")
