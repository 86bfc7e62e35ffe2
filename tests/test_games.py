import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsfc import (
    AnonymousHG,
    Coalition,
    Partition,
    PartitionError,
    SimpleFHG,
    check_single_peaked,
    exact_blocking,
    is_individually_rational,
)
from epsfc.games import _byte_members, _shares, bits_of
from epsfc.instances import random_anon, random_fhg, random_partition
from epsfc.verification import blocker_predicate
from oracles import (
    ReferenceCertificate,
    direct_member_values,
    naive_anon_blocks,
    naive_fhg_blocks,
    reference_bits_of,
    reference_check_single_peaked,
    reference_validate_partition,
)


def mutual_pair():
    return SimpleFHG.from_matrix([[0, 1], [1, 0]])


class TestCoalition:
    def test_members_roundtrip(self):
        c = Coalition.of(0, 3, 5)
        assert c.members() == (0, 3, 5)
        assert len(c) == 3
        assert 3 in c and 1 not in c
        assert Coalition.of(5, 0, 3) == c
        assert c.size == c.mask.bit_count()

    def test_hashable(self):
        assert {Coalition.of(1), Coalition.of(1)} == {Coalition.of(1)}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Coalition(-1)


class TestBitsOf:
    def test_every_mask_below_2_12(self):
        for mask in range(1 << 12):
            members = bits_of(mask)
            assert type(members) is tuple
            assert members == tuple(reference_bits_of(mask))
        assert bits_of(0) == ()

    def test_random_masks_up_to_300_bits(self):
        rng = random.Random(11)
        for width in range(1, 301):
            for _ in range(5):
                mask = rng.getrandbits(width)
                assert bits_of(mask) == tuple(reference_bits_of(mask))

    @pytest.mark.parametrize("bit", [8 * 64, 8 * 64 + 7, 8 * 200 + 3, 5000, 20_001])
    def test_lone_high_bits_past_the_row_cache(self, bit):
        assert bits_of(1 << bit) == (bit,)
        assert bits_of(1 << bit | 0b1010_0000_0001) == (0, 9, 11, bit)

    def test_row_cache_stays_bounded_over_many_widths(self):
        maxsize = _byte_members.cache_info().maxsize
        for width in range(1, 8 * (maxsize + 40), 5):
            mask = (1 << width) - 1
            assert bits_of(mask) == tuple(range(width))
        assert _byte_members.cache_info().currsize == maxsize
        # the evicted low rows are rebuilt the same
        assert bits_of(0b1011 << 8) == (8, 9, 11)


class TestValue:
    def test_mutual_pair_half(self):
        g = mutual_pair()
        assert g.values_of(Coalition.of(0, 1)) == (Fraction(1, 2), Fraction(1, 2))

    def test_singleton_zero(self):
        g = random_fhg(6, 0.7, 1)
        for i in range(6):
            assert g.values_of(Coalition.of(i)) == (0,)

    def test_anonymous_lookup(self):
        g = AnonymousHG([[0.1, 0.7, 0.3], [0.2, 0.6, 0.3], [0.1, 0.5, 0.3]])
        assert g.values_of(Coalition.of(2, 1)) == (0.6, 0.5)

    def test_anonymous_values_come_from_the_table(self):
        g = random_anon(7, 3)
        table = g.table()
        assert AnonymousHG(table) == g and hash(AnonymousHG(table)) == hash(g)
        for mask in range(1, 1 << 7):
            s = mask.bit_count()
            values = g.values_of(Coalition(mask))
            assert type(values) is tuple
            assert values == tuple(table[i][s - 1] for i in reference_bits_of(mask))

    def test_fhg_value_range(self):
        g = random_fhg(8, 0.5, 3)
        for mask in range(1, 1 << 8):
            c = Coalition(mask)
            for v in g.values_of(c):
                assert 0 <= v <= Fraction(c.size - 1, c.size)


@st.composite
def _game_and_mask(draw):
    """A fractional or an anonymous game on up to 70 agents, and a non-empty coalition."""
    n = draw(st.integers(1, 70))
    if draw(st.booleans()):
        game = SimpleFHG(n, [draw(st.integers(0, (1 << n) - 1)) & ~(1 << i) for i in range(n)])
    else:
        game = random_anon(n, draw(st.integers(0, 2**16)))
    return game, draw(st.integers(1, (1 << n) - 1))


class TestValuesOf:
    @given(_game_and_mask())
    @settings(max_examples=300, deadline=None)
    def test_values_pair_with_members_as_the_direct_values(self, case):
        game, mask = case
        c = Coalition(mask)
        values = game.values_of(c)
        assert type(values) is tuple
        assert dict(zip(c.members(), values)) == direct_member_values(game, mask)

    def test_values_rebuilt_after_eviction(self):
        # More distinct sizes than the table keeps, visited up and then down,
        # so the second pass rebuilds sizes the first pass evicted.
        n = _shares.cache_info().maxsize + 40
        rng = random.Random(5)
        game = SimpleFHG(n, [rng.getrandbits(n) & ~(1 << i) for i in range(n)])
        for size in [*range(1, n + 1), *range(n, 0, -1)]:
            mask = sum(1 << i for i in rng.sample(range(n), size))
            c = Coalition(mask)
            assert dict(zip(c.members(), game.values_of(c))) == direct_member_values(game, mask)

    def test_empty_coalition_has_no_values(self):
        assert random_fhg(4, 0.5, 1).values_of(Coalition(0)) == ()
        assert random_anon(4, 1).values_of(Coalition(0)) == ()


class TestBlocks:
    def test_mutual_pair_blocks_singletons(self):
        g = mutual_pair()
        assert blocker_predicate(g, Partition.singletons(2))(0b11)

    def test_own_block_never_blocks(self):
        g = random_fhg(6, 0.5, 7)
        p = random_partition(6, 11)
        for block in p:
            assert not blocker_predicate(g, p)(block.mask)

    def test_anonymous_singleton_peak(self):
        vals = [[1.0, 0.0, 0.0]] * 3
        g = AnonymousHG(vals)
        assert blocker_predicate(g, Partition.grand(3))(0b1)

    def test_equals_conjunction_of_member_comparisons(self):
        # the census predicate against the per-coalition oracle, every mask, both classes
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randrange(1, 8)
            p = random_partition(n, rng.getrandbits(32))
            block_lists = [list(b.members()) for b in p.blocks]
            g = random_fhg(n, rng.random(), rng.getrandbits(32))
            a = random_anon(n, rng.getrandbits(32))
            fhg_pred, anon_pred = blocker_predicate(g, p), blocker_predicate(a, p)
            rows, table = g.matrix(), a.table()
            for mask in range(1, 1 << n):
                assert fhg_pred(mask) == naive_fhg_blocks(rows, block_lists, mask)
                assert anon_pred(mask) == naive_anon_blocks(table, block_lists, mask)

    @pytest.mark.parametrize(
        "game, partition",
        [(random_fhg(6, 0.5, 1), Partition.singletons(6)), (random_anon(6, 1), Partition.grand(6))],
        ids=["fhg", "anon"],
    )
    def test_empty_mask_refused(self, game, partition):
        with pytest.raises(ValueError, match="^blocking candidates must be non-empty$"):
            blocker_predicate(game, partition)(0)


class TestIndividualRationality:
    def test_fhg_always_ir(self):
        rng = random.Random(2)
        for _ in range(20):
            g = random_fhg(7, rng.random(), rng.getrandbits(32))
            p = random_partition(7, rng.getrandbits(32))
            assert is_individually_rational(g, p)

    def test_anonymous_loner_breaks_ir(self):
        vals = [[1.0, 0.2, 0.1]] * 3
        g = AnonymousHG(vals)
        assert not is_individually_rational(g, Partition.grand(3))

    def test_singletons_always_ir(self):
        g = random_anon(5, 9)
        assert is_individually_rational(g, Partition.singletons(5))


@st.composite
def _block_lists(draw):
    """n = 0..9 and a list of blocks, as Coalitions or as id lists: a valid
    cover, or one with an agent repeated across blocks, agents missing, ids
    >= n or empty blocks."""
    n = draw(st.integers(0, 9))
    labels = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n))
    blocks = [[i for i in range(n) if labels[i] == b] for b in sorted(set(labels))]
    faults = draw(st.sets(st.sampled_from(["repeat", "missing", "high", "empty"])))
    for fault in [f for f in ("repeat", "missing", "high", "empty") if f in faults]:
        if fault == "repeat" and len(blocks) > 1:
            blocks[-1].append(draw(st.sampled_from(blocks[0])))
        elif fault == "missing" and blocks:
            blocks[0].remove(draw(st.sampled_from(blocks[0])))
        elif fault == "high":
            blocks.insert(draw(st.integers(0, len(blocks))), [draw(st.integers(n, n + 3))])
        elif fault == "empty":
            blocks.insert(draw(st.integers(0, len(blocks))), [])
    if draw(st.booleans()):
        blocks = [Coalition.of(*b) for b in blocks]
    return n, blocks


class TestValidatePartition:
    def test_ok(self):
        assert Partition([[0, 1], [2]], 3).assignment == (0, 0, 1)

    def test_duplicate(self):
        with pytest.raises(PartitionError, match="^agent 1 is in two blocks$"):
            Partition([[0, 1], [1, 2]], 3)

    def test_missing(self):
        with pytest.raises(PartitionError, match="^agent 1 is in no block$"):
            Partition([[0]], 2)

    def test_out_of_range_and_empty(self):
        with pytest.raises(PartitionError, match=r"^block \[0, 5\] is empty or reaches past agent 1$"):
            Partition([[0, 5], [], [1]], 2)
        with pytest.raises(PartitionError, match=r"^block \[\] is empty"):
            Partition([[0], [], [1]], 2)

    def test_partition_constructor_rejects(self):
        with pytest.raises(PartitionError):
            Partition([[0, 1], [1]], 2)

    def test_partition_accepts_agent_id_lists(self):
        p = Partition([[0, 1], [2]], 3)
        q = Partition([Coalition.of(0, 1), Coalition.of(2)], 3)
        assert p == q and p.blocks == q.blocks
        assert [p.size_of(i) for i in range(3)] == [2, 2, 1]
        assert repr(p) == "Partition([[0, 1], [2]], n=3)"
        triangle = SimpleFHG.from_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        report = exact_blocking(triangle, p)
        assert report == exact_blocking(triangle, q)
        assert report.witnesses == (Coalition.of(0, 1, 2),)

    @given(st.integers(2, 8), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_accepts_exactly_disjoint_covers(self, n, rng):
        p = random_partition(n, random.Random(rng.getrandbits(32)))
        blocks_lists = [list(b.members()) for b in p.blocks]
        assert Partition(blocks_lists, n) == p
        # corrupt: duplicate one agent into another block, or drop one
        corrupted = [list(b) for b in blocks_lists]
        if rng.random() < 0.5 and len(corrupted) > 1:
            corrupted[0].append(corrupted[-1][0])
        else:
            corrupted[0] = corrupted[0][:-1] if len(corrupted[0]) > 1 else [n + 1]
        with pytest.raises(PartitionError):
            Partition(corrupted, n)

    @given(_block_lists())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case):
        n, blocks = case
        check = reference_validate_partition(blocks, n)
        if not check.ok:
            with pytest.raises(PartitionError):
                Partition(blocks, n)
            return
        p = Partition(blocks, n)
        assert p.assignment == tuple(
            next(b for b, block in enumerate(blocks) if i in block) for i in range(n)
        )

    def test_negative_id_is_a_value_error(self):
        for blocks in ([[0, -1]], [[-1], [0]]):
            with pytest.raises(ValueError, match="negative agent id -1"):
                Partition(blocks, 1)


def violation(agent, h, k):
    """The message of check_single_peaked for ``agent`` rising from position h to k."""
    return f"^not single-peaked: agent {agent}'s value along the ordering .* from position {h} to {k}$"


LEVELS = [0.0, 0.25, 0.5, 1.0]  # few levels, so rows have plateaus and ties


@st.composite
def _sp_checks(draw):
    """A game of n = 0..9 agents and an ordering to check it along: None, a
    permutation of 1..n, or an invalid sequence. Each row is unimodal along
    the permutation (plateaus included), unimodal with a second bump, or
    arbitrary with NaN allowed."""
    n = draw(st.integers(0, 9))
    order = draw(st.permutations(range(1, n + 1)))
    choice = draw(st.sampled_from(["none", "permutation", "invalid"]))
    if choice == "none":
        order, ordering = list(range(1, n + 1)), None
    elif choice == "permutation":
        ordering = tuple(order)
    else:
        entry = st.one_of(
            st.integers(-1, n + 1), st.booleans(), st.floats(0, n + 1), st.text(max_size=1)
        )
        ordering = draw(st.one_of(st.lists(entry, max_size=n + 2), st.integers(0, 3)))
    level = st.sampled_from(LEVELS)
    table = []
    for _ in range(n):
        kind = draw(st.sampled_from(["unimodal", "bump", "arbitrary"]))
        if kind == "arbitrary":
            seq = draw(st.lists(st.sampled_from(LEVELS + [math.nan]), min_size=n, max_size=n))
        else:
            peak = draw(st.integers(0, n - 1))
            seq = sorted(draw(st.lists(level, min_size=peak, max_size=peak)))
            seq += sorted(draw(st.lists(level, min_size=n - peak, max_size=n - peak)), reverse=True)
            if kind == "bump":
                seq[draw(st.integers(0, n - 1))] = 2.0
        row = [0.0] * n
        for pos, s in enumerate(order):
            row[s - 1] = seq[pos]
        table.append(row)
    return AnonymousHG(table), ordering


class TestSinglePeaked:
    def test_distance_valley(self):
        vals = [[-abs(s - 3) for s in range(1, 6)] for _ in range(5)]
        assert check_single_peaked(AnonymousHG(vals)) == (1, 2, 3, 4, 5)

    def test_increasing_peaks_at_n(self):
        vals = [[float(s) for s in range(1, 5)] for _ in range(4)]
        assert check_single_peaked(AnonymousHG(vals)) == (1, 2, 3, 4)

    def test_two_maxima_rejected(self):
        g = AnonymousHG([[1.0, 0.0, 1.0]] * 3)
        with pytest.raises(ValueError, match=violation(0, 2, 3)):
            check_single_peaked(g)

    def test_custom_ordering(self):
        # values unimodal along ordering (2, 1, 3): v(2) < v(1) > v(3)
        g = AnonymousHG([[1.0, 0.5, 0.2]] * 3)
        assert check_single_peaked(g, ordering=[2, 1, 3]) == (2, 1, 3)
        with pytest.raises(ValueError, match=violation(0, 2, 3)):
            check_single_peaked(g, ordering=(2, 3, 1))

    def test_bad_ordering_rejected(self):
        g = AnonymousHG([[0.0, 0.0], [0.0, 0.0]])
        # a file's "sp_ordering" reaches here as read, so other JSON types must not slip by
        for ordering in [(1, 1), (1, "a"), (1.0, 2), (True, 2), ([1], 2)]:
            with pytest.raises(ValueError, match="permutation of the sizes"):
                check_single_peaked(g, ordering=ordering)

    @given(st.integers(3, 8), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_unimodal_accepted_double_bump_rejected(self, n, rng):
        peak = rng.randrange(1, n + 1)
        ranked = sorted(range(1, n + 1), key=lambda s: (abs(s - peak), rng.random()))
        levels = sorted((rng.random() for _ in range(n)), reverse=True)
        row = [0.0] * n
        for lv, s in zip(levels, ranked):
            row[s - 1] = lv
        good = AnonymousHG([row] * n)
        assert check_single_peaked(good) == tuple(range(1, n + 1))
        if n >= 3:
            # force two strict local maxima at the ends
            bumped = list(row)
            top = max(row) + 1
            bumped[0] = top
            bumped[-1] = top + 1
            argmax = row.index(max(row))
            if argmax not in (0, n - 1):
                with pytest.raises(ValueError, match="^not single-peaked: agent 0's"):
                    check_single_peaked(AnonymousHG([bumped] * n))

    @given(_sp_checks())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, case):
        # raises exactly where the reference finds a violation or refuses the
        # ordering, naming the same agent and positions; else its ordering
        game, ordering = case
        try:
            expected = reference_check_single_peaked(game, ordering)
        except (TypeError, ValueError):
            expected = None
        if isinstance(expected, ReferenceCertificate):
            assert check_single_peaked(game, ordering) == expected.ordering
        else:
            match = "permutation" if expected is None else violation(*dataclasses.astuple(expected))
            with pytest.raises(ValueError, match=match):
                check_single_peaked(game, ordering)


class TestGameConstruction:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            SimpleFHG.from_matrix([[1, 0], [0, 0]])

    def test_matrix_roundtrip(self):
        g = random_fhg(6, 0.4, 17)
        assert SimpleFHG.from_matrix(g.matrix()) == g

    def test_anonymous_square_required(self):
        with pytest.raises(ValueError):
            AnonymousHG([[0.1, 0.2], [0.3]])

    def test_degrees(self):
        g = SimpleFHG.from_matrix([[0, 1, 1], [0, 0, 0], [1, 0, 0]])
        assert g.degrees() == (2, 0, 1)
