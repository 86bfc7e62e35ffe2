import random

import pytest

from epsfc import (
    AnonymousHG,
    Coalition,
    Partition,
    adversarial_family,
    certify_empty_core,
    check_single_peaked,
    extend_anon_sp,
    extend_fhg,
    find_empty_core_sp,
    random_anon,
    random_anon_sp,
    random_fhg,
    random_partition,
)
from epsfc.errors import GuardError
from oracles import reference_random_anon_sp


class TestRandomFhg:
    def test_extremes(self):
        g1 = random_fhg(6, 1.0, 0)
        assert g1.degrees() == (5,) * 6
        g0 = random_fhg(6, 0.0, 0)
        assert g0.degrees() == (0,) * 6

    def test_seed_reproducible(self):
        assert random_fhg(10, 0.37, 123) == random_fhg(10, 0.37, 123)
        assert random_fhg(10, 0.37, 123) != random_fhg(10, 0.37, 124)

    def test_p_validated(self):
        with pytest.raises(ValueError):
            random_fhg(5, 1.5, 0)


@pytest.mark.parametrize("n", [0, -2])
@pytest.mark.parametrize(
    "make",
    [lambda n: random_fhg(n, 0.5, 0), lambda n: random_anon(n, 0), lambda n: random_anon_sp(n, 0)],
    ids=["fhg", "anon", "anon_sp"],
)
def test_random_games_need_an_agent(make, n):
    with pytest.raises(ValueError, match="^need at least one agent$"):
        make(n)
    make(1)


def peaks_of(game):
    """Each agent's peak size, read from the table."""
    return tuple(row.index(max(row)) + 1 for row in game.table())


class TestRandomAnonSp:
    def test_trivial_n1(self):
        g, ordering = random_anon_sp(1, 0)
        assert g.n == 1 and ordering == (1,) and peaks_of(g) == (1,)

    def test_always_certified(self):
        rng = random.Random(1)
        for _ in range(40):
            n = rng.randrange(2, 12)
            g, ordering = random_anon_sp(n, rng.getrandbits(32))
            assert check_single_peaked(g) == ordering == tuple(range(1, n + 1))

    def test_values_decrease_away_from_peak(self):
        g, _ = random_anon_sp(9, 5)
        for i, p in enumerate(peaks_of(g)):
            row = [g.value_of_size(i, s) for s in range(1, 10)]
            left = row[: p - 1] + [row[p - 1]]
            right = row[p - 1 :]
            assert left == sorted(left)
            assert right == sorted(right, reverse=True)
            assert len(set(row)) == 9  # distinct values

    def test_peaks_vary_across_seeds(self):
        peaks = {peaks_of(random_anon_sp(7, seed)[0]) for seed in range(30)}
        assert len(peaks) > 10

    @pytest.mark.parametrize("n", range(1, 25))
    def test_stream_matches_randrange_and_shuffle(self, n):
        for seed in range(20):
            expected = reference_random_anon_sp(n, random.Random(seed))
            game, ordering = random_anon_sp(n, seed)
            assert game.table() == expected and ordering == tuple(range(1, n + 1))
            ours, theirs = random.Random(seed), random.Random(seed)
            game, ordering = random_anon_sp(n, ours)
            assert game.table() == reference_random_anon_sp(n, theirs) == expected
            assert ordering == tuple(range(1, n + 1))
            assert ours.random() == theirs.random()


class TestRandomPartition:
    def test_valid_and_seeded(self):
        for seed in range(20):
            p = random_partition(9, seed)
            assert Partition(p.blocks, 9) == p
        assert random_partition(9, 5) == random_partition(9, 5)


class TestExtendFhg:
    def test_block_structure(self):
        base = random_fhg(5, 0.6, 9)
        ext = extend_fhg(base, 9)
        # base rows preserved, no cross arcs
        for i in range(5):
            assert ext.adj_masks[i] == base.adj_masks[i]
        for i in range(5, 9):
            assert ext.adj_masks[i] & 0b11111 == 0
            assert ext.degrees()[i] == 3
        for i in range(5):
            assert ext.adj_masks[i] >> 5 == 0

    def test_complete_base_gives_two_cliques(self):
        base = random_fhg(4, 1.0, 0)
        ext = extend_fhg(base, 7)
        assert ext.degrees()[0] == 3 and ext.degrees()[6] == 2

    def test_size_check(self):
        base = random_fhg(4, 0.5, 0)
        with pytest.raises(ValueError):
            extend_fhg(base, 4)


class TestExtendAnonSp:
    def test_preserves_base_values_and_certifies(self):
        base, _ = random_anon_sp(5, 31)
        ext, ordering = extend_anon_sp(base, 8)
        assert check_single_peaked(ext) == ordering == tuple(range(1, 9))
        for i in range(5):
            for s in range(1, 6):
                assert ext.value_of_size(i, s) == base.value_of_size(i, s)
            floor = min(base.value_of_size(i, s) for s in range(1, 6))
            tail = [ext.value_of_size(i, s) for s in range(6, 9)]
            assert all(v < floor for v in tail)
            assert tail == sorted(tail, reverse=True)

    def test_new_agents_peak_at_n(self):
        base, _ = random_anon_sp(4, 7)
        ext, _ = extend_anon_sp(base, 9)
        assert peaks_of(ext)[4:] == (9,) * 5

    def test_non_sp_base_rejected(self):
        bad = AnonymousHG([[1.0, 0.0, 1.0]] * 3)
        with pytest.raises(ValueError, match="agent 0's value .* from position 2 to 3$"):
            extend_anon_sp(bad, 5)


class TestAdversarialFamily:
    def test_counts(self):
        fam = adversarial_family(9, 7)
        assert len(fam) == 2**7 - 1 + 1
        assert all(c.size >= 1 for c in fam)
        assert Coalition.of(7, 8) in fam

    def test_family_masks_distinct(self):
        fam = adversarial_family(6, 3)
        assert len({c.mask for c in fam}) == len(fam)

    def test_guard(self, monkeypatch):
        monkeypatch.setenv("EPSFC_MAX_N", "5")
        with pytest.raises(GuardError):
            adversarial_family(10, 6)

    def test_bounds_check(self):
        with pytest.raises(ValueError):
            adversarial_family(5, 5)


class TestFindEmptyCore:
    def test_small_budget_runs(self):
        result = find_empty_core_sp(n=5, max_attempts=50, seed=0)
        assert result.attempts <= 50
        if result.found:
            assert certify_empty_core(result.game)
            assert check_single_peaked(result.game) == tuple(range(1, 6))

    def test_found_instances_verify(self):
        # any hit must pass the certified sweep and the unimodality check
        result = find_empty_core_sp(n=6, max_attempts=200, seed=3)
        if result.found:
            assert certify_empty_core(result.game)
            assert check_single_peaked(result.game) == tuple(range(1, 7))

    def test_n_limited(self, monkeypatch):
        # only the Bell guard bounds the search (12 by default)
        monkeypatch.delenv("EPSFC_MAX_N", raising=False)
        with pytest.raises(GuardError):
            find_empty_core_sp(n=13, max_attempts=1, seed=0)

    def test_runs_above_ten(self, monkeypatch):
        monkeypatch.delenv("EPSFC_MAX_N", raising=False)
        result = find_empty_core_sp(n=11, max_attempts=1, seed=0)
        assert result.attempts == 1
        if result.found:
            assert certify_empty_core(result.game)
