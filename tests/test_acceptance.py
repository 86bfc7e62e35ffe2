"""Acceptance criteria A1-A12.

Each test prints one PASS/FAIL line (run with -s to stream them). Budgets
and tolerances are pinned here, not tuned elsewhere. A10 is implemented
faithfully and expected to fail: the base-7 extension to n=9 provably
cannot keep the always-blocking family property (see the A10 test body);
the strict xfail keeps that failure visible without masking it.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from epsfc import (
    Coalition,
    FamilyUniform,
    LearningError,
    Partition,
    SizeTilted,
    UniformCoalitions,
    adversarial_family,
    anon_sample_size,
    audit_green_anonymous,
    bartlett_bounds,
    certify_empty_core,
    check_sp_lemmas,
    draw_samples,
    estimate_interval,
    exact_blocking,
    exact_blocking_mass,
    extend_anon_sp,
    fhg_sample_size,
    find_empty_core_sp,
    learn_anonymous,
    learn_fhg,
    mc_blocking,
    mean_size,
    random_anon,
    random_anon_sp,
    random_fhg,
    random_partition,
    size_interval,
    stabilize_anonymous,
    stabilize_fhg,
    stabilize_single_peaked,
)
from epsfc.verification import (
    blocker_predicate,
    iter_set_partitions,
    partition_from_assignment,
)
from oracles import naive_fhg_blocking_count


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds
        self.start = time.perf_counter()

    def done(self, ok, detail=""):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok else "FAIL"
        print(f"[{self.name}] {status} ({elapsed:.1f}s / budget {self.seconds}s) {detail}")
        assert elapsed < self.seconds, f"{self.name} exceeded its {self.seconds}s budget"
        return ok


def test_a1_oracle_equivalence():
    budget = Budget("A1 oracle equivalence", 10)
    densities = (0.2, 0.5, 0.8)
    mismatches = 0
    for k in range(50):
        game = random_fhg(12, densities[k % 3], seed=1000 + k)
        partition = random_partition(12, seed=2000 + k)
        report = exact_blocking(game, partition)
        naive = naive_fhg_blocking_count(
            game.matrix(), [sorted(b.members()) for b in partition.blocks]
        )
        if report.fraction != Fraction(naive, 2**12 - 1):
            mismatches += 1
    ok = budget.done(mismatches == 0, f"{50 - mismatches}/50 exact matches")
    assert ok


def test_a2_mc_calibration():
    budget = Budget("A2 MC calibration", 30)
    contained = 0
    for k in range(20):
        game = random_fhg(12, (0.3, 0.5, 0.7)[k % 3], seed=3000 + k)
        partition = random_partition(12, seed=4000 + k)
        dist = UniformCoalitions(12)
        exact = float(exact_blocking_mass(game, partition, dist))
        est = mc_blocking(game, partition, dist, m=100_000, delta=0.01, rng=random.Random(5000 + k))
        if abs(est.p_hat - exact) <= est.ci_halfwidth:
            contained += 1
    ok = budget.done(contained >= 19, f"{contained}/20 CIs contain the exact mass")
    assert ok


def test_a3_learning_rate():
    budget = Budget("A3 learning rate", 60)
    n, delta = 10, 0.1
    m = fhg_sample_size(n, delta)
    assert m == 114
    hits = 0
    for trial in range(200):
        rng = random.Random(6000 + trial)
        game = random_fhg(n, (0.2, 0.5, 0.8)[trial % 3], rng.getrandbits(48))
        samples = draw_samples(game, UniformCoalitions(n), m, rng)
        try:
            if learn_fhg(n, samples) == game:
                hits += 1
        except LearningError:
            pass
    ok = budget.done(hits >= 170, f"{hits}/200 exact recoveries (target >= 170)")
    assert ok


def test_a4_ratio_bound_sandwich():
    budget = Budget("A4 ratio-bound sandwich", 10)
    n = 12
    rng = random.Random(97)
    predicates = []
    for _ in range(10):
        size_set = {s for s in range(1, n + 1) if rng.random() < 0.5} or {rng.randrange(1, n + 1)}
        required = rng.randrange(1 << n) & rng.randrange(1 << n)  # sparse
        forbidden = rng.randrange(1 << n) & rng.randrange(1 << n) & ~required
        predicates.append((size_set, required, forbidden))
    violations = 0
    checked = 0
    tol = Fraction(1, 1 << n)
    for lam_weights in ([1] * n, [2] + [1] * (n - 1), [5] + [1] * (n - 1)):
        dist = SizeTilted(n, lam_weights)
        lam = dist.lambda_bound()
        for size_set, required, forbidden in predicates:
            count_by_size = [0] * (n + 1)
            for mask in range(1, 1 << n):
                if (
                    mask.bit_count() in size_set
                    and mask & required == required
                    and mask & forbidden == 0
                ):
                    count_by_size[mask.bit_count()] += 1
            family_size = sum(count_by_size)
            a = Fraction(family_size, 1 << n)
            mass = sum(
                (count_by_size[s] * dist.unit_mass_of_size(s) for s in range(1, n + 1)),
                Fraction(0),
            )
            lo, hi = bartlett_bounds(a, lam)
            checked += 1
            if not (lo - tol <= mass <= hi + tol):
                violations += 1
    ok = budget.done(violations == 0, f"{checked} family/tilt pairs within bounds")
    assert ok


def test_a5_size_window_tail():
    budget = Budget("A5 size-window tail", 10)
    n, eps, lam = 100, 0.1, 2
    dist = SizeTilted(n, [1 + s / (n - 1) for s in range(n)])
    assert dist.lambda_bound() == 2
    mu = mean_size(dist)
    lo_bound, hi_bound = Fraction(n, 3), Fraction(2 * n, 3)
    mean_ok = lo_bound <= mu <= hi_bound
    window = size_interval(float(mu), lam, eps, n)
    rng = random.Random(31337)
    m = 100_000
    outside = sum(1 for _ in range(m) if dist.sample(rng).size not in window)
    rate = outside / m
    ok = budget.done(
        rate <= 0.05 + 0.01 and mean_ok,
        f"empirical out-of-window rate {rate:.4f} <= 0.06; mean {float(mu):.2f} in [{float(lo_bound):.1f}, {float(hi_bound):.1f}]",
    )
    assert ok


def test_a6_fhg_stabilizer_structure():
    budget = Budget("A6 stabilizer structure", 5)
    failures = []
    for k in range(100):
        n = 8 + k % 13
        game = random_fhg(n, (0.2, 0.4, 0.6, 0.8)[k % 4], seed=7000 + k)
        partition, trace = stabilize_fhg(game)
        again, trace_again = stabilize_fhg(game)
        if partition.n != n:  # a Partition is a disjoint cover of [0, partition.n)
            failures.append((k, "invalid partition"))
        if (partition, trace) != (again, trace_again):
            failures.append((k, "nondeterministic"))
        if trace.branch == "clique":
            club = (1 << n) - 1
            for it in trace.iterations:
                for a in it.removed:
                    club &= ~(1 << a)
            for i in trace.gr:
                others = club & ~(1 << i)
                if game.adj_masks[i] & others != others:
                    failures.append((k, f"gr agent {i} missing club arc"))
        else:
            for it in trace.iterations:
                d = game.degrees()[it.agent]
                want = 0 if d == 0 else math.ceil(2 * d / (n - d))
                if len(it.partners) != min(want, d):
                    failures.append((k, f"partner count off for {it.agent}"))
                if any(not game.adj_masks[it.agent] >> j & 1 for j in it.partners):
                    failures.append((k, f"non-neighbor partner for {it.agent}"))
                block = partition.block_of(it.agent)
                if any(j not in block for j in it.partners):
                    failures.append((k, "partners not merged"))
    ok = budget.done(not failures, f"100 games, first issues: {failures[:3]}")
    assert ok


def test_a7_pigeonhole_greens():
    budget = Budget("A7 pigeonhole greens", 5)
    n, eps = 20, 0.1
    dist = UniformCoalitions(n)
    window = size_interval(float(mean_size(dist)), 1, eps, n)
    threshold = math.ceil(n / len(window.sizes))
    bad = 0
    for k in range(100):
        game = random_anon(n, seed=8000 + k)
        partition, trace = stabilize_anonymous(game, window)
        green = audit_green_anonymous(game, partition, window)
        if tuple(green) != trace.green_agents or len(green) < threshold:
            bad += 1
    ok = budget.done(bad == 0, f"100 games with >= {threshold} audited greens")
    assert ok


def test_a8_single_peaked_lemmas():
    budget = Budget("A8 single-peaked lemmas", 60)
    n, eps = 12, 0.1
    dist = UniformCoalitions(n)
    window = size_interval(float(mean_size(dist)), 1, eps, n)
    bad = []
    for k in range(50):
        game, ordering = random_anon_sp(n, seed=9000 + k)
        partition, trace = stabilize_single_peaked(game, ordering, window)
        report = check_sp_lemmas(game, partition, window, trace)
        if not report.ok:
            bad.append((k, report))
    ok = budget.done(not bad, f"50 instances, all three lemmas by full enumeration")
    assert ok


# A9/A10 share the searched instance.
_SEARCH_CACHE = {}


def _searched_instance():
    if "result" not in _SEARCH_CACHE:
        _SEARCH_CACHE["result"] = find_empty_core_sp(n=7, max_attempts=100_000, seed=0)
    return _SEARCH_CACHE["result"]


def test_a9_empty_core_discovery():
    budget = Budget("A9 empty-core discovery", 600)
    result = _searched_instance()
    if not result.found:
        budget.done(True, f"not found after {result.attempts} attempts; passing vacuously, A10 skipped")
        return
    confirmed = certify_empty_core(result.game)
    peaks = tuple(row.index(max(row)) + 1 for row in result.game.table())
    ok = budget.done(
        confirmed,
        f"found at attempt {result.attempts}; certified empty-core by the block-size search (no core-stable size assignment); peaks {peaks}",
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "reduced-scale defect: extending the 7-agent A9 base to n = 9 loses the "
        "always-blocking family property. 298 of the 21,147 partitions of the "
        "extended base have family blocking mass 0, not > 1/2^7, for example "
        "[[0, 1, 2, 3, 4], [5, 7, 8], [6]]; each of them has a block that mixes "
        "base agents with newcomers. The strict floor fails at n = 15 too: "
        "test_a10_family_mass_floor_is_not_strict_at_n15 pins a partition whose "
        "mass is exactly 1/2^7."
    ),
)
def test_a10_impossibility_number():
    budget = Budget("A10 impossibility number", 900)
    result = _searched_instance()
    if not result.found:
        pytest.skip("A9 found no instance; A10 skipped per its statement")
    extended, _ = extend_anon_sp(result.game, 9)
    family = adversarial_family(9, 7)
    dist = FamilyUniform(family, n=9)
    floor = Fraction(1, 2**7)

    random_ok = True
    worst_random = None
    for seed in range(1000):
        partition = random_partition(9, seed)
        mass = exact_blocking_mass(extended, partition, dist)
        if worst_random is None or mass < worst_random:
            worst_random = mass
        if not mass > floor:
            random_ok = False

    sweep_ok = True
    witness = None
    worst_sweep = None
    for assignment in iter_set_partitions(9):
        partition = partition_from_assignment(assignment, 9)
        pred = blocker_predicate(extended, partition)
        hits = sum(1 for c in family if pred(c.mask))
        mass = Fraction(hits, len(family))
        if worst_sweep is None or mass < worst_sweep:
            worst_sweep = mass
            witness = [sorted(b.members()) for b in partition.blocks]
        if not mass > floor:
            sweep_ok = False

    ok = budget.done(
        random_ok and sweep_ok,
        f"min mass: random {worst_random}, sweep {worst_sweep} at {witness} (floor {floor})",
    )
    assert ok


def test_a10_scale_extension_keeps_empty_core(monkeypatch):
    """At n = 2*7 + 1 = 15 the extended A9 base still has an empty core.
    Bell(15) = 1.38e9 partitions are out of a sweep's reach; the block-size
    search certifies it. This says nothing of A10's family mass floor there
    (see the next test)."""
    result = _searched_instance()
    if not result.found:
        pytest.skip("A9 found no instance")
    monkeypatch.setenv("EPSFC_MAX_N", "15")
    budget = Budget("A10 scale: empty core at n = 15", 5)
    extended, _ = extend_anon_sp(result.game, 15)
    ok = budget.done(certify_empty_core(extended), "extended A9 base to n = 15")
    assert ok


def test_a10_family_mass_floor_is_not_strict_at_n15(monkeypatch):
    """At n = 15 a partition of the extended A9 base meets A10's family floor
    exactly, so the strict "mass > 1/2^7" fails there too: the extension
    does not become sound at n = 15."""
    result = _searched_instance()
    if not result.found:
        pytest.skip("A9 found no instance")
    monkeypatch.setenv("EPSFC_MAX_N", "15")
    extended, _ = extend_anon_sp(result.game, 15)
    dist = FamilyUniform(adversarial_family(15, 7), n=15)
    blocks = [[0], [6], [7], [8], [9], [10], [1, 11], [2, 3, 5], [4, 12, 13, 14]]
    partition = Partition(blocks, 15)
    assert exact_blocking_mass(extended, partition, dist) == Fraction(1, 2**7)


def test_a11_green_count_decomposition():
    budget = Budget("A11 green-count decomposition", 60)
    n, eps, lam = 14, 0.1, 1
    dist = UniformCoalitions(n)
    window = size_interval(float(mean_size(dist)), lam, eps, n)
    pmf = dist.size_pmf()
    outside = sum((pmf[s] for s in range(1, n + 1) if s not in window), Fraction(0))
    bad = 0
    for k in range(20):
        game = random_anon(n, seed=11000 + k)
        partition, _ = stabilize_anonymous(game, window)
        green = audit_green_anonymous(game, partition, window)
        mass = exact_blocking_mass(game, partition, dist)
        _, hi = bartlett_bounds(Fraction(1, 2 ** len(green)), Fraction(lam))
        if not mass <= outside + hi:
            bad += 1
    ok = budget.done(bad == 0, "20 instances: exact mass <= outside-window + ratio tail")
    assert ok


def test_a12_pipeline_end_to_end():
    budget = Budget("A12 end-to-end pipeline", 600)
    n, eps, delta, lam = 10, 0.2, 0.2, 1
    m = anon_sample_size(n, delta, eps, lam)
    dist = UniformCoalitions(n)
    pmf = dist.size_pmf()
    successes = 0
    for run in range(50):
        rng = random.Random(12000 + run)
        game, ordering = random_anon_sp(n, rng.getrandbits(48))
        try:
            learned = learn_anonymous(n, draw_samples(game, dist, m, rng))
            window = estimate_interval(learned, lam, eps)
            partition, _ = stabilize_single_peaked(learned, ordering, window)
        except LearningError:
            continue
        fraction = exact_blocking(game, partition).fraction
        green = audit_green_anonymous(game, partition, window)
        outside = sum((pmf[s] for s in range(1, n + 1) if s not in window), Fraction(0))
        _, hi = bartlett_bounds(Fraction(1, 2 ** len(green)), Fraction(lam))
        if fraction <= outside + hi:
            successes += 1
    ok = budget.done(successes >= 40, f"{successes}/50 runs met the certified ceiling")
    assert ok
