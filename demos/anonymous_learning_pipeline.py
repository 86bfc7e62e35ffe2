"""Walkthrough: the full learning-then-stabilizing pipeline on anonymous games.

Nothing about the game is known up front: the pipeline samples coalitions
from a ratio-bounded distribution, tabulates exact per-size values, brackets
the mean coalition size, and packs agents into the most popular size inside
the high-probability window. Verification then compares the measured
blocking mass with the certified ceiling.

Run:  python demos/anonymous_learning_pipeline.py
"""

import random
from fractions import Fraction

from epsfc import (
    SizeTilted,
    anon_sample_size,
    audit_green_anonymous,
    bartlett_bounds,
    estimate_interval,
    exact_blocking_mass,
    iter_samples,
    learn_anonymous,
    lambda_of,
    mean_size,
    random_anon,
    stabilize_anonymous,
)

N = 12
EPS, DELTA = 0.25, 0.2
SEED = 2024

game = random_anon(N, SEED)  # hidden from the pipeline until verification
dist = SizeTilted(N, [1 + s / (N - 1) for s in range(N)])
lam = float(lambda_of(dist))
print(f"=== anonymous pipeline: n={N}, eps={EPS}, delta={DELTA}, lambda={lam:g} ===\n")

m = anon_sample_size(N, DELTA, EPS, lam)
print(f"sample budget for exact window learning: m = {m}")
rng = random.Random(SEED)
samples = iter_samples(game, dist, m, rng)  # drawn lazily, folded as they come

learned = learn_anonymous(N, samples)
known = sum(sum(row) for row in learned.known_table())
print(f"learned {known}/{N * N} (agent, size) values; mean size estimate {learned.mu_hat:.3f}"
      f" (true {float(mean_size(dist)):.3f})")

window = estimate_interval(learned, lam, EPS)
print(f"size window: ({window.lo:.2f}, {window.hi:.2f}) -> sizes {window.sizes}\n")

partition, trace = stabilize_anonymous(learned, window)
print(f"most popular window size: {trace.s_star} -> {trace.q} full blocks + remainder {trace.r}")
print(f"block sizes: {sorted(b.size for b in partition.blocks)}")

green = audit_green_anonymous(game, partition, window)
print(f"agents at their window optimum: {len(green)} of {N}: {green}\n")

mass = exact_blocking_mass(game, partition, dist)
pmf = dist.size_pmf()
outside = sum((pmf[s] for s in range(1, N + 1) if s not in window), Fraction(0))
_, tail = bartlett_bounds(Fraction(1, 2 ** len(green)), lambda_of(dist))
print(f"exact blocking mass : {float(mass):.5f}")
print(f"certified ceiling   : P(size outside window) + ratio tail"
      f" = {float(outside):.5f} + {float(tail):.5f} = {float(outside + tail):.5f}")
assert mass <= outside + tail
print("ceiling holds.")
