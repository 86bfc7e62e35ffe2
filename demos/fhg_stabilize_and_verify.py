"""Walkthrough: fractional games, the two-branch stabilizer, and verification.

Builds random directed graphs across densities, runs the degree-driven
construction, and measures how rarely random coalitions core-block the
result, both by exact census and by Monte Carlo.

Run:  python demos/fhg_stabilize_and_verify.py
"""

import random
from fractions import Fraction

from epsfc import (
    Partition,
    UniformCoalitions,
    choose_epsilon_floor,
    exact_blocking,
    gr_decomposition,
    mc_blocking,
    random_fhg,
    stabilize_fhg,
)

N = 14
DENSITIES = (0.15, 0.5, 0.9)

print(f"=== stabilizing random fractional games, n={N} ===\n")
print(f"asymptotic blocking floor for this class: "
      f"{choose_epsilon_floor(N, 1, 'fhg'):.3g} (vacuous at desk scale)\n")

for p in DENSITIES:
    game = random_fhg(N, p, seed=int(p * 100))
    partition, trace = stabilize_fhg(game)
    report = exact_blocking(game, partition, dist=UniformCoalitions(N))
    baseline = exact_blocking(game, Partition.singletons(N))
    print(f"arc density {p}:")
    print(f"  branch taken       : {trace.branch} (low-degree count phi={trace.phi})")
    print(f"  guaranteed agents  : {trace.gr}")
    print(f"  blocks             : {sorted(len(b) for b in partition.blocks)}")
    print(f"  blocking fraction  : {report.fraction} = {float(report.fraction):.4f}")
    print(f"  singleton baseline : {float(baseline.fraction):.4f}")

    # exact decomposition around the guaranteed agents
    dec = gr_decomposition(game, partition, trace.gr)
    avoid = Fraction(dec.avoiding_gr, dec.total_coalitions)
    meet = Fraction(dec.blockers_meeting, dec.total_coalitions)
    print(f"  census split       : fraction <= P(miss guaranteed)={float(avoid):.4f}"
          f" + blockers-meeting={float(meet):.4f}")

    rng = random.Random(7)
    est = mc_blocking(game, partition, UniformCoalitions(N), m=50_000, delta=0.01, rng=rng)
    print(f"  monte carlo        : p_hat={est.p_hat:.4f} +- {est.ci_halfwidth:.4f}"
          f" (exact {float(report.fraction):.4f})\n")
