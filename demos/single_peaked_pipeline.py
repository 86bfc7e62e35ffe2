"""Walkthrough: the refined packing for single-peaked anonymous games.

Single-peakedness lets the packing pick its size by scanning peak positions
instead of counting votes, and yields structural guarantees a full census
can check: no blocker touches the at-peak agents in full blocks, no
window-sized blocker mixes the two off-peak camps, and window-sized
blockers number at most 2^(3n/4 + 1).

Run:  python demos/single_peaked_pipeline.py
"""

from epsfc import (
    UniformCoalitions,
    check_sp_lemmas,
    choose_epsilon_floor,
    exact_blocking,
    mean_size,
    random_anon_sp,
    size_interval,
    stabilize_single_peaked,
)

N = 12
EPS = 0.1
CEILING = 2 ** (3 * N / 4 + 1)  # the window-sized blocker bound the audit checks exactly

print(f"=== single-peaked packing, n={N} ===\n")
print(f"asymptotic floor for this class: {choose_epsilon_floor(N, 1, 'anon-sp'):.4g}\n")

dist = UniformCoalitions(N)
window = size_interval(float(mean_size(dist)), 1, EPS, N)
print(f"window from the true mean: ({window.lo:.2f}, {window.hi:.2f}), sizes {window.sizes}\n")

for seed in (1, 2, 3):
    game, ordering = random_anon_sp(N, seed)
    partition, trace = stabilize_single_peaked(game, ordering, window)
    print(f"seed {seed}:")
    print(f"  peaks            : {tuple(row.index(max(row)) + 1 for row in game.table())}")
    print(f"  chosen size s*   : {trace.s_star} (position {trace.h_star} of the window)")
    print(f"  camps (|<|,|=|,|>|): {len(trace.peaked_before)}, "
          f"{len(trace.peaked_at)}, {len(trace.peaked_after)}")
    report = exact_blocking(game, partition)
    audit = check_sp_lemmas(game, partition, window, trace)
    print(f"  blocking fraction: {float(report.fraction):.4f} "
          f"({audit.blockers_in_window} window-sized blockers, ceiling {CEILING:.0f})")
    print(f"  structural audit : {'all three lemmas hold' if audit.ok else audit}\n")
