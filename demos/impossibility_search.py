"""Walkthrough: adversarial distributions defeat every partition.

An empty-core base instance can be embedded into a larger population so
that one small coalition family always contains a blocker; concentrating a
distribution on that family then caps how stable any partition can be.
This script searches for an empty-core single-peaked base, extends it, and
measures the blocking-mass floor over many partitions.

Run:  python demos/impossibility_search.py  [attempts]
"""

import sys
from fractions import Fraction

from epsfc import (
    AdversarialBounded,
    FamilyUniform,
    Partition,
    adversarial_family,
    certify_empty_core,
    exact_blocking_mass,
    extend_anon_sp,
    find_empty_core_sp,
    random_partition,
)

attempts = int(sys.argv[1]) if len(sys.argv) > 1 else 50_000
print(f"=== searching {attempts} random single-peaked 7-agent instances ===")
result = find_empty_core_sp(n=7, max_attempts=attempts, seed=11)
if not result.found:
    print(f"no empty-core instance after {result.attempts} attempts; "
          "enlarge the budget or change the seed")
    sys.exit(0)

print(f"empty core found at attempt {result.attempts}")
print(f"peaks: {tuple(row.index(max(row)) + 1 for row in result.game.table())}")
assert certify_empty_core(result.game)

BASE_N, N = 7, 9
extended, _ = extend_anon_sp(result.game, N)
family = adversarial_family(N, BASE_N)
print(f"\nextended to n={N}; adversarial family holds {len(family)} coalitions")

dist = FamilyUniform(family, n=N)
floor = Fraction(1, 2**BASE_N)
worst = None
worst_partition = None
for seed in range(1000):
    partition = random_partition(N, seed)
    mass = exact_blocking_mass(extended, partition, dist)
    if worst is None or mass < worst:
        worst, worst_partition = mass, partition
print(f"family-uniform blocking mass over 1000 random partitions: "
      f"min {worst} (target floor {floor})")

if worst <= floor:
    blocks = [sorted(i + 1 for i in b.members()) for b in worst_partition.blocks]
    print(f"""
scale artifact on display: partition {blocks} beats the family.
Blocks mixing base agents with newcomers land at sizes in
[{N - BASE_N}, {BASE_N}]: not large enough to force a base agent into a
singleton deviation, yet at least as large as the newcomers' own block of
size {N - BASE_N}, which they (preferring bigger coalitions) then decline. The
embedding argument needs that size gap to be empty, i.e. n >= {2 * BASE_N + 1}.
Among partitions that keep the newcomers together as one block the family
always contains a blocker, because the base instance's empty core applies:""")
    worst_kept = None
    for seed in range(1000):
        base_partition = random_partition(BASE_N, seed)
        blocks = [list(b.members()) for b in base_partition.blocks]
        blocks.append(range(BASE_N, N))
        lifted = Partition(blocks, N)
        mass = exact_blocking_mass(extended, lifted, dist)
        worst_kept = mass if worst_kept is None else min(worst_kept, mass)
    print(f"  min mass over 1000 newcomer-respecting partitions: {worst_kept}"
          f" >= {floor}, so every eps <= {floor} is defeated there")

for lam in (2, 10):
    bd = AdversarialBounded(family, N, lam)
    worst_b = min(
        exact_blocking_mass(extended, random_partition(N, seed), bd)
        for seed in range(200)
    )
    implied = Fraction(lam, len(family) * (lam - 1) + 2**N - 1)
    print(f"ratio-bounded lambda={lam}: min mass {float(worst_b):.6f} "
          f"(single-coalition mass {float(implied):.6f})")
