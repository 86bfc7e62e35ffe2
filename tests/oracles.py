"""Independent oracles for cross-checking the library.

Everything here is deliberately written the slow, obvious way, sharing no
enumeration machinery with the package: plain nested loops, per-coalition
recomputation, and Fraction arithmetic. Keep it that way.
"""

import json
from fractions import Fraction
from math import comb


def members_of(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def naive_fhg_value(adj_rows, i, mask):
    """adj_rows: list of 0/1 lists. Average of i's arcs into the coalition."""
    members = members_of(mask)
    hit = sum(adj_rows[i][j] for j in members)
    return Fraction(hit, len(members))


def naive_fhg_blocking_count(adj_rows, block_lists):
    """Count core-blocking coalitions by direct double loop.

    block_lists: list of agent-id lists forming the partition.
    """
    n = len(adj_rows)
    current = {}
    for block in block_lists:
        bmask = 0
        for i in block:
            bmask |= 1 << i
        for i in block:
            current[i] = naive_fhg_value(adj_rows, i, bmask)
    count = 0
    for mask in range(1, 1 << n):
        ok = True
        for i in members_of(mask):
            if not naive_fhg_value(adj_rows, i, mask) > current[i]:
                ok = False
                break
        if ok:
            count += 1
    return count


def naive_anon_blocking_count(table, block_lists):
    """table[i][s-1] = value of size s. Direct double loop."""
    n = len(table)
    current = {}
    for block in block_lists:
        for i in block:
            current[i] = table[i][len(block) - 1]
    count = 0
    for mask in range(1, 1 << n):
        members = members_of(mask)
        s = len(members)
        if all(table[i][s - 1] > current[i] for i in members):
            count += 1
    return count


def anon_blocking_count_closed_form(table, block_lists):
    """Combinatorial count: sum over sizes s of C(#improvers at s, s).

    A coalition of size s blocks iff all its members strictly improve at s,
    so the size-s blockers are exactly the s-subsets of the improver set.
    """
    n = len(table)
    current = {}
    for block in block_lists:
        for i in block:
            current[i] = table[i][len(block) - 1]
    total = 0
    for s in range(1, n + 1):
        improvers = sum(1 for i in range(n) if table[i][s - 1] > current[i])
        total += comb(improvers, s)
    return total


def fhg_row_solutions(n, i, equations):
    """Every 0/1 out-neighbour mask of agent i that reproduces its samples.

    equations: (coalition mask, value) pairs for coalitions containing i,
    with exact (Fraction or int) values. Tries all 2^(n-1) masks with bit i
    clear and keeps those whose average over each coalition equals the value.
    """
    solutions = []
    for row in range(1 << n):
        if row >> i & 1:
            continue
        if all(
            Fraction(sum(row >> j & 1 for j in members_of(mask)), len(members_of(mask)))
            == Fraction(value)
            for mask, value in equations
        ):
            solutions.append(row)
    return solutions


def brute_point_masses(dist, n):
    """Point mass of every non-empty subset, via dist.point_mass."""
    from epsfc.games import Coalition

    return {mask: dist.point_mass(Coalition(mask)) for mask in range(1, 1 << n)}


# --- Independent step simulator of the two-branch fractional construction ---
#
# Follows the pseudocode rules directly on explicit Python sets, with the
# same clamped thresholds but none of the package's bookkeeping. Built before
# the package implementation and kept as the replay oracle for traces.


def simulate_fhg_construction(adj_rows, pool_size, loop_budget, degree_cut):
    n = len(adj_rows)
    degrees = [sum(row) for row in adj_rows]
    phi = sum(1 for d in degrees if d <= degree_cut)
    partition = [{i} for i in range(n)]  # agent -> her block (shared sets)

    def block_of(j):
        return partition[j]

    log = []
    gr = []
    if phi >= pool_size:
        branch = "matching"
        order = sorted(range(n), key=lambda i: (degrees[i], i))
        pool = order[:pool_size]
        for _ in range(loop_budget):
            if not pool:
                break
            i = pool[0]
            gr.append(i)
            d = degrees[i]
            want = 0
            if d > 0:
                want = (2 * d + (n - d) - 1) // (n - d)  # ceil
            neighbors = [j for j in range(n) if adj_rows[i][j]]
            singles_outside = [
                j for j in neighbors if len(block_of(j)) == 1 and j not in pool
            ]
            others = [j for j in neighbors if j not in singles_outside]
            chosen = (singles_outside + others)[:want]
            new_block = set(block_of(i))
            for j in chosen:
                new_block |= block_of(j)
            for a in new_block:
                partition[a] = new_block
            pool = [a for a in pool if a != i and a not in chosen]
            log.append((i, tuple(chosen)))
    else:
        branch = "clique"
        club = set(range(n))
        for _ in range(loop_budget):
            candidates = sorted(club - set(gr))
            if not candidates:
                break
            best = max(d for a, d in enumerate(degrees) if a in candidates)
            i = min(a for a in candidates if degrees[a] == best)
            dropped = sorted(a for a in club if a != i and not adj_rows[i][a])
            club -= set(dropped)
            gr.append(i)
            log.append((i, tuple(dropped)))
        blocks = [sorted(club)]
        rest = sorted(set(range(n)) - club)
        if rest:
            blocks.append(rest)
        return branch, phi, gr, log, blocks

    seen = []
    blocks = []
    for i in range(n):
        if not any(partition[i] is s for s in seen):
            seen.append(partition[i])
            blocks.append(sorted(partition[i]))
    return branch, phi, gr, log, blocks


def dict_keyed_sample_lines(records):
    """Sample-file text in the older layout, as its writer produced it.

    records: (mask, {agent: value}) pairs. Each line is
    {"S": [1-based agents], "v": {"agent": value}}, with json.dumps spacing
    and every non-JSON value (a Fraction) written as its str.
    """
    lines = []
    for mask, values in records:
        line = {"S": [i + 1 for i in members_of(mask)], "v": {str(i + 1): v for i, v in values.items()}}
        lines.append(json.dumps(line, default=str) + "\n")
    return "".join(lines)


def read_dict_keyed_samples(text):
    """(mask, {agent: value}) pairs from older-layout sample text, read the
    way its reader did: strings are exact Fractions, other numbers floats."""
    records = []
    for line in text.splitlines():
        if not line.strip():
            continue
        d = json.loads(line)
        mask = 0
        for a in d["S"]:
            mask |= 1 << (a - 1)
        values = {
            int(k) - 1: Fraction(v) if isinstance(v, str) else float(v) for k, v in d["v"].items()
        }
        records.append((mask, values))
    return records
