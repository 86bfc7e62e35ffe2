"""Independent oracles for cross-checking the library.

Everything here is deliberately written the slow, obvious way, sharing no
enumeration machinery with the package: plain nested loops, per-coalition
recomputation, and Fraction arithmetic. Keep it that way.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Sequence


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


def naive_fhg_blocks(adj_rows, block_lists, mask):
    """Whether the non-empty coalition ``mask`` core-blocks: each member's value
    of it, recomputed from the adjacency rows, beats her value of her block."""
    for block in block_lists:
        bmask = sum(1 << i for i in block)
        for i in block:
            if mask >> i & 1:
                if not naive_fhg_value(adj_rows, i, mask) > naive_fhg_value(adj_rows, i, bmask):
                    return False
    return True


def naive_anon_blocks(table, block_lists, mask):
    """As ``naive_fhg_blocks``, with table[i][s-1] the value of size s."""
    s = len(members_of(mask))
    for block in block_lists:
        for i in block:
            if mask >> i & 1 and not table[i][s - 1] > table[i][len(block) - 1]:
                return False
    return True


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
    starved = False  # the pool or the candidate club ran dry before the budget
    if phi >= pool_size:
        branch = "matching"
        order = sorted(range(n), key=lambda i: (degrees[i], i))
        pool = order[:pool_size]
        for _ in range(loop_budget):
            if not pool:
                starved = True
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
                starved = True
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
        return branch, phi, gr, log, blocks, starved

    seen = []
    blocks = []
    for i in range(n):
        if not any(partition[i] is s for s in seen):
            seen.append(partition[i])
            blocks.append(sorted(partition[i]))
    return branch, phi, gr, log, blocks, starved


# --- Reference preferred-size packers for anonymous games ---
#
# The packers as first written: the window normalised by hand, restricted
# peaks found by a strict-improvement scan, sizes tallied in a dict and the
# single-peaked position h* found by a counting loop. ``view`` needs only n
# and value_of_size(i, s). Each returns the blocks as masks in
# output order and the trace as the dict dataclasses.asdict gives for the
# package's AnonStabilizerTrace.


def _reference_window(view, interval):
    sizes = tuple(sorted(getattr(interval, "sizes", interval)))
    assert sizes, "empty size window"
    return sizes


def _reference_peak(view, i, sizes):
    best_s = sizes[0]
    best_v = view.value_of_size(i, best_s)
    for s in sizes[1:]:
        v = view.value_of_size(i, s)
        if v > best_v:
            best_s, best_v = s, v
    return best_s


def _reference_fill(ordered, s_star, n):
    q, r = divmod(n, s_star)
    blocks = [ordered[k * s_star : (k + 1) * s_star] for k in range(q)]
    if r:
        blocks.append(ordered[q * s_star :])
    masks = [sum(1 << i for i in block) for block in blocks]
    size_of = {i: len(block) for block in blocks for i in block}
    return masks, size_of, q, r


def _reference_green(view, size_of, sizes):
    green = []
    for i in range(view.n):
        top = max(view.value_of_size(i, s) for s in sizes)
        s = size_of[i]
        if s in sizes and view.value_of_size(i, s) == top:
            green.append(i)
    return tuple(green)


_SP_FIELDS = (
    "ordered_sizes", "h_star", "peaked_before", "peaked_at", "peaked_after",
    "before_in_star", "at_in_star", "after_in_star",
)


def reference_stabilize_anonymous(view, interval):
    sizes = _reference_window(view, interval)
    n = view.n
    peaks = [_reference_peak(view, i, sizes) for i in range(n)]
    counts = {s: 0 for s in sizes}
    for p in peaks:
        counts[p] += 1
    s_star = max(sizes, key=lambda s: (counts[s], -s))
    ordered = [i for i in range(n) if peaks[i] == s_star] + [
        i for i in range(n) if peaks[i] != s_star
    ]
    masks, size_of, q, r = _reference_fill(ordered, s_star, n)
    trace = {
        "sizes": sizes, "s_star": s_star, "q": q, "r": r,
        "green_agents": _reference_green(view, size_of, sizes),
    }
    trace.update(dict.fromkeys(_SP_FIELDS))
    return masks, trace


def reference_stabilize_single_peaked(view, ordering, interval):
    sizes = _reference_window(view, interval)
    n = view.n
    by_position = tuple(s for s in ordering if s in set(sizes))
    position_of = {s: h for h, s in enumerate(by_position)}
    peak_pos = [position_of[_reference_peak(view, i, sizes)] for i in range(n)]
    k = len(by_position)
    # highest position h with |{i : peak position < h}| <= n/2
    h_star = 0
    before = 0
    counts_at = [0] * k
    for p in peak_pos:
        counts_at[p] += 1
    for h in range(k):
        if h > 0:
            before += counts_at[h - 1]
        if 2 * before <= n:
            h_star = h
    s_star = by_position[h_star]
    peaked_before = tuple(i for i in range(n) if peak_pos[i] < h_star)
    peaked_at = tuple(i for i in range(n) if peak_pos[i] == h_star)
    peaked_after = tuple(i for i in range(n) if peak_pos[i] > h_star)
    ordered = list(peaked_at) + [i for i in range(n) if i not in peaked_at]
    masks, size_of, q, r = _reference_fill(ordered, s_star, n)
    in_star = {i for i in range(n) if size_of[i] == s_star}
    trace = {
        "sizes": sizes, "s_star": s_star, "q": q, "r": r,
        "green_agents": _reference_green(view, size_of, sizes),
        "ordered_sizes": by_position,
        "h_star": h_star,
        "peaked_before": peaked_before,
        "peaked_at": peaked_at,
        "peaked_after": peaked_after,
        "before_in_star": tuple(i for i in peaked_before if i in in_star),
        "at_in_star": tuple(i for i in peaked_at if i in in_star),
        "after_in_star": tuple(i for i in peaked_after if i in in_star),
    }
    return masks, trace



# The single-peakedness check as it stood when it returned one of two result
# types, kept verbatim (its two types renamed) to cross-check the
# tuple-or-raise ``check_single_peaked`` that replaced it.


@dataclass(frozen=True)
class ReferenceCertificate:
    """Witness that valuations are unimodal along ``ordering``.

    ``ordering`` lists the sizes 1..n in the certified order; ``peaks[i]`` is
    the size (not position) at which agent i's valuation peaks.
    """

    ordering: tuple[int, ...]
    peaks: tuple[int, ...]


@dataclass(frozen=True)
class ReferenceViolation:
    """First place the unimodality check fails: agent ``agent``'s value rises
    from position ``h`` to position ``k`` of the ordering after having fallen
    (positions are 1-based)."""

    agent: int
    h: int
    k: int


def reference_check_single_peaked(game, ordering: Sequence[int] | None = None):
    """Certify unimodality of every agent's valuation along ``ordering``.

    Defaults to the natural ordering 1..n. Returns a ReferenceCertificate
    carrying per-agent peak sizes, or the first ReferenceViolation found.
    """
    n = game.n
    if ordering is None:
        order = tuple(range(1, n + 1))
    else:
        order = tuple(ordering)
        if not all(type(s) is int for s in order) or sorted(order) != list(range(1, n + 1)):
            raise ValueError("ordering must be a permutation of the sizes 1..n")
    peaks = []
    for i in range(n):
        seq = [game.value_of_size(i, s) for s in order]
        fell = False
        for pos in range(1, n):
            if seq[pos] > seq[pos - 1]:
                if fell:
                    return ReferenceViolation(i, pos, pos + 1)
            elif seq[pos] < seq[pos - 1]:
                fell = True
        peaks.append(order[seq.index(max(seq))])
    return ReferenceCertificate(order, tuple(peaks))


# The partition check as it stood when it returned a result record, kept
# verbatim (the record renamed, its helpers inlined) to cross-check the
# raising check in ``Partition``.


@dataclass(frozen=True)
class ReferencePartitionCheck:
    """Outcome of validating candidate blocks against the agent set [0, n)."""

    ok: bool
    duplicates: tuple[int, ...] = ()
    missing: tuple[int, ...] = ()
    out_of_range: tuple[int, ...] = ()
    empty_blocks: int = 0


def _reference_block_mask(block) -> int:
    from epsfc.games import Coalition

    return block.mask if isinstance(block, Coalition) else sum(1 << i for i in set(block))


def reference_validate_partition(blocks, n: int) -> ReferencePartitionCheck:
    """Check that ``blocks`` is a disjoint cover of [0, n).

    Accepts Coalition objects or plain iterables of agent ids, and reports
    duplicated agents, missing agents, out-of-range agents, and empty blocks.
    """
    seen = 0
    duplicates: set[int] = set()
    out_of_range: set[int] = set()
    empty = 0
    for block in blocks:
        bmask = _reference_block_mask(block)
        if bmask == 0:
            empty += 1
            continue
        high = bmask >> n
        if high:
            out_of_range.update(i + n for i in members_of(high))
            bmask &= (1 << n) - 1
        duplicates.update(members_of(seen & bmask))
        seen |= bmask
    missing = tuple(members_of(((1 << n) - 1) & ~seen))
    ok = not duplicates and not missing and not out_of_range and empty == 0
    return ReferencePartitionCheck(
        ok,
        tuple(sorted(duplicates)),
        missing,
        tuple(sorted(out_of_range)),
        empty,
    )


# --- randrange samplers ---
#
# The uniform and size-tilted coalition samplers as they were written on
# ``rng.randrange``, before the package drew the same bits through
# ``getrandbits``. Kept as the stream each package sampler must reproduce.


def reference_subset_mask(rng, n, s):
    """Uniform s-subset of [0, n) by partial Fisher-Yates with full swaps."""
    idx = list(range(n))
    mask = 0
    for k in range(s):
        j = rng.randrange(k, n)
        idx[k], idx[j] = idx[j], idx[k]
        mask |= 1 << idx[k]
    return mask


def reference_uniform_sample(rng, n):
    """Mask of a uniform non-empty subset of [0, n)."""
    return rng.randrange(1, 1 << n)


def reference_size_tilted_sampler(n, size_weights):
    """A draw function rng -> mask with P(S) proportional to size_weights[|S| - 1].

    The size is the first s whose cumulative integer weight, over the least
    common denominator of g(s) * C(n, s), exceeds ``randrange`` of the total.
    """
    weights = [Fraction(size_weights[s - 1]) * comb(n, s) for s in range(1, n + 1)]
    den = 1
    for w in weights:
        den = den * w.denominator // gcd(den, w.denominator)
    ints = [int(w * den) for w in weights]

    def sample(rng):
        k = rng.randrange(sum(ints))
        acc = 0
        for s, w in enumerate(ints, start=1):
            acc += w
            if k < acc:
                return reference_subset_mask(rng, n, s)
        raise AssertionError("cumulative weights never passed the draw")

    return sample


def reference_fhg_draws(adj_rows, dist, m, rng):
    """(mask, {member: Fraction(out-neighbours inside, size)}) for m draws of ``dist``,
    each value built as a fresh Fraction."""
    draws = []
    for _ in range(m):
        mask = dist.sample(rng).mask
        draws.append((mask, {i: naive_fhg_value(adj_rows, i, mask) for i in members_of(mask)}))
    return draws


# --- Per-equation learning helpers ---
#
# ``learn_fhg``'s value-to-count conversion and GF(2) elimination as they
# stood when each equation was converted on its own, kept verbatim to
# cross-check the per-record conversion and the elimination that replaced
# them.


def reference_rhs_as_int(agent, value, size):
    """Neighbor count encoded by a sampled average; exact for rationals and
    recoverable from float64 because the denominator is the coalition size."""
    from epsfc.errors import InconsistentSampleError

    if isinstance(value, (Fraction, int)):
        k, rem = divmod(value.numerator * size, value.denominator)
        exact = not rem
    else:
        k = round(value * size)
        exact = abs(value * size - k) <= 1e-6
    if not exact:
        raise InconsistentSampleError(
            f"agent {agent}: value {value} of a size-{size} coalition "
            f"is not a multiple of 1/{size}",
            agent,
        )
    if not 0 <= k <= size:
        raise InconsistentSampleError(
            f"agent {agent}: value {value} outside [0, 1] for size {size}", agent
        )
    return k


def reference_solve_gf2(rows, n):
    """Solve one agent's (mask, rhs) equations mod 2 over its n - 1 columns,
    stopping at n - 1 pivots; None when the rows run out first or are
    inconsistent mod 2."""
    rhs_bit = 1 << n
    pivots = {}
    for mask, rhs in rows:
        if len(pivots) == n - 1:
            break
        row = mask | (rhs & 1) << n
        low = row & -row
        while low in pivots:
            row ^= pivots[low]
            low = row & -row
        if low == rhs_bit:
            return None
        if low:
            pivots[low] = row
    if len(pivots) < n - 1:
        return None
    solution = 0
    for low in sorted(pivots, reverse=True):
        if (pivots[low] & (solution | rhs_bit)).bit_count() & 1:
            solution |= low
    return solution


# --- Member enumeration and the sample writer as they stood before tables ---
#
# The bit-at-a-time member generator and the sample writer's per-record loop
# that the byte tables and the per-call id memo replaced, kept to cross-check
# them.


def reference_bits_of(mask):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reference_write_samples(path, records):
    """Write records as ``{"S":[agents],"v":[values]}`` lines; returns the count.

    Agents are 1-based and ascending; a float is written as ``json.dumps``
    writes it, a Fraction as a "p/q" string, anything else as ``json.dumps``
    with ``default=str`` writes it.
    """
    import json

    encode = json.JSONEncoder(default=str).encode
    count = 0
    with open(path, "w") as fh:
        for rec in records:
            members = list(reference_bits_of(rec.coalition.mask))
            texts = [
                f'"{v}"' if type(v) is Fraction else encode(v)
                for v in map(rec.member_values.__getitem__, members)
            ]
            fh.write(
                '{"S":[%s],"v":[%s]}\n'
                % (",".join([str(i + 1) for i in members]), ",".join(texts))
            )
            count += 1
    return count
