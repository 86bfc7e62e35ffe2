"""Workloads, tracing and output checks for the epsfc benchmark.

A *cell* is one pipeline instance: what one ``epsfc experiment`` grid cell
does, and what a researcher waits on. Cell k of a run draws every input from
sub-seeds of (workload, run seed, k), so the seed fixes the whole sequence of
inputs and a faster program only gets further down the same sequence. The
workloads call the library directly, in the order ``cli._run_cell`` uses.

Every call into a layer goes through a tracer. ``NullTracer`` calls straight
through. ``SpanTracer`` keeps one span per call (name, start, end, parent cell
span) in memory, and wraps coalition distributions so that the time spent in
``dist.sample`` is measured at the boundary of ``distributions``.

Each cell is checked right after it runs, outside its timing. A cell's
``ref`` holds only outputs the maths fixes (census counts by size, exact
masses, verdicts, learned tables); witness order is left out on purpose.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import time
from fractions import Fraction
from pathlib import Path

from epsfc import (
    EmptyIntervalError,
    SizeTilted,
    UnderdeterminedError,
    UniformCoalitions,
    anon_sample_size,
    audit_green_anonymous,
    certify_empty_core,
    check_sp_lemmas,
    draw_samples,
    estimate_interval,
    exact_blocking,
    fhg_sample_size,
    find_empty_core_sp,
    gr_decomposition,
    learn_anonymous,
    learn_fhg,
    mc_blocking,
    random_anon_sp,
    random_fhg,
    random_partition,
    stabilize_fhg,
    stabilize_single_peaked,
)
from epsfc import io as eio

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
REFERENCE_FILE = HERE / "reference.jsonl"

# Count fields that must repeat exactly for a fixed seed.
COUNT_FIELDS = (
    "coalitions",
    "blockers",
    "records",
    "equations",
    "draws",
    "hits",
    "attempts",
    "found",
)


def sub_seed(*parts) -> int:
    """Stable fan-out of the run seed to independent per-cell sub-seeds."""
    text = ":".join(map(str, parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def size_tilted(n: int) -> SizeTilted:
    """A5's size-tilted distribution, g(s) = 1 + (s-1)/(n-1), so lambda = 2.

    The weights are exact rationals, so blocking masses stay small fractions.
    """
    return SizeTilted(n, [Fraction(n - 1 + s, n - 1) for s in range(n)])


def tilted_mass(by_size, n: int) -> Fraction:
    """Mass of a census under ``size_tilted(n)``, from the definition:
    each coalition of size s weighs g(s), normalised over all coalitions."""
    g = [Fraction(n - 2 + s, n - 1) for s in range(n + 1)]
    z = sum(g[s] * math.comb(n, s) for s in range(1, n + 1))
    return sum(by_size[s] * g[s] for s in range(1, n + 1)) / z


def fhg_census(game, partition) -> list[int]:
    """Blockers by size, by brute force over every coalition: S blocks when
    each member has a strictly larger share of out-neighbours in S than in
    its own block."""
    n, adj = game.n, game.adj_masks
    num = [(adj[i] & partition.block_of(i).mask).bit_count() for i in range(n)]
    den = [partition.size_of(i) for i in range(n)]
    counts = [0] * (n + 1)
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if all(
            (adj[i] & mask).bit_count() * den[i] > num[i] * size
            for i in range(n)
            if mask >> i & 1
        ):
            counts[size] += 1
    return counts


def anon_census(game, partition) -> list[int]:
    """Blockers by size in closed form: a size-s coalition blocks iff every
    member strictly prefers size s, so there are C(#such agents, s)."""
    n = game.n
    current = [game.value_of_size(i, partition.size_of(i)) for i in range(n)]
    counts = [0] * (n + 1)
    for s in range(1, n + 1):
        counts[s] = math.comb(sum(game.value_of_size(i, s) > current[i] for i in range(n)), s)
    return counts


# --------------------------------------------------------------------------
# Tracing


class NullTracer:
    """Calls straight through; used for every end-to-end measurement."""

    def begin_cell(self, cell: int, start: float) -> None:
        pass

    def end_cell(self, end: float, counts: dict) -> None:
        pass

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def dist(self, dist):
        return dist


class _TimedDist:
    """Times each ``sample`` call of a distribution, outside the package."""

    def __init__(self, dist, kind: str, tracer: "SpanTracer"):
        self._dist = dist
        self._kind = kind
        self._tracer = tracer

    def sample(self, rng):
        start = time.perf_counter()
        coalition = self._dist.sample(rng)
        self._tracer.sampled(self._kind, time.perf_counter() - start)
        return coalition


class SpanTracer:
    """Keeps one span per layer call in memory, parented to the cell span."""

    def __init__(self):
        self.spans: list[dict] = []
        self.cell_span: int | None = None
        self._pending: dict[str, list] = {}

    def begin_cell(self, cell: int, start: float) -> None:
        self.cell_span = len(self.spans)
        self.spans.append(
            {"id": self.cell_span, "name": "cell", "cell": cell, "start": start, "end": None, "parent": None}
        )

    def end_cell(self, end: float, counts: dict) -> None:
        span = self.spans[self.cell_span]
        span["end"] = end
        span["counts"] = counts

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            span = {
                "id": len(self.spans),
                "name": name,
                "cell": self.spans[self.cell_span]["cell"],
                "start": start,
                "end": end,
                "parent": self.cell_span,
            }
            if self._pending:
                span["samples"] = {k: {"draws": d, "busy_s": b} for k, (d, b) in self._pending.items()}
                self._pending = {}
            self.spans.append(span)

    def dist(self, dist):
        kind = "size_tilted" if isinstance(dist, SizeTilted) else "uniform"
        return _TimedDist(dist, kind, self)

    def sampled(self, kind: str, seconds: float) -> None:
        slot = self._pending.setdefault(kind, [0, 0.0])
        slot[0] += 1
        slot[1] += seconds


# --------------------------------------------------------------------------
# Workloads


class Workload:
    """One named workload: ``run_cell`` computes cell k, ``check`` audits it."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def cell_seed(self, k: int, tag: str) -> int:
        return sub_seed(self.name, self.seed, k, tag)

    def run_cell(self, k: int, tr) -> dict:
        raise NotImplementedError

    def check(self, k: int, out: dict) -> list[str]:
        """Problems with cell k's outputs; an empty list means it passed."""
        return []

    def close(self) -> None:
        pass


class _FhgWorkload(Workload):
    """Shared front half of the FHG cells: generate, sample, learn.

    ``learn`` returns the cell's output dict and the learned game, or None
    when the samples leave some agent underdetermined, which the paper's
    learner allows and the reference records as the cell's outcome.
    """

    n = 0
    ps: tuple[float, ...] = ()
    delta = 0.1

    def __init__(self, seed: int):
        super().__init__(seed)
        self.uniform = UniformCoalitions(self.n)
        self.tilted = size_tilted(self.n)
        self.m = fhg_sample_size(self.n, self.delta)

    def learn(self, k, tr):
        n, p = self.n, self.ps[k % len(self.ps)]
        game = tr.call("instances.generate", random_fhg, n, p, self.cell_seed(k, "gen"))
        rng = random.Random(self.cell_seed(k, "sample"))
        records = tr.call("learning.draw_samples", draw_samples, game, tr.dist(self.uniform), self.m, rng)
        counts = {
            "records": len(records),
            "equations": sum(r.coalition.size for r in records),
            "draws": len(records),
        }
        out = {"counts": counts, "ref": {"p": p}, "game": game}
        try:
            learned = tr.call("learning.learn_fhg", learn_fhg, n, records)
        except UnderdeterminedError as exc:
            out["ref"]["outcome"] = ["underdetermined", list(exc.agents)]
            counts["recovered_frac"] = (n - len(exc.agents)) / n
            return out, None
        out["learned"] = learned
        matching = sum(a == b for a, b in zip(game.adj_masks, learned.adj_masks))
        counts["recovered_frac"] = matching / n
        return out, learned

    def check(self, k, out):
        if "learned" in out and out["learned"] != out["game"]:
            return ["learn_fhg result differs from the generating game"]
        return []


class FhgVerify(_FhgWorkload):
    """Experiment-grid FHG cell with learning, then two exact censuses."""

    name = "fhg_verify"
    n = 16
    ps = (0.2, 0.5, 0.8)

    def run_cell(self, k, tr):
        out, learned = self.learn(k, tr)
        if learned is None:
            return out
        game, counts = out["game"], out["counts"]
        partition, trace = tr.call("stabilizers", stabilize_fhg, learned)
        stab = tr.call(
            "verification.exact_blocking.stabilized", exact_blocking, game, partition, dist=self.tilted
        )
        gr = tr.call("verification.gr_decomposition", gr_decomposition, game, partition, trace.gr)
        rpart = tr.call("instances.generate", random_partition, self.n, self.cell_seed(k, "partition"))
        rand = tr.call("verification.exact_blocking.random", exact_blocking, game, rpart, dist=self.tilted)
        counts["coalitions"] = stab.total_coalitions + rand.total_coalitions
        counts["blockers"] = stab.blocking_count + rand.blocking_count
        out["blockers"] = (stab.blocking_count, gr.blockers)
        out["censuses"] = ((partition, stab), (rpart, rand))
        out["ref"].update(
            outcome="ok",
            partition=sorted(partition.block_masks()),
            stabilized=list(stab.blocking_by_size),
            stabilized_mass=str(stab.mass),
            gr=[gr.avoiding_gr, gr.blockers_avoiding, gr.blockers_meeting],
            random_partition=sorted(rpart.block_masks()),
            random=list(rand.blocking_by_size),
            random_mass=str(rand.mass),
        )
        return out

    # Cells whose censuses are recounted by brute force, one per value of p;
    # a recount takes about as long as a whole cell.
    brute_force_cells = 3

    def check(self, k, out):
        problems = super().check(k, out)
        if "blockers" not in out:
            return problems
        if len(set(out["blockers"])) != 1:
            problems.append("exact_blocking and gr_decomposition count %d and %d blockers" % out["blockers"])
        for partition, report in out["censuses"]:
            if report.mass != tilted_mass(report.blocking_by_size, self.n):
                problems.append(f"exact_blocking mass {report.mass} disagrees with its census")
            if k < self.brute_force_cells and list(report.blocking_by_size) != fhg_census(out["game"], partition):
                problems.append("exact_blocking census differs from a brute-force count")
        return problems


class FhgLearn(_FhgWorkload):
    """Learning at a scale no census reaches, then a Monte Carlo estimate."""

    name = "fhg_learn"
    n = 60
    ps = (0.1, 0.3, 0.5)
    mc_draws = 3000

    def run_cell(self, k, tr):
        out, learned = self.learn(k, tr)
        if learned is None:
            return out
        counts = out["counts"]
        partition, _ = tr.call("stabilizers", stabilize_fhg, learned)
        est = tr.call(
            "verification.mc_blocking",
            mc_blocking,
            out["game"],
            partition,
            tr.dist(self.tilted),
            self.mc_draws,
            rng=random.Random(self.cell_seed(k, "mc")),
        )
        counts["draws"] += est.samples
        counts["mc_draws"] = est.samples
        counts["hits"] = est.hits
        out["ref"].update(outcome="ok", partition=sorted(partition.block_masks()))
        return out


class AnonPipeline(Workload):
    """A12 path through a sample file, as the CLI sample/stabilize/verify do."""

    name = "anon_pipeline"
    n = 16
    eps = 0.5
    delta = 0.5
    lam = 1

    def __init__(self, seed: int):
        super().__init__(seed)
        self.uniform = UniformCoalitions(self.n)
        self.m = anon_sample_size(self.n, self.delta, self.eps, self.lam)
        OUT_DIR.mkdir(exist_ok=True)
        self.sample_path = OUT_DIR / f"samples-{os.getpid()}.jsonl"

    def run_cell(self, k, tr):
        n = self.n
        game, certificate = tr.call("instances.generate", random_anon_sp, n, self.cell_seed(k, "gen"))
        rng = random.Random(self.cell_seed(k, "sample"))
        records = tr.call("learning.draw_samples", draw_samples, game, tr.dist(self.uniform), self.m, rng)
        tr.call("io.write_samples", eio.write_samples, self.sample_path, records)
        del records
        records = tr.call("io.read_samples", eio.read_samples, self.sample_path)
        counts = {
            "records": len(records),
            "draws": len(records),
            "bytes": self.sample_path.stat().st_size,
        }
        view = tr.call("learning.learn_anonymous", learn_anonymous, n, records)
        del records
        known = sum(map(sum, view.known_table()))
        counts["known_frac"] = known / (n * n)
        out = {"counts": counts, "ref": {"known": known}, "game": game, "view": view}
        try:
            window = tr.call("learning.estimate_interval", estimate_interval, view, self.lam, self.eps)
        except EmptyIntervalError:
            out["ref"]["outcome"] = "empty_interval"
            return out
        partition, trace = tr.call(
            "stabilizers", stabilize_single_peaked, view, certificate, window
        )
        report = tr.call(
            "verification.exact_blocking.anon", exact_blocking, game, partition, dist=self.uniform
        )
        lemmas = tr.call(
            "verification.check_sp_lemmas", check_sp_lemmas, game, partition, window, trace
        )
        green = tr.call(
            "verification.audit_green_anonymous", audit_green_anonymous, game, partition, window
        )
        gr = tr.call("verification.gr_decomposition", gr_decomposition, game, partition, green)
        counts["coalitions"] = report.total_coalitions
        counts["blockers"] = report.blocking_count
        out["blockers"] = (report.blocking_count, lemmas.blockers, gr.blockers)
        out["census"] = (partition, report)
        out["ref"].update(
            outcome="ok",
            window=list(window.sizes),
            partition=sorted(partition.block_masks()),
            census=list(report.blocking_by_size),
            mass=str(report.mass),
            lemmas=[
                lemmas.ok,
                lemmas.blockers_in_window,
                lemmas.count_ok,
                len(lemmas.at_peak_violations),
                len(lemmas.mixing_violations),
            ],
            green=green,
            gr=[gr.avoiding_gr, gr.blockers_avoiding, gr.blockers_meeting],
        )
        return out

    def check(self, k, out):
        problems = []
        game, view = out["game"], out["view"]
        wrong = [
            (i, s)
            for i, row in enumerate(view.known_table())
            for s, known in enumerate(row, start=1)
            if known and view.value_of_size(i, s) != game.value_of_size(i, s)
        ]
        if wrong:
            problems.append(f"learn_anonymous entries differ from the game at {wrong[:4]}")
        if "blockers" in out and len(set(out["blockers"])) != 1:
            problems.append(
                "exact_blocking, check_sp_lemmas and gr_decomposition count %d, %d, %d blockers"
                % out["blockers"]
            )
        if "census" in out:
            partition, report = out["census"]
            if list(report.blocking_by_size) != anon_census(game, partition):
                problems.append("exact_blocking census differs from the closed form")
            if report.mass != Fraction(report.blocking_count, (1 << self.n) - 1):
                problems.append(f"exact_blocking mass {report.mass} disagrees with its census")
        return problems

    def close(self):
        self.sample_path.unlink(missing_ok=True)


class EmptyCore(Workload):
    """A9's bounded empty-core searches at two scales of the Bell sweep."""

    name = "empty_core"
    searches = ((7, 100), (9, 25))

    def run_cell(self, k, tr):
        counts = {"attempts": 0, "found": 0}
        out = {"counts": counts, "ref": {}, "found": []}
        for n, max_attempts in self.searches:
            result = tr.call(
                f"instances.find_empty_core_sp.n{n}",
                find_empty_core_sp,
                n=n,
                max_attempts=max_attempts,
                seed=self.cell_seed(k, f"n{n}"),
            )
            counts["attempts"] += result.attempts
            counts["found"] += result.found
            out["ref"][f"n{n}"] = [
                result.found,
                result.attempts,
                result.game.table() if result.found else None,
            ]
            if result.found:
                out["found"].append(result.game)
        return out

    def check(self, k, out):
        return [
            f"empty-core instance at n={game.n} does not re-certify"
            for game in out["found"]
            if not certify_empty_core(game)
        ]


WORKLOADS = {w.name: w for w in (FhgVerify, FhgLearn, AnonPipeline, EmptyCore)}


# --------------------------------------------------------------------------
# Running and summarising


def digest(ref: dict) -> str:
    text = json.dumps(ref, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run_cell(workload: Workload, k: int, tr) -> tuple[dict, float]:
    """Cell k and its wall time. An unexpected exception ends only this cell,
    which keeps an ``error`` and counts as failed."""
    start = time.perf_counter()
    tr.begin_cell(k, start)
    try:
        out = workload.run_cell(k, tr)
    except Exception as exc:  # noqa: BLE001 - a crashed cell is a counted failure
        out = {"counts": {}, "ref": {}, "error": f"{type(exc).__name__}: {exc}"}
    end = time.perf_counter()
    tr.end_cell(end, out["counts"])
    return out, end - start


def audit(workload: Workload, k: int, out: dict, reference: list[str] | None) -> list[str]:
    """Problems with cell k: a crash, a failed check, or outputs that differ
    from the digest recorded for this cell."""
    if "error" in out:
        return [out["error"]]
    problems = workload.check(k, out)
    if reference is not None and k < len(reference):
        got = digest(out["ref"])
        if got != reference[k]:
            problems.append(f"outputs differ from the recorded reference ({got} != {reference[k]})")
    return problems


def _measured_cell(workload: Workload, k: int, tr, reference) -> dict:
    """Run and audit cell k. Only its time, counts, digest and problems are
    kept, so the outputs of earlier cells never add to the process's memory;
    the audit runs after the cell's clock has stopped."""
    out, seconds = _run_cell(workload, k, tr)
    return {
        "seconds": seconds,
        "counts": out["counts"],
        "digest": digest(out["ref"]),
        "problems": audit(workload, k, out, reference),
    }


def _more(cells: list, deadline: float | None, ncells: int | None) -> bool:
    if ncells is not None:
        return len(cells) < ncells
    return time.perf_counter() < deadline


def run_cells(workload: Workload, reference=None, *, deadline=None, ncells=None) -> list[dict]:
    """Run cells 0, 1, ... untraced until ``deadline`` passes or ``ncells`` are done."""
    cells = []
    tr = NullTracer()
    while _more(cells, deadline, ncells):
        cells.append(_measured_cell(workload, len(cells), tr, reference))
    return cells


def run_paired(workload: Workload, tracer: SpanTracer, reference=None, *, deadline=None, ncells=None):
    """Run each cell untraced and then traced, so both see the same inputs and
    the same machine state; the difference is the tracing overhead.

    Returns (untraced cells, traced cells).
    """
    plain, traced = [], []
    null = NullTracer()
    while _more(plain, deadline, ncells):
        k = len(plain)
        plain.append(_measured_cell(workload, k, null, reference))
        traced.append(_measured_cell(workload, k, tracer, reference))
        if traced[-1]["digest"] != plain[-1]["digest"]:
            traced[-1]["problems"].append("traced run changed the cell's outputs")
    return plain, traced


def _read_reference() -> dict[tuple[str, int], list[str]]:
    if not REFERENCE_FILE.is_file():
        return {}
    rows = (json.loads(line) for line in REFERENCE_FILE.read_text().splitlines() if line)
    return {(r["workload"], r["seed"]): r["digests"] for r in rows}


def load_reference(workload: str, seed: int) -> list[str] | None:
    return _read_reference().get((workload, seed))


def record_reference(workload: str, seed: int, digests: list[str]) -> None:
    """Store the digests of the cells beyond the recorded prefix for this seed."""
    data = _read_reference()
    known = data.setdefault((workload, seed), [])
    known.extend(digests[len(known):])
    REFERENCE_FILE.write_text(
        "".join(
            json.dumps({"workload": w, "seed": s, "digests": d}) + "\n"
            for (w, s), d in sorted(data.items())
        )
    )


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile that has at least 10 values beyond it.

    With N sorted values that is the (N-10)-th smallest, at percentile
    100*(N-10)/N. Below 11 values no percentile qualifies and the maximum is
    returned at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(cells: list[dict]) -> dict:
    """The timed part of a run is the cells themselves, not the audits between them."""
    ms = [c["seconds"] * 1000 for c in cells]
    busy_s = sum(ms) / 1000
    tail_ms, pct = tail(ms)
    return {
        "cells_per_s": {"value": len(ms) / busy_s, "unit": "1/s", "note": f"{len(ms)} cells in {busy_s:.2f} s"},
        "cell_ms.p50": {"value": statistics.median(ms), "unit": "ms", "note": f"n={len(ms)}"},
        "cell_ms.tail": {"value": tail_ms, "unit": "ms", "note": f"p{pct:.1f}, n={len(ms)}"},
    }


# (metric, unit, source): a span name gives the per-cell median busy time in
# spans of that name, in ms; "count:<field>" the per-cell median of a count
# field; the other sources are derived below.
PER_LAYER = (
    ("verification.exact_blocking.stabilized.ms", "ms", "verification.exact_blocking.stabilized"),
    ("verification.exact_blocking.random.ms", "ms", "verification.exact_blocking.random"),
    ("verification.exact_blocking.anon.ms", "ms", "verification.exact_blocking.anon"),
    ("verification.gr_decomposition.ms", "ms", "verification.gr_decomposition"),
    ("verification.exact_blocking.coalitions", "count", "count:coalitions"),
    ("verification.exact_blocking.blockers", "count", "count:blockers"),
    ("verification.check_sp_lemmas.ms", "ms", "verification.check_sp_lemmas"),
    ("verification.mc_blocking.ms", "ms", "verification.mc_blocking"),
    ("verification.mc_blocking.draws", "count", "count:mc_draws"),
    ("verification.mc_blocking.hits", "count", "count:hits"),
    ("verification.share", "ratio", "verification_share"),
    ("distributions.uniform.sample.us", "us", "sample_us:uniform"),
    ("distributions.size_tilted.sample.us", "us", "sample_us:size_tilted"),
    ("distributions.sample.draws", "count", "count:draws"),
    ("learning.learn_fhg.ms", "ms", "learning.learn_fhg"),
    ("learning.learn_fhg.equations", "count", "count:equations"),
    ("learning.learn_fhg.recovered_frac", "ratio", "count:recovered_frac"),
    ("learning.draw_samples.ms", "ms", "learning.draw_samples"),
    ("learning.draw_samples.records", "count", "count:records"),
    ("learning.learn_anonymous.ms", "ms", "learning.learn_anonymous"),
    ("learning.learn_anonymous.known_frac", "ratio", "count:known_frac"),
    ("io.write_samples.ms", "ms", "io.write_samples"),
    ("io.read_samples.ms", "ms", "io.read_samples"),
    ("io.sample_file.bytes", "bytes", "count:bytes"),
    ("stabilizers.ms", "ms", "stabilizers"),
    ("instances.generate.ms", "ms", "instances.generate"),
    ("instances.find_empty_core_sp.n7.ms", "ms", "instances.find_empty_core_sp.n7"),
    ("instances.find_empty_core_sp.n9.ms", "ms", "instances.find_empty_core_sp.n9"),
    ("instances.find_empty_core_sp.attempts", "count", "count:attempts"),
    ("instances.find_empty_core_sp.found", "count", "count:found"),
    ("cell.self.ms", "ms", "self"),
    ("trace.overhead.ms", "ms", "overhead"),
)


def _median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(spans: list[dict], traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics from the spans of one traced pass.

    A metric whose layer a workload never calls reads 0.
    """
    cells = [s for s in spans if s["name"] == "cell"]
    busy: dict[int, dict[str, float]] = {c["id"]: {} for c in cells}
    sampling: dict[int, dict[str, list]] = {c["id"]: {} for c in cells}
    for s in spans:
        if s["parent"] is None:
            continue
        per = busy[s["parent"]]
        per[s["name"]] = per.get(s["name"], 0.0) + s["end"] - s["start"]
        for kind, d in s.get("samples", {}).items():
            slot = sampling[s["parent"]].setdefault(kind, [0, 0.0])
            slot[0] += d["draws"]
            slot[1] += d["busy_s"]
    metrics = {}
    for name, unit, source in PER_LAYER:
        kind, _, arg = source.partition(":")
        if kind == "count":
            value = _median_or_zero(c["counts"][arg] for c in cells if arg in c["counts"])
        elif kind == "sample_us":
            value = _median_or_zero(
                1e6 * smp[arg][1] / smp[arg][0] for smp in sampling.values() if arg in smp
            )
        elif kind == "verification_share":
            value = _median_or_zero(
                sum(t for span, t in busy[c["id"]].items() if span.startswith("verification."))
                / (c["end"] - c["start"])
                for c in cells
            )
        elif kind == "self":
            # Layer calls are sequential leaves of the cell, so their spans
            # never overlap and the time they cover is their sum.
            value = _median_or_zero(
                1000 * ((c["end"] - c["start"]) - sum(busy[c["id"]].values())) for c in cells
            )
        elif kind == "overhead":
            value = 1000 * (
                statistics.median(c["seconds"] for c in traced)
                - statistics.median(c["seconds"] for c in untraced)
            )
        else:
            value = _median_or_zero(1000 * b[source] for b in busy.values() if source in b)
        metrics[name] = {"value": value, "unit": unit}
    return metrics
