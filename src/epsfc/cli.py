"""Command-line front end for reproducible experiments.

Subcommands: ``gen`` writes game files, ``sample`` draws valuation samples,
``stabilize`` runs the learning and computation phases, ``verify`` measures
blocking exactly or by Monte Carlo, and ``experiment`` sweeps a parameter
grid into a CSV. Every command is deterministic given --seed, and
``experiment`` given its config, whose ``seed`` is the root seed.

Exit codes: 0 success, 2 usage error, 3 enumeration guard, 4 learning
failure or empty size window, 5 verification found a violation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import itertools
import json
import os
import random
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import io as eio
from .distributions import UniformCoalitions, mean_size, size_interval
from .errors import (
    EmptyIntervalError,
    EpsfcError,
    GuardError,
    InconsistentSampleError,
    LearningError,
    PartitionError,
    UnderdeterminedError,
)
from .games import AnonymousHG, SimpleFHG, check_ordering, check_single_peaked
from .instances import (
    extend_anon_sp,
    extend_fhg,
    random_anon,
    random_anon_sp,
    random_fhg,
)
from .learning import (
    LearnedAnonymous,
    anon_sample_size,
    estimate_interval,
    fhg_sample_size,
    iter_samples,
    learn_anonymous,
    learn_fhg,
)
from .stabilizers import (
    choose_epsilon_floor,
    stabilize_anonymous,
    stabilize_fhg,
    stabilize_single_peaked,
)
from .verification import exact_blocking, mc_blocking

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_LEARNING = 4
EXIT_VIOLATION = 5

_CLASSES = ["fhg", "anon", "anon-sp"]


class UsageError(EpsfcError):
    pass


def _sub_seed(root_seed: int, *parts) -> int:
    """Stable fan-out of a root seed to independent sub-seeds."""
    text = ":".join([str(root_seed), *map(str, parts)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _load_dist(spec: str | None, n: int):
    if spec is None:
        return UniformCoalitions(n)
    spec = spec.strip()
    if spec.startswith("{"):
        return eio.distribution_from_dict(json.loads(spec), n)
    return eio.load_distribution(spec, n)


def _random_game(klass: str, n: int, p, seed):
    """A seeded random game of ``klass`` and, for anon-sp, its size ordering."""
    if klass == "fhg":
        return random_fhg(n, p, seed), None
    if klass == "anon":
        return random_anon(n, seed), None
    return random_anon_sp(n, seed)


def cmd_gen(args) -> int:
    klass, _, mode = args.kind.rpartition("-")
    provenance = {"kind": args.kind, "n": args.n, "seed": args.seed}
    if mode == "extend":
        if not args.base:
            raise UsageError(f"--base is required for {args.kind}")
        base = eio.load_game(args.base).game
        provenance["base_n"] = base.n
        if klass == "fhg":
            game, ordering = extend_fhg(base, args.n), None
        else:
            game, ordering = extend_anon_sp(base, args.n)
    else:
        if klass == "fhg":
            if args.p is None or not 0 <= args.p <= 1:
                raise UsageError("--p in [0, 1] is required for fhg-random")
            provenance["p"] = args.p
        game, ordering = _random_game(klass, args.n, args.p, args.seed)
    eio.save_game(args.out, game, sp_ordering=ordering, provenance=provenance)
    print(f"wrote {args.kind} game with n={game.n} to {args.out}")
    return EXIT_OK


def cmd_sample(args) -> int:
    game = eio.load_game(args.game).game
    dist = _load_dist(args.dist, game.n)
    rng = random.Random(args.seed)
    count = eio.write_samples(args.out, iter_samples(game, dist, args.m, rng))
    print(f"wrote {count} samples to {args.out}")
    return EXIT_OK


def _stabilize(klass: str, view, dist, eps: float, lam: float, alpha, ordering):
    """Run the stabilizer of ``klass`` on ``view``.

    The anonymous classes pick their size window here: a learned table
    estimates it from its samples, an exact game takes the window around the
    mean size under ``dist``.
    """
    if klass == "fhg":
        return stabilize_fhg(view)
    if isinstance(view, LearnedAnonymous):
        window = estimate_interval(view, lam, eps, alpha)
    else:
        window = size_interval(float(mean_size(dist)), lam, eps, view.n)
    if not window.sizes:  # estimate_interval raises on its own
        raise EmptyIntervalError(f"no integer size falls in ({window.lo:.3f}, {window.hi:.3f})")
    if klass == "anon":
        return stabilize_anonymous(view, window)
    return stabilize_single_peaked(view, ordering, window)


def _check_class(klass: str, game) -> None:
    """Refuse a --class whose game type differs from the loaded game's."""
    if not isinstance(game, SimpleFHG if klass == "fhg" else AnonymousHG):
        kind = "a fractional" if klass == "fhg" else "an anonymous"
        raise UsageError(f"--class {klass} needs {kind} game file")


def cmd_stabilize(args) -> int:
    klass = args.klass
    if bool(args.game) == bool(args.samples):
        raise UsageError("exactly one of --game or --samples is required")
    loaded = eio.load_game(args.game) if args.game else None
    if loaded is not None:
        view = loaded.game
        _check_class(klass, view)
    elif args.n is None:
        raise UsageError("--n is required with --samples")
    else:
        learn = learn_fhg if klass == "fhg" else learn_anonymous
        # The library numbers agents from 0; the sample file numbers them from 1.
        try:
            view = learn(args.n, eio.stream_samples(args.samples, n=args.n))
        except InconsistentSampleError as exc:
            if exc.agent is None:
                raise
            raise LearningError(re.sub(r"^agent \d+", f"agent {exc.agent + 1}", str(exc),
                                       count=1)) from None
        except UnderdeterminedError as exc:
            raise LearningError(f"underdetermined agents: {[i + 1 for i in exc.agents]}") from None
    dist = _load_dist(args.dist, view.n) if loaded is not None and klass != "fhg" else None
    ordering = loaded.sp_ordering if loaded is not None else None
    if klass == "anon-sp" and args.ordering:
        try:
            ordering = check_ordering(json.loads(args.ordering), view.n)
        except ValueError:
            raise UsageError(f"--ordering {args.ordering!r} is not a JSON list "
                             f"permuting the sizes 1..{view.n}") from None
    if klass == "anon-sp" and loaded is not None:
        try:
            ordering = check_single_peaked(view, ordering)
        except ValueError as exc:
            # The library names agent i 0-based; the game file numbers it i + 1.
            raise UsageError(re.sub(r"agent (\d+)'s", lambda m: f"agent {int(m[1]) + 1}'s",
                                    str(exc), count=1)) from None
    elif ordering is None:
        # Sample-driven runs trust the ordering; a partial table cannot be checked.
        ordering = tuple(range(1, view.n + 1))
    partition, trace = _stabilize(klass, view, dist, args.eps, args.lam, args.alpha, ordering)
    eio.save_partition(args.out, partition)
    print(f"wrote partition with {len(partition)} blocks to {args.out}")
    if args.trace:
        eio.save_json(args.trace, trace)
        print(f"wrote trace to {args.trace}")
    return EXIT_OK


def _blocking_fields(report, estimate) -> dict:
    """The fraction, mass, p_hat and ci text of a result row; blank when unmeasured."""
    return {
        "fraction": "" if report is None else f"{float(report.fraction):.10g}",
        "mass": "" if report is None else f"{float(report.mass):.10g}",
        "p_hat": "" if estimate is None else f"{estimate.p_hat:.10g}",
        "ci": "" if estimate is None else f"{estimate.ci_halfwidth:.6g}",
    }


def _append_csv(path, columns: list[str], rows) -> None:
    """Append ``rows`` to the CSV at ``path``, flushing each as it is written.

    A new or empty file gets the header first; a file whose header differs
    from ``columns`` is refused and left untouched.
    """
    header = None
    if Path(path).exists():
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
    if header not in (None, columns):
        raise UsageError(f"{path} has the header {header}, not {columns}")
    with open(path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        if header is None:
            writer.writeheader()
        for row in rows:
            writer.writerow(row)
            fh.flush()


def cmd_verify(args) -> int:
    game = eio.load_game(args.game).game
    if args.klass:
        _check_class(args.klass, game)
    partition = eio.load_partition(args.partition, game.n)
    dist = _load_dist(args.dist, game.n)
    klass = args.klass or ("fhg" if isinstance(game, SimpleFHG) else "anon")
    floor = choose_epsilon_floor(game.n, args.lam, klass)
    started = time.perf_counter()
    report = estimate = None
    if args.mode == "exact":
        report = exact_blocking(game, partition, dist=dist)
        measured = float(report.mass)
    else:
        rng = random.Random(args.seed)
        estimate = mc_blocking(game, partition, dist, args.mc, args.delta, rng=rng)
        measured = estimate.p_hat
    wall_ms = round(1000 * (time.perf_counter() - started), 3)
    row = {
        "n": game.n,
        "class": klass,
        "eps_floor": f"{floor:.6g}",
        **_blocking_fields(report, estimate),
        "seed": args.seed,
        "wall_ms": wall_ms,
    }
    for key, val in row.items():
        print(f"{key:>10}: {val}")
    if args.csv:
        _append_csv(args.csv, list(row), [row])
    if args.out:
        payload = {"row": row}
        if report is not None:
            payload["report"] = report
        else:
            payload["estimate"] = estimate
        eio.save_json(args.out, payload)
    if args.eps is not None and not measured < args.eps:
        print(f"violation: measured blocking {measured:.6g} >= eps {args.eps:.6g}")
        return EXIT_VIOLATION
    return EXIT_OK


EXPERIMENT_COLUMNS = [
    "cell",
    "class",
    "n",
    "p",
    "seed",
    "status",
    "eps_floor",
    "fraction",
    "mass",
    "p_hat",
    "ci",
    "error",
    "config",
]


_INT = (lambda v: type(v) is int, "an int")
_NUMBER = (lambda v: type(v) in (int, float) and v == v, "a number")
# Every experiment config key, its default, and a test on one value with its
# name; the grid keys, whose defaults are lists, fan out and also take a list.
_EXPERIMENT_KEYS = {
    "class": ("fhg", (lambda v: v in _CLASSES, f"one of {_CLASSES}")),
    "n": ([10], _INT),
    "p": ([0.5], _NUMBER),
    "seeds": ([0], _INT),
    "eps": (0.1, _NUMBER),
    "delta": (0.1, _NUMBER),
    "lambda": (1.0, _NUMBER),
    "alpha": (None, _NUMBER),
    "learn": (False, (lambda v: type(v) is bool, "true or false")),
    "mc": (0, _INT),
    "seed": (0, _INT),
}


def _read_config(path) -> dict:
    """The experiment config at ``path`` with every key present and each grid
    key a list; a missing or null key takes its default."""
    config = json.loads(Path(path).read_text())
    if not isinstance(config, dict):
        raise UsageError(f"{path}: an experiment config is a JSON object, not {config!r}")
    checked = {}
    for key, (default, (ok, kind)) in _EXPERIMENT_KEYS.items():
        value = config.pop(key, None)
        grid = type(default) is list
        values = value if grid and type(value) is list else [value]
        if value is not None and not all(ok(v) for v in values):
            kind += " or a list of them" * grid
            raise UsageError(f"{path}: {key!r} is {value!r}, not {kind}")
        checked[key] = default if value is None else values if grid else value
    if config:
        raise UsageError(f"{path}: unknown keys {sorted(config)}; known: {list(_EXPERIMENT_KEYS)}")
    return checked


def _run_cell(config: dict, cell: tuple) -> dict:
    index, n, p, seed = cell
    klass, root_seed, delta = config["class"], config["seed"], config["delta"]
    lam, eps = config["lambda"], config["eps"]
    row = dict.fromkeys(EXPERIMENT_COLUMNS, "")
    row.update({"cell": index, "class": klass, "n": n, "seed": seed, "status": "ok"})
    row["p"] = "" if p is None else p
    try:
        row["eps_floor"] = f"{choose_epsilon_floor(n, lam, klass):.6g}"
        game, ordering = _random_game(klass, n, p, _sub_seed(root_seed, "gen", index, seed))
        dist = UniformCoalitions(n)
        view = game
        if config["learn"]:
            rng = random.Random(_sub_seed(root_seed, "sample", index, seed))
            if klass == "fhg":
                learn, m = learn_fhg, fhg_sample_size(n, delta)
            else:
                learn, m = learn_anonymous, anon_sample_size(n, delta, eps, lam)
            view = learn(n, iter_samples(game, dist, m, rng))
        partition, _ = _stabilize(klass, view, dist, eps, lam, config["alpha"], ordering)
        report = exact_blocking(game, partition, dist=dist)
        estimate = None
        if config["mc"]:
            rng = random.Random(_sub_seed(root_seed, "mc", index, seed))
            estimate = mc_blocking(game, partition, dist, config["mc"], delta, rng=rng)
        row.update(_blocking_fields(report, estimate))
    except Exception as exc:  # noqa: BLE001 - a failed cell is data, not an abort
        row["status"] = "failed"
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def cmd_experiment(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    jobs = min(args.jobs, os.cpu_count() or 1)
    config = _read_config(args.config)
    # every row carries the config it ran under; a rerun resumes only its own grid
    digest = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]
    done: set[str] = set()
    out = Path(args.out)
    if out.exists():
        with open(out, newline="") as fh:
            # a row without the column is left to the header check in _append_csv
            for line in csv.DictReader(fh):
                if line.get("config", digest) != digest:
                    raise UsageError(f"{out}: cell {line.get('cell')} ran under config "
                                     f"{line['config']}, not {digest}")
                done.add(line.get("cell"))
    # (index, n, p, seed) cells; p is None outside fhg
    ps = config["p"] if config["class"] == "fhg" else [None]
    cells = enumerate(itertools.product(config["n"], ps, config["seeds"]))
    pending = [(index, *cell) for index, cell in cells if str(index) not in done]
    run = functools.partial(_run_cell, config)
    failed = 0

    def rows():
        # Lazy, so no cell starts before _append_csv has accepted the file;
        # map yields in cell order, so each row lands once every earlier one has.
        nonlocal failed
        pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 and pending else None
        with pool or contextlib.nullcontext():
            for row in (pool.map if pool else map)(run, pending):
                failed += row["status"] != "ok"
                row["config"] = digest
                yield row

    _append_csv(out, EXPERIMENT_COLUMNS, rows())
    print(f"{len(pending)} cells run ({failed} failed), {len(done)} skipped; CSV at {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epsfc",
        description="Blocking-fraction experiments on hedonic games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a game file")
    p.add_argument("--kind", required=True, choices=[
        "fhg-random", "anon-random", "anon-sp-random", "fhg-extend", "anon-sp-extend",
    ])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, help="arc probability (fhg-random)")
    p.add_argument("--base", help="base game file (extensions)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sample", help="draw valuation samples from a game")
    p.add_argument("--game", required=True)
    p.add_argument("--dist", help="distribution spec file or inline JSON")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("stabilize", help="build a low-blocking partition")
    p.add_argument("--class", dest="klass", required=True, choices=_CLASSES)
    p.add_argument("--game", help="exact game input")
    p.add_argument("--samples", help="sample-file input (learning phase first)")
    p.add_argument("--n", type=int, help="agent count (required with --samples)")
    p.add_argument("--dist", help="distribution spec (anonymous window, game input)")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--alpha", type=float)
    p.add_argument("--ordering", help="JSON size ordering for anon-sp")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", help="write the construction trace as JSON")
    p.set_defaults(func=cmd_stabilize)

    p = sub.add_parser("verify", help="measure blocking exactly or by sampling")
    p.add_argument("--game", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--dist", help="distribution spec file or inline JSON")
    p.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p.add_argument("--class", dest="klass", choices=_CLASSES)
    p.add_argument("--mc", type=int, default=100_000, help="sample count for mc mode")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--eps", type=float, help="threshold; measured >= eps exits 5")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", help="append the result row to this CSV")
    p.add_argument("--out", help="write the full report as JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("experiment", help="run a parameter grid into a CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1, help="worker processes, at most the CPU count")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except GuardError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (LearningError, EmptyIntervalError) as exc:
        print(f"learning: {exc}", file=sys.stderr)
        return EXIT_LEARNING
    except (UsageError, PartitionError, FileNotFoundError, ValueError) as exc:
        print(f"usage: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
