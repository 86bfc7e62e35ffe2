"""Command-line front end for reproducible experiments.

Subcommands: ``gen`` writes game files, ``sample`` draws valuation samples,
``stabilize`` runs the learning and computation phases, ``verify`` measures
blocking exactly or by Monte Carlo, and ``experiment`` sweeps a parameter
grid into a CSV. Every command is deterministic given --seed.

Exit codes: 0 success, 2 usage error, 3 enumeration guard, 4 learning
failure or empty size window, 5 verification found a violation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
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
    LearningError,
    PartitionError,
)
from .games import (
    AnonymousHG,
    SimpleFHG,
    SinglePeakedCertificate,
    check_single_peaked,
)
from .instances import (
    extend_anon_sp,
    extend_fhg,
    random_anon,
    random_anon_sp,
    random_fhg,
)
from .learning import (
    estimate_interval,
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

VERIFY_COLUMNS = [
    "n",
    "class",
    "eps_floor",
    "fraction",
    "mass",
    "p_hat",
    "ci",
    "seed",
    "wall_ms",
]


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


def _interval_for_game(game: AnonymousHG, dist, eps: float, lam: float):
    mu = float(mean_size(dist))
    window = size_interval(mu, lam, eps, game.n)
    if not window.sizes:
        raise EmptyIntervalError(f"no integer size falls in ({window.lo:.3f}, {window.hi:.3f})")
    return window


def cmd_gen(args) -> int:
    provenance = {"kind": args.kind, "n": args.n, "seed": args.seed}
    sp_ordering = None
    if args.kind == "fhg-random":
        if args.p is None or not 0 <= args.p <= 1:
            raise UsageError("--p in [0, 1] is required for fhg-random")
        provenance["p"] = args.p
        game = random_fhg(args.n, args.p, args.seed)
    elif args.kind == "anon-random":
        game = random_anon(args.n, args.seed)
    elif args.kind == "anon-sp-random":
        game, cert = random_anon_sp(args.n, args.seed)
        sp_ordering = cert.ordering
    elif args.kind == "fhg-extend":
        if not args.base:
            raise UsageError("--base is required for fhg-extend")
        base = eio.load_game(args.base).game
        provenance["base_n"] = base.n
        game = extend_fhg(base, args.n)
    elif args.kind == "anon-sp-extend":
        if not args.base:
            raise UsageError("--base is required for anon-sp-extend")
        base = eio.load_game(args.base).game
        provenance["base_n"] = base.n
        game, cert = extend_anon_sp(base, args.n)
        sp_ordering = cert.ordering
    else:
        raise UsageError(f"unknown generator kind {args.kind!r}")
    eio.save_game(args.out, game, sp_ordering=sp_ordering, provenance=provenance)
    print(f"wrote {args.kind} game with n={game.n} to {args.out}")
    return EXIT_OK


def cmd_sample(args) -> int:
    game = eio.load_game(args.game).game
    dist = _load_dist(args.dist, game.n)
    rng = random.Random(args.seed)
    count = eio.write_samples(args.out, iter_samples(game, dist, args.m, rng))
    print(f"wrote {count} samples to {args.out}")
    return EXIT_OK


def cmd_stabilize(args) -> int:
    klass = args.klass
    if bool(args.game) == bool(args.samples):
        raise UsageError("exactly one of --game or --samples is required")
    loaded = eio.load_game(args.game) if args.game else None
    if klass == "fhg":
        if loaded is not None:
            game = loaded.game
            if not isinstance(game, SimpleFHG):
                raise UsageError("--class fhg needs a fractional game file")
        else:
            if args.n is None:
                raise UsageError("--n is required with --samples")
            game = learn_fhg(args.n, eio.stream_samples(args.samples))
        partition, trace = stabilize_fhg(game)
    elif klass in ("anon", "anon-sp"):
        if loaded is not None:
            view = loaded.game
            if not isinstance(view, AnonymousHG):
                raise UsageError(f"--class {klass} needs an anonymous game file")
            n = view.n
            dist = _load_dist(args.dist, n)
            window = _interval_for_game(view, dist, args.eps, args.lam)
        else:
            if args.n is None:
                raise UsageError("--n is required with --samples")
            n = args.n
            view = learn_anonymous(n, eio.stream_samples(args.samples))
            window = estimate_interval(view, args.lam, args.eps, args.alpha)
        if klass == "anon":
            partition, trace = stabilize_anonymous(view, window)
        else:
            if args.ordering:
                ordering = tuple(json.loads(args.ordering))
            elif loaded is not None and loaded.sp_ordering:
                ordering = loaded.sp_ordering
            else:
                ordering = tuple(range(1, n + 1))
            if loaded is not None:
                certificate = check_single_peaked(loaded.game, ordering)
                if not isinstance(certificate, SinglePeakedCertificate):
                    raise UsageError(
                        f"game is not single-peaked along the ordering: {certificate}"
                    )
            else:
                # Sample-driven runs trust the declared ordering; a partial
                # table cannot be certified.
                certificate = SinglePeakedCertificate(ordering, ())
            partition, trace = stabilize_single_peaked(view, certificate, window)
    else:
        raise UsageError(f"unknown class {klass!r}")
    eio.save_partition(args.out, partition)
    print(f"wrote partition with {len(partition)} blocks to {args.out}")
    if args.trace:
        eio.save_json(args.trace, trace)
        print(f"wrote trace to {args.trace}")
    return EXIT_OK


def cmd_verify(args) -> int:
    game = eio.load_game(args.game).game
    partition = eio.load_partition(args.partition, game.n)
    dist = _load_dist(args.dist, game.n)
    klass = args.klass or ("fhg" if isinstance(game, SimpleFHG) else "anon")
    floor = choose_epsilon_floor(game.n, args.lam, klass)
    started = time.perf_counter()
    fraction = mass = p_hat = ci = None
    if args.mode == "exact":
        report = exact_blocking(game, partition, dist=dist)
        fraction, mass = report.fraction, report.mass
        measured = float(mass if mass is not None else fraction)
    else:
        estimate = mc_blocking(game, partition, dist, args.mc, args.delta, seed=args.seed)
        p_hat, ci = estimate.p_hat, estimate.ci_halfwidth
        measured = p_hat
    wall_ms = round(1000 * (time.perf_counter() - started), 3)
    row = {
        "n": game.n,
        "class": klass,
        "eps_floor": f"{floor:.6g}",
        "fraction": "" if fraction is None else f"{float(fraction):.10g}",
        "mass": "" if mass is None else f"{float(mass):.10g}",
        "p_hat": "" if p_hat is None else f"{p_hat:.10g}",
        "ci": "" if ci is None else f"{ci:.6g}",
        "seed": args.seed,
        "wall_ms": wall_ms,
    }
    for key, val in row.items():
        print(f"{key:>10}: {val}")
    if args.csv:
        new_file = not Path(args.csv).exists()
        with open(args.csv, "a", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=VERIFY_COLUMNS)
            if new_file:
                writer.writeheader()
            writer.writerow(row)
    if args.out:
        payload = {"row": row}
        if args.mode == "exact":
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
]


def _experiment_cells(config: dict) -> list[dict]:
    def as_list(v):
        return v if isinstance(v, list) else [v]

    klass = config.get("class", "fhg")
    ns = as_list(config.get("n", 10))
    ps = as_list(config.get("p", 0.5)) if klass == "fhg" else [None]
    seeds = as_list(config.get("seeds", [0]))
    cells = []
    index = 0
    for n in ns:
        for p in ps:
            for seed in seeds:
                cells.append(
                    {
                        "cell": index,
                        "class": klass,
                        "n": n,
                        "p": p,
                        "seed": seed,
                        "eps": config.get("eps", 0.1),
                        "delta": config.get("delta", 0.1),
                        "lambda": config.get("lambda", 1.0),
                        "alpha": config.get("alpha"),
                        "learn": config.get("learn", False),
                        "mc": config.get("mc", 0),
                        "root_seed": config.get("seed", 0),
                    }
                )
                index += 1
    return cells


def _run_cell(cell: dict) -> dict:
    row = {
        "cell": cell["cell"],
        "class": cell["class"],
        "n": cell["n"],
        "p": "" if cell["p"] is None else cell["p"],
        "seed": cell["seed"],
        "status": "ok",
        "eps_floor": "",
        "fraction": "",
        "mass": "",
        "p_hat": "",
        "ci": "",
        "error": "",
    }
    try:
        klass, n = cell["class"], cell["n"]
        lam, eps = cell["lambda"], cell["eps"]
        gen_seed = _sub_seed(cell["root_seed"], "gen", cell["cell"], cell["seed"])
        row["eps_floor"] = f"{choose_epsilon_floor(n, lam, klass):.6g}"
        if klass == "fhg":
            game = random_fhg(n, cell["p"], gen_seed)
            certificate = None
        elif klass == "anon":
            game = random_anon(n, gen_seed)
            certificate = None
        else:
            game, certificate = random_anon_sp(n, gen_seed)
        dist = UniformCoalitions(n)
        if cell["learn"]:
            sample_seed = _sub_seed(cell["root_seed"], "sample", cell["cell"], cell["seed"])
            rng = random.Random(sample_seed)
            if klass == "fhg":
                from .learning import fhg_sample_size

                m = fhg_sample_size(n, cell["delta"])
                learned = learn_fhg(n, iter_samples(game, dist, m, rng))
                partition, _ = stabilize_fhg(learned)
            else:
                from .learning import anon_sample_size

                m = anon_sample_size(n, cell["delta"], eps, lam)
                view = learn_anonymous(n, iter_samples(game, dist, m, rng))
                window = estimate_interval(view, lam, eps, cell["alpha"])
                if klass == "anon":
                    partition, _ = stabilize_anonymous(view, window)
                else:
                    partition, _ = stabilize_single_peaked(view, certificate, window)
        else:
            if klass == "fhg":
                partition, _ = stabilize_fhg(game)
            else:
                window = _interval_for_game(game, dist, eps, lam)
                if klass == "anon":
                    partition, _ = stabilize_anonymous(game, window)
                else:
                    partition, _ = stabilize_single_peaked(game, certificate, window)
        report = exact_blocking(game, partition, dist=dist)
        row["fraction"] = f"{float(report.fraction):.10g}"
        row["mass"] = f"{float(report.mass):.10g}"
        if cell["mc"]:
            mc_seed = _sub_seed(cell["root_seed"], "mc", cell["cell"], cell["seed"])
            estimate = mc_blocking(game, partition, dist, cell["mc"], cell["delta"], seed=mc_seed)
            row["p_hat"] = f"{estimate.p_hat:.10g}"
            row["ci"] = f"{estimate.ci_halfwidth:.6g}"
    except Exception as exc:  # noqa: BLE001 - a failed cell is data, not an abort
        row["status"] = "failed"
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def cmd_experiment(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    jobs = min(args.jobs, os.cpu_count() or 1)
    config = json.loads(Path(args.config).read_text())
    if args.seed is not None:
        config["seed"] = args.seed
    cells = _experiment_cells(config)
    done: set[str] = set()
    out = Path(args.out)
    if out.exists():
        with open(out, newline="") as fh:
            done = {line["cell"] for line in csv.DictReader(fh)}
    pending = [c for c in cells if str(c["cell"]) not in done]
    if jobs > 1 and pending:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_cell, pending))
    else:
        rows = [_run_cell(c) for c in pending]
    new_file = not out.exists()
    with open(out, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=EXPERIMENT_COLUMNS)
        if new_file:
            writer.writeheader()
        for row in sorted(rows, key=lambda r: r["cell"]):
            writer.writerow(row)
    failed = sum(1 for r in rows if r["status"] != "ok")
    print(f"{len(rows)} cells run ({failed} failed), {len(done)} skipped; CSV at {out}")
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
    p.add_argument("--class", dest="klass", required=True, choices=["fhg", "anon", "anon-sp"])
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
    p.add_argument("--class", dest="klass", choices=["fhg", "anon", "anon-sp"])
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
    p.add_argument("--seed", type=int, help="override the config root seed")
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
    except (UsageError, PartitionError, FileNotFoundError, ValueError, KeyError) as exc:
        print(f"usage: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
