"""epsfc benchmark: four pipeline workloads, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fhg_verify --seed 1 --seconds 25 --trace 0

``--workload all`` runs the four workloads one after another. With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1`` it
prints the per-layer metrics and the tracing overhead, and writes a span file
under ``perfbench/out/``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every cell passed its output checks.

Each workload runs in a child process (``worker.py``), one at a time, with a
single thread and the default enumeration guards: ``EPSFC_MAX_N`` is removed
from the child's environment. ``setup_s`` is the median over ``SETUP_RUNS``
fresh processes, the measuring one included.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fhg_verify", "fhg_learn", "anon_pipeline", "empty_core")
SETUP_RUNS = 7
CHILD_TIMEOUT_S = 170


def child(args, workload: str, phase: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "EPSFC_MAX_N"}
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--phase", phase,
    ]
    if args.record:
        cmd.append("--record")
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [*cmd, "--t0", repr(t0)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {phase} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, workload: str) -> dict:
    setups = [child(args, workload, "setup")["setup_s"] for _ in range(SETUP_RUNS - 1)]
    result = child(args, workload, "measure")
    setups.append(result["setup_s"])
    if not args.trace:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setups), "unit": "s", "note": f"median of {len(setups)} set-ups"},
            **result["metrics"],
        }
        result["metrics"]["failed_frac"] = {
            "value": result["failed"] / result["attempted"],
            "unit": "ratio",
            "note": f"{result['failed']} of {result['attempted']} cells",
        }
    return result


def report(workload: str, result: dict) -> None:
    print(f"== {workload}: {result['attempted']} cells, {result['failed']} failed, "
          f"{result['reference_checked']} checked against recorded reference outputs")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']:6s} {m.get('note', '')}")
    for key, value in result["notes"].items():
        print(f"  {key}: {value}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")


def result_line(results: dict) -> dict:
    """The closing JSON object: totals over workloads and their metrics.

    ``failed_frac`` is left out of it: it reads 0 on a correct program, and
    the totals ``attempted`` and ``failed`` already carry it.
    """
    if len(results) == 1:
        (metrics,) = (r["metrics"] for r in results.values())
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results.values())
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": {
            k: {"value": v["value"], "unit": v["unit"]}
            for k, v in metrics.items()
            if not k.endswith("failed_frac")
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true",
        help="store digests of this run's cell outputs as reference values for the seed",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "epsfc" / "__init__.py").is_file():
        print(f"no epsfc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(args, name)
        report(name, results[name])
    line = result_line(results)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
