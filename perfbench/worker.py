"""One workload in its own process: set up, run cells for a while, check them.

``run.py`` starts this script, one process at a time. ``--t0`` is the
monotonic clock reading taken just before the process was started, so the
set-up time reported here covers interpreter start, importing ``epsfc`` and
building the workload inputs.

With ``--phase setup`` the process stops after set-up. With ``--phase
measure`` it runs and checks cells until ``--seconds`` have passed, then
prints one JSON object. With ``--trace 1`` it runs each cell
untraced and then again with spans recorded, and writes the span file to
``perfbench/out/``.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "measure"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import epsfc
    import workloads as wl

    if Path(epsfc.__file__).resolve().parent != SRC / "epsfc":
        raise SystemExit(f"imported epsfc from {epsfc.__file__}, not from {SRC}")
    workload = wl.WORKLOADS[args.workload](args.seed)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    reference = wl.load_reference(args.workload, args.seed)
    deadline = time.perf_counter() + args.seconds
    notes = {}
    try:
        if args.trace:
            tracer = wl.SpanTracer()
            plain, traced = wl.run_paired(workload, tracer, reference, deadline=deadline)
            metrics = wl.per_layer(tracer.spans, traced, plain)
            wl.OUT_DIR.mkdir(exist_ok=True)
            trace_file = wl.OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
            with open(trace_file, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
            notes = {"trace_file": str(trace_file.relative_to(SRC.parent)), "cells": len(plain)}
            cells = plain + traced
        else:
            plain = cells = wl.run_cells(workload, reference, deadline=deadline)
            metrics = wl.end_to_end(cells)
            metrics["peak_rss_mb"] = {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            }
    finally:
        workload.close()

    failed = sum(1 for c in cells if c["problems"])
    if args.record and not failed:
        wl.record_reference(args.workload, args.seed, [c["digest"] for c in plain])
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "attempted": len(cells),
                "failed": failed,
                "problems": [
                    f"cell {k % len(plain)}: {msg}" for k, c in enumerate(cells) for msg in c["problems"]
                ][:20],
                "reference_checked": min(len(reference or ()), len(plain)),
                "metrics": metrics,
                "notes": notes,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
