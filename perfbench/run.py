"""Benchmark of the consensus-ADMM simulator: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
Every timed pass happens in a fresh worker process, one at a time: the
workloads are single-process and closed-loop, with one caller.

``--trace 0`` prints the end-to-end metrics: the median set-up time of
several set-up-only processes (``setup_s``), then from one measuring process
the median pass (``wall_s``), the median and 90th percentile over
operations of each operation's median latency, peak RSS, and the simulated
rounds and messages per step. The host's speed drifts by tens of percent,
over milliseconds and over minutes, so every solve time is divided by the
host's slowdown when it was taken, measured with a fixed kernel run between
operations (see ``calibrate.py``): they read as seconds on a quiet host.
``--trace 1`` runs one process that alternates untraced and traced passes
and prints the per-layer metrics, with the tracing overhead. The simulator
is single-threaded and synchronous with no queues, so there is no waiting
time to report.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``correct`` is false when a
referee check failed or the simulated counts differed between passes.
Solver errors the package raises on purpose (such as ``NonIntegerResult``
refusals) are failed operations, not incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("steady_small", "warmup_sweep", "exact_family")
SETUP_REPEATS = 5
BUDGET_S = 170   # every worker together, inside the 180 s a run may take

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms",
    "peak_rss_mb": "MB", "rounds_per_step": "rounds",
    "messages_per_step": "msgs",
}
PER_LAYER = {
    "netsim.round_self_s": "s", "netsim.rounds": "count",
    "netsim.prime_self_s": "s", "netsim.phases": "count",
    "netsim.digest_s": "s", "netsim.digests": "count",
    "netsim.messages": "count",
    "consensus.ratio_update_s": "s", "consensus.ratio_updates": "count",
    "consensus.detector_feed_s": "s", "consensus.detector_feeds": "count",
    "consensus.fterc_final_s": "s", "consensus.fterc_finals": "count",
    "termination.ftdt_step_s": "s", "termination.ftdt_steps": "count",
    "termination.counter_message_s": "s", "termination.refusals": "count",
    "exact.run_s": "s", "exact.runs": "count", "exact.replay_self_s": "s",
    "objectives.x_update_s": "s", "objectives.x_updates": "count",
    "objectives.z_update_s": "s",
    "admm.self_s": "s", "admm.stopping_s": "s", "admm.steps": "count",
    "admm.log_entries": "count", "admm.warmup_useful_share": "ratio",
    "graph.build_s": "s", "oracle.reference_s": "s",
    "cli.write_csv_s": "s", "trace.overhead_s": "s",
    "failed_share": "ratio",
}


def _worker(mode: str, args) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, args.workload,
           str(args.seed), str(args.seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=args.deadline - time.monotonic())
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {mode} worker exited with "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end(args, report) -> dict:
    setups = [_worker("setup", args)["setup_s"]
              for _ in range(SETUP_REPEATS)]
    latencies = report["op_norm_s"]
    counts = report["counts"]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(report["walls_norm_s"]),
        "op_ms_p50": 1e3 * statistics.median(latencies),
        "op_ms_p90": 1e3 * statistics.quantiles(latencies, n=10)[-1],
        "peak_rss_mb": report["peak_rss_mb"],
        "rounds_per_step": counts.get("rounds_per_step", 0.0),
        "messages_per_step": counts.get("messages_per_step", 0.0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    args.deadline = time.monotonic() + BUDGET_S
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "consensus_admm" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} holds no src/consensus_admm to benchmark",
              file=sys.stderr)
        return 2

    report = _worker("trace" if args.trace else "measure", args)
    attempted = report["attempted"]
    failed = sum(report["failures"].values())
    if args.trace:
        values = dict(report["layers"], failed_share=failed / attempted)
        units = PER_LAYER
    else:
        values = _end_to_end(args, report)
        units = END_TO_END
    correct = (report["counts_repeat"] and bool(report["counts"])
               and "wrong_output" not in report["failures"])

    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(report['walls_s'])} untraced")
    for name, unit in units.items():
        print(f"  {name:32s} {values[name]:.6g} {unit}")
    print(f"  failed {failed} of {attempted} operations"
          + "".join(f"; {k} {v}" for k, v in
                    sorted(report["failures"].items())))
    if not report["counts_repeat"]:
        print("  simulated counts differed between passes")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
