"""One fresh benchmark process: set a workload up, then run timed passes.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS

MODE is ``setup`` (time the set-up and exit), ``measure`` (untraced passes)
or ``trace`` (alternating untraced and traced passes). The set-up clock
starts before any import, so ``setup_s`` covers the package import plus
building every input and reference. Passes repeat on the same inputs until
the next one would overrun SECONDS, with a floor of two passes and, when
measuring, of enough operations for a 90th percentile. Untraced passes stop
between operations for calibration samples (``calibrate.py``), which no
timing includes; each time is then divided by the host's slowdown when it
was taken. The raw timings and samples are written to
``.perfbench/raw-<workload>-seed<n>.json``. Prints one JSON line.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import Calibrator  # noqa: E402
from tracing import (Tracer, layer_totals, replay_self_seconds,  # noqa: E402
                     write_spans)

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2
MIN_OPS = 100   # a 90th percentile needs ten samples beyond it
WARMUP_SAMPLES = 16   # calibration samples before the first pass


def _import_package() -> None:
    """Import ``consensus_admm`` from this checkout's sources, nowhere else."""
    package = ROOT / "src" / "consensus_admm"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {package}")
    sys.path.insert(0, str(package.parent))
    import consensus_admm
    if Path(consensus_admm.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported {consensus_admm.__file__}, "
                 f"not the checkout's package")


def _layers(spans, tracer, result) -> dict:
    secs, calls = layer_totals(spans)
    return {
        "netsim.round_self_s": secs["netsim.round"],
        "netsim.rounds": calls["netsim.round"],
        "netsim.prime_self_s": secs["netsim.prime"],
        "netsim.phases": calls["netsim.prime"],
        "netsim.digest_s": secs["netsim.digest"],
        "netsim.digests": calls["netsim.digest"],
        "netsim.messages": tracer.messages,
        "consensus.ratio_update_s": secs["consensus.ratio_update"],
        "consensus.ratio_updates": calls["consensus.ratio_update"],
        "consensus.detector_feed_s": secs["consensus.detector_feed"],
        "consensus.detector_feeds": calls["consensus.detector_feed"],
        "consensus.fterc_final_s": secs["consensus.fterc_final"],
        "consensus.fterc_finals": calls["consensus.fterc_final"],
        "termination.ftdt_step_s": secs["termination.ftdt_step"],
        "termination.ftdt_steps": calls["termination.ftdt_step"],
        "termination.counter_message_s": secs["termination.counter_message"],
        "termination.refusals": tracer.refusals,
        "exact.run_s": secs["exact.run"],
        "exact.runs": calls["exact.run"],
        "exact.replay_self_s": replay_self_seconds(spans),
        "objectives.x_update_s": secs["objectives.x_update"],
        "objectives.x_updates": calls["objectives.x_update"],
        "objectives.z_update_s": secs["objectives.z_update"],
        "admm.self_s": secs["admm.run"],
        "admm.stopping_s": secs["admm.stopping"],
        **result.public,
        "cli.write_csv_s": secs["cli.write_csv"],
    }


def _normalised(result, calibrator):
    """A pass's wall time and operation latencies, each divided by the
    host's slowdown when it ran."""
    lat = [d / calibrator.slowdown(t + d / 2)
           for t, d in zip(result.starts_s, result.latencies_s)]
    rest = result.wall_s - sum(result.latencies_s)
    mid = result.starts_s[len(result.starts_s) // 2]
    return sum(lat) + rest / calibrator.slowdown(mid), lat


def write_raw(path, results, calibrator) -> None:
    """Keep the untraced passes' raw timings and the calibration samples."""
    path.write_text(json.dumps({
        "passes": [{"wall_s": r.wall_s, "starts_s": r.starts_s,
                    "latencies_s": r.latencies_s} for r in results],
        "calibration": {"at": calibrator.at, "took": calibrator.took}}))


def main(argv) -> int:
    mode, workload, seed, seconds = argv[0], argv[1], int(argv[2]), \
        float(argv[3])
    _import_package()
    import workloads as wl

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    setup_tracer = Tracer() if mode == "trace" else None
    with setup_tracer or nullcontext(), wl.span(setup_tracer, "bench.setup"):
        inputs = wl.SETUP[workload](seed, out_dir)
    setup_s = time.perf_counter() - _START
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    calibrator = Calibrator()
    for _ in range(WARMUP_SAMPLES):
        calibrator.sample()

    passes = []          # (traced, PassResult, per-layer figures or None)
    traces = {"setup": setup_tracer.arrays()} if setup_tracer else {}
    ops = 0
    begin = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        tracer = Tracer() if mode == "trace" and len(passes) % 2 else None
        # untraced passes pause for calibration samples between operations
        pause = calibrator.sample if tracer is None else None
        with tracer or nullcontext():
            solved = wl.SOLVE[workload](inputs, tracer, pause)
        result = wl.REFEREE[workload](inputs, solved)
        del solved   # the next pass's peak must not include this one
        layers = None
        if tracer is not None:
            spans = tracer.arrays()
            traces[f"pass{len(passes)}"] = spans
            layers = _layers(spans, tracer, result)
        passes.append((tracer is not None, result, layers))
        ops += len(result.latencies_s)
        now = time.perf_counter()
        enough = len(passes) >= MIN_PASSES and (mode == "trace"
                                                 or ops >= MIN_OPS)
        if enough and now - begin + (now - pass_start) > seconds:
            break

    results = [r for _, r, _ in passes]
    failures: dict[str, int] = {}
    for r in results:
        for category, count in r.failures.items():
            failures[category] = failures.get(category, 0) + count
    untraced = [r for t, r, _ in passes if not t]
    normalised = [_normalised(r, calibrator) for r in untraced]
    write_raw(out_dir / f"raw-{workload}-seed{seed}.json", untraced,
              calibrator)
    report = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "walls_s": [r.wall_s for r in untraced],
        "walls_norm_s": [w for w, _ in normalised],
        # each operation's median normalised latency over the passes
        "op_norm_s": [statistics.median(column) for column in
                      zip(*(lat for _, lat in normalised))],
        "attempted": sum(r.attempted for r in results),
        "failures": failures,
        "counts": results[0].counts,
        "counts_repeat": all(r.counts == results[0].counts
                             and r.public == results[0].public
                             for r in results),
    }
    if mode == "trace":
        traced = [layers for t, _, layers in passes if t]
        figures = {key: statistics.median(p[key] for p in traced)
                   for key in traced[0]}
        setup_secs, _ = layer_totals(traces["setup"])
        figures["graph.build_s"] = setup_secs["graph.build"]
        figures["oracle.reference_s"] = setup_secs["oracle.reference"]
        # traced minus untraced wall_s, each the fastest pass of its kind
        figures["trace.overhead_s"] = (
            min(r.wall_s for t, r, _ in passes if t) - min(report["walls_s"]))
        report["layers"] = figures
        write_spans(out_dir / f"spans-{workload}-seed{seed}.npz", traces)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
