"""Self-test of the benchmark: referees, failure accounting and tracing.

    python3 -m pytest perfbench -q
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import consensus_admm as ca  # noqa: E402
import run  # noqa: E402
from calibrate import Calibrator  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import (Tracer, layer_totals, root_self_sums,  # noqa: E402
                     self_times)

TINY = {
    "steady_small": {},
    "warmup_sweep": {"sizes": (8, 9), "repeats": 1},
    "exact_family": {"sizes": (2, 3, 4, 5)},
}


def _pass(name, tmp_path, tracer=None, seed=3):
    inputs = wl.SETUP[name](seed, tmp_path, **TINY[name])
    if tracer is None:
        return wl.REFEREE[name](inputs, wl.SOLVE[name](inputs))
    with tracer:
        solved = wl.SOLVE[name](inputs, tracer)
    return wl.REFEREE[name](inputs, solved)


def _refusal_graph():
    # tests/test_termination.py::test_heterogeneous_lag_is_refused_not_corrupted
    return ca.build_digraph(4, [(3, 0), (2, 1), (3, 1), (0, 2), (1, 3),
                                (2, 3)])


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_tiny_run_passes_referee(name, tmp_path):
    result = _pass(name, tmp_path)
    assert result.attempted == len(result.latencies_s)
    assert set(result.failures) <= {"NonIntegerResult"}
    assert result.counts["rounds_per_step"] > 0
    assert result.counts["messages_per_step"] > 0
    again = _pass(name, tmp_path)
    assert again.counts == result.counts and again.public == result.public


def test_refusal_is_one_failed_operation(tmp_path):
    rng = np.random.default_rng(5)
    family = {"instances": [wl.family_instance(_refusal_graph(), rng)]}
    result = wl.referee_exact_family(family, wl.solve_exact_family(family))
    assert (result.attempted, result.failures) == (1, {"NonIntegerResult": 1})

    sweep = {"instances": [wl.sweep_instance(_refusal_graph(), rng)]}
    result = wl.referee_warmup_sweep(sweep, wl.solve_warmup_sweep(sweep))
    assert (result.attempted, result.failures) == (3, {"NonIntegerResult": 1})


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_self_times_sum_to_each_operation(name, tmp_path):
    original = ca.admm.fterc_final
    tracer = Tracer()
    _pass(name, tmp_path, tracer)
    assert ca.admm.fterc_final is original   # uninstalled on exit
    spans = tracer.arrays()
    assert np.all(self_times(spans) >= -1e-9)
    roots = root_self_sums(spans)
    assert roots and all(abs(d - s) <= 1e-9 * max(1.0, d) for d, s in roots)
    # a workload whose operation is a root span tags its subtree with one id
    if name != "steady_small":
        parent, op = spans["parent"], spans["op"]
        children = parent >= 0
        assert np.array_equal(op[children], op[parent[children]])
        assert len(roots) == len(set(op[parent < 0]))


def test_layers_apart(tmp_path):
    exact = Tracer()
    _pass("exact_family", tmp_path, exact)
    seconds, calls = layer_totals(exact.arrays())
    assert calls["netsim.digest"] == 0 and seconds["netsim.digest"] == 0.0
    assert calls["exact.run"] > 0 and calls["exact.ftdt_run"] > 0

    sweep = Tracer()
    _pass("warmup_sweep", tmp_path, sweep)
    seconds, calls = layer_totals(sweep.arrays())
    assert calls["exact.run"] == 0 and seconds["exact.run"] == 0.0
    assert calls["netsim.digest"] > 0 and calls["termination.ftdt_step"] > 0
    assert sweep.messages > 0


def test_calibration_pauses_are_not_timed(tmp_path):
    inputs = wl.SETUP["exact_family"](3, tmp_path, sizes=(2, 3, 4))
    calibrator = Calibrator()

    def pause():
        calibrator.sample()
        time.sleep(0.2)

    solved = wl.SOLVE["exact_family"](inputs, pause=pause)
    assert len(calibrator.took) == 3
    assert sum(solved["latencies_s"]) <= solved["wall_s"] < 0.2
    assert calibrator.slowdown(solved["starts_s"][1]) > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
