"""Layer functions stay looked up by their module-global names at call time.

The benchmark's tracer (``perfbench/tracing.py``) times a layer by replacing
the module globals its callers use, such as ``netsim.stable_digest`` and
``admm.ratio_update``, with wrappers. Code that kept its own reference to
one of these functions (a default argument, an attribute, a closure) would
bypass the wrapper, and that layer would silently read zero. These tests
patch counting wrappers onto the same names and check the exact number of
calls each solver run implies.
"""

import pytest

from consensus_admm import (AdmmConfig, ftdt_run, make_least_squares_instance,
                            parse_config, random_strongly_connected,
                            run_dadmm_fterc, run_epsilon_baseline,
                            run_experiment, run_fdadmm_ftdt)
from consensus_admm import admm, netsim
from consensus_admm.admm import ALGORITHMS

PATCHED = ((netsim, "stable_digest"), (admm, "ratio_update"),
           (admm, "fterc_final"), (admm, "counter_message"),
           (admm, "ftdt_step"))


@pytest.fixture
def calls(monkeypatch):
    counts = {name: 0 for _, name in PATCHED}
    for module, name in PATCHED:
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return counts


@pytest.mark.parametrize("solver", [run_dadmm_fterc, run_fdadmm_ftdt,
                                    run_epsilon_baseline])
def test_every_layer_call_goes_through_the_module_global(calls, solver):
    n, steps = 5, 6
    objectives, _ = make_least_squares_instance(n, 2, 4, seed=3)
    graph = random_strongly_connected(n, 0.3, seed=1)
    record = solver(objectives, graph,
                    AdmmConfig(k_max=steps, stop_on_tolerance=False))
    assert record.steps == steps
    exchanges = int(record.consensus_rounds.sum())
    assert len(record.log) == steps + exchanges    # one seed wave per phase
    exact = solver is not run_epsilon_baseline
    assert calls == {
        # every logged wave is digested once, as one (n, w) block
        "stable_digest": len(record.log),
        # every exchange of every solver mixes the ratio pair once
        "ratio_update": exchanges,
        # an exact solver evaluates each step's phase in one call
        "fterc_final": steps if exact else 0,
        # the counter pair rides the seed wave and every exchange of the
        # fully distributed solver's first phase
        "counter_message": (record.consensus_rounds[0] + 1
                            if solver is run_fdadmm_ftdt else 0),
        # and every exchange of that phase steps the counters once
        "ftdt_step": (record.consensus_rounds[0]
                      if solver is run_fdadmm_ftdt else 0),
    }


def test_unaudited_phases_make_no_digest_calls(calls):
    graph = random_strongly_connected(6, 0.0, seed=2)
    result = ftdt_run(graph, [1.0, 2.0, 0.5, -1.0, 3.0, 0.0], exact=True)
    assert calls == {"stable_digest": 0, "ratio_update": 0,
                     "fterc_final": 0, "counter_message": result.rounds + 1,
                     "ftdt_step": result.rounds}


CONFIG = """\
[problem]
kind = least_squares
n = 4
p = 2
q = 5

[algorithm]
name = {name}

[admm]
k_max = 3
"""


@pytest.mark.parametrize("name", ALGORITHMS)
def test_the_cli_looks_its_solver_up_at_call_time(monkeypatch, tmp_path,
                                                  name):
    runs = []
    solver = getattr(admm, f"run_{name}")

    def counting(*args, **kwargs):
        runs.append(name)
        return solver(*args, **kwargs)

    monkeypatch.setattr(admm, f"run_{name}", counting)
    path = tmp_path / "run.ini"
    path.write_text(CONFIG.format(name=name), encoding="utf-8")
    _, record = run_experiment(parse_config(path), out=tmp_path)
    assert runs == [name] and record.algorithm == name
