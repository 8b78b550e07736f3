"""Span tracing of the library's layers, done entirely from benchmark code.

The library has no tracing hooks, so :class:`Tracer` replaces public
functions and methods with timing wrappers while it is installed. Modules
import names directly (``admm.py`` does ``from .consensus import
fterc_final``), so a wrapper must replace the name where a caller looks it
up: every binding listed in :data:`TARGETS` is patched, and all restored on
exit.

Spans are ``(name, start, end, parent, op id)``. They are kept in flat
in-memory arrays while a pass runs and written out once, when the benchmark
ends. A span's self time is its duration minus the durations of its direct
children; calls nest strictly (one thread), so the self times of a root span
and all its descendants add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array

import numpy as np

# span name -> bindings that callers use, as (module, attribute) pairs.
# Attributes of a class (methods) are given as "Class.method".
TARGETS = {
    "admm.run": [("consensus_admm", "run_dadmm_fterc"),
                 ("consensus_admm.admm", "run_dadmm_fterc"),
                 ("consensus_admm", "run_fdadmm_ftdt"),
                 ("consensus_admm.admm", "run_fdadmm_ftdt"),
                 ("consensus_admm", "run_epsilon_baseline"),
                 ("consensus_admm.admm", "run_epsilon_baseline")],
    "admm.stopping": [("consensus_admm", "stopping_criterion"),
                      ("consensus_admm.admm", "stopping_criterion")],
    "objectives.x_update": [
        ("consensus_admm.objectives", "LeastSquaresObjective.solve_x_update"),
        ("consensus_admm.objectives", "LogisticObjective.solve_x_update")],
    "objectives.z_update": [("consensus_admm", "l1_z_update"),
                            ("consensus_admm.admm", "l1_z_update"),
                            ("consensus_admm.objectives", "l1_z_update")],
    "netsim.round": [("consensus_admm.netsim", "RoundEngine.run_round")],
    "netsim.prime": [("consensus_admm.netsim", "RoundEngine.prime")],
    "netsim.digest": [("consensus_admm", "stable_digest"),
                      ("consensus_admm.netsim", "stable_digest")],
    "consensus.ratio_update": [("consensus_admm", "ratio_update"),
                               ("consensus_admm.admm", "ratio_update"),
                               ("consensus_admm.consensus", "ratio_update")],
    "consensus.detector_feed": [
        ("consensus_admm.consensus", "HankelDetector.feed")],
    "consensus.fterc_final": [("consensus_admm", "fterc_final"),
                              ("consensus_admm.admm", "fterc_final"),
                              ("consensus_admm.consensus", "fterc_final")],
    "termination.ftdt_step": [("consensus_admm", "ftdt_step"),
                              ("consensus_admm.admm", "ftdt_step"),
                              ("consensus_admm.termination", "ftdt_step")],
    "termination.counter_message": [
        ("consensus_admm", "counter_message"),
        ("consensus_admm.admm", "counter_message"),
        ("consensus_admm.termination", "counter_message")],
    "termination.derive": [("consensus_admm", "derive_max_defect"),
                           ("consensus_admm.admm", "derive_max_defect"),
                           ("consensus_admm.termination",
                            "derive_max_defect")],
    "exact.run": [("consensus_admm", "exact_consensus_run"),
                  ("consensus_admm.admm", "exact_consensus_run"),
                  ("consensus_admm.exact", "exact_consensus_run")],
    "exact.ftdt_run": [("consensus_admm", "ftdt_run"),
                       ("consensus_admm.admm", "ftdt_run")],
    "graph.build": [("consensus_admm", "random_strongly_connected"),
                    ("consensus_admm.graph", "random_strongly_connected"),
                    ("consensus_admm", "build_digraph"),
                    ("consensus_admm.graph", "build_digraph"),
                    ("consensus_admm", "ratio_weights"),
                    ("consensus_admm.graph", "ratio_weights")],
    "oracle.reference": [
        ("consensus_admm", "centralized_least_squares"),
        ("consensus_admm.oracle", "centralized_least_squares"),
        ("consensus_admm", "centralized_l1_logistic"),
        ("consensus_admm.oracle", "centralized_l1_logistic"),
        ("consensus_admm", "minimal_poly_oracle"),
        ("consensus_admm.oracle", "minimal_poly_oracle")],
    "cli.write_csv": [("consensus_admm", "write_csv"),
                      ("consensus_admm.cli", "write_csv")],
}

# Spans opened by the benchmark itself: setup, one solver run (steady_small,
# where an operation is one step), and one operation elsewhere.
BENCH_SPANS = ("bench.setup", "bench.run", "bench.op")
NAMES = BENCH_SPANS + tuple(TARGETS)
_INDEX = {name: i for i, name in enumerate(NAMES)}


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.op = -1
        self.messages = 0          # RoundRecord.message_count seen by netsim
        self.refusals = 0          # NonIntegerResult raised by derive
        self._name = array("i")
        self._parent = array("i")
        self._opid = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._opid.append(self.op)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by benchmark code around setup or one operation."""
        idx = self._open(_INDEX[name])
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str):
        from consensus_admm import NonIntegerResult
        name_id = _INDEX[name]
        counts_messages = name in ("netsim.round", "netsim.prime")
        counts_refusals = name == "termination.derive"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except NonIntegerResult:
                if counts_refusals:
                    self.refusals += 1
                raise
            finally:
                self._close(idx)
            if counts_messages:
                self.messages += result.message_count
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for name, bindings in TARGETS.items():
            for module_name, attr in bindings:
                owner, leaf = _resolve(module_name, attr)
                original = owner.__dict__[leaf]
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(original, name)
                self._saved.append((owner, leaf, original))
                setattr(owner, leaf, wrappers[id(original)])

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns: name id, parent index, op id, start, end."""
        return {"name": np.frombuffer(self._name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
                "op": np.frombuffer(self._opid, dtype=np.int32).copy(),
                "start": np.frombuffer(self._start).copy(),
                "end": np.frombuffer(self._end).copy()}


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    return dur - covered


def layer_totals(spans: dict[str, np.ndarray]) -> tuple[dict, dict]:
    """Self seconds and call counts per span name."""
    own = self_times(spans)
    seconds = np.bincount(spans["name"], weights=own, minlength=len(NAMES))
    calls = np.bincount(spans["name"], minlength=len(NAMES))
    return ({n: float(seconds[i]) for i, n in enumerate(NAMES)},
            {n: int(calls[i]) for i, n in enumerate(NAMES)})


def replay_self_seconds(spans: dict[str, np.ndarray]) -> float:
    """Time in ``ftdt_run`` outside its ``exact_consensus_run`` children."""
    dur = spans["end"] - spans["start"]
    names, parent = spans["name"], spans["parent"]
    runs = names == _INDEX["exact.ftdt_run"]
    child = (names == _INDEX["exact.run"]) & (parent >= 0)
    child &= runs[np.where(parent >= 0, parent, 0)]
    return float(dur[runs].sum() - dur[child].sum())


def root_self_sums(spans: dict[str, np.ndarray]) -> list[tuple[float, float]]:
    """(root duration, summed self time of its subtree) for every root."""
    own = self_times(spans)
    parent = spans["parent"]
    root = np.arange(parent.size)
    # parents always precede children, so one forward sweep finds roots
    for i in range(parent.size):
        if parent[i] >= 0:
            root[i] = root[parent[i]]
    sums = np.bincount(root, weights=own, minlength=parent.size)
    dur = spans["end"] - spans["start"]
    return [(float(dur[i]), float(sums[i]))
            for i in np.flatnonzero(parent < 0)]


def write_spans(path, traces: dict[str, dict[str, np.ndarray]]) -> None:
    """Write labelled span tables to one archive, as ``<label>_<column>``."""
    columns = {}
    for label, spans in traces.items():
        for key, values in spans.items():
            columns[f"{label}_{key}"] = values
    np.savez_compressed(path, names=np.array(NAMES), **columns)
