"""Bitwise fingerprints of the library's outputs, one sha256 per case.

    python tools/fingerprint.py [SRC]
    python tools/fingerprint.py --against REV

Imports ``consensus_admm`` from ``SRC``, by default the ``src/`` of the
checkout this script sits in, and prints one line per case, ``<case>
<sha256>``, then ``total <sha256>`` over all lines. A case hashes everything
its call returns: values, kernels, defects, stopping rounds, histories,
bound arrays, log entries (tick, label, kind, message count, digest) and
schedules, or, when the call refuses, the error's type and message.

``--against REV`` is the bitwise check of a change: it exports ``src/`` at
the git revision ``REV`` into a temporary directory, fingerprints that tree
and this checkout's ``src/`` in two subprocesses at once, prints each case
whose lines differ and how many of all cases do, and exits 1 if any do (2
if a run fails). Equal lines mean the change kept every case bitwise. It
pins no values, so a change that moves iterates on purpose needs no edit
here; its report simply names the cases that moved. The cases:

* ``fterc_run``, ``ftdt_run`` and ``ftdt_run(exact=True)`` on 224 seeded
  digraphs: n=2..15, ``extra_edge_prob`` 0, 0.1, 0.3 and 0.6, structure
  seeds 0 and 1, scalar seeds and width 3;
* the three solvers on least squares at n=4, 6, 9, 13, 20 and 40: 12 steps,
  with and without ``stop_on_tolerance`` (tolerances loose enough that
  most runs with it stop early), n' = n and n + 3, each record checked by
  ``check_o1k_bound`` against the reference, so the bound arrays are hashed
  too;
* the three solvers on l1 logistic at n=5, 8 and 12, rho 0.1, 1 and 10, 15
  steps;
* the epsilon baseline at epsilon from 1e-1 down to 1e-300;
* the three solvers on networks whose node 0 is a subclass term, which
  ``ObjectiveStacks`` evaluates through its own methods, node by node:
  least squares at n=6 and 13 (12 steps, checked by ``check_o1k_bound``)
  and l1 logistic at n=5 and 8 (15 steps);
* the three solvers for 500 steps on the benchmark's ``steady_small``
  instances, built as it builds them: least squares at n=6 (p=3, q=5) and
  l1 logistic at n=5 (200 rows, 10 features), node 0 a subclass term.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# RunRecord fields that hold the run's inputs as given, not its outputs
INPUTS = ("objectives", "regularizer")


def _feed(h, value) -> None:
    if isinstance(value, np.ndarray):
        h.update(f"<{value.dtype.str}{value.shape}>".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value):
        h.update(f"<{type(value).__name__}>".encode())
        for field in dataclasses.fields(value):
            if field.name not in INPUTS:
                h.update(field.name.encode())
                _feed(h, getattr(value, field.name))
    elif isinstance(value, (list, tuple)):
        h.update(f"<{len(value)}>".encode())
        for item in value:
            _feed(h, item)
    else:
        h.update(f"<{value!r}>".encode())


def _digest(call) -> str:
    try:
        outcome = call()
    except Exception as exc:   # a refusal is an outcome like any other
        outcome = ("refused", type(exc).__name__, str(exc))
    h = hashlib.sha256()
    _feed(h, outcome)
    return h.hexdigest()


def _checked(ca, record, reference):
    """``record`` with both sides of its O(1/k) bound attached."""
    ca.check_o1k_bound(record, reference)
    return record


def cases(ca):
    """``(name, call)`` pairs over the package ``ca``."""
    for n in range(2, 16):
        for prob in (0.0, 0.1, 0.3, 0.6):
            for structure in (0, 1):
                graph = ca.random_strongly_connected(n, prob, seed=structure)
                for width in (1, 3):
                    rng = np.random.default_rng([n, int(prob * 10),
                                                 structure, width])
                    shape = (n,) if width == 1 else (n, width)
                    seeds = rng.uniform(-5, 5, size=shape)
                    tag = f"n={n} p={prob} s={structure} w={width}"
                    yield f"fterc_run {tag}", (
                        lambda g=graph, y=seeds: ca.fterc_run(g, y))
                    yield f"ftdt_run {tag}", (
                        lambda g=graph, y=seeds: ca.ftdt_run(g, y))
                    yield f"ftdt_run(exact) {tag}", (
                        lambda g=graph, y=seeds: ca.ftdt_run(g, y, exact=True))

    solvers = (ca.run_dadmm_fterc, ca.run_fdadmm_ftdt, ca.run_epsilon_baseline)
    for n in (4, 6, 9, 13, 20, 40):
        objectives, _ = ca.make_least_squares_instance(n, 3, 6, seed=n)
        reference = ca.centralized_least_squares(
            [obj.mat for obj in objectives], [obj.rhs for obj in objectives])
        graph = ca.random_strongly_connected(n, min(0.3, 3 / n), seed=1)
        for stop in (False, True):
            for n_prime in (n, n + 3):
                config = ca.AdmmConfig(k_max=12, eps_abs=1e-2, eps_rel=1e-1,
                                       n_prime=n_prime, stop_on_tolerance=stop)
                for solver in solvers:
                    yield (f"{solver.__name__} least squares n={n} "
                           f"stop={stop} n'={n_prime}"), (
                        lambda s=solver, o=objectives, g=graph, c=config,
                        r=reference: _checked(ca, s(o, g, c), r))

    for n in (5, 8, 12):
        features, labels = ca.make_logistic_instance(20 * n, 3, seed=n)
        objectives = [ca.LogisticObjective(f, l)
                      for f, l in ca.split_rows(features, labels, n)]
        regularizer = ca.L1Regularizer(
            0.1 * ca.compute_mu_max(features, labels))
        graph = ca.random_strongly_connected(n, 0.3, seed=1)
        for rho in (0.1, 1.0, 10.0):
            config = ca.AdmmConfig(rho=rho, k_max=15, stop_on_tolerance=False)
            for solver in solvers:
                yield f"{solver.__name__} l1 logistic n={n} rho={rho}", (
                    lambda s=solver, o=objectives, g=graph, c=config,
                    r=regularizer: s(o, g, c, regularizer=r))

    objectives, _ = ca.make_least_squares_instance(5, 2, 5, seed=3)
    graph = ca.random_strongly_connected(5, 0.3, seed=1)
    for epsilon in (1e-1, 1e-2, 1e-4, 1e-8, 1e-16, 1e-100, 1e-300):
        config = ca.AdmmConfig(k_max=6, epsilon=epsilon,
                               stop_on_tolerance=False)
        yield f"run_epsilon_baseline epsilon={epsilon:g}", (
            lambda o=objectives, g=graph, c=config:
            ca.run_epsilon_baseline(o, g, c))

    for n in (6, 13):
        objectives, reference = _least_squares_network(ca, n, 3, 6, seed=n)
        graph = ca.random_strongly_connected(n, 0.3, seed=1)
        config = ca.AdmmConfig(k_max=12, stop_on_tolerance=False)
        for solver in solvers:
            yield f"{solver.__name__} least squares n={n} subclass node 0", (
                lambda s=solver, o=objectives, g=graph, c=config,
                r=reference: _checked(ca, s(o, g, c), r))
    for n in (5, 8):
        objectives, regularizer = _l1_logistic_network(ca, n, 20 * n, 3,
                                                       seed=n)
        graph = ca.random_strongly_connected(n, 0.3, seed=1)
        config = ca.AdmmConfig(k_max=15, stop_on_tolerance=False)
        for solver in solvers:
            yield f"{solver.__name__} l1 logistic n={n} subclass node 0", (
                lambda s=solver, o=objectives, g=graph, c=config,
                r=regularizer: s(o, g, c, regularizer=r))

    config = ca.AdmmConfig(rho=1.0, eps_abs=1e-4, eps_rel=1e-2,
                           stop_on_tolerance=False, k_max=500)
    objectives, _ = _least_squares_network(ca, 6, 3, 5, seed=6)
    graph = ca.random_strongly_connected(6, 0.2, seed=1)
    for solver in solvers:
        yield f"{solver.__name__} steady least squares n=6 500 steps", (
            lambda s=solver, o=objectives, g=graph: s(o, g, config))
    objectives, regularizer = _l1_logistic_network(ca, 5, 200, 10, seed=5)
    graph = ca.random_strongly_connected(5, 0.2, seed=1)
    for solver in solvers:
        yield f"{solver.__name__} steady l1 logistic n=5 500 steps", (
            lambda s=solver, o=objectives, g=graph, r=regularizer:
            s(o, g, config, regularizer=r))


def _least_squares_network(ca, n, p, q, seed):
    """Least-squares terms with node 0 a subclass term, and the reference."""
    objectives, _ = ca.make_least_squares_instance(n, p, q, seed=seed)
    subclass = type("PerNodeLeastSquares", (ca.LeastSquaresObjective,), {})
    objectives[0] = subclass(objectives[0].mat, objectives[0].rhs)
    reference = ca.centralized_least_squares(
        [obj.mat for obj in objectives], [obj.rhs for obj in objectives])
    return objectives, reference


def _l1_logistic_network(ca, n, rows, features, seed):
    """Logistic shards with node 0 a subclass term, and the l1 penalty at a
    tenth of the weight that zeroes every feature."""
    data, labels = ca.make_logistic_instance(rows, features, seed=seed)
    subclass = type("PerNodeLogistic", (ca.LogisticObjective,), {})
    shards = ca.split_rows(data, labels, n)
    objectives = [subclass(*shards[0])]
    objectives += [ca.LogisticObjective(*shard) for shard in shards[1:]]
    return objectives, ca.L1Regularizer(0.1 * ca.compute_mu_max(data, labels))


def fingerprint(src: Path) -> None:
    """Print every case's line, then the total, for the package in ``src``."""
    sys.path.insert(0, str(src.resolve()))
    import consensus_admm

    total = hashlib.sha256()
    for name, call in cases(consensus_admm):
        line = f"{name} {_digest(call)}"
        total.update(line.encode() + b"\n")
        print(line)
    print(f"total {total.hexdigest()}")


def _case_lines(text: str) -> dict[str, str]:
    """``{case: sha256}`` from one fingerprint run's output."""
    pairs = (line.rsplit(" ", 1) for line in text.splitlines())
    return {name: digest for name, digest in pairs if name != "total"}


def against(rev: str) -> int:
    """Compare ``rev``'s ``src/`` with this checkout's; 1 if a case differs."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        runs = [subprocess.Popen([sys.executable, __file__, str(src)],
                                 stdout=subprocess.PIPE, text=True)
                for src in (Path(tmp) / "src", SRC)]
        outputs = [run.communicate()[0] for run in runs]
    if any(run.returncode for run in runs):
        print("a fingerprint run failed", file=sys.stderr)
        return 2
    before, after = map(_case_lines, outputs)
    names = list(dict.fromkeys([*before, *after]))
    differ = [name for name in names if before.get(name) != after.get(name)]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} of {len(names)} cases differ between {rev} and "
          f"this checkout")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", type=Path, default=SRC,
                        help="the package tree to fingerprint")
    parser.add_argument("--against", metavar="REV",
                        help="compare REV's src/ with this checkout's")
    args = parser.parse_args(argv)
    if args.against is not None:
        return against(args.against)
    fingerprint(args.src)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
