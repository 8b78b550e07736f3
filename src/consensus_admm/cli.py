"""Config-driven experiment runner and CSV comparison tool.

Experiments are described by a small INI-style file (``[section]`` headers,
``key = value`` lines, ``#``/``;`` comments). A run produces one CSV with a
fixed schema; ``compare`` lines up two or more such CSVs step by step.

Example config::

    [problem]
    kind = least_squares
    n = 3
    p = 2
    q = 4

    [graph]
    extra_edge_prob = 0.2
    seed = 1

    [algorithm]
    name = dadmm_fterc

    [admm]
    k_max = 100

    [output]
    dir = runs
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .admm import (ALGORITHMS, AdmmConfig, RunRecord, run_dadmm_fterc,
                   run_epsilon_baseline, run_fdadmm_ftdt)
from .errors import ConfigError, ConsensusAdmmError, SchemaMismatch
from .graph import random_strongly_connected
from .objectives import (L1Regularizer, LogisticObjective, compute_mu_max,
                         make_least_squares_instance, make_logistic_instance,
                         split_rows)
from .oracle import centralized_least_squares

CSV_COLUMNS = ("k", "objective", "primal_res", "dual_res",
               "consensus_rounds", "bound_lhs", "bound_rhs")

_RUNNERS = {
    "dadmm_fterc": run_dadmm_fterc,
    "fdadmm_ftdt": run_fdadmm_ftdt,
    "epsilon_baseline": run_epsilon_baseline,
}

# section -> {key: type}: the keys a config may set, and how each parses
_SECTION_KEYS = {
    "problem": {"kind": str, "n": int, "p": int, "q": int, "m": int,
                "noise": float, "data_seed": int, "mu_scale": float},
    "graph": {"extra_edge_prob": float, "seed": int},
    "algorithm": {"name": str, "epsilon": float},
    "admm": {"rho": float, "k_max": int, "eps_abs": float, "eps_rel": float,
             "n_prime": int, "init": str, "seed": int,
             "stop_on_tolerance": bool},
    "output": {"dir": str},
}


@dataclass
class ProblemSpec:
    """What data the experiment solves over."""

    kind: str = "least_squares"
    n: int = 3
    p: int = 2
    q: int = 5           # rows per node (least squares)
    m: int = 200         # total samples (logistic)
    noise: float = 1.0
    data_seed: int = 7
    mu_scale: float = 0.1  # l1 weight as a fraction of the critical weight


@dataclass
class GraphSpec:
    extra_edge_prob: float = 0.1
    seed: int = 0


@dataclass
class ExperimentConfig:
    problem: ProblemSpec
    graph: GraphSpec
    algorithm: str
    admm: AdmmConfig
    out_dir: str = "runs"


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _parse_sections(path: str | Path):
    """Read [section] / key=value lines, keeping line numbers for errors."""
    path = Path(path)
    sections: dict[str, dict[str, tuple[int, str]]] = {}
    header_lines: dict[str, int] = {}
    current: str | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith(("#", ";")):
                continue
            if line.startswith("[") and line.endswith("]"):
                name = line[1:-1].strip()
                if name not in _SECTION_KEYS:
                    raise ConfigError(path, lineno, f"unknown section [{name}]")
                if name in sections:
                    raise ConfigError(path, lineno, f"duplicate section [{name}]")
                sections[name] = {}
                header_lines[name] = lineno
                current = name
            elif "=" in line:
                if current is None:
                    raise ConfigError(path, lineno,
                                      "key=value before any [section]")
                key, _, value = line.partition("=")
                key = key.strip()
                value = value.strip()
                if key not in _SECTION_KEYS[current]:
                    raise ConfigError(path, lineno,
                                      f"unknown key {key!r} in [{current}]")
                if key in sections[current]:
                    raise ConfigError(path, lineno, f"duplicate key {key!r}")
                sections[current][key] = (lineno, value)
            else:
                raise ConfigError(path, lineno,
                                  "expected '[section]' or 'key = value'")
    return path, sections, header_lines


def _convert(path, lineno, key, text, kind):
    try:
        if kind is bool:
            lowered = text.lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(text)
        return kind(text)
    except ValueError:
        raise ConfigError(path, lineno,
                          f"{key} expects a {kind.__name__}, got {text!r}")


def _fill(path, sections, name, spec_obj):
    """Overwrite dataclass fields from one parsed section, with typing."""
    types = _SECTION_KEYS[name]
    for key, (lineno, text) in sections.get(name, {}).items():
        setattr(spec_obj, key, _convert(path, lineno, key, text, types[key]))
    return spec_obj


def parse_config(path: str | Path) -> ExperimentConfig:
    """Parse an experiment description, failing with file:line context."""
    path, sections, headers = _parse_sections(path)

    problem = _fill(path, sections, "problem", ProblemSpec())
    graph = _fill(path, sections, "graph", GraphSpec())
    admm = _fill(path, sections, "admm", AdmmConfig())

    algo_section = sections.get("algorithm", {})
    if "name" not in algo_section:
        line = headers.get("algorithm", 0)
        raise ConfigError(path, line, "missing required key 'name' "
                                      "in [algorithm]")
    name_line, name = algo_section["name"]
    if name not in ALGORITHMS:
        raise ConfigError(path, name_line,
                          f"unknown algorithm {name!r}; choose one of "
                          + ", ".join(ALGORITHMS))
    if "epsilon" in algo_section:
        eps_line, eps_text = algo_section["epsilon"]
        admm.epsilon = _convert(path, eps_line, "epsilon", eps_text,
                                _SECTION_KEYS["algorithm"]["epsilon"])

    def line_of(section, key):
        return sections.get(section, {}).get(key,
                                             (headers.get(section, 0),))[0]

    if problem.kind not in ("least_squares", "l1_logistic"):
        raise ConfigError(path, line_of("problem", "kind"),
                          f"unknown problem kind {problem.kind!r}")
    for field_name in ("n", "p", "q", "m"):
        if getattr(problem, field_name) < 1:
            raise ConfigError(path, line_of("problem", field_name),
                              f"{field_name} must be positive")
    if problem.kind == "l1_logistic" and problem.m < problem.n:
        raise ConfigError(path, line_of("problem", "m"),
                          "need at least one sample per node")
    for section, field_name, value in (
            ("problem", "data_seed", problem.data_seed),
            ("graph", "seed", graph.seed)):
        if value < 0:
            raise ConfigError(path, line_of(section, field_name),
                              f"{field_name} must be nonnegative")
    for section, field_name, value, upper in (
            ("problem", "noise", problem.noise, math.inf),
            ("problem", "mu_scale", problem.mu_scale, math.inf),
            ("graph", "extra_edge_prob", graph.extra_edge_prob, 1.0)):
        if not math.isfinite(value):
            raise ConfigError(path, line_of(section, field_name),
                              f"{field_name} must be finite")
        if not 0.0 <= value <= upper:
            bounds = "nonnegative" if upper == math.inf else "in [0, 1]"
            raise ConfigError(path, line_of(section, field_name),
                              f"{field_name} must be {bounds}")

    try:
        admm.validate(problem.n)
    except ValueError as exc:
        field_name = str(exc).split()[0]
        lines = {key: lineno for key, (lineno, _)
                 in {**algo_section, **sections.get("admm", {})}.items()}
        raise ConfigError(path, lines.get(field_name, headers.get("admm", 0)),
                          str(exc))

    out_dir = "runs"
    if "dir" in sections.get("output", {}):
        out_dir = sections["output"]["dir"][1]
    return ExperimentConfig(problem=problem, graph=graph, algorithm=name,
                            admm=admm, out_dir=out_dir)


# ---------------------------------------------------------------------------
# Running experiments
# ---------------------------------------------------------------------------

def build_instance(problem: ProblemSpec):
    """Materialize (objectives, regularizer, reference) for a problem spec."""
    if problem.kind == "least_squares":
        objectives, _ = make_least_squares_instance(
            problem.n, problem.p, problem.q, problem.data_seed,
            noise=problem.noise)
        reference = centralized_least_squares(
            [obj.mat for obj in objectives], [obj.rhs for obj in objectives])
        return objectives, None, reference
    features, labels = make_logistic_instance(problem.m, problem.p,
                                              problem.data_seed,
                                              noise=problem.noise)
    shards = split_rows(features, labels, problem.n)
    objectives = [LogisticObjective(f, l) for f, l in shards]
    mu = problem.mu_scale * compute_mu_max(features, labels)
    # The reference for l1 problems is intentionally not computed here: the
    # proximal-gradient oracle is expensive and the CSV bound columns are
    # only defined for the smooth case.
    return objectives, L1Regularizer(mu), None


def run_experiment(config: ExperimentConfig, *, seed: int | None = None,
                   out: str | Path | None = None) -> tuple[Path, RunRecord]:
    """Run one configured experiment and write its CSV.

    ``seed`` overrides the solver seed, ``out`` the output directory. The
    CSV is a pure function of the config (plus overrides): reruns are
    byte-identical.
    """
    admm = dataclasses.replace(config.admm)
    if seed is not None:
        admm.seed = seed
    objectives, regularizer, reference = build_instance(config.problem)
    graph = random_strongly_connected(config.problem.n,
                                      config.graph.extra_edge_prob,
                                      seed=config.graph.seed)
    runner = _RUNNERS[config.algorithm]
    record = runner(objectives, graph, admm, regularizer=regularizer,
                    reference=reference)

    out_dir = Path(out) if out is not None else Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / (f"{config.algorithm}-{config.problem.kind}"
                          f"-s{admm.seed}.csv")
    write_csv(csv_path, record)
    return csv_path, record


def write_csv(path: str | Path, record: RunRecord) -> None:
    """One row per ADMM step, floats at full precision."""
    lhs = record.bound_lhs
    rhs = record.bound_rhs
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for t in range(record.steps):
            writer.writerow([
                int(record.k[t]),
                f"{record.objective[t]:.12e}",
                f"{record.primal_res[t]:.12e}",
                f"{record.dual_res[t]:.12e}",
                int(record.consensus_rounds[t]),
                f"{lhs[t]:.12e}" if lhs is not None else "nan",
                f"{rhs[t]:.12e}" if rhs is not None else "nan",
            ])


def read_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Load a results CSV, enforcing the exact schema."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != CSV_COLUMNS:
            raise SchemaMismatch(f"{path}: expected columns "
                                 f"{','.join(CSV_COLUMNS)}")
        rows = []
        for row in reader:
            try:
                if len(row) != len(CSV_COLUMNS):
                    raise ValueError(f"expected {len(CSV_COLUMNS)} cells, "
                                     f"got {len(row)}")
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                where = f"{path}:{reader.line_num}"
                raise SchemaMismatch(f"{where}: {exc}") from None
    if not rows:
        raise SchemaMismatch(f"{path}: no data rows")
    data = np.array(rows)
    return {name: data[:, idx] for idx, name in enumerate(CSV_COLUMNS)}


@dataclass
class Comparison:
    """Step-aligned comparison of several result CSVs (first file is base)."""

    paths: list[str]
    k: np.ndarray
    objectives: np.ndarray        # (files, steps)
    rounds: np.ndarray            # (files, steps)
    objective_delta: np.ndarray   # vs the first file
    rounds_delta: np.ndarray
    rounds_total: np.ndarray      # (files,)
    rounds_after_warmup: np.ndarray  # totals over steps 3..end
    final_objective: np.ndarray


def compare_runs(paths) -> Comparison:
    """Align two or more result CSVs on their step column and diff them."""
    paths = [str(p) for p in paths]
    if len(paths) < 2:
        raise SchemaMismatch("need at least two CSV files to compare")
    tables = [read_csv(p) for p in paths]
    k = tables[0]["k"]
    for path, table in zip(paths[1:], tables[1:]):
        if table["k"].shape != k.shape or not np.array_equal(table["k"], k):
            raise SchemaMismatch(f"{path}: step column does not match "
                                 f"{paths[0]}")
    objectives = np.stack([t["objective"] for t in tables])
    rounds = np.stack([t["consensus_rounds"] for t in tables])
    tail = k > 2
    return Comparison(
        paths=paths, k=k, objectives=objectives, rounds=rounds,
        objective_delta=objectives - objectives[0],
        rounds_delta=rounds - rounds[0],
        rounds_total=rounds.sum(axis=1),
        rounds_after_warmup=rounds[:, tail].sum(axis=1),
        final_objective=objectives[:, -1],
    )


def _print_comparison(cmp: Comparison) -> None:
    width = max(len(p) for p in cmp.paths)
    print(f"{'file':<{width}}  {'rounds':>10}  {'rounds(k>2)':>12}  "
          f"{'final objective':>20}")
    for idx, path in enumerate(cmp.paths):
        print(f"{path:<{width}}  {int(cmp.rounds_total[idx]):>10}  "
              f"{int(cmp.rounds_after_warmup[idx]):>12}  "
              f"{cmp.final_objective[idx]:>20.12e}")
    for idx, path in enumerate(cmp.paths[1:], start=1):
        dobj = float(np.max(np.abs(cmp.objective_delta[idx])))
        drnd = int(np.sum(cmp.rounds_delta[idx]))
        print(f"vs {cmp.paths[0]}: {path}: max |objective delta| = "
              f"{dobj:.6e}, consensus-round difference = {drnd:+d}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="consensus-admm",
        description="Distributed consensus-ADMM experiments on directed "
                    "graphs with finite-time exact averaging.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured experiment")
    p_run.add_argument("config", help="path to an INI-style experiment file")
    p_run.add_argument("--seed", type=_nonnegative_int, default=None,
                       help="override the solver seed")
    p_run.add_argument("--out", default=None,
                       help="override the output directory")

    p_cmp = sub.add_parser("compare", help="diff two or more result CSVs")
    p_cmp.add_argument("csvs", nargs="+", help="result files (first is base)")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = parse_config(args.config)
            csv_path, record = run_experiment(config, seed=args.seed,
                                              out=args.out)
            total_rounds = int(record.consensus_rounds.sum())
            print(f"wrote {csv_path}")
            print(f"steps={record.steps} stopped_early={record.stopped_early} "
                  f"consensus_rounds={total_rounds} "
                  f"final_objective={record.final_objective():.12e}")
            return 0
        if len(args.csvs) < 2:
            print("error: compare needs at least two CSV files",
                  file=sys.stderr)
            return 2
        _print_comparison(compare_runs(args.csvs))
        return 0
    except (ConsensusAdmmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
