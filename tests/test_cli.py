"""Config parsing, experiment running, CSV schema, and the console tool."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import consensus_admm
from consensus_admm import (CSV_COLUMNS, Comparison, ConfigError,
                            SchemaMismatch, compare_runs, parse_config,
                            read_csv, run_experiment, write_csv)
from consensus_admm.cli import _SECTION_KEYS, main

GOLDEN = Path(__file__).parent / "data" / "golden_ls_dadmm.csv"
README = Path(__file__).parents[1] / "README.md"

SMALL_LS = """\
# four nodes, tiny horizon
[problem]
kind = least_squares
n = 4
p = 2
q = 5
data_seed = 3

[graph]
extra_edge_prob = 0.4
seed = 1

[algorithm]
name = dadmm_fterc

[admm]
k_max = 12
stop_on_tolerance = false
init = zero

[output]
dir = out
"""


def _write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_config_happy_path(tmp_path):
    config = parse_config(_write(tmp_path, SMALL_LS))
    assert config.problem.kind == "least_squares"
    assert (config.problem.n, config.problem.p, config.problem.q) == (4, 2, 5)
    assert config.problem.data_seed == 3
    assert config.graph.extra_edge_prob == 0.4 and config.graph.seed == 1
    assert config.algorithm == "dadmm_fterc"
    assert config.admm.k_max == 12
    assert config.admm.stop_on_tolerance is False
    assert config.admm.init == "zero"
    assert config.out_dir == "out"


def test_parse_config_epsilon_rides_algorithm_section(tmp_path):
    text = SMALL_LS.replace("name = dadmm_fterc",
                            "name = epsilon_baseline\nepsilon = 0.05")
    config = parse_config(_write(tmp_path, text))
    assert config.algorithm == "epsilon_baseline"
    assert config.admm.epsilon == 0.05



# every key a config may set, as written and as parsed
EVERY_KEY = {
    "problem": {"kind": ("l1_logistic", "l1_logistic"), "n": ("4", 4),
                "p": ("3", 3), "q": ("6", 6), "m": ("40", 40),
                "noise": ("0.5", 0.5), "data_seed": ("11", 11),
                "mu_scale": ("0.2", 0.2)},
    "graph": {"extra_edge_prob": ("0.3", 0.3), "seed": ("5", 5)},
    "algorithm": {"name": ("epsilon_baseline", "epsilon_baseline"),
                  "epsilon": ("0.05", 0.05)},
    "admm": {"rho": ("2.0", 2.0), "k_max": ("7", 7), "eps_abs": ("1e-5", 1e-5),
             "eps_rel": ("1e-3", 1e-3), "n_prime": ("6", 6),
             "init": ("zero", "zero"), "seed": ("3", 3),
             "stop_on_tolerance": ("false", False)},
    "output": {"dir": ("elsewhere", "elsewhere")},
}


def test_parse_config_sets_every_accepted_key(tmp_path):
    assert {s: set(keys) for s, keys in EVERY_KEY.items()} == {
        s: set(keys) for s, keys in _SECTION_KEYS.items()}
    text = "".join(f"[{section}]\n" + "".join(
        f"{key} = {written}\n" for key, (written, _) in keys.items())
        for section, keys in EVERY_KEY.items())
    config = parse_config(_write(tmp_path, text))
    fields = {"problem": vars(config.problem), "graph": vars(config.graph),
              "algorithm": {"name": config.algorithm,
                            "epsilon": config.admm.epsilon},
              "admm": vars(config.admm), "output": {"dir": config.out_dir}}
    for section, keys in EVERY_KEY.items():
        for key, (_, parsed) in keys.items():
            value = fields[section][key]
            assert value == parsed and type(value) is type(parsed), (
                section, key)

@pytest.mark.parametrize("mutation, fragment", [
    (("[graph]", "[lattice]"), "unknown section"),
    (("extra_edge_prob = 0.4", "hops = 3"), "unknown key"),
    (("k_max = 12", "k_max = soon"), "expects a int"),
    (("name = dadmm_fterc", "name = gradient_descent"), "unknown algorithm"),
    (("kind = least_squares", "kind = portfolio"), "unknown problem kind"),
    (("n = 4", "n = 0"), "must be positive"),
    (("seed = 1", "seed = 1\nseed = 2"), "duplicate key"),
    (("stop_on_tolerance = false", "stop_on_tolerance = maybe"),
     "stop_on_tolerance expects a bool, got 'maybe'"),
    (("kind = least_squares", "kind = l1_logistic\nm = 3"),
     "need at least one sample per node"),
])
def test_parse_config_errors_carry_line_numbers(tmp_path, mutation, fragment):
    old, new = mutation
    path = _write(tmp_path, SMALL_LS.replace(old, new))
    with pytest.raises(ConfigError) as excinfo:
        parse_config(path)
    message = str(excinfo.value)
    assert fragment in message
    lineno = int(message.split(":")[1])
    assert message.startswith(f"{path}:")
    assert SMALL_LS.replace(old, new).splitlines()[lineno - 1]


def test_parse_config_missing_algorithm_name(tmp_path):
    text = SMALL_LS.replace("name = dadmm_fterc", "")
    with pytest.raises(ConfigError, match="missing required key 'name'"):
        parse_config(_write(tmp_path, text))


def test_parse_config_key_before_section(tmp_path):
    with pytest.raises(ConfigError, match="before any"):
        parse_config(_write(tmp_path, "n = 3\n" + SMALL_LS))


def _readme_config() -> str:
    """The example ``ini`` block under "Experiment files" in the README."""
    section = README.read_text(encoding="utf-8").split(
        "### Experiment files")[1]
    return section.split("```ini\n")[1].split("```")[0]


def test_readme_example_config_runs(tmp_path, capsys):
    # its values carry inline comments, which once became part of the value
    text = _readme_config()
    assert "n = 6                  # nodes" in text
    path = _write(tmp_path, text)
    config = parse_config(path)
    assert (config.problem.n, config.algorithm) == (6, "dadmm_fterc")
    assert config.admm.stop_on_tolerance is True
    assert main(["run", str(path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "dadmm_fterc-least_squares-s0.csv").exists()

    bad = _write(tmp_path, text.replace("n = 6 ", "n = x "), "bad.ini")
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 1
    assert f"{bad}:3: n expects a int, got 'x'\n" in capsys.readouterr().err


L1_LOGISTIC = """\
[problem]
kind = l1_logistic
n = 4
p = 3
m = 40
data_seed = 2

[graph]
extra_edge_prob = 0.3
seed = 1

[algorithm]
name = fdadmm_ftdt

[admm]
k_max = 8
stop_on_tolerance = false
"""


def test_main_runs_an_l1_logistic_config(tmp_path):
    path = _write(tmp_path, L1_LOGISTIC)
    for out in ("a", "b"):
        assert main(["run", str(path), "--out", str(tmp_path / out)]) == 0
    name = "fdadmm_ftdt-l1_logistic-s0.csv"
    table = read_csv(tmp_path / "a" / name)
    assert np.array_equal(table["k"], np.arange(1, 9))
    # no centralized reference for l1 problems: the bound columns are nan
    assert np.all(np.isnan(table["bound_lhs"]))
    assert np.all(np.isnan(table["bound_rhs"]))
    assert ((tmp_path / "a" / name).read_bytes()
            == (tmp_path / "b" / name).read_bytes())


def test_main_seed_overrides_the_solver_seed(tmp_path):
    path = _write(tmp_path, SMALL_LS.replace("init = zero", "init = random"))
    assert main(["run", str(path), "--out", str(tmp_path / "s0")]) == 0
    assert main(["run", str(path), "--seed", "5",
                 "--out", str(tmp_path / "s5")]) == 0
    assert [p.name for p in (tmp_path / "s5").iterdir()] == [
        "dadmm_fterc-least_squares-s5.csv"]
    assert ((tmp_path / "s0" / "dadmm_fterc-least_squares-s0.csv").read_bytes()
            != (tmp_path / "s5" / "dadmm_fterc-least_squares-s5.csv")
            .read_bytes())


def test_run_experiment_writes_schema_and_reruns_identically(tmp_path):
    config = parse_config(_write(tmp_path, SMALL_LS))
    path_a, record = run_experiment(config, out=tmp_path / "a")
    assert record.steps == 12
    table = read_csv(path_a)
    assert set(table) == set(CSV_COLUMNS)
    assert table["k"].size == 12
    assert np.array_equal(table["k"], np.arange(1, 13))
    assert np.allclose(table["objective"], record.objective, rtol=1e-12)
    assert np.array_equal(table["consensus_rounds"],
                          record.consensus_rounds.astype(float))
    # least-squares runs carry the gap-bound columns
    assert np.all(np.isfinite(table["bound_lhs"]))
    assert np.all(table["bound_rhs"] >= table["bound_lhs"] - 1e-8)
    path_b, _ = run_experiment(config, out=tmp_path / "b")
    assert path_a.read_bytes() == path_b.read_bytes()


def test_read_csv_rejects_wrong_schema(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("k,objective\n1,2.0\n", encoding="utf-8")
    with pytest.raises(SchemaMismatch):
        read_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text(",".join(CSV_COLUMNS) + "\n", encoding="utf-8")
    with pytest.raises(SchemaMismatch):
        read_csv(empty)
    header = ",".join(CSV_COLUMNS) + "\n"
    ragged = tmp_path / "ragged.csv"
    ragged.write_text(header + "1,0,0,0,1,nan,nan\n2,0,0\n", encoding="utf-8")
    with pytest.raises(SchemaMismatch) as err:
        read_csv(ragged)
    assert str(err.value) == f"{ragged}:3: expected 7 cells, got 3"
    word = tmp_path / "word.csv"
    word.write_text(header + "1,0,zero,0,1,nan,nan\n", encoding="utf-8")
    with pytest.raises(SchemaMismatch) as err:
        read_csv(word)
    assert str(err.value).startswith(f"{word}:2: ")
    assert "'zero'" in str(err.value)


def test_compare_runs_consistency(tmp_path):
    config = parse_config(_write(tmp_path, SMALL_LS))
    path_a, rec_a = run_experiment(config, out=tmp_path / "a")
    text_b = SMALL_LS.replace("name = dadmm_fterc", "name = fdadmm_ftdt")
    config_b = parse_config(_write(tmp_path, text_b, name="b.ini"))
    path_b, rec_b = run_experiment(config_b, out=tmp_path / "b")

    cmp = compare_runs([path_a, path_b])
    assert isinstance(cmp, Comparison)
    assert cmp.paths == [str(path_a), str(path_b)]
    assert np.allclose(cmp.objective_delta[0], 0.0)
    assert cmp.rounds_total[0] == rec_a.consensus_rounds.sum()
    assert cmp.rounds_after_warmup[1] == rec_b.consensus_rounds[2:].sum()
    assert cmp.final_objective[0] == pytest.approx(rec_a.objective[-1])
    # the two exact-averaging algorithms agree step by step
    assert np.max(np.abs(cmp.objective_delta[1])) < 1e-9

    with pytest.raises(SchemaMismatch):
        compare_runs([path_a])
    short = SMALL_LS.replace("k_max = 12", "k_max = 7")
    path_c, _ = run_experiment(parse_config(_write(tmp_path, short, "c.ini")),
                               out=tmp_path / "c")
    with pytest.raises(SchemaMismatch):
        compare_runs([path_a, path_c])


def test_write_csv_roundtrip_without_bounds(tmp_path):
    # a run without a reference leaves the bound columns as nan
    from consensus_admm import (AdmmConfig, make_least_squares_instance,
                                random_strongly_connected,
                                run_epsilon_baseline)
    objectives, _ = make_least_squares_instance(3, 2, 5, seed=2)
    graph = random_strongly_connected(3, extra_edge_prob=0.3, seed=0)
    record = run_epsilon_baseline(objectives, graph,
                                  AdmmConfig(k_max=3,
                                             stop_on_tolerance=False))
    path = tmp_path / "run.csv"
    write_csv(path, record)
    table = read_csv(path)
    assert np.all(np.isnan(table["bound_lhs"]))
    assert np.all(np.isnan(table["bound_rhs"]))
    target = tmp_path / "again.csv"
    write_csv(target, record)
    assert target.read_bytes() == path.read_bytes()


def test_golden_least_squares_run(tmp_path):
    """Pinned end-to-end numbers for the default warm-up experiment."""
    config = parse_config(_write(tmp_path, SMALL_LS))
    path, _ = run_experiment(config, out=tmp_path)
    golden = read_csv(GOLDEN)
    fresh = read_csv(path)
    assert np.array_equal(golden["k"], fresh["k"])
    assert np.array_equal(golden["consensus_rounds"],
                          fresh["consensus_rounds"])
    for column in ("objective", "primal_res", "dual_res",
                   "bound_lhs", "bound_rhs"):
        assert np.allclose(golden[column], fresh[column],
                           rtol=1e-10, atol=1e-12)


def test_main_run_and_compare(tmp_path, capsys):
    config_path = _write(tmp_path, SMALL_LS)
    out_a = tmp_path / "a"
    assert main(["run", str(config_path), "--out", str(out_a)]) == 0
    printed = capsys.readouterr().out
    assert "wrote " in printed and "final_objective=" in printed
    csv_a = out_a / "dadmm_fterc-least_squares-s0.csv"
    assert csv_a.exists()

    out_b = tmp_path / "b"
    assert main(["run", str(config_path), "--out", str(out_b)]) == 0
    csv_b = out_b / "dadmm_fterc-least_squares-s0.csv"
    assert main(["compare", str(csv_a), str(csv_b)]) == 0
    assert "max |objective delta|" in capsys.readouterr().out


def test_main_error_exit_codes(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.ini")]) == 1
    assert "error:" in capsys.readouterr().err

    bad = _write(tmp_path, SMALL_LS.replace("k_max = 12", "k_max = soon"))
    assert main(["run", str(bad)]) == 1
    assert "expects a int" in capsys.readouterr().err

    zero_rho = _write(tmp_path, SMALL_LS.replace("k_max = 12", "rho = 0"))
    assert main(["run", str(zero_rho)]) == 1
    assert f"{zero_rho}:17: rho must be positive" in capsys.readouterr().err

    for value in ("rho = nan", "eps_abs = inf"):
        odd = _write(tmp_path, SMALL_LS.replace("k_max = 12", value))
        assert main(["run", str(odd)]) == 1
        field = value.split()[0]
        assert f"{odd}:17: {field} must be finite" in capsys.readouterr().err

    for old, value, line, message in (
            ("data_seed = 3", "noise = nan", 7, "noise must be finite"),
            ("data_seed = 3", "noise = -0.5", 7, "noise must be nonnegative"),
            ("data_seed = 3", "data_seed = -1", 7,
             "data_seed must be nonnegative"),
            ("seed = 1", "seed = -1", 11, "seed must be nonnegative"),
            ("k_max = 12", "seed = -1", 17, "seed must be nonnegative"),
            ("data_seed = 3", "mu_scale = nan", 7, "mu_scale must be finite"),
            ("data_seed = 3", "mu_scale = -1", 7,
             "mu_scale must be nonnegative"),
            ("extra_edge_prob = 0.4", "extra_edge_prob = nan", 10,
             "extra_edge_prob must be finite"),
            ("extra_edge_prob = 0.4", "extra_edge_prob = 1.5", 10,
             "extra_edge_prob must be in [0, 1]"),
            ("extra_edge_prob = 0.4", "extra_edge_prob = -0.5", 10,
             "extra_edge_prob must be in [0, 1]"),
            ("[admm]", "[graph]", 16, "duplicate section [graph]"),
            ("k_max = 12", "k_max 12", 17,
             "expected '[section]' or 'key = value'")):
        odd = _write(tmp_path, SMALL_LS.replace(old, value))
        assert main(["run", str(odd)]) == 1
        assert f"{odd}:{line}: {message}" in capsys.readouterr().err

    small = _write(tmp_path, SMALL_LS.replace("init = zero", "n_prime = 2"))
    assert main(["run", str(small)]) == 1
    assert f"{small}:19: n_prime 2 is below" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exit_info:
        main(["run", str(_write(tmp_path, SMALL_LS)), "--seed", "-1"])
    assert exit_info.value.code == 2
    assert "--seed: must be nonnegative" in capsys.readouterr().err

    lone = tmp_path / "lone.csv"
    lone.write_text(",".join(CSV_COLUMNS) + "\n1,0,0,0,1,nan,nan\n",
                    encoding="utf-8")
    assert main(["compare", str(lone)]) == 2
    ragged = tmp_path / "ragged.csv"
    ragged.write_text(",".join(CSV_COLUMNS) + "\n1,0,0\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["compare", str(lone), str(ragged)]) == 1
    assert f"error: {ragged}:2: expected 7 cells" in capsys.readouterr().err


def test_python_dash_m_runs_the_command(tmp_path):
    env = {**os.environ,
           "PYTHONPATH": str(Path(consensus_admm.__file__).parents[1])}

    def run(*args):
        return subprocess.run([sys.executable, "-m", "consensus_admm", *args],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)

    good = run("run", str(_write(tmp_path, SMALL_LS)))
    assert good.returncode == 0 and "wrote" in good.stdout
    assert good.stderr == ""
    missing = run("run", str(tmp_path / "missing.ini"))
    assert missing.returncode == 1
    assert missing.stderr.startswith("error:")
    assert "Warning" not in missing.stderr
    assert run("compare", str(tmp_path / "one.csv")).returncode == 2
