import csv
import importlib.metadata
import io
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from nashgrid import SolverConfig, cli, discretize, make_grid, solve_all
from nashgrid.cli import (BLOCKS, ConfigError, DiscretizationConfig,
                          RunSettings, config_to_json, load_config, main,
                          parse_config)

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def small_config(**run_overrides):
    doc = {
        "model": {
            "firms": [
                {"c": 6.0, "k": 5.0, "b": 1.0,
                 "q_bar": {"kind": "constant", "value": 200.0}},
                {"c": 4.0, "k": 5.0, "b": 0.9,
                 "q_bar": {"kind": "constant", "value": 200.0}},
            ],
            "a": 1 / 1.1,
            "e": 1e-4,
        },
        "factors": {
            "r": {"kind": "truncated_normal", "mu": 0.0, "sigma": 0.25,
                  "lo": -0.5, "hi": 0.5},
            "s": {"kind": "truncated_normal", "mu": 5000.0, "sigma": 10.0,
                  "lo": 4950.0, "hi": 5050.0},
        },
        "discretization": {"n_r": 3, "n_s": 4},
        "solver": {"tolerance": 1e-8},
        "run": {"mode": "discretize", "parallelism": 1},
    }
    doc["run"].update(run_overrides)
    return doc


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_config_round_trips():
    cfg = parse_config(small_config())
    again = parse_config(config_to_json(cfg))
    assert again == cfg
    assert cfg.instance.m == 2
    assert cfg.discretization.n_r == 3
    assert cfg.run.mode == "discretize"


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")),
                         ids=lambda p: p.stem)
def test_shipped_configs_round_trip(path):
    cfg = load_config(path)
    assert parse_config(config_to_json(cfg)) == cfg


@pytest.mark.parametrize("block, cls", [("discretization", DiscretizationConfig),
                                        ("solver", SolverConfig),
                                        ("run", RunSettings)])
def test_flat_blocks_accept_exactly_the_dataclass_fields(block, cls):
    cfg = parse_config(small_config())
    dumped = config_to_json(cfg)[block]
    assert set(dumped) == {f.name for f in fields(cls)}
    doc = small_config()
    doc[block] = dumped
    assert getattr(parse_config(doc), block) == getattr(cfg, block)
    doc[block] = dict(dumped, extra=1)
    with pytest.raises(ConfigError, match=f"{block}: unknown keys"):
        parse_config(doc)


def test_readme_schema_example_lists_exactly_the_dataclass_fields():
    text = (CONFIGS.parent / "README.md").read_text()
    example = re.search(r"```jsonc\n(.*?)```", text, re.S).group(1)
    example = re.sub(r"//[^\n]*", "", example)
    for block, cls in BLOCKS.items():
        body = re.search(rf'"{block}": \{{(.*?)\n  \}}', example, re.S).group(1)
        # only the block's own keys: drop nested objects such as rules
        body = re.sub(r"\{[^{}]*\}", "", body)
        assert set(re.findall(r'"(\w+)"\s*:', body)) == \
            {f.name for f in fields(cls)}, block


def test_unknown_keys_rejected(tmp_path, capsys):
    for where, key in [("top level", "extra"), ("model", "markup"),
                       ("run", "threads"),
                       ("solver", "gamma"), ("solver", "step_shrink")]:
        doc = small_config()
        (doc if where == "top level" else doc[where])[key] = 1.0
        with pytest.raises(ConfigError,
                           match=rf"{where}: unknown keys \['{key}'\]"):
            parse_config(doc)
        assert main(["solve", "--config", write_config(tmp_path, doc)]) == 2
        assert repr(key) in capsys.readouterr().err


def test_model_invariants_surface_as_config_errors():
    doc = small_config()
    doc["model"]["a"] = 1.5
    with pytest.raises(ConfigError, match=r"a must lie in \(0, 1\)"):
        parse_config(doc)
    doc = small_config()
    doc["factors"]["s"] = {"kind": "uniform", "lo": -1.0, "hi": 100.0}
    with pytest.raises(ConfigError, match="s"):
        parse_config(doc)


def test_numbers_reject_booleans_and_strings():
    doc = small_config()
    doc["model"]["e"] = True
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config(doc)
    doc = small_config()
    doc["solver"]["tolerance"] = "tight"
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config(doc)


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _where(path):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                   for k in path)[1:]


BAD_NUMBERS = [
    (("discretization", "n_r"), 3.5),
    (("solver", "max_iterations"), 2.7),
    (("run", "seed"), 1.9),
    (("solver", "tolerance"), float("nan")),
    (("solver", "initial_step"), float("inf")),
    (("model", "e"), float("inf")),
    (("model", "firms", 0, "c"), float("nan")),
    (("model", "firms", 0, "k"), float("nan")),
    (("factors", "r", "mu"), float("nan")),
    (("factors", "r", "lo"), float("-inf")),
]


@pytest.mark.parametrize("path, value", BAD_NUMBERS,
                         ids=[f"{_where(p)}={v}" for p, v in BAD_NUMBERS])
def test_non_integral_and_non_finite_numbers_rejected(tmp_path, capsys, path,
                                                      value):
    doc = small_config()
    _set(doc, path, value)
    with pytest.raises(ConfigError, match=re.escape(_where(path) + ":")):
        parse_config(doc)
    # json writes NaN and Infinity, and json.load reads them back
    assert main(["solve", "--config", write_config(tmp_path, doc),
                 "--dump-config"]) == 2
    assert _where(path) in capsys.readouterr().err


def test_integral_floats_read_as_integers():
    doc = small_config(seed=2.0, n_samples=1e3, ladder=[[2.0, 4]])
    doc["discretization"]["n_r"] = 3.0
    cfg = parse_config(doc)
    assert cfg.run.n_samples == 1000 and type(cfg.run.n_samples) is int
    assert type(cfg.run.seed) is int and type(cfg.discretization.n_r) is int
    assert cfg.run.ladder == ((2, 4),)
    assert cfg == parse_config(config_to_json(cfg))


def test_factor_spec_validation():
    doc = small_config()
    doc["factors"]["r"] = {"kind": "gamma", "shape": 2.0}
    with pytest.raises(ConfigError, match="unknown kind"):
        parse_config(doc)
    doc = small_config()
    doc["factors"]["r"] = {"kind": "uniform", "lo": 0.0}
    with pytest.raises(ConfigError, match="missing keys"):
        parse_config(doc)
    doc = small_config()
    doc["factors"]["betas"] = [{"kind": "constant", "value": 1.0}]
    with pytest.raises(ConfigError, match="one distribution per firm"):
        parse_config(doc)


def test_rule_validation():
    doc = small_config()
    doc["discretization"]["rules"] = {"r": "upper_endpoint"}
    with pytest.raises(ConfigError, match="unknown rule"):
        parse_config(doc)
    doc["discretization"]["rules"] = {"time": "midpoint"}
    with pytest.raises(ConfigError, match="unknown group"):
        parse_config(doc)


def test_ladder_validation():
    doc = small_config(ladder=[[10, 20], [20, 3.5]])
    with pytest.raises(ConfigError, match="ladder"):
        parse_config(doc)


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"model": }')
    with pytest.raises(ConfigError, match=r"broken\.json:1:11"):
        load_config(str(path))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))


def test_dump_config_normalizes(tmp_path, capsys):
    path = write_config(tmp_path, small_config())
    assert main(["solve", "--config", path, "--dump-config"]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert parse_config(dumped) == load_config(path)
    # defaults are materialized in the dump
    assert dumped["factors"]["alpha"] == {"kind": "constant", "value": 0.0}
    assert dumped["solver"]["max_iterations"] == 1000


def test_cli_deterministic_mode(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, small_config(mode="deterministic"))
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "summary.csv" in text
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["component"] for r in rows] == ["u_1", "u_2"]
    assert all(float(r["mean"]) > 0.0 for r in rows)


def test_cli_discretize_mode_with_cell_dump(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, small_config(dump_cells=True))
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "summary.csv").exists()
    with open(out / "cells.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12  # 3 r-cells x 4 s-cells
    assert all(float(r["residual"]) <= 1e-8 for r in rows)


@pytest.mark.parametrize("mode, dump_cells", [("discretize", False),
                                              ("discretize", True),
                                              ("deterministic", False)])
def test_run_config_stores_cells_only_for_a_dump(tmp_path, monkeypatch, mode,
                                                 dump_cells):
    solutions = []
    solve_all = cli.solve_all

    def spy(*args, **kwargs):
        solutions.append(solve_all(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(cli, "solve_all", spy)
    config = parse_config(small_config(mode=mode, dump_cells=dump_cells,
                                       out_dir=str(tmp_path)))
    assert cli.run_config(config, stdout=io.StringIO()) == 0
    assert [s.stored for s in solutions] == [dump_cells]


def test_cli_mode_override_and_threads(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, small_config())
    code = main(["solve", "--config", path, "--out", str(out),
                 "--mode", "deterministic", "--threads", "2"])
    assert code == 0
    capsys.readouterr()
    assert (out / "summary.csv").exists()


def test_cli_oracle_mode(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, small_config(mode="oracle", n_samples=100,
                                               seed=4))
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out / "oracle.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert int(rows[0]["n_samples"]) == 100
    assert int(rows[0]["seed"]) == 4


def test_cli_ladder_mode(tmp_path, capsys):
    out = tmp_path / "out"
    doc = small_config(mode="ladder", ladder=[[2, 2], [4, 4], [8, 8]])
    path = write_config(tmp_path, doc)
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out / "ladder.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert int(rows[0]["n_r"]) == 4
    assert int(rows[1]["n_r"]) == 8
    # refinement deltas should shrink as the mesh doubles
    assert float(rows[1]["max_delta"]) < float(rows[0]["max_delta"])


def test_cli_ladder_needs_two_levels(tmp_path, capsys):
    out = tmp_path / "out"
    doc = small_config(mode="ladder", ladder=[[2, 2]], out_dir=str(out))
    with pytest.raises(ConfigError, match="two levels"):
        parse_config(doc)
    path = write_config(tmp_path, doc)
    assert main(["solve", "--config", path, "--dump-config"]) == 2
    assert "ladder" in capsys.readouterr().err
    assert main(["solve", "--config", path]) == 2
    assert "ladder" in capsys.readouterr().err
    # the same check holds when the mode comes from the command line
    doc["run"]["mode"] = "discretize"
    path = write_config(tmp_path, doc)
    assert main(["solve", "--config", path, "--mode", "ladder"]) == 2
    assert not out.exists()


def test_cli_flagged_cells_exit_code(tmp_path, capsys):
    doc = small_config(max_flagged_fraction=1.0)
    doc["solver"] = {"max_iterations": 1, "initial_step": 1e-9}
    out = tmp_path / "out"
    path = write_config(tmp_path, doc)
    assert main(["solve", "--config", path, "--out", str(out)]) == 1
    assert "flagged" in capsys.readouterr().err
    # with a zero budget the sweep aborts instead, still exit 1
    doc["run"]["max_flagged_fraction"] = 0.0
    path = write_config(tmp_path, doc, "strict.json")
    assert main(["solve", "--config", path, "--out", str(out)]) == 1


@pytest.mark.parametrize("mode, flagged", [("deterministic", 1),
                                           ("discretize", 12),
                                           ("ladder", 4 + 8)])
def test_cli_flagged_cells_end_alike_in_every_grid_mode(tmp_path, capsys,
                                                        mode, flagged):
    # a starved solver flags every cell and the budget tolerates them:
    # each grid mode writes its output, reports the count and exits 1
    doc = small_config(mode=mode, max_flagged_fraction=1.0,
                       ladder=[[2, 2], [4, 2]])
    doc["solver"] = {"max_iterations": 1, "initial_step": 1e-9}
    out = tmp_path / "out"
    path = write_config(tmp_path, doc)
    assert main(["solve", "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"{flagged} cells flagged\n"
    assert (out / ("ladder.csv" if mode == "ladder" else "summary.csv")).exists()


def test_cli_config_errors_exit_2(tmp_path, capsys):
    doc = small_config()
    doc["model"]["a"] = 1.5
    path = write_config(tmp_path, doc)
    assert main(["solve", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "a must lie in (0, 1)" in err
    assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


def test_cli_massless_truncated_normal_exits_2(tmp_path, capsys):
    doc = json.loads((CONFIGS / "monte_carlo.json").read_text())
    doc["factors"]["s"] = {"kind": "truncated_normal", "mu": 0.0,
                           "sigma": 1.0, "lo": 40.0, "hi": 41.0}
    doc["run"].update(n_samples=4096, out_dir=str(tmp_path / "out"))
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError, match=r"factors\.s: .*mass"):
        load_config(path)
    assert main(["solve", "--config", path]) == 2
    assert "factors.s" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_oversized_seed_exits_2_before_any_output(tmp_path, capsys):
    # refused while parsing, not by the oracle after out_dir was made
    doc = small_config(mode="oracle", out_dir=str(tmp_path / "out"))
    doc["run"]["seed"] = 2 ** 200
    assert main(["solve", "--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: run.seed: must be an integer in [0, 2**128)")
    assert not (tmp_path / "out").exists()


# a bad value per config check: (path in the document, value, message);
# an empty path replaces the whole document
BAD_CONFIGS = [
    (("run", "mode"), "fast", "run.mode: 'fast' is not one of"),
    (("run", "parallelism"), 0, "run.parallelism: must be >= 1"),
    (("run", "n_samples"), 0, "run.n_samples: must be >= 1"),
    (("run", "seed"), -1, "run.seed: must be an integer in [0, 2**128)"),
    (("run", "seed"), 2 ** 200, "run.seed: must be an integer in [0, 2**128)"),
    (("run", "max_flagged_fraction"), 1.5,
     "run.max_flagged_fraction: must lie in [0, 1]"),
    (("run", "ladder"), [[0, 5], [1, 1]],
     "run.ladder: entries must be [n_r, n_s] pairs"),
    (("discretization", "n_r"), 0, "discretization.n_r: must be >= 1"),
    ((), [], "top level: expected an object"),
    (("model", "firms"), [], "model.firms: expected a nonempty list"),
    (("solver",), [], "solver: expected an object"),
    (("factors", "r"), 5, "factors.r: expected a distribution object"),
    (("run", "dump_cells"), 1, "run.dump_cells: expected true or false"),
    (("run", "mode"), 3, "run.mode: expected a string"),
    (("discretization", "rules"), [],
     "discretization.rules: expected an object"),
    (("run", "ladder"), 5, "run.ladder: expected a list"),
    (("run", "ladder"), [[1, 2, 3]],
     "run.ladder: entries must be [n_r, n_s] integer pairs"),
    # too large for a float: float() overflows
    (("model", "e"), 10 ** 400, "model.e: expected a finite number"),
]


@pytest.mark.parametrize("path, value, message", BAD_CONFIGS,
                         ids=[f"{_where(p) or 'top'}={str(v)[:12]}"
                              for p, v, _ in BAD_CONFIGS])
def test_config_checks_raise_located_errors(tmp_path, capsys, path, value,
                                            message):
    doc = small_config()
    if path:
        _set(doc, path, value)
    else:
        doc = value
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert str(exc.value).startswith(message)
    assert main(["solve", "--config", write_config(tmp_path, doc),
                 "--dump-config"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")


def test_cli_grid_over_the_cell_cap_exits_1(tmp_path, capsys):
    doc = small_config(out_dir=str(tmp_path / "out"))
    doc["discretization"].update(n_r=20000, n_s=20000)
    assert main(["solve", "--config", write_config(tmp_path, doc)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: grid has 400000000 cells")


@pytest.mark.parametrize("out", ["file", "empty", "under_file"])
def test_cli_unusable_output_directory_exits_1(tmp_path, out):
    # an existing file, an empty path, and a path below a file
    blocker = tmp_path / "F"
    blocker.write_text("")
    out_dir = {"file": str(blocker), "empty": "",
               "under_file": str(blocker / "sub")}[out]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-m", "nashgrid", "solve", "--config",
         str(CONFIGS / "deterministic.json"), "--out", out_dir],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


def test_cli_bad_thread_count(tmp_path, capsys):
    path = write_config(tmp_path, small_config())
    assert main(["solve", "--config", path, "--threads", "0"]) == 2
    assert "--threads" in capsys.readouterr().err


def test_cli_no_subcommand_prints_help(capsys):
    assert main([]) == 2
    assert "solve" in capsys.readouterr().out


def _installed_distribution():
    try:
        return importlib.metadata.distribution("nashgrid")
    except importlib.metadata.PackageNotFoundError:
        return None


def test_console_script_declared_in_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"nashgrid": "nashgrid.cli:main"}
    entry = importlib.metadata.EntryPoint(
        name="nashgrid", value=scripts["nashgrid"], group="console_scripts")
    target = entry.load()
    assert callable(target)
    assert target is main


@pytest.mark.skipif(_installed_distribution() is None,
                    reason="the nashgrid distribution is not installed "
                           "(importlib.metadata cannot find it)")
def test_console_entry_point_installed():
    entries = [ep for ep in _installed_distribution().entry_points
               if ep.group == "console_scripts" and ep.name == "nashgrid"]
    assert len(entries) == 1
    assert entries[0].value == "nashgrid.cli:main"
    assert entries[0].load() is main
    assert shutil.which("nashgrid") is not None


def _mean_line(label, values):
    return f"{label}: ({', '.join(f'{float(v):.6f}' for v in values)})"


def _csv_column(path, name):
    with open(path, newline="") as fh:
        return [row[name] for row in csv.DictReader(fh)]


@pytest.mark.parametrize("mode", ["deterministic", "discretize", "oracle",
                                  "ladder"])
def test_cli_transcript_per_mode(tmp_path, capsys, mode):
    # the exact stdout of each mode, line by line and in order; the
    # printed means must be the written ones at six decimals
    out = tmp_path / "out"
    doc = small_config(mode=mode, dump_cells=mode == "discretize",
                       n_samples=100, seed=4, ladder=[[2, 2], [4, 4]])
    path = write_config(tmp_path, doc)
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    if mode == "oracle":
        means = _csv_column(out / "oracle.csv", "mc_mean")
        want = [_mean_line("sample mean over 100 draws", means),
                f"wrote {out / 'oracle.csv'}"]
    elif mode == "ladder":
        levels = [re.fullmatch(rf"\({n_r},{n_s}\): \((.*)\)", line)
                  for (n_r, n_s), line in zip([(2, 2), (4, 4)], lines)]
        assert all(levels), lines
        coarse, fine = ([float(v) for v in lv.group(1).split(", ")]
                        for lv in levels)
        deltas = [float(v) for v in _csv_column(out / "ladder.csv",
                                                  "delta_u_1")
                  + _csv_column(out / "ladder.csv", "delta_u_2")]
        assert deltas == pytest.approx(
            [abs(f - c) for c, f in zip(coarse, fine)], abs=1.1e-6)
        want = [_mean_line("(2,2)", coarse), _mean_line("(4,4)", fine),
                f"wrote {out / 'ladder.csv'}"]
    else:
        means = _csv_column(out / "summary.csv", "mean")
        n_cells = 1 if mode == "deterministic" else 12
        want = [_mean_line(f"mean over {n_cells} cells", means),
                f"wrote {out / 'summary.csv'}"]
        if mode == "discretize":
            want.append(f"wrote {out / 'cells.csv'}")
    assert lines == want


def test_cell_weights_that_miss_one_fail_the_run(tmp_path, capsys,
                                               monkeypatch):
    real_fold = discretize.fold_moments

    def off_by_2e_9(acc):
        report = real_fold(acc)
        report.total_weight += 2e-9
        return report

    monkeypatch.setattr(discretize, "fold_moments", off_by_2e_9)
    config = parse_config(small_config())
    grid = make_grid(config.instance, n_r=3, n_s=4)
    with pytest.raises(RuntimeError,
                       match=r"^cell weights sum to 1\.00000000\d*, not 1$"):
        solve_all(config.instance, grid)
    path = write_config(tmp_path, small_config())
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: cell weights sum to ")


def test_an_oversize_grid_is_refused_before_any_partition_is_built(
        tmp_path, capsys, monkeypatch):
    # the cap is checked against the requested sizes, so a grid far too
    # large to build fails with the cap's message, not in allocation
    built = []
    real_partition = discretize.make_partition

    def partition_spy(*args, **kwargs):
        built.append(args)
        return real_partition(*args, **kwargs)

    monkeypatch.setattr(discretize, "CELL_CAP", 10)
    monkeypatch.setattr(discretize, "make_partition", partition_spy)
    config = parse_config(small_config())
    with pytest.raises(ValueError, match="exceeding the cap of 10"):
        make_grid(config.instance, n_r=4, n_s=4)
    # small_config asks for 3 x 4 = 12 cells
    path = write_config(tmp_path, small_config())
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: grid has 12 cells, exceeding the cap of 10; ")
    assert built == []
