"""Config-driven command line front end.

One subcommand, ``solve``, reads a JSON run configuration and executes
one of four modes:

    deterministic   replace every factor by its mean, solve once
    discretize      solve the full cell grid, write moment summary
    oracle          Monte Carlo sample average with standard errors
    ladder          run a refinement sequence, write mean differences

Outputs are CSV files in the chosen output directory: summary.csv
(deterministic/discretize), cells.csv (optional cell dump), oracle.csv,
ladder.csv. Exit status 0 means every requested solve converged.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .aggregate import (convergence_report, expectation, write_convergence_csv,
                        write_summary_csv)
from .cournot import CournotInstance, FirmParams
from .discretize import FlaggedCellsError, make_grid, solve_all, write_cells_csv
from .distributions import KINDS, REPRESENTATIVE_RULES, RandomFactor
from .oracle import monte_carlo_mean, write_oracle_csv
from .vi import SolverConfig

MODES = ("deterministic", "discretize", "oracle", "ladder")
RULE_GROUPS = ("r", "s", "bounds", "betas", "alpha")


class ConfigError(ValueError):
    """A configuration file violated the schema or an invariant."""


def _require_keys(block, allowed, required, where):
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(block)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _number(block, key, where, default=None, integer=False, required=True):
    if key not in block:
        if required:
            raise ConfigError(f"{where}.{key}: missing")
        return default
    v = block[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number, got {v!r}")
    return int(v) if integer else float(v)


def parse_factor(d, where):
    """Build a RandomFactor from its JSON object form."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"{where}: expected a distribution object with a 'kind'")
    kind = d["kind"]
    if kind not in KINDS:
        raise ConfigError(f"{where}.kind: unknown kind {kind!r}, "
                          f"expected one of {list(KINDS)}")
    try:
        if kind == "constant":
            _require_keys(d, ("kind", "value"), ("value",), where)
            return RandomFactor.constant(_number(d, "value", where))
        if kind == "uniform":
            _require_keys(d, ("kind", "lo", "hi"), ("lo", "hi"), where)
            return RandomFactor.uniform(_number(d, "lo", where),
                                        _number(d, "hi", where))
        _require_keys(d, ("kind", "mu", "sigma", "lo", "hi"),
                      ("mu", "sigma", "lo", "hi"), where)
        return RandomFactor.truncated_normal(
            _number(d, "mu", where), _number(d, "sigma", where),
            _number(d, "lo", where), _number(d, "hi", where))
    except ValueError as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(f"{where}: {err}") from err


def factor_to_json(factor):
    if factor.kind == "constant":
        return {"kind": "constant", "value": factor.params[0]}
    if factor.kind == "uniform":
        return {"kind": "uniform", "lo": factor.params[0], "hi": factor.params[1]}
    mu, sigma, lo, hi = factor.params
    return {"kind": "truncated_normal", "mu": mu, "sigma": sigma,
            "lo": lo, "hi": hi}


@dataclass(frozen=True)
class DiscretizationConfig:
    n_r: int = 1
    n_s: int = 1
    n_bounds: int = 1
    n_betas: int = 1
    n_alpha: int = 1
    rules: tuple = ()

    def __post_init__(self):
        for name in ("n_r", "n_s", "n_bounds", "n_betas", "n_alpha"):
            if getattr(self, name) < 1:
                raise ConfigError(f"discretization.{name}: must be >= 1")
        for key, rule in self.rules:
            if key not in RULE_GROUPS:
                raise ConfigError(f"discretization.rules: unknown group {key!r}")
            if rule not in REPRESENTATIVE_RULES:
                raise ConfigError(
                    f"discretization.rules.{key}: unknown rule {rule!r}")

    def rules_dict(self):
        return dict(self.rules)


@dataclass(frozen=True)
class RunSettings:
    mode: str = "discretize"
    parallelism: int = 1
    out_dir: str = "."
    seed: int = 0
    n_samples: int = 10000
    dump_cells: bool = False
    max_flagged_fraction: float = 0.0
    ladder: tuple = ()

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"run.mode: {self.mode!r} is not one of {list(MODES)}")
        if self.parallelism < 1:
            raise ConfigError("run.parallelism: must be >= 1")
        if self.n_samples < 1:
            raise ConfigError("run.n_samples: must be >= 1")
        if self.seed < 0:
            raise ConfigError("run.seed: must be >= 0")
        if not 0.0 <= self.max_flagged_fraction <= 1.0:
            raise ConfigError("run.max_flagged_fraction: must lie in [0, 1]")
        for pair in self.ladder:
            if len(pair) != 2 or any(int(v) < 1 for v in pair):
                raise ConfigError("run.ladder: entries must be [n_r, n_s] pairs")


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run: model instance plus execution settings."""

    instance: CournotInstance
    discretization: DiscretizationConfig
    solver: SolverConfig
    run: RunSettings


def parse_config(doc):
    """Validate a parsed JSON document into a RunConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected an object")
    _require_keys(doc, ("model", "factors", "discretization", "solver", "run"),
                  ("model", "factors"), "top level")
    model = doc["model"]
    _require_keys(model, ("firms", "a", "e"), ("firms", "a", "e"), "model")
    firms_spec = model["firms"]
    if not isinstance(firms_spec, list) or not firms_spec:
        raise ConfigError("model.firms: expected a nonempty list")
    firms = []
    for i, fd in enumerate(firms_spec):
        where = f"model.firms[{i}]"
        _require_keys(fd, ("c", "k", "b", "q_bar"), ("c", "k", "b", "q_bar"), where)
        try:
            firms.append(FirmParams(
                c=_number(fd, "c", where), k=_number(fd, "k", where),
                b=_number(fd, "b", where),
                q_bar=parse_factor(fd["q_bar"], where + ".q_bar")))
        except ValueError as err:
            if isinstance(err, ConfigError):
                raise
            raise ConfigError(f"{where}: {err}") from err

    factors = doc["factors"]
    _require_keys(factors, ("r", "s", "betas", "alpha"), ("r", "s"), "factors")
    r_factor = parse_factor(factors["r"], "factors.r")
    s_factor = parse_factor(factors["s"], "factors.s")
    betas = None
    if "betas" in factors:
        spec = factors["betas"]
        if not isinstance(spec, list) or len(spec) != len(firms):
            raise ConfigError("factors.betas: expected one distribution per firm")
        betas = tuple(parse_factor(b, f"factors.betas[{i}]")
                      for i, b in enumerate(spec))
    alpha = parse_factor(factors["alpha"], "factors.alpha") \
        if "alpha" in factors else None

    try:
        instance = CournotInstance(
            firms=tuple(firms), a=_number(model, "a", "model"),
            e=_number(model, "e", "model"), r_factor=r_factor,
            s_factor=s_factor, beta_factors=betas, alpha_factor=alpha)
    except ValueError as err:
        raise ConfigError(f"model: {err}") from err

    dblock = doc.get("discretization", {})
    _require_keys(dblock, ("n_r", "n_s", "n_bounds", "n_betas", "n_alpha",
                           "rules"), (), "discretization")
    rules = dblock.get("rules", {})
    if not isinstance(rules, dict):
        raise ConfigError("discretization.rules: expected an object")
    disc = DiscretizationConfig(
        n_r=_number(dblock, "n_r", "discretization", 1, True, False),
        n_s=_number(dblock, "n_s", "discretization", 1, True, False),
        n_bounds=_number(dblock, "n_bounds", "discretization", 1, True, False),
        n_betas=_number(dblock, "n_betas", "discretization", 1, True, False),
        n_alpha=_number(dblock, "n_alpha", "discretization", 1, True, False),
        rules=tuple(sorted(rules.items())))

    sblock = doc.get("solver", {})
    _require_keys(sblock, ("tolerance", "max_iterations", "initial_step",
                           "step_shrink", "gamma"), (), "solver")
    try:
        solver = SolverConfig(
            tolerance=_number(sblock, "tolerance", "solver", 1e-8,
                              required=False),
            max_iterations=_number(sblock, "max_iterations", "solver", 1000,
                                   True, False),
            initial_step=_number(sblock, "initial_step", "solver", 1.0,
                                 required=False),
            step_shrink=_number(sblock, "step_shrink", "solver", 0.5,
                                required=False),
            gamma=_number(sblock, "gamma", "solver", 1.0, required=False))
    except ValueError as err:
        raise ConfigError(f"solver: {err}") from err

    rblock = doc.get("run", {})
    _require_keys(rblock, ("mode", "parallelism", "out_dir", "seed",
                           "n_samples", "dump_cells", "max_flagged_fraction",
                           "ladder"), (), "run")
    mode = rblock.get("mode", "discretize")
    if not isinstance(mode, str):
        raise ConfigError("run.mode: expected a string")
    out_dir = rblock.get("out_dir", ".")
    if not isinstance(out_dir, str):
        raise ConfigError("run.out_dir: expected a string")
    dump = rblock.get("dump_cells", False)
    if not isinstance(dump, bool):
        raise ConfigError("run.dump_cells: expected true or false")
    ladder_spec = rblock.get("ladder", [])
    if not isinstance(ladder_spec, list):
        raise ConfigError("run.ladder: expected a list of [n_r, n_s] pairs")
    ladder = []
    for entry in ladder_spec:
        if (not isinstance(entry, list) or len(entry) != 2
                or not all(isinstance(v, int) and not isinstance(v, bool)
                           for v in entry)):
            raise ConfigError("run.ladder: entries must be [n_r, n_s] "
                              "integer pairs")
        ladder.append((entry[0], entry[1]))
    settings = RunSettings(
        mode=mode,
        parallelism=_number(rblock, "parallelism", "run", 1, True, False),
        out_dir=out_dir,
        seed=_number(rblock, "seed", "run", 0, True, False),
        n_samples=_number(rblock, "n_samples", "run", 10000, True, False),
        dump_cells=dump,
        max_flagged_fraction=_number(rblock, "max_flagged_fraction", "run",
                                     0.0, required=False),
        ladder=tuple(ladder))
    return RunConfig(instance=instance, discretization=disc, solver=solver,
                     run=settings)


def load_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    return parse_config(doc)


def config_to_json(config):
    """Normalized JSON form; parsing it again yields an equal RunConfig."""
    inst = config.instance
    disc = config.discretization
    s = config.solver
    run = config.run
    return {
        "model": {
            "firms": [{"c": f.c, "k": f.k, "b": f.b,
                       "q_bar": factor_to_json(f.q_bar)} for f in inst.firms],
            "a": inst.a,
            "e": inst.e,
        },
        "factors": {
            "r": factor_to_json(inst.r_factor),
            "s": factor_to_json(inst.s_factor),
            "betas": [factor_to_json(b) for b in inst.beta_factors],
            "alpha": factor_to_json(inst.alpha_factor),
        },
        "discretization": {
            "n_r": disc.n_r, "n_s": disc.n_s, "n_bounds": disc.n_bounds,
            "n_betas": disc.n_betas, "n_alpha": disc.n_alpha,
            "rules": disc.rules_dict(),
        },
        "solver": {
            "tolerance": s.tolerance, "max_iterations": s.max_iterations,
            "initial_step": s.initial_step, "step_shrink": s.step_shrink,
            "gamma": s.gamma,
        },
        "run": {
            "mode": run.mode, "parallelism": run.parallelism,
            "out_dir": run.out_dir, "seed": run.seed,
            "n_samples": run.n_samples, "dump_cells": run.dump_cells,
            "max_flagged_fraction": run.max_flagged_fraction,
            "ladder": [list(pair) for pair in run.ladder],
        },
    }


def _print_mean(label, mean, stream):
    vals = ", ".join(f"{v:.6f}" for v in mean)
    print(f"{label}: ({vals})", file=stream)


def run_config(config, stdout=None):
    """Execute a RunConfig. Returns the process exit status."""
    if stdout is None:
        stdout = sys.stdout
    run = config.run
    disc = config.discretization
    os.makedirs(run.out_dir, exist_ok=True)

    def out_path(name):
        return os.path.join(run.out_dir, name)

    if run.mode == "deterministic":
        rules = {k: "conditional_mean" for k in RULE_GROUPS}
        grid = make_grid(config.instance, rules=rules)
        solution = solve_all(config.instance, grid, config.solver,
                             parallelism=1)
        path = write_summary_csv(solution.report, out_path("summary.csv"))
        _print_mean("solution", solution.report.mean, stdout)
        print(f"wrote {path}", file=stdout)
        return 0

    if run.mode == "discretize":
        grid = make_grid(config.instance, n_r=disc.n_r, n_s=disc.n_s,
                         n_bounds=disc.n_bounds, n_betas=disc.n_betas,
                         n_alpha=disc.n_alpha, rules=disc.rules_dict())
        solution = solve_all(config.instance, grid, config.solver,
                             parallelism=run.parallelism,
                             keep_cells=True if run.dump_cells else None,
                             max_flagged_fraction=run.max_flagged_fraction)
        report = expectation(solution)
        path = write_summary_csv(report, out_path("summary.csv"))
        _print_mean(f"mean over {solution.n_cells} cells", report.mean, stdout)
        print(f"wrote {path}", file=stdout)
        if run.dump_cells:
            print(f"wrote {write_cells_csv(solution, out_path('cells.csv'))}",
                  file=stdout)
        if solution.flagged_cells:
            print(f"{solution.flagged_cells} cells flagged", file=sys.stderr)
            return 1
        return 0

    if run.mode == "oracle":
        report = monte_carlo_mean(config.instance, run.n_samples, run.seed,
                                  config.solver, parallelism=run.parallelism)
        path = write_oracle_csv(report, out_path("oracle.csv"))
        _print_mean(f"sample mean over {report.n_samples} draws", report.mean,
                    stdout)
        print(f"wrote {path}", file=stdout)
        if report.failed_solves:
            print(f"{report.failed_solves} sample solves failed",
                  file=sys.stderr)
            return 1
        return 0

    # ladder
    if len(run.ladder) < 2:
        raise ConfigError("run.ladder: ladder mode needs at least two levels")
    entries = []
    flagged = 0
    for n_r, n_s in run.ladder:
        grid = make_grid(config.instance, n_r=n_r, n_s=n_s,
                         n_bounds=disc.n_bounds, n_betas=disc.n_betas,
                         n_alpha=disc.n_alpha, rules=disc.rules_dict())
        solution = solve_all(config.instance, grid, config.solver,
                             parallelism=run.parallelism, keep_cells=False,
                             max_flagged_fraction=run.max_flagged_fraction)
        flagged += solution.flagged_cells
        entries.append(((n_r, n_s), solution.report))
        _print_mean(f"({n_r},{n_s})", solution.report.mean, stdout)
    rows = convergence_report(entries)
    path = write_convergence_csv(rows, out_path("ladder.csv"))
    print(f"wrote {path}", file=stdout)
    return 1 if flagged else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="nashgrid",
        description="Stochastic Nash equilibria by cell-wise VI discretization")
    sub = parser.add_subparsers(dest="command")
    solve = sub.add_parser("solve", help="run a configured solve")
    solve.add_argument("--config", required=True, help="JSON run configuration")
    solve.add_argument("--mode", choices=MODES, help="override run.mode")
    solve.add_argument("--out", help="override run.out_dir")
    solve.add_argument("--threads", type=int,
                       help="override run.parallelism (Monte Carlo chunk "
                            "threads in oracle mode; grid sweeps ignore it)")
    solve.add_argument("--dump-config", action="store_true",
                       help="print the normalized config and exit")
    args = parser.parse_args(argv)
    if args.command != "solve":
        parser.print_help()
        return 2

    try:
        config = load_config(args.config)
        overrides = {}
        if args.mode:
            overrides["mode"] = args.mode
        if args.out is not None:
            overrides["out_dir"] = args.out
        if args.threads is not None:
            if args.threads < 1:
                raise ConfigError("--threads: must be >= 1")
            overrides["parallelism"] = args.threads
        if overrides:
            from dataclasses import replace
            config = RunConfig(instance=config.instance,
                               discretization=config.discretization,
                               solver=config.solver,
                               run=replace(config.run, **overrides))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    if args.dump_config:
        json.dump(config_to_json(config), sys.stdout, indent=2, sort_keys=True)
        print()
        return 0

    try:
        return run_config(config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except FlaggedCellsError as err:
        print(f"solve failed: {err}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, FloatingPointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
