"""Config-driven command line front end.

One subcommand, ``solve``, reads a JSON run configuration and executes
one of four modes:

    deterministic   replace every factor by its mean: a one-cell grid
    discretize      solve the full cell grid, write moment summary
    oracle          Monte Carlo sample average with standard errors
    ladder          run a refinement sequence, write mean differences

The dataclasses are the schema. The flat blocks ``discretization``,
``solver`` and ``run`` take exactly the fields of DiscretizationConfig,
SolverConfig and RunSettings (see BLOCKS). An absent key keeps the
field's default, and the type of that default says how a value is read:
true/false, an integer, a number or a string. Only ``rules`` (an object
of group -> rule) and ``ladder`` (a list of [n_r, n_s] pairs) have forms
of their own. A factor object takes its kind's parameter names from
distributions.FACTOR_PARAMS. Every number must be finite, and integer
fields take integral values only. config_to_json reads the same fields,
so ``--dump-config`` prints every default.

Outputs are CSV files in the chosen output directory: summary.csv
(deterministic/discretize), cells.csv (optional cell dump), oracle.csv,
ladder.csv. run_config builds and solves every grid (deterministic,
discretize and each ladder level) in one helper, and every mode ends in
one exit rule: 0 when every requested solve converged, else 1 with the
count of failed solves on stderr.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

from .aggregate import (convergence_report, expectation, write_convergence_csv,
                        write_summary_csv)
from .cournot import CournotInstance, FirmParams
from .discretize import (DEFAULT_RULES, FlaggedCellsError, make_grid,
                         solve_all, write_cells_csv)
from .distributions import (FACTOR_PARAMS, KINDS, REPRESENTATIVE_RULES,
                            RandomFactor)
from .oracle import monte_carlo_mean, write_oracle_csv
from .vi import SolverConfig

MODES = ("deterministic", "discretize", "oracle", "ladder")
RULE_GROUPS = tuple(DEFAULT_RULES)


class ConfigError(ValueError):
    """A configuration file violated the schema or an invariant."""


@contextmanager
def _located(where):
    """Re-raise a model invariant's ValueError as a ConfigError at where."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def _require_keys(block, allowed, required, where):
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(block)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _number(value, where, integer=False):
    """The one reading of a JSON number: finite, and integral if asked."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    if not integer:
        return x
    if not x.is_integer():
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def parse_factor(d, where):
    """Build a RandomFactor from its JSON object form."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"{where}: expected a distribution object with a 'kind'")
    kind = d["kind"]
    if kind not in KINDS:
        raise ConfigError(f"{where}.kind: unknown kind {kind!r}, "
                          f"expected one of {list(KINDS)}")
    names = FACTOR_PARAMS[kind]
    _require_keys(d, ("kind",) + names, names, where)
    params = [_number(d[name], f"{where}.{name}") for name in names]
    with _located(where):
        return RandomFactor(kind, params)


def factor_to_json(factor):
    return {"kind": factor.kind,
            **dict(zip(FACTOR_PARAMS[factor.kind], factor.params))}


@dataclass(frozen=True)
class DiscretizationConfig:
    n_r: int = 1
    n_s: int = 1
    n_bounds: int = 1
    n_betas: int = 1
    n_alpha: int = 1
    rules: tuple = ()

    def __post_init__(self):
        for f in fields(self):
            if f.name != "rules" and getattr(self, f.name) < 1:
                raise ConfigError(f"discretization.{f.name}: must be >= 1")
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
        if not 0 <= self.seed < 2 ** 128:
            raise ConfigError("run.seed: must be an integer in [0, 2**128)")
        if not 0.0 <= self.max_flagged_fraction <= 1.0:
            raise ConfigError("run.max_flagged_fraction: must lie in [0, 1]")
        for pair in self.ladder:
            if len(pair) != 2 or any(int(v) < 1 for v in pair):
                raise ConfigError("run.ladder: entries must be [n_r, n_s] pairs")
        if self.mode == "ladder" and len(self.ladder) < 2:
            raise ConfigError("run.ladder: ladder mode needs at least two levels")


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run: model instance plus execution settings."""

    instance: CournotInstance
    discretization: DiscretizationConfig
    solver: SolverConfig
    run: RunSettings


# the flat config blocks and the dataclasses that are their schema
BLOCKS = {"discretization": DiscretizationConfig, "solver": SolverConfig,
          "run": RunSettings}


def _parse_rules(value, where):
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object")
    return tuple(sorted(value.items()))


def _parse_ladder(value, where):
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list of [n_r, n_s] pairs")
    pairs = []
    for i, entry in enumerate(value):
        if not isinstance(entry, list) or len(entry) != 2:
            raise ConfigError(f"{where}: entries must be [n_r, n_s] "
                              "integer pairs")
        pairs.append(tuple(_number(v, f"{where}[{i}]", integer=True)
                           for v in entry))
    return tuple(pairs)


# a firm's keys; q_bar is a factor object, the others are numbers
_FIRM_KEYS = tuple(f.name for f in fields(FirmParams))

# block fields whose JSON form is not a scalar: name -> (parse, dump)
_FORMS = {"rules": (_parse_rules, dict),
          "ladder": (_parse_ladder, lambda pairs: [list(p) for p in pairs])}


def _parse_block(cls, block, name):
    """Build one of the BLOCKS dataclasses from its JSON object."""
    defaults = {f.name: f.default for f in fields(cls)}
    _require_keys(block, defaults, (), name)
    values = {}
    for key, value in block.items():
        where = f"{name}.{key}"
        default = defaults[key]
        if key in _FORMS:
            value = _FORMS[key][0](value, where)
        elif isinstance(default, bool):
            if not isinstance(value, bool):
                raise ConfigError(f"{where}: expected true or false")
        elif isinstance(default, str):
            if not isinstance(value, str):
                raise ConfigError(f"{where}: expected a string")
        else:
            value = _number(value, where, integer=isinstance(default, int))
        values[key] = value
    with _located(name):
        return cls(**values)


def _block_to_json(settings):
    out = {}
    for f in fields(settings):
        value = getattr(settings, f.name)
        out[f.name] = _FORMS[f.name][1](value) if f.name in _FORMS else value
    return out


def parse_config(doc):
    """Validate a parsed JSON document into a RunConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected an object")
    _require_keys(doc, ("model", "factors", *BLOCKS), ("model", "factors"),
                  "top level")
    model = doc["model"]
    _require_keys(model, ("firms", "a", "e"), ("firms", "a", "e"), "model")
    firms_spec = model["firms"]
    if not isinstance(firms_spec, list) or not firms_spec:
        raise ConfigError("model.firms: expected a nonempty list")
    firms = []
    for i, fd in enumerate(firms_spec):
        where = f"model.firms[{i}]"
        _require_keys(fd, _FIRM_KEYS, _FIRM_KEYS, where)
        params = {key: (parse_factor if key == "q_bar" else _number)(
            fd[key], f"{where}.{key}") for key in _FIRM_KEYS}
        with _located(where):
            firms.append(FirmParams(**params))

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

    a = _number(model["a"], "model.a")
    e = _number(model["e"], "model.e")
    with _located("model"):
        instance = CournotInstance(
            firms=tuple(firms), a=a, e=e, r_factor=r_factor,
            s_factor=s_factor, beta_factors=betas, alpha_factor=alpha)
    blocks = {name: _parse_block(cls, doc.get(name, {}), name)
              for name, cls in BLOCKS.items()}
    return RunConfig(instance=instance, **blocks)


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
    doc = {
        "model": {
            "firms": [{key: (factor_to_json if key == "q_bar" else float)(
                getattr(f, key)) for key in _FIRM_KEYS} for f in inst.firms],
            "a": inst.a,
            "e": inst.e,
        },
        "factors": {
            "r": factor_to_json(inst.r_factor),
            "s": factor_to_json(inst.s_factor),
            "betas": [factor_to_json(b) for b in inst.beta_factors],
            "alpha": factor_to_json(inst.alpha_factor),
        },
    }
    for name in BLOCKS:
        doc[name] = _block_to_json(getattr(config, name))
    return doc


def _print_mean(label, mean, stream):
    vals = ", ".join(f"{v:.6f}" for v in mean)
    print(f"{label}: ({vals})", file=stream)


def _exit_status(failed, what):
    """0, or 1 after reporting the count of failed solves on stderr."""
    if failed:
        print(f"{failed} {what}", file=sys.stderr)
        return 1
    return 0


def run_config(config, stdout=None):
    """Execute a RunConfig. Returns the process exit status."""
    if stdout is None:
        stdout = sys.stdout
    run = config.run
    disc = config.discretization
    if run.mode == "deterministic":
        # one cell, every factor frozen at its mean
        disc = DiscretizationConfig(
            rules=tuple((k, "conditional_mean") for k in RULE_GROUPS))
    os.makedirs(run.out_dir, exist_ok=True)

    def out_path(name):
        return os.path.join(run.out_dir, name)

    def solve_grid(n_r, n_s, keep_cells=False):
        grid = make_grid(config.instance, n_r=n_r, n_s=n_s,
                         n_bounds=disc.n_bounds, n_betas=disc.n_betas,
                         n_alpha=disc.n_alpha, rules=disc.rules_dict())
        return solve_all(config.instance, grid, config.solver,
                         keep_cells=keep_cells,
                         max_flagged_fraction=run.max_flagged_fraction,
                         parallelism=run.parallelism)

    if run.mode == "oracle":
        report = monte_carlo_mean(config.instance, run.n_samples, run.seed,
                                  config.solver)
        path = write_oracle_csv(report, out_path("oracle.csv"))
        _print_mean(f"sample mean over {report.n_samples} draws", report.mean,
                    stdout)
        print(f"wrote {path}", file=stdout)
        return _exit_status(report.failed_solves, "sample solves failed")

    if run.mode == "ladder":
        entries = []
        flagged = 0
        for n_r, n_s in run.ladder:
            solution = solve_grid(n_r, n_s)
            flagged += solution.flagged_cells
            entries.append(((n_r, n_s), solution.report))
            _print_mean(f"({n_r},{n_s})", solution.report.mean, stdout)
        path = write_convergence_csv(convergence_report(entries),
                                     out_path("ladder.csv"))
        print(f"wrote {path}", file=stdout)
        return _exit_status(flagged, "cells flagged")

    # deterministic and discretize
    solution = solve_grid(disc.n_r, disc.n_s, keep_cells=run.dump_cells)
    report = expectation(solution)
    path = write_summary_csv(report, out_path("summary.csv"))
    _print_mean(f"mean over {solution.n_cells} cells", report.mean, stdout)
    print(f"wrote {path}", file=stdout)
    if run.dump_cells:
        print(f"wrote {write_cells_csv(solution, out_path('cells.csv'))}",
              file=stdout)
    return _exit_status(solution.flagged_cells, "cells flagged")


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
                       help="override run.parallelism (at 2 or more, grid "
                            "sweeps fold their moments in one forked child "
                            "process; no effect in oracle mode)")
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
            config = replace(config, run=replace(config.run, **overrides))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    if args.dump_config:
        json.dump(config_to_json(config), sys.stdout, indent=2, sort_keys=True)
        print()
        return 0

    try:
        return run_config(config)
    except FlaggedCellsError as err:
        print(f"solve failed: {err}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, FloatingPointError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
