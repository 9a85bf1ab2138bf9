"""Command-line front end.

Subcommands mirror the library layers: ``classify`` reads a path file and
prints the crossing record with its announcing forecast, ``simulate``
prints Monte Carlo estimates, ``closed-form`` and ``volterra`` evaluate
the transforms, ``table`` puts the two side by side with z-scores, and
``verify`` runs the acceptance suite.

Every command but ``classify`` reads its configuration from an INI file
with one section per layer; every key is optional and falls back to the
documented default. ``--set section.key=value`` overrides win over the
file. The resolved configuration is echoed at the top of the output so
each number is reproducible from the report alone; ``--report FILE``
saves the exact bytes that went to stdout.

Exit codes: 0 success, 1 usage or malformed input, 2 numerical failure,
3 acceptance suite failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import re
import sys
from dataclasses import dataclass, fields, replace
from typing import Callable

from . import analytic
from .acceptance import AcceptanceSettings, _fmt, _kv, run_acceptance
from .errors import NumericalError, StructuralError
from .paths import (
    EPS_MODE,
    Barrier,
    announcing_sequence,
    check_no_premature_contact,
    first_passage,
    load_corpus,
    load_path,
    restricted_times,
)
from .simulate import ModelParams, SimConfig, run_paths
from . import mc


def _ini(value) -> str:
    """A default value as the config file spells it."""
    if isinstance(value, tuple):
        return " ".join(map(str, value))
    return str(value)


def _section(obj, names=None) -> dict[str, str]:
    names = names or [f.name for f in fields(obj)]
    return {name: _ini(getattr(obj, name)) for name in names}


# Defaults: the acceptance suite's reference configuration and the
# solver's default grid. The config file and --set may only touch keys
# listed here, which turns typos into usage errors instead of silently
# ignored settings. Each section is read back into the object it came from.
_REF = AcceptanceSettings()
_SIM = SimConfig(horizon=_REF.horizon, step=_REF.step, seed=_REF.seed,
                 n_paths=_REF.n_paths)
_GRID = analytic.VolterraGrid()
_DEFAULTS = {
    "model": _section(_REF.params),
    "sim": _section(_SIM),
    "solver": _section(_GRID),
    "run": {"q_list": "0.05", "x_list": "", "workers": "auto"},
    "verify": _section(_REF, ("q_sweep", "cp_n_paths", "cp_horizon")),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code map."""

    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs, resolved from defaults, file, and flags."""

    model: ModelParams
    sim: SimConfig
    solver: analytic.VolterraGrid
    q_list: tuple[float, ...]
    x_list: tuple[float, ...]
    workers: int
    verify_settings: AcceptanceSettings


def _typed(section: str, key: str, raw: str, conv: Callable):
    try:
        return conv(raw)
    except ValueError:
        raise StructuralError(
            f"config [{section}] {key}: cannot parse {raw!r}") from None


def _float_list(section: str, key: str, raw: str) -> tuple[float, ...]:
    toks = [t for t in re.split(r"[,\s]+", raw.strip()) if t]
    return tuple(_typed(section, key, t, float) for t in toks)


def _read_section(cp: configparser.ConfigParser, section: str, default):
    """default with each key of [section] parsed as the type of its default
    value; dataclasses.replace runs the dataclass's own validation."""
    values = {}
    for key, raw in cp[section].items():
        old = getattr(default, key)
        if isinstance(old, tuple):
            values[key] = _float_list(section, key, raw)
        elif isinstance(old, bool):  # configparser's boolean words
            values[key] = _typed(section, key, raw,
                                 lambda _: cp.getboolean(section, key))
        else:
            values[key] = _typed(section, key, raw, type(old))
    return replace(default, **values)


def _read_config(config_path: str | None, overrides: list[str]
                 ) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=("#", ";"))
    cp.read_dict(_DEFAULTS)
    if config_path is not None:
        try:
            with open(config_path) as fh:
                cp.read_file(fh, source=config_path)
        except FileNotFoundError:
            raise StructuralError(
                f"config file not found: {config_path}") from None
        except configparser.Error as exc:
            raise StructuralError(f"config file: {exc}") from None
    for sec in cp.sections():
        if sec not in _DEFAULTS:
            raise StructuralError(f"unknown config section [{sec}]")
        for key in cp[sec]:
            if key not in _DEFAULTS[sec]:
                raise StructuralError(f"unknown config key [{sec}] {key}")
    for item in overrides:
        target, eq, value = item.partition("=")
        section, dot, key = target.partition(".")
        if not (eq and dot and section and key):
            raise StructuralError(
                f"bad override {item!r}, expected section.key=value")
        if section not in _DEFAULTS or key not in _DEFAULTS[section]:
            raise StructuralError(f"unknown config key [{section}] {key}")
        cp[section][key] = value
    return cp


def _resolve_workers(raw: str, flag: int | None) -> int:
    if flag is not None:
        workers = flag
    elif raw.strip().lower() == "auto":   # the CPUs this process may use
        affinity = getattr(os, "sched_getaffinity", None)
        workers = len(affinity(0)) if affinity else os.cpu_count() or 1
    else:
        workers = _typed("run", "workers", raw, int)
    if workers < 1:
        raise StructuralError(f"workers must be at least 1, got {workers}")
    return workers


def resolve_config(args) -> RunConfig:
    cp = _read_config(args.config, args.set)
    if args.seed is not None:
        cp["sim"]["seed"] = str(args.seed)

    model = _read_section(cp, "model", _REF.params)
    sim = _read_section(cp, "sim", _SIM)
    solver = _read_section(cp, "solver", _GRID)

    q_list = _float_list("run", "q_list", cp["run"]["q_list"])
    if any(q < 0.0 for q in q_list):
        raise StructuralError("q_list entries must be nonnegative")
    x_list = _float_list("run", "x_list", cp["run"]["x_list"]) or (model.x,)
    workers = _resolve_workers(cp["run"]["workers"], args.workers)

    verify_settings = _read_section(cp, "verify", replace(
        _REF, params=model, horizon=sim.horizon, step=sim.step,
        n_paths=sim.n_paths, seed=sim.seed))
    return RunConfig(model, sim, solver, q_list, x_list, workers,
                     verify_settings)


# ---------------------------------------------------------------------------
# output helpers

# the # sim line's order, which is not SimConfig's field order
_SIM_ECHO = ("horizon", "step", "seed", "n_paths", "bridge_correction")


def _row(*cells) -> str:
    return "\t".join(_fmt(c) for c in cells)


# ---------------------------------------------------------------------------
# commands

def _cmd_classify(rc: None, args) -> tuple[str, int]:
    if (args.path_file is None) == (args.corpus is None):
        raise StructuralError("give exactly one of PATH_FILE or --corpus")
    if args.corpus is not None:
        path, source = load_corpus(args.corpus), f"corpus:{args.corpus}"
    else:
        path, source = load_path(args.path_file), args.path_file
    barrier = Barrier.constant(args.barrier)
    rec = first_passage(path, barrier, eps=args.eps)
    tau_contact, tau_gap = restricted_times(rec)
    clean, witness = check_no_premature_contact(path, barrier, eps=args.eps)
    ann = announcing_sequence(path, barrier, n_max=args.announce)
    lines = [
        "# passagelab classify",
        f"# source {source} barrier={_fmt(args.barrier)} "
        f"eps={_fmt(args.eps)} n_max={args.announce}",
        f"tau = {_fmt(rec.tau)}",
        f"y_minus = {_fmt(rec.y_minus)}",
        f"y_at = {_fmt(rec.y_at)}",
        f"mode = {rec.mode.name}",
        f"tau_contact = {_fmt(tau_contact)}",
        f"tau_gap = {_fmt(tau_gap)}",
        f"premature_contact = {_fmt(not clean)}",
        f"contact_witness = {'-' if witness is None else _fmt(witness)}",
        f"sigma = {','.join(_fmt(s) for s in ann.sigma)}",
        f"rho = {','.join(_fmt(r) for r in ann.rho)}",
        f"sigma_limit = {_fmt(ann.sigma_limit)}",
        f"announcing_converged = {_fmt(ann.converged)}",
    ]
    return "\n".join(lines) + "\n", 0


def _cmd_simulate(rc: RunConfig, args) -> tuple[str, int]:
    result = run_paths(rc.model, rc.sim, q_list=rc.q_list, workers=rc.workers)
    lines = ["# passagelab simulate", f"# model {_kv(rc.model)}",
             f"# sim {_kv(rc.sim, *_SIM_ECHO)}", f"# run {_kv(rc, 'q_list')}",
             "metric\tq\testimate\tstd_error\tn"]
    probs = mc.estimate_mode_probs(rc.model, rc.sim, result)
    for mode, est in probs.items():
        lines.append(_row(f"P_{mode.name}", "-", est.mean, est.std_error,
                          est.n))
    for q in rc.q_list:
        ind = mc.estimate_gq_indicator(rc.model, rc.sim, q, result)
        comp = mc.estimate_gq_compensator(rc.model, rc.sim, q, result)
        h_est, f_est = mc.estimate_hq_fq(rc.model, rc.sim, q, result)
        lines.append(_row("G_indicator", q, ind.mean, ind.std_error, ind.n))
        lines.append(_row("G_compensator", q, comp.mean, comp.std_error,
                          comp.n))
        lines.append(_row("H_all_crossings", q, h_est.mean, h_est.std_error,
                          h_est.n))
        lines.append(_row("F_creep_only", q, f_est.mean, f_est.std_error,
                          f_est.n))
    return "\n".join(lines) + "\n", 0


def _cmd_closed_form(rc: RunConfig, args) -> tuple[str, int]:
    slope = analytic.boundary_slope(rc.model)
    lines = ["# passagelab closed-form", f"# model {_kv(rc.model)}",
             f"# run {_kv(rc, 'x_list')}", f"# boundary_slope = {_fmt(slope)}",
             "x\tg0\tcreep_prob"]
    for x in rc.x_list:
        g = analytic.g0(rc.model, x)
        lines.append(_row(x, g, 1.0 - g))
    return "\n".join(lines) + "\n", 0


def _cmd_volterra(rc: RunConfig, args) -> tuple[str, int]:
    lines = ["# passagelab volterra", f"# model {_kv(rc.model)}",
             f"# solver {_kv(rc.solver)}",
             f"# run {_kv(rc, 'q_list', 'x_list')}",
             "q\tx\tgq\titerations\tsup_delta\ttruncation_error\tconverged"]
    # solve from the lowest requested x, so the domain holds every x
    params = replace(rc.model, x=min(rc.model.x, *rc.x_list))
    for q in rc.q_list:
        sol = analytic.solve_wq(params, q, rc.solver)
        for x in rc.x_list:
            gq = analytic.gq_from_solution(sol, x)
            lines.append(_row(q, x, gq, sol.iterations, sol.sup_delta,
                              sol.truncation_error, sol.converged))
    return "\n".join(lines) + "\n", 0


def _cmd_table(rc: RunConfig, args) -> tuple[str, int]:
    result = run_paths(rc.model, rc.sim, q_list=rc.q_list, workers=rc.workers)
    lines = ["# passagelab table", f"# model {_kv(rc.model)}",
             f"# sim {_kv(rc.sim, *_SIM_ECHO)}", f"# solver {_kv(rc.solver)}",
             f"# run {_kv(rc, 'q_list')}",
             "x\tq\tgq_ref\tgq_indicator\tse_indicator\tz_indicator"
             "\tgq_compensator\tse_compensator\tz_compensator"]
    x0 = rc.model.x
    for q in rc.q_list:
        if q == 0.0:
            ref = analytic.g0(rc.model, x0)
        else:
            ref = analytic.gq_from_solution(
                analytic.solve_wq(rc.model, q, rc.solver), x0)
        ind = mc.estimate_gq_indicator(rc.model, rc.sim, q, result)
        comp = mc.estimate_gq_compensator(rc.model, rc.sim, q, result)
        z_ind = abs(ind.mean - ref) / ind.std_error \
            if ind.std_error > 0 else math.inf
        z_comp = abs(comp.mean - ref) / comp.std_error \
            if comp.std_error > 0 else math.inf
        lines.append(_row(x0, q, ref, ind.mean, ind.std_error, z_ind,
                          comp.mean, comp.std_error, z_comp))
    return "\n".join(lines) + "\n", 0


def _cmd_verify(rc: RunConfig, args) -> tuple[str, int]:
    # the suite bridges, solves on the default grid and picks its own q and
    # x, so any value of these keys but the default would be silently ignored
    unread = [("[sim] bridge_correction", rc.sim.bridge_correction,
               _SIM.bridge_correction)]
    unread += [(f"[solver] {f.name}", getattr(rc.solver, f.name),
                getattr(_GRID, f.name)) for f in fields(_GRID)]
    unread += [("[run] q_list", rc.q_list,
                _float_list("run", "q_list", _DEFAULTS["run"]["q_list"])),
               ("[run] x_list", rc.x_list, (rc.model.x,))]
    ignored = [key for key, value, default in unread if value != default]
    if ignored:
        raise StructuralError("verify does not read these settings; drop "
                              + ", ".join(ignored))
    report = run_acceptance(rc.verify_settings, workers=rc.workers)
    for line in report.timing_lines():
        print(line, file=sys.stderr)
    return report.render(), 0 if report.passed else 3


_COMMANDS = {
    "classify": _cmd_classify,
    "simulate": _cmd_simulate,
    "closed-form": _cmd_closed_form,
    "volterra": _cmd_volterra,
    "table": _cmd_table,
    "verify": _cmd_verify,
}


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> _Parser:
    report = _Parser(add_help=False)
    report.add_argument("--report", metavar="FILE",
                        help="also save the stdout bytes to FILE")
    common = _Parser(add_help=False, parents=[report])
    common.add_argument("--config", metavar="FILE",
                        help="INI configuration file")
    common.add_argument("--set", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="override one config value (repeatable)")
    common.add_argument("--workers", type=int, metavar="N",
                        help="worker processes (default: the CPUs this "
                             "process may use)")
    common.add_argument("--seed", type=int, metavar="N",
                        help="shortcut for --set sim.seed=N")

    parser = _Parser(prog="passagelab",
                     description="First-passage modes of jump diffusions: "
                                 "classify, simulate, evaluate, verify.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("classify", parents=[report],
                       help="crossing record and announcing forecast of a "
                            "path file")
    p.add_argument("path_file", nargs="?", help="path file to classify")
    p.add_argument("--corpus", metavar="NAME",
                   help="use a bundled demonstration path instead of a file")
    p.add_argument("--barrier", type=float, default=0.0,
                   help="constant barrier level (default 0)")
    p.add_argument("--eps", type=float, default=EPS_MODE,
                   help="equality tolerance for the mode tests")
    p.add_argument("--announce", type=int, default=8, metavar="N",
                   help="number of forecast levels to print (default 8)")

    sub.add_parser("simulate", parents=[common],
                   help="Monte Carlo mode probabilities and transforms")
    sub.add_parser("closed-form", parents=[common],
                   help="undiscounted closed forms over x_list")
    sub.add_parser("volterra", parents=[common],
                   help="discounted transform over q_list and x_list")
    sub.add_parser("table", parents=[common],
                   help="closed-form / integral-equation vs Monte Carlo")
    sub.add_parser("verify", parents=[common],
                   help="run the acceptance suite (exit 3 on failure)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    try:
        rc = None if args.command == "classify" else resolve_config(args)
        text, status = _COMMANDS[args.command](rc, args)
        sys.stdout.write(text)
        if args.report is not None:
            with open(args.report, "w") as fh:
                fh.write(text)
    except StructuralError as exc:
        print(f"error: structural: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: numerical: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
