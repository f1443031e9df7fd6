"""Command-line interface.

``prodsurf <command> [flags]`` drives the verification machinery;
``prodsurf --help`` lists the commands (the ``COMMANDS`` table).

Every command can also be driven from a JSON config file
(``{"command": ..., "scenario": ..., "overrides": {...}, "output": ...}``);
explicit flags override config-file values.  A ``tolerance_scale`` override
is accepted only by ``integral`` and ``solve-radial``, whose verdicts rest
on residual tolerances.  Reports are JSON envelopes (or CSV for radial
sample tables) and are byte-stable when ``--no-timestamp`` is given.  Exit
status: 0 when every executed check passed, 1 when any failed, 2 on usage
or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .acceptance import battery_passed, run_battery
from .errors import GeometryError
from .graphs import (closed_form_match, completeness_criterion, solve_radial,
                     theorem_harness)
from .identities import run_suite
from .integral import run_formulas
from .reports import TOLERANCES, dump_json, make_envelope
from .shape import GraphSurface
from .zoo import RESOLUTION_RANGE, instantiate, list_scenarios, override_number

_CONFIG_KEYS = {"command", "scenario", "overrides", "output", "format"}
_FLAG_OVERRIDES = ("resolution", "refine", "epsilon", "K", "x0_max", "delta")


class UsageError(Exception):
    """Bad flags or config; maps to exit status 2."""


@dataclass
class RunConfig:
    """One fully merged invocation (config file plus flag overrides)."""

    command: str
    scenario: str | None = None
    overrides: dict[str, Any] = field(default_factory=dict)
    output: str | None = None
    format: str = "json"
    timestamp: bool = True

    def to_jsonable(self) -> dict[str, Any]:
        # The output path is deliberately not echoed: the envelope describes
        # what was computed, and reruns stay byte-identical no matter where
        # they are written.
        return {
            "command": self.command,
            "scenario": self.scenario,
            "overrides": {k: self.overrides[k] for k in sorted(self.overrides)},
            "format": self.format,
        }


# -- argument and config handling --------------------------------------------

def _add_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", help="scenario name from the catalog")
    p.add_argument("--resolution", type=int,
                   help="grid resolution override")
    p.add_argument("--refine", type=int,
                   help="number of resolution doublings for order estimates, "
                        "at least 1 (identities only)")
    p.add_argument("--epsilon", type=int, choices=(1, -1),
                   help="product signature (+1 Riemannian, -1 Lorentzian)")
    p.add_argument("--K", type=float, help="target Gauss curvature")
    p.add_argument("--x0-max", dest="x0_max", type=float,
                   help="right end of the radial integration window")
    p.add_argument("--delta", type=float,
                   help="offset of the integration start above x0 = 1")
    p.add_argument("--out", dest="output", help="write the report here")
    p.add_argument("--format", choices=("json", "csv"),
                   help="report format (csv only for solve-radial)")
    # also valid before the command; SUPPRESS keeps the subparser default
    # from clobbering a value parsed at the top level
    p.add_argument("--config", default=argparse.SUPPRESS,
                   help="JSON config file")
    p.add_argument("--no-timestamp", action="store_true",
                   default=argparse.SUPPRESS,
                   help="omit the timestamp for byte-stable reports")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodsurf",
        description="numerical geometry of hypersurfaces in product spaces")
    parser.add_argument("--config", help="JSON config file naming the command")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp for byte-stable reports")
    sub = parser.add_subparsers(dest="command")
    for name, (_, help_text) in COMMANDS.items():
        _add_flags(sub.add_parser(name, help=help_text))
    return parser


def _load_config(path: str) -> dict[str, Any]:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)} "
                         f"(allowed: {', '.join(sorted(_CONFIG_KEYS))})")
    overrides = raw.get("overrides", {})
    if not isinstance(overrides, dict):
        raise UsageError("config 'overrides' must be an object")
    for key in ("command", "scenario", "output", "format"):
        if raw.get(key) is not None and not isinstance(raw[key], str):
            raise UsageError(f"config {key!r} must be a string, got "
                             f"{json.dumps(raw[key])}")
    return raw


def merge_config(args: argparse.Namespace) -> RunConfig:
    """Fold a parsed command line over its optional config file."""
    config_path = getattr(args, "config", None)
    cfg = _load_config(config_path) if config_path else {}
    command = args.command or cfg.get("command")
    if not command:
        raise UsageError("no command given (flag or config 'command')")
    if command not in COMMANDS:
        raise UsageError(f"unknown command {command!r} "
                         f"(known: {', '.join(COMMANDS)})")
    overrides = dict(cfg.get("overrides", {}))
    for key in _FLAG_OVERRIDES:
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    scenario = getattr(args, "scenario", None)
    if scenario is None:
        scenario = cfg.get("scenario")
    output = getattr(args, "output", None)
    if output is None:
        output = cfg.get("output")
    fmt = getattr(args, "format", None) or cfg.get("format") or "json"
    if fmt not in ("json", "csv"):
        raise UsageError(f"unknown format {fmt!r} (allowed: json, csv)")
    if fmt == "csv" and command != "solve-radial":
        raise UsageError("csv output is only available for solve-radial")
    return RunConfig(command=command, scenario=scenario, overrides=overrides,
                     output=output, format=fmt,
                     timestamp=not getattr(args, "no_timestamp", False))


def _require_scenario(config: RunConfig) -> str:
    if not config.scenario:
        raise UsageError(f"{config.command} needs --scenario "
                         "(or 'scenario' in the config file)")
    return config.scenario


def _reject_keys(overrides: dict[str, Any], keys: tuple[str, ...],
                 command: str) -> None:
    bad = sorted(k for k in keys if k in overrides)
    if bad:
        raise UsageError(f"{command} does not accept: {', '.join(bad)}")


def _pop_number(overrides: dict[str, Any], key: str, default: float,
                integer: bool = False) -> float:
    return override_number(key, overrides.pop(key, default), integer)


# -- command executors --------------------------------------------------------

def _cmd_identities(config: RunConfig):
    name = _require_scenario(config)
    overrides = dict(config.overrides)
    _reject_keys(overrides, ("epsilon", "x0_max", "delta", "tolerance_scale"),
                 "identities")
    refine = int(_pop_number(overrides, "refine", 1, integer=True))
    surface, grid, _ = instantiate(name, overrides)   # grid nodes stay unbuilt
    # the fine grid has 2**refine times the resolution; a shift clamped to
    # [0, hi.bit_length()] keeps the comparison without forming 2**refine,
    # and leaves a refine below 1 to run_suite's ParameterOutOfRange
    hi = RESOLUTION_RANGE[1]
    if grid.resolution << min(max(refine, 0), hi.bit_length()) > hi:
        raise UsageError(f"refine={refine}: the fine resolution "
                         f"{grid.resolution} * 2**{refine} exceeds {hi}")
    results = run_suite(surface, grid.resolution, refine=refine)
    return results, all(r.passed for r in results), None


def _cmd_integral(config: RunConfig):
    name = _require_scenario(config)
    overrides = dict(config.overrides)
    _reject_keys(overrides, ("refine", "epsilon", "x0_max", "delta"),
                 "integral")
    surface, grid, tol = instantiate(name, overrides)
    results = run_formulas(surface, grid, tol)
    return results, all(r.passed for r in results), None


def _cmd_solve_radial(config: RunConfig):
    overrides = dict(config.overrides)
    _reject_keys(overrides, ("refine", "resolution"), "solve-radial")
    x0_max = _pop_number(overrides, "x0_max", 10.0)
    delta = _pop_number(overrides, "delta", 1.0e-6)
    if config.scenario:
        _reject_keys(overrides, ("epsilon",),
                     "solve-radial with a scenario (the scenario fixes it)")
        surface, _, tol = instantiate(config.scenario, overrides)
        if not isinstance(surface, GraphSurface) or surface.radial_K is None:
            raise UsageError(f"scenario {config.scenario!r} is not a radial "
                             "profile; pick one of the radial scenarios or "
                             "pass --epsilon/--K directly")
        epsilon, K = surface.epsilon, float(surface.radial_K)
    else:
        if "epsilon" not in overrides or "K" not in overrides:
            raise UsageError("solve-radial needs --epsilon and --K "
                             "(or a radial scenario)")
        epsilon = int(_pop_number(overrides, "epsilon", 0, integer=True))
        K = _pop_number(overrides, "K", 0.0)
        tol = TOLERANCES.scaled(_pop_number(overrides, "tolerance_scale", 1.0))
        if overrides:
            raise UsageError("unknown solve-radial overrides: "
                             + ", ".join(sorted(overrides)))
    solution = solve_radial(epsilon, K, x0_max=x0_max, delta=delta)
    match = closed_form_match(solution, tolerance=tol.radial_match)
    summary = {
        "kind": "radial_solution",
        "epsilon": solution.epsilon,
        "K": solution.K,
        "delta": solution.delta,
        "x0_max": solution.x0_max,
        "samples": int(solution.samples.shape[0]),
        "max_gradient_sq": float(solution.gradient_sq().max()),
        "integrator": solution.integrator_stats,
    }
    return [summary, match], match.passed, solution.to_csv()


def _cmd_harness(config: RunConfig):
    name = _require_scenario(config)
    overrides = dict(config.overrides)
    _reject_keys(overrides, ("refine", "epsilon", "x0_max", "delta",
                             "tolerance_scale"), "harness")
    surface, grid, _ = instantiate(name, overrides)
    if not isinstance(surface, GraphSurface):
        raise UsageError(f"scenario {name!r} is not a graph; the harness "
                         "compares graphs against slices")
    if surface.radial_K is not None:
        verdict = completeness_criterion(surface, grid)
        passed = verdict.bound_respected and (
            verdict.criterion_met if surface.epsilon == -1 else True)
        return [verdict], passed, None
    report = theorem_harness(surface, grid)
    return [report], report.expected_sign_ok, None


def _reject_inputs(config: RunConfig) -> None:
    """A command with fixed inputs takes neither a scenario nor overrides."""
    if config.scenario is not None:
        raise UsageError(f"{config.command} does not accept a scenario, "
                         f"got {config.scenario!r}")
    if config.overrides:
        raise UsageError(f"{config.command} does not accept overrides: "
                         + ", ".join(sorted(config.overrides)))


def _cmd_zoo_list(config: RunConfig):
    _reject_inputs(config)
    rows = [{
        "name": sc.name,
        "ambient": sc.ambient_key,
        "kind": sc.kind,
        "default_resolution": sc.default_resolution,
        "compact": sc.compact,
        "overridable": sorted(sc.ranges),
        "description": sc.description,
        "expected": sc.expected,
    } for sc in list_scenarios()]
    return rows, True, None


def _cmd_acceptance(config: RunConfig):
    _reject_inputs(config)
    verdicts = run_battery(progress=sys.stderr)
    return verdicts, battery_passed(verdicts), None


# name -> (executor, one-line help), in the order the help lists them
COMMANDS = {
    "identities": (_cmd_identities, "pointwise identity checks on a scenario"),
    "integral": (_cmd_integral, "integral balance laws on a scenario"),
    "solve-radial": (_cmd_solve_radial, "integrate a radial profile and "
                                        "match the explicit solution"),
    "harness": (_cmd_harness, "curvature comparison scan on a scenario"),
    "zoo-list": (_cmd_zoo_list, "list the scenario catalog"),
    "acceptance": (_cmd_acceptance, "run the full acceptance battery"),
}


# -- entry point ---------------------------------------------------------------

def run(config: RunConfig) -> tuple[str, bool]:
    """Execute one merged invocation; returns (report text, all passed)."""
    results, passed, csv_text = COMMANDS[config.command][0](config)
    if config.format == "csv":
        return csv_text, passed
    envelope = make_envelope(config.command, config.to_jsonable(), results,
                             passed, timestamp=config.timestamp)
    return dump_json(envelope), passed


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = merge_config(args)
        text, passed = run(config)
        if config.output:
            Path(config.output).write_text(text)
        else:
            sys.stdout.write(text)
        return 0 if passed else 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The consumer closed stdout (e.g. piping into head). The run itself
        # succeeded; exit codes 1/2 are reserved for check/usage failures.
        # Point stdout at devnull so the interpreter's shutdown flush does
        # not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
