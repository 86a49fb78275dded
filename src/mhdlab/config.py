"""Run-configuration parsing and validation.

Configs are INI-style `key = value` sections.  Parsing validates everything
and reports the complete list of violations, not just the first one; the
only silent defaults are the documented ones below.  Initial data is given
as expressions over x and y using constants, + - * / **, cos, sin, exp and
pi, or as a snapshot path.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import BasisError, ConfigError
from .grid import Grid, GridMismatchError, ScalarField, VectorField, check_basis_size
from .solver import InitialData, RegParams, Schedule, cfl_bound
from .thermo import DomainError, EosParams
from .tolerances import TOLERANCES

__all__ = ["Config", "parse_config", "load_config", "evaluate_expression"]

_KNOWN = {
    "grid": {"nx", "ny", "lx", "ly"},
    "eos": {"gamma", "a", "c_v", "mu0", "mu1", "kappa0", "kappa2", "kappa3"},
    "reg": {"epsilon", "delta", "gamma_cap", "n", "theta_bar"},
    "time": {"t_final", "dt", "snapshot_stride"},
    "initial": {"rho", "b", "theta", "ux", "uy", "snapshot"},
    "output": {"directory", "formats"},
}

DEFAULTS = {
    ("grid", "lx"): "1.0",
    ("grid", "ly"): "1.0",
    ("eos", "gamma"): "1.6666666666666667",
    ("eos", "a"): "1.0",
    ("eos", "c_v"): "1.0",
    ("eos", "mu0"): "1.0",
    ("eos", "mu1"): "1.0",
    ("eos", "kappa0"): "1.0",
    ("eos", "kappa2"): "1.0",
    ("eos", "kappa3"): "1.0",
    ("reg", "gamma_cap"): "8.0",
    ("reg", "n"): "8",
    ("reg", "theta_bar"): "1.0",
    ("time", "snapshot_stride"): "1",
    ("initial", "rho"): "1",
    ("initial", "b"): "2",
    ("initial", "theta"): "1",
    ("initial", "ux"): "0",
    ("initial", "uy"): "0",
    ("output", "directory"): "out",
    ("output", "formats"): "snapshot,csv",
}

_REQUIRED = [
    ("grid", "nx"), ("grid", "ny"),
    ("reg", "epsilon"), ("reg", "delta"),
    ("time", "t_final"), ("time", "dt"),
]

_EXPR_NAMES = {"x", "y", "pi", "cos", "sin", "exp"}
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_EXPR_CHARS = re.compile(r"^[A-Za-z0-9_+\-*/(). \t]*$")


def evaluate_expression(expr: str, grid: Grid):
    """Evaluate an initial-data expression on the grid nodes."""
    if not _EXPR_CHARS.match(expr) or "__" in expr:
        raise ValueError(f"expression {expr!r} contains forbidden characters")
    for name in _IDENT.findall(expr):
        if name not in _EXPR_NAMES:
            raise ValueError(f"expression {expr!r} uses unknown name {name!r}")
    namespace = {
        "x": grid.X, "y": grid.Y, "pi": np.pi,
        "cos": np.cos, "sin": np.sin, "exp": np.exp,
        "__builtins__": {},
    }
    # invalid or overflowing values are rejected by the caller's checks, so
    # numpy's warnings about them would only be noise before that error
    try:
        with np.errstate(all="ignore"):
            vals = eval(expr, namespace)  # names whitelisted above
    except ArithmeticError as exc:
        raise ValueError(f"expression {expr!r} cannot be evaluated: {exc}") from None
    return np.broadcast_to(np.asarray(vals, dtype=float), grid.shape).copy()


@dataclass
class Config:
    grid: Grid
    eos: EosParams
    reg: RegParams
    schedule: Schedule
    initial_exprs: dict
    snapshot_path: str | None
    output_dir: str
    output_formats: tuple
    raw: dict = field(default_factory=dict, repr=False)

    def build_initial_data(self) -> InitialData:
        if self.snapshot_path is not None:
            from .snapshot import read_snapshot

            state = read_snapshot(self.snapshot_path)
            if state.grid != self.grid:
                raise ConfigError(
                    [f"snapshot grid {state.grid} does not match config grid "
                     f"{self.grid}"]
                )
            return InitialData(state.rho, state.b, state.theta, state.u)
        rho = ScalarField(self.grid, evaluate_expression(
            self.initial_exprs["rho"], self.grid))
        b = ScalarField(self.grid, evaluate_expression(
            self.initial_exprs["b"], self.grid))
        theta = ScalarField(self.grid, evaluate_expression(
            self.initial_exprs["theta"], self.grid))
        u = VectorField(
            self.grid,
            evaluate_expression(self.initial_exprs["ux"], self.grid),
            evaluate_expression(self.initial_exprs["uy"], self.grid),
        )
        return InitialData(rho, b, theta, u)


def parse_config(text: str) -> Config:
    """Parse and validate; raises ConfigError with every violation found."""
    parser = configparser.ConfigParser(interpolation=None)
    violations = []
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"syntax error: {exc}"]) from exc

    values = {}
    for section in parser.sections():
        if section not in _KNOWN:
            violations.append(f"unknown section [{section}]")
            continue
        for key, val in parser.items(section):
            if key not in _KNOWN[section]:
                violations.append(f"unknown key '{key}' in section [{section}]")
            else:
                values[(section, key)] = val
    for loc, default in DEFAULTS.items():
        values.setdefault(loc, default)
    for loc in _REQUIRED:
        if loc not in values:
            violations.append(f"missing required key '{loc[1]}' in [{loc[0]}]")
    if violations and any("missing required" in v for v in violations):
        raise ConfigError(violations)

    def number(section, key, cast=float):
        raw = values.get((section, key))
        try:
            return cast(raw)
        except (TypeError, ValueError):
            violations.append(f"[{section}] {key} = {raw!r} is not a number")
            return None

    nx = number("grid", "nx", int)
    ny = number("grid", "ny", int)
    lx = number("grid", "lx")
    ly = number("grid", "ly")
    grid = None
    if None not in (nx, ny, lx, ly):
        try:
            grid = Grid(nx, ny, lx, ly)
        except GridMismatchError as exc:
            violations.append(str(exc))

    eos = None
    eos_kwargs = {}
    for key, attr in [
        ("gamma", "gamma"), ("a", "a"), ("c_v", "c_V"), ("mu0", "mu0"),
        ("mu1", "mu1"), ("kappa0", "kappa0"), ("kappa2", "kappa2"),
        ("kappa3", "kappa3"),
    ]:
        val = number("eos", key)
        if val is not None:
            eos_kwargs[attr] = val
    try:
        eos = EosParams(**eos_kwargs)
    except DomainError as exc:
        violations.append(f"[eos] {exc}")

    epsilon = number("reg", "epsilon")
    delta = number("reg", "delta")
    gamma_cap = number("reg", "gamma_cap")
    n_modes = number("reg", "n", int)
    theta_bar = number("reg", "theta_bar")
    reg = None
    if None not in (epsilon, delta, gamma_cap, n_modes, theta_bar):
        gamma_val = eos.gamma if eos is not None else 5.0 / 3.0
        gamma_min = max(TOLERANCES["gamma_cap_min"], 2.0 * gamma_val)
        if not gamma_cap >= gamma_min:  # written so that NaN fails
            violations.append(
                f"[reg] gamma_cap = {gamma_cap:g} violates the constraint "
                f"gamma_cap >= max({TOLERANCES['gamma_cap_min']:g}, 2*gamma) = "
                f"{gamma_min:g}"
            )
        else:
            try:
                reg = RegParams(epsilon, delta, gamma_cap, n_modes, theta_bar)
                if grid is not None:
                    check_basis_size(grid, n_modes)
            except BasisError as exc:
                violations.append(f"[reg] {exc}")
                reg = None
            except DomainError as exc:
                violations.append(f"[reg] {exc}")

    t_final = number("time", "t_final")
    dt = number("time", "dt")
    stride = number("time", "snapshot_stride", int)
    schedule = None
    if None not in (t_final, dt, stride):
        try:
            schedule = Schedule(t_final, dt, stride)
        except DomainError as exc:
            violations.append(f"[time] {exc}")

    snapshot_path = values.get(("initial", "snapshot"))
    exprs = {k: values[("initial", k)] for k in ("rho", "b", "theta", "ux", "uy")}
    if grid is not None and snapshot_path is None:
        fields = {}
        for name in ("rho", "b", "theta", "ux", "uy"):
            try:
                fields[name] = evaluate_expression(exprs[name], grid)
            except ValueError as exc:
                violations.append(f"[initial] {name}: {exc}")
        for name, vals in fields.items():
            if name in ("rho", "b", "theta") and not vals.min() > 0.0:
                violations.append(
                    f"[initial] {name} must be strictly positive (min {vals.min():g})"
                )
            elif not np.isfinite(vals).all():
                violations.append(f"[initial] {name} must be finite")
        if schedule is not None and "ux" in fields and "uy" in fields:
            u0 = VectorField(grid, fields["ux"], fields["uy"])
            bound = cfl_bound(u0)
            if schedule.dt > bound:
                violations.append(
                    f"[time] dt = {schedule.dt:g} violates the CFL bound "
                    f"0.5*h/max|u| = {bound:g} at t = 0"
                )

    out_dir = values[("output", "directory")]
    formats = tuple(
        f.strip() for f in values[("output", "formats")].split(",") if f.strip()
    )
    for f in formats:
        if f not in ("snapshot", "csv"):
            violations.append(f"[output] unknown format '{f}'")

    if violations:
        raise ConfigError(violations)
    return Config(
        grid=grid,
        eos=eos,
        reg=reg,
        schedule=schedule,
        initial_exprs=exprs,
        snapshot_path=snapshot_path,
        output_dir=out_dir,
        output_formats=formats,
        raw={f"{s}.{k}": v for (s, k), v in values.items()},
    )


def load_config(path) -> Config:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
