"""Scenario configuration: strict INI schema and initial-data builders.

Unknown sections or keys are hard errors — a silently ignored typo in
``epsilon`` or ``dt`` would invalidate a study.  ``SCHEMA`` is the schema:
each section's keys and the parser of each key's value.  The README's INI
block lists every key with its meaning and default; a test keeps it equal
to ``SCHEMA``.
"""
from __future__ import annotations

import configparser
import dataclasses
import math
import os
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ConfigError, StefanSimError
from .grids import band_limited
from .stepper import SolverConfig, compatible_initial_temperature, require_whole_steps

OUTPUT_ROOT_ENV = "STEFANSIM_OUT"
JOB_CAP = 16  # the largest cartesian product a sweep may run


@dataclass(frozen=True)
class Scenario:
    name: str
    rho_modes: tuple = ()
    rho_mean: float = 0.0
    rho_random_amp: float = 0.0
    u_init: str = "compatible"
    u_mass: float = 0.0
    t_end: float = 1.0
    seed: int = 0
    solver: SolverConfig = SolverConfig()
    out_dir: str = "out"
    compute_identity: bool = False
    sweep_axes: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.rho_random_amp < math.inf:
            raise ConfigError(f"rho_random_amp must be finite and >= 0, "
                              f"got {self.rho_random_amp!r}")
        amps = [amp for _, amp in self.rho_modes]
        if not np.all(np.isfinite([self.rho_mean, self.u_mass, *amps])):
            raise ConfigError(f"rho_mean, u_mass and the rho_modes amplitudes must be "
                              f"finite, got {self.rho_mean!r}, {self.u_mass!r}, {amps!r}")
        if self.u_init.startswith("snapshot:"):
            # a snapshot carries its own u and rho: nothing may reshape them
            defaults = {f.name: f.default for f in dataclasses.fields(self)}
            for key in ("rho_modes", "rho_mean", "rho_random_amp", "u_mass"):
                if getattr(self, key) != defaults[key]:
                    raise ConfigError(f"{key}={getattr(self, key)!r} cannot be set beside "
                                      f"u_init = {self.u_init}: the snapshot holds u and rho")


def _require_resolved_modes(modes, n_x):
    """Each ``rho_modes`` wavenumber k must satisfy 1 <= |k| < n_x/2: sin(0 x)
    vanishes, and an n_x-point grid holds no sine at or above its Nyquist
    mode (sampled there, it aliases to a lower mode or to zero)."""
    for k, _ in modes:
        if not 1 <= abs(k) < n_x // 2:
            raise ConfigError(f"rho_modes wavenumber {k} is not resolved at n_x={n_x}: "
                              f"need 1 <= |k| < {n_x // 2}")


def _parse_text(section, key, raw):
    return raw.strip()


def _parse_float(section, key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from None


def _parse_int(section, key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not an integer: {raw!r}") from None


def _parse_bool(section, key, raw):
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"[{section}] {key}: not a boolean: {raw!r}")


def _parse_modes(section, key, raw):
    modes = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            k_str, _, amp_str = tok.partition(":")
            modes.append((int(k_str), float(amp_str)))
        except ValueError:
            raise ConfigError(
                f"[{section}] {key}: expected 'k:amplitude', got {tok!r}") from None
    return tuple(modes)


def _parse_u_init(section, key, raw):
    u_init = raw.strip()
    if u_init not in ("compatible", "zero") and not u_init.startswith("snapshot:"):
        raise ConfigError(
            f"[{section}] {key}: expected compatible|zero|snapshot:<path>, got {u_init!r}")
    return u_init


def _list_of(conv):
    """The parser of a non-empty comma list of ``conv`` values."""
    def parse(section, key, raw):
        out = tuple(conv(section, key, tok.strip()) for tok in raw.split(",") if tok.strip())
        if not out:
            raise ConfigError(f"[{section}] {key}: empty list")
        return out
    return parse


# each section's keys and the parser of each key's value; any other
# section or key is an error
SCHEMA = {
    "scenario": {"name": _parse_text, "rho_modes": _parse_modes,
                 "rho_mean": _parse_float, "rho_random_amp": _parse_float,
                 "u_init": _parse_u_init, "u_mass": _parse_float,
                 "t_end": _parse_float, "seed": _parse_int},
    "solver": {f.name: _parse_int if f.type in (int, "int") else _parse_float
               for f in dataclasses.fields(SolverConfig)},
    "output": {"dir": _parse_text, "compute_identity": _parse_bool},
    "sweep": {"epsilon": _list_of(_parse_float), "dt": _list_of(_parse_float),
              "n_x": _list_of(_parse_int), "n_z": _list_of(_parse_int)},
}
_REQUIRED = ("scenario", "t_end")  # the one key without a default
_STEM_NAMED = ("scenario", "name")  # the key whose default is the file's stem
_OUTPUT_FIELDS = {"dir": "out_dir"}  # [output] keys whose Scenario field is named otherwise


def parse_config(path):
    """Read an INI scenario file; raises ConfigError on any problem."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path)
    except configparser.Error as exc:  # a repeated key or section, a key before any section
        raise ConfigError(f"malformed config file {os.fspath(path)}: {exc}") from None
    if not read:
        raise ConfigError(f"config file not found or unreadable: {path}")

    unknown = set(parser.sections()) - set(SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
    for section in parser.sections():
        bad = set(parser[section]) - set(SCHEMA[section])
        if bad:
            raise ConfigError(f"[{section}]: unknown key(s): {sorted(bad)}")

    values = {section: {} for section in SCHEMA}
    section, key = _STEM_NAMED
    values[section][key] = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    for section in parser.sections():
        for key, raw in parser[section].items():
            values[section][key] = SCHEMA[section][key](section, key, raw)

    try:
        solver = SolverConfig(**values["solver"])
    except ValueError as exc:
        raise ConfigError(f"[solver]: {exc}") from None
    output = {_OUTPUT_FIELDS.get(key, key): value for key, value in values["output"].items()}
    scenario = Scenario(**values["scenario"], **output, solver=solver, sweep_axes=values["sweep"])
    # every run of this file (each sweep point too) must be valid, end on
    # t_end and resolve the interface modes
    runs = [solver]
    for key, axis in scenario.sweep_axes.items():
        for value in axis:
            try:
                runs.append(dataclasses.replace(solver, **{key: value}))
            except ValueError as exc:
                raise ConfigError(f"[sweep] {key} = {value!r}: {exc}") from None
    section, key = _REQUIRED
    if key not in values[section]:
        raise ConfigError(f"[{section}] {key}: required key is missing")
    for cfg in runs:
        require_whole_steps(scenario.t_end, cfg.dt)
        _require_resolved_modes(scenario.rho_modes, cfg.n_x)
    return scenario


def resolve_out_dir(scenario, override=None):
    """--out flag beats config; a relative result lands under $STEFANSIM_OUT."""
    out = override if override else scenario.out_dir
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not os.path.isabs(out):
        out = os.path.join(root, out)
    return out


def sweep_points(scenario):
    """Cartesian product of the sweep axes as SolverConfig replacements.

    Single points (no sweep section) degenerate to the base solver config.
    Raises ConfigError when the product exceeds JOB_CAP.
    """
    axes = scenario.sweep_axes
    base = scenario.solver
    keys = [k for k in SCHEMA["sweep"] if k in axes]
    values = [axes[k] for k in keys]
    points = []
    for combo in product(*values) if keys else [()]:
        points.append(dataclasses.replace(base, **dict(zip(keys, combo))))
    if len(points) > JOB_CAP:
        raise ConfigError(f"sweep size {len(points)} exceeds job_cap {JOB_CAP}")
    return points


def build_initial_data(scenario, cfg=None):
    """Realize (u0, rho0) arrays for a scenario on the solver grids.  An
    error of the steady solve behind ``u_init = compatible`` is stamped as
    step 0 (t=0.0), the level it makes, as ``run`` stamps its own."""
    cfg = scenario.solver if cfg is None else cfg
    _require_resolved_modes(scenario.rho_modes, cfg.n_x)
    grids = cfg.grids()
    x = grids.tangential.nodes
    rho0 = np.full(grids.tangential.n_x, scenario.rho_mean)
    for k, amp in scenario.rho_modes:
        rho0 = rho0 + amp * np.sin(k * x)
    if scenario.rho_random_amp > 0:
        rng = np.random.default_rng(scenario.seed)
        rho0 = rho0 + band_limited(rng, grids.tangential, scenario.rho_random_amp)

    if scenario.u_init == "zero":
        u0 = np.zeros(grids.shape)
    elif scenario.u_init == "compatible":
        try:
            u0 = compatible_initial_temperature(rho0, cfg)
        except StefanSimError as exc:
            exc.at_step(0, 0.0)  # the steady solve makes the initial level
            raise
    else:  # snapshot:<path>
        from .io import read_snapshot
        path = scenario.u_init.partition(":")[2]
        try:  # a file from outside: a missing or malformed one is a config error
            state, meta = read_snapshot(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"snapshot {path}: {exc}") from None
        # the state belongs to its own grid, epsilon and cutoff
        for name in ("n_x", "n_z", "epsilon", "alpha"):
            stored, solver = meta.get(name), getattr(cfg, name)
            try:
                match = float(stored) == solver
            except (TypeError, ValueError):  # absent, or not a number
                match = False
            if not match:
                raise ConfigError(f"snapshot {name}={stored} does not match solver "
                                  f"{name}={solver!r}")
        if state.u.shape != grids.shape or state.rho.shape != (grids.tangential.n_x,):
            raise ConfigError(f"snapshot body shape {state.u.shape} does not match "
                              f"its header's grid {grids.shape}")
        u0, rho0 = state.u, state.rho
    if scenario.u_mass != 0.0:
        z = grids.normal.nodes[None, :]
        u0 = u0 + scenario.u_mass * np.sin(np.pi * z) ** 2
    return u0, rho0
