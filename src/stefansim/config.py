"""Scenario configuration: strict INI schema and initial-data builders.

Unknown sections or keys are hard errors — a silently ignored typo in
``epsilon`` or ``dt`` would invalidate a study.  The full schema:

[scenario]
  name         free-text label (default: config file stem)
  rho_modes    comma list "k:amp" of sine modes for rho0 (default empty)
  rho_mean     constant offset added to rho0 (default 0)
  rho_random_amp  amplitude of seeded band-limited noise in rho0 (default 0)
  u_init       "compatible" | "zero" | "snapshot:<path>" (default compatible)
  u_mass       amplitude of an added trace-free bulk profile sin^2(pi z)
               carrying nonzero heat content (default 0)
  t_end        final time (required for run/sweep); a whole number of
               steps of the solver dt and of every dt on the sweep axis
  seed         RNG seed for the random parts (default 0)

[solver]
  any SolverConfig field: epsilon, dt, n_x, n_z, alpha, theta, fp_tol,
  fp_max_iter, lin_tol, lin_max_iter, k_diag, trace_tol, max_dt_halvings

[output]
  dir               output directory (default "out")
  compute_identity  true/false: per-step identity residual column (default false)

[sweep]
  epsilon, dt, n_x, n_z   comma lists (missing axis = the solver value)
  job_cap                 max cartesian size (default 16)
"""
from __future__ import annotations

import configparser
import dataclasses
import os
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ConfigError
from .grids import band_limited
from .stepper import SolverConfig, compatible_initial_temperature, require_whole_steps

OUTPUT_ROOT_ENV = "STEFANSIM_OUT"

_SOLVER_FIELDS = {f.name: f.type for f in dataclasses.fields(SolverConfig)}

_SCENARIO_KEYS = {"name", "rho_modes", "rho_mean", "rho_random_amp",
                  "u_init", "u_mass", "t_end", "seed"}
_OUTPUT_KEYS = {"dir", "compute_identity"}
_SWEEP_KEYS = {"epsilon", "dt", "n_x", "n_z", "job_cap"}


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
    job_cap: int = 16


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


def _parse_modes(raw):
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
                f"[scenario] rho_modes: expected 'k:amplitude', got {tok!r}") from None
    return tuple(modes)


def _parse_list(section, key, raw, conv):
    out = []
    for tok in raw.split(","):
        tok = tok.strip()
        if tok:
            out.append(conv(section, key, tok))
    if not out:
        raise ConfigError(f"[{section}] {key}: empty list")
    return tuple(out)


def parse_config(path):
    """Read an INI scenario file; raises ConfigError on any problem."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found or unreadable: {path}")

    known_sections = {"scenario", "solver", "output", "sweep"}
    unknown = set(parser.sections()) - known_sections
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown)}")

    name = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    scen_kwargs = {"name": name}
    if parser.has_section("scenario"):
        sec = parser["scenario"]
        bad = set(sec) - _SCENARIO_KEYS
        if bad:
            raise ConfigError(f"[scenario]: unknown key(s): {sorted(bad)}")
        if "name" in sec:
            scen_kwargs["name"] = sec["name"].strip()
        if "rho_modes" in sec:
            scen_kwargs["rho_modes"] = _parse_modes(sec["rho_modes"])
        for key in ("rho_mean", "rho_random_amp", "u_mass", "t_end"):
            if key in sec:
                scen_kwargs[key] = _parse_float("scenario", key, sec[key])
        if "seed" in sec:
            scen_kwargs["seed"] = _parse_int("scenario", "seed", sec["seed"])
        if "u_init" in sec:
            u_init = sec["u_init"].strip()
            if u_init not in ("compatible", "zero") and not u_init.startswith("snapshot:"):
                raise ConfigError(
                    f"[scenario] u_init: expected compatible|zero|snapshot:<path>, "
                    f"got {u_init!r}")
            scen_kwargs["u_init"] = u_init

    solver_kwargs = {}
    if parser.has_section("solver"):
        sec = parser["solver"]
        bad = set(sec) - set(_SOLVER_FIELDS)
        if bad:
            raise ConfigError(f"[solver]: unknown key(s): {sorted(bad)}")
        for key in sec:
            conv = _parse_int if _SOLVER_FIELDS[key] in (int, "int") else _parse_float
            solver_kwargs[key] = conv("solver", key, sec[key])
    try:
        scen_kwargs["solver"] = SolverConfig(**solver_kwargs)
    except ValueError as exc:
        raise ConfigError(f"[solver]: {exc}") from None

    if parser.has_section("output"):
        sec = parser["output"]
        bad = set(sec) - _OUTPUT_KEYS
        if bad:
            raise ConfigError(f"[output]: unknown key(s): {sorted(bad)}")
        if "dir" in sec:
            scen_kwargs["out_dir"] = sec["dir"].strip()
        if "compute_identity" in sec:
            scen_kwargs["compute_identity"] = _parse_bool(
                "output", "compute_identity", sec["compute_identity"])

    if parser.has_section("sweep"):
        sec = parser["sweep"]
        bad = set(sec) - _SWEEP_KEYS
        if bad:
            raise ConfigError(f"[sweep]: unknown key(s): {sorted(bad)}")
        axes = {}
        for key in ("epsilon", "dt"):
            if key in sec:
                axes[key] = _parse_list("sweep", key, sec[key], _parse_float)
        for key in ("n_x", "n_z"):
            if key in sec:
                axes[key] = _parse_list("sweep", key, sec[key], _parse_int)
        scen_kwargs["sweep_axes"] = axes
        if "job_cap" in sec:
            scen_kwargs["job_cap"] = _parse_int("sweep", "job_cap", sec["job_cap"])

    scenario = Scenario(**scen_kwargs)
    for key, values in scenario.sweep_axes.items():
        for value in values:
            try:
                dataclasses.replace(scenario.solver, **{key: value})
            except ValueError as exc:
                raise ConfigError(f"[sweep] {key} = {value!r}: {exc}") from None
    if "t_end" not in scen_kwargs:
        raise ConfigError("[scenario] t_end: required key is missing")
    # every run of this file (each sweep point too) must end on t_end
    for dt in (scenario.solver.dt,) + tuple(scenario.sweep_axes.get("dt", ())):
        require_whole_steps(scenario.t_end, dt)
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
    Raises ConfigError when the product exceeds job_cap.
    """
    axes = scenario.sweep_axes
    base = scenario.solver
    keys = [k for k in ("epsilon", "dt", "n_x", "n_z") if k in axes]
    values = [axes[k] for k in keys]
    points = []
    for combo in product(*values) if keys else [()]:
        points.append(dataclasses.replace(base, **dict(zip(keys, combo))))
    if len(points) > scenario.job_cap:
        raise ConfigError(
            f"sweep size {len(points)} exceeds job_cap {scenario.job_cap}")
    return points


def build_initial_data(scenario, cfg=None):
    """Realize (u0, rho0) arrays for a scenario on the solver grids."""
    cfg = scenario.solver if cfg is None else cfg
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
        u0 = compatible_initial_temperature(rho0, cfg)
    else:  # snapshot:<path>
        from .io import read_snapshot
        state, meta = read_snapshot(scenario.u_init.partition(":")[2])
        # the state belongs to its own grid, epsilon and cutoff
        for name in ("n_x", "n_z", "epsilon", "alpha"):
            stored, solver = meta.get(name), getattr(cfg, name)
            if stored is None or float(stored) != solver:
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
