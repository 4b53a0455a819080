"""Fixed-domain simulator for two-phase melting with surface tension.

The moving interface is flattened onto the grid line z = 0 by a cutoff
vertical shift, the bulk heat problem is solved implicitly per tangential
Fourier mode, and the interface moves by the regularized curvature jump
relation.  A diagnostics layer evaluates the weighted energy/dissipation
functionals of the underlying well-posedness theory and checks their
structural properties (conservation, monotone decay, identity residuals,
norm equivalence) at run time.
"""
from .errors import (
    ConfigError,
    DegenerateTransformError,
    FixedPointError,
    LinearSolveError,
    NonFiniteFieldError,
    StefanSimError,
)
from .grids import (
    Grids,
    NormalGrid,
    TangentialGrid,
    band_limited,
    d_tangential,
)
from .transform import Cutoff, TransformCoefficients, coefficients, curvature
from .functionals import (
    EnergyReport,
    conservation_residual,
    decay_fit,
    dissipation_eps,
    energy_eps,
    equivalence_constant,
    evaluate_functionals,
    i_psi,
    sobolev_norms,
    state_energy_k0,
    steady_mean,
)
from .identity import IdentityReport, identity_residual_k0, model_energy
from .stepper import (
    Level,
    SolverConfig,
    State,
    compatible_initial_temperature,
    fixed_point_step,
    make_level,
    run,
)
from .oracles import (
    LinearizedMode,
    ManufacturedProblem,
    curvature_closed_form,
    dispersion_leading_root,
    linearized_spectrum,
)
from .config import Scenario, build_initial_data, parse_config

__version__ = "0.1.0"

__all__ = [  # the names imported above, and no submodule
    "ConfigError", "DegenerateTransformError", "FixedPointError", "LinearSolveError",
    "NonFiniteFieldError", "StefanSimError", "Grids", "NormalGrid", "TangentialGrid",
    "band_limited", "d_tangential", "Cutoff", "TransformCoefficients", "coefficients", "curvature",
    "EnergyReport", "conservation_residual", "decay_fit", "dissipation_eps", "energy_eps",
    "equivalence_constant", "evaluate_functionals", "i_psi", "sobolev_norms", "state_energy_k0",
    "steady_mean", "IdentityReport", "identity_residual_k0", "model_energy", "Level",
    "SolverConfig", "State", "compatible_initial_temperature", "fixed_point_step", "make_level",
    "run", "LinearizedMode", "ManufacturedProblem", "curvature_closed_form",
    "dispersion_leading_root", "linearized_spectrum", "Scenario", "build_initial_data",
    "parse_config",
]
