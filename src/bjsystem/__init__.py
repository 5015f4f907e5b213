"""Wave-curve toolkit for the Baiti-Jenssen 3x3 system of conservation laws.

Exact Riemann solver, closed-form and continued Hugoniot loci, shock
interaction certification, and an event-driven wave front tracker with a
scalar oracle for the decoupled middle component.
"""

from .errors import (
    ContractionError,
    ConvergenceError,
    DomainError,
    HyperbolicityError,
    SingularCurveError,
    TrackerEventError,
)
# note: the flux *function* is not re-exported here so that the `flux`
# attribute of the package stays the submodule (import bjsystem.flux).
from .flux import (
    EigenSystem,
    ModelParams,
    check_genuine_nonlinearity,
    check_strict_hyperbolicity,
    eigensystem,
    eigenvalues,
    jacobian,
)
from .wavecurves import (
    CurvePoint,
    LaxCheck,
    hugoniot,
    hugoniot2_closed_form,
    hugoniot_matrix,
    lax_admissible,
    rarefaction,
    wave_fan_curve,
)
from .riemann import (
    RiemannFan,
    Wave,
    check_fan,
    evaluate_fan,
    solve_riemann,
)
from .interactions import (
    Interaction12Scenario,
    Interaction22Scenario,
    InteractionReport,
    closed_form_12_eta0,
    contraction_solve_12,
    interact_12,
    interact_22,
    taylor_fit_22,
    verify_bounds_12,
)
from .fronttrack import TrackerState, burgers_oracle, init_from_piecewise

__all__ = [
    "ContractionError",
    "ConvergenceError",
    "DomainError",
    "HyperbolicityError",
    "SingularCurveError",
    "TrackerEventError",
    "EigenSystem",
    "ModelParams",
    "check_genuine_nonlinearity",
    "check_strict_hyperbolicity",
    "eigensystem",
    "eigenvalues",
    "jacobian",
    "CurvePoint",
    "LaxCheck",
    "hugoniot",
    "hugoniot2_closed_form",
    "hugoniot_matrix",
    "lax_admissible",
    "rarefaction",
    "wave_fan_curve",
    "RiemannFan",
    "Wave",
    "check_fan",
    "evaluate_fan",
    "solve_riemann",
    "Interaction12Scenario",
    "Interaction22Scenario",
    "InteractionReport",
    "closed_form_12_eta0",
    "contraction_solve_12",
    "interact_12",
    "interact_22",
    "taylor_fit_22",
    "verify_bounds_12",
    "TrackerState",
    "burgers_oracle",
    "init_from_piecewise",
]

__version__ = "0.1.0"
