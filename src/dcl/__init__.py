"""Pseudo-spectral laboratory for third-order dispersive flows of closed curves.

Curves map the unit circle into a constant-curvature target (the unit
sphere, the Clifford torus, or the flat torus in chart coordinates) and
evolve by

    u_t = a cov_x^2 u_x + J_u cov_x u_x + b g(u_x, u_x) u_x,

optionally regularized by fourth-order dissipation.  The package bundles
the geometry, the covariant curve calculus, the integrators, the
conserved-quantity bookkeeping, and a config-driven CLI.
"""

from .curves import (
    ClosedCurve,
    covariant_derivative,
    covariant_tower,
    curvature_apply,
    h1_distance,
    identity_residuals,
    sobolev_norm,
    sup_distance,
)
from .errors import (
    ConfigError,
    DclError,
    NoContraction,
    OutOfTubularNeighborhood,
    PointOffManifold,
    StepSizeUnstable,
    TangencyViolation,
    UnsupportedCoefficients,
    WrongManifold,
)
from .flow import (
    FlowConfig,
    Trajectory,
    dispersive_rhs,
    epsilon_continuation,
    evolve,
    regularized_rhs,
)
from .invariants import (
    EnergyReport,
    drift_report,
    energy,
    energy_report,
    latitude_rates,
    nt_quantity,
    oracle_latitude_circle,
    oracle_torus_line,
    trajectory_reports,
)
from .manifolds import (
    CHART_FLAT_TORUS2,
    CLIFFORD_TORUS2,
    MANIFOLDS,
    SPHERE2,
    by_name,
)
from .presets import great_circle, latitude_circle, make_initial, random_smooth, torus_geodesic
from .spectral import spectral_derivative

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
