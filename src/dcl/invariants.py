"""Conserved quantities, drift reports and exact reference solutions.

For targets of constant Gaussian curvature K and coefficients b = a*K/2
the flow preserves ||u_x||_L2^2 and the functional

    E(u) = ||cov^2 u_x||^2 + (K^2/8) int g(u_x,u_x)^3
           - K int g(u_x, cov u_x)^2
           - (3K/2) int g(u_x,u_x) g(cov u_x, cov u_x).

On the sphere E with K = 1 coincides, curve by curve, with the extrinsic
combination ||u_xxx||^2 - (7/2)|| |u_x||u_xx| ||^2 - 14||u_x.u_xx||^2
+ (21/8)|| |u_x|^3 ||^2 used in earlier vortex-filament work; this module
exposes both forms.
"""

from dataclasses import dataclass

import numpy as np

from . import spectral
from .curves import ClosedCurve, _tower, lifted_velocity
from .errors import UnsupportedCoefficients, WrongManifold
from .manifolds import CHART_FLAT_TORUS2, SPHERE2, _dot


@dataclass
class EnergyReport:
    """Invariant values of one snapshot."""

    t: float
    l2_ux: float
    E: float
    hm_norms: tuple
    off_manifold: float
    nt_quantity: float = None

    def __post_init__(self):
        values = [self.t, self.l2_ux, self.E, *self.hm_norms, self.off_manifold]
        if self.nt_quantity is not None:
            values.append(self.nt_quantity)
        if not all(np.isfinite(values)):
            raise ValueError("energy report entries must be finite")


def _reports(curves, times, k):
    """EnergyReports of curves on one target and grid, E at curvature k.

    One tower t0 = u_x, t1 = P u_xx, t2 = P D t1, t3 = P D t2 (D = d/dx,
    P the unchecked tangential projection; t1..t3 by ``curves._tower``)
    and, on the sphere, u_xxx: five derivative transforms and one
    on-target check for the whole stack, stored as (S, d, N) rows (the
    transpose of each curve's samples).
    Reductions sum the ambient axis, then average the samples, as one
    curve's quadrature does, so each snapshot's values stand alone.
    """
    manifold = curves[0].manifold
    samples = np.stack([c.samples.T for c in curves])
    manifold._require_on(samples)
    t0 = lifted_velocity(samples, manifold)
    uxx = spectral._derivative(t0)
    t1, t2, t3 = _tower(manifold, samples, manifold._tangent(samples, uxx), 2)
    g00, g11 = _dot(t0, t0), _dot(t1, t1)
    sq = np.stack([g00, g11, _dot(t2, t2), _dot(t3, t3)]).mean(axis=-1)
    cubic = (g00**3).mean(axis=-1)
    e = sq[2] + (k**2 / 8.0) * cubic - k * (_dot(t0, t1) ** 2).mean(axis=-1)
    e -= (1.5 * k) * (g00 * g11).mean(axis=-1)
    nt = [None] * len(times)
    if manifold is SPHERE2:
        uxxx = spectral._derivative(uxx)
        nt = (
            _dot(uxxx, uxxx).mean(axis=-1)
            - 3.5 * (g00 * _dot(uxx, uxx)).mean(axis=-1)
            - 14.0 * (_dot(t0, uxx) ** 2).mean(axis=-1)
            + (21.0 / 8.0) * cubic
        ).tolist()
    hm = map(tuple, np.sqrt(np.cumsum(sq, axis=0)[1:]).T.tolist())
    off = manifold._residual(manifold._sq_norms(samples)).max(axis=-1)
    rows = zip(sq[0].tolist(), e.tolist(), hm, off.tolist(), nt)
    return [EnergyReport(float(t), *row) for t, row in zip(times, rows)]


_BLOCK = 64  # snapshots per tower; a tower holds ~10 arrays of its stack's size


def trajectory_reports(trajectory):
    """EnergyReport of every snapshot of a trajectory, one tower per block."""
    times, states = trajectory.times, trajectory.states
    if not states:
        raise ValueError("trajectory is empty")
    k = states[0].manifold.gaussian_curvature
    return [
        report
        for i in range(0, len(states), _BLOCK)
        for report in _reports(states[i : i + _BLOCK], times[i : i + _BLOCK], k)
    ]


def energy_report(curve, t=0.0):
    """EnergyReport of a single curve state."""
    return _reports([curve], [t], curve.manifold.gaussian_curvature)[0]


def energy(curve, k_gauss):
    """The conserved functional E for curvature K, by exact transcription."""
    return _reports([curve], [0.0], k_gauss)[0].E


def nt_quantity(curve):
    """Extrinsic conserved combination for sphere-valued curves.

    ||u_xxx||^2 - (7/2) || |u_x| |u_xx| ||^2 - 14 ||u_x . u_xx||^2
    + (21/8) || |u_x|^3 ||^2, all derivatives taken componentwise in R^3.
    """
    if curve.manifold is not SPHERE2:
        raise WrongManifold("nt_quantity is defined for Sphere2 curves only")
    return energy_report(curve).nt_quantity


@dataclass
class DriftRow:
    t: float
    l2_drift: float
    e_drift: float
    off_manifold: float


@dataclass
class DriftReport:
    rows: list
    max_l2_drift: float
    max_e_drift: float
    max_off_manifold: float

    def summary(self):
        return (
            f"max |d l2|/l2 = {self.max_l2_drift:.3e}, "
            f"max |dE|/E = {self.max_e_drift:.3e}, "
            f"max off-manifold = {self.max_off_manifold:.3e}"
        )


def _relative(value, ref):
    return abs(value - ref) / max(abs(ref), 1e-300)


def drift_report(trajectory):
    """Relative drift of ||u_x||^2 and E along a trajectory."""
    reports = trajectory_reports(trajectory)
    l2_0, e_0 = reports[0].l2_ux, reports[0].E
    rows = [
        DriftRow(r.t, _relative(r.l2_ux, l2_0), _relative(r.E, e_0), r.off_manifold)
        for r in reports
    ]
    return DriftReport(
        rows=rows,
        max_l2_drift=max(r.l2_drift for r in rows),
        max_e_drift=max(r.e_drift for r in rows),
        max_off_manifold=max(r.off_manifold for r in rows),
    )


# ---------------------------------------------------------------------------
# Exact reference solutions
# ---------------------------------------------------------------------------


def latitude_rates(theta, a, b):
    """Rotation rate about the z-axis and phase speed of a latitude circle.

    Substituting u(t,x) = R_z(w t) u0(x + c t) into the flow reduces to a
    single scalar balance because rotating the circle and shifting its
    phase act identically; the split below fixes the rotation to the
    Schroedinger part (a = b = 0 gives the classical w = -(2*pi)^2 cos
    theta, c = 0) and puts the rest into the phase speed.
    """
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    omega = -(spectral.TWO_PI**2) * cos_t
    speed = spectral.TWO_PI**2 * (-a * cos_t**2 + b * sin_t**2)
    return float(omega), float(speed)


def oracle_latitude_circle(theta, t, a, b, n=128):
    """Exact rotating/travelling latitude circle on the sphere at time t.

    Supported coefficient families: (a, b) = (0, 0) and b = a/2 (the
    curvature-matched setting on the unit sphere).
    """
    if not 0 < theta < np.pi:
        raise ValueError("theta must lie strictly between 0 and pi")
    if not (
        (a == 0 and b == 0) or np.isclose(b, 0.5 * a, rtol=1e-12, atol=1e-15)
    ):
        raise UnsupportedCoefficients(
            "latitude-circle solution is provided for (a,b)=(0,0) or b=a/2"
        )
    omega, speed = latitude_rates(theta, a, b)
    x = spectral.grid(n)
    phase = spectral.TWO_PI * (x + speed * t)
    angle = omega * t
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    base = np.stack(
        [sin_t * np.cos(phase), sin_t * np.sin(phase), np.full(n, cos_t)],
        axis=-1,
    )
    rot = np.array(
        [
            [np.cos(angle), -np.sin(angle), 0.0],
            [np.sin(angle), np.cos(angle), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    return ClosedCurve(base @ rot.T, SPHERE2)


def oracle_latitude_velocity(theta, t, a, b, n=128):
    """Exact time derivative of the latitude-circle solution at time t."""
    omega, speed = latitude_rates(theta, a, b)
    state = oracle_latitude_circle(theta, t, a, b, n)
    u = state.samples
    spin = np.stack([-omega * u[:, 1], omega * u[:, 0], np.zeros(n)], axis=-1)
    return spin + speed * state.velocity()


def oracle_torus_line(b, t, winding=(1, 0), n=32):
    """Travelling straight line on the chart torus: u = (m1 x + b t, m2 x).

    Exact for every a because all higher x-derivatives vanish; the cubic
    term pushes the line along itself at speed b*|w|^2 in chart
    coordinates (for the unit winding (1,0) this is (x + b t, 0)).
    """
    m1, m2 = winding
    x = spectral.grid(n)
    shift = b * float(m1 * m1 + m2 * m2) * t
    samples = np.stack([m1 * (x + shift), m2 * (x + shift)], axis=-1)
    return ClosedCurve(samples, CHART_FLAT_TORUS2)


def smoothing_constant_numeric(samples=4_000_001, xi_max=4.0):
    """Numeric maximum of xi^3 exp(-xi^4) on a fine grid."""
    xi = np.linspace(0.0, xi_max, samples)
    return float(np.max(xi**3 * np.exp(-(xi**4))))


def smoothing_constant_exact():
    """Closed-form maximum (3/4)^(3/4) exp(-3/4) of xi^3 exp(-xi^4)."""
    return float((0.75**0.75) * np.exp(-0.75))
