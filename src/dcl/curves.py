"""Discrete closed curves, covariant calculus along them, and identity checks.

A curve is a uniformly sampled periodic map into one of the concrete
targets.  Differentiation is spectral; the covariant derivative of a
tangent field is the pointwise tangential projection of its spectral
x-derivative.  On the chart torus the position samples may wind, so the
velocity is computed from the periodic deviation plus the integer winding
vector; all higher derivatives act on the (periodic) velocity.  The curve
calculus takes and returns tangent fields as (N, d) arrays; the lift
helpers take the flow's (..., d, N) rows, which a curve's transpose gives.
An entry that checks its curve on the target does so once, then runs the
unchecked row kernels; what it derives from that curve is not checked.
"""

from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import TangencyViolation
from .manifolds import CHART_FLAT_TORUS2, ON_MANIFOLD_TOL, by_name


def is_grid_size(n):
    """Whether ``n`` is a curve grid: an integer, not a bool, power of two >= 16."""
    return (isinstance(n, (int, np.integer)) and not isinstance(n, bool)
            and n >= 16 and not n & (n - 1))


@dataclass
class ClosedCurve:
    """Uniformly sampled closed curve with its target geometry.

    ``samples`` has shape (N, d) with N a power of two >= 16 and d the
    ambient dimension of ``manifold``.  Samples of chart-torus curves are
    stored as an unwrapped lift; wrapping happens only on output.
    """

    samples: np.ndarray
    manifold: object

    def __post_init__(self):
        if isinstance(self.manifold, str):
            self.manifold = by_name(self.manifold)
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2 or self.samples.shape[1] != self.manifold.ambient_dim:
            raise ValueError(
                f"samples must have shape (N, {self.manifold.ambient_dim})"
            )
        if not is_grid_size(self.n):
            raise ValueError("grid size must be a power of two >= 16")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")

    @property
    def n(self):
        return self.samples.shape[0]

    def with_samples(self, samples):
        return ClosedCurve(samples, self.manifold)

    def winding(self):
        """Integer winding vector of the unwrapped chart lift."""
        return lift_winding(self.samples.T, self.manifold)[:, 0]

    def trend(self):
        """Linear winding part W*x of the samples (chart torus only)."""
        return lift_trend(self.samples.T, self.manifold)[0].T

    def velocity(self):
        """Spectral first derivative of the position, winding-aware."""
        return lifted_velocity(self.samples.T, self.manifold).T

    def off_manifold(self):
        """Max constraint residual over the samples."""
        return float(np.max(self.manifold.constraint_residual(self.samples)))

    def require_on_manifold(self, tol=ON_MANIFOLD_TOL):
        self.manifold.require_on_manifold(self.samples, tol)

    def output_samples(self):
        """Samples as emitted to artifacts (chart coordinates wrapped)."""
        if self.manifold is CHART_FLAT_TORUS2:
            return self.manifold.wrap(self.samples)
        return self.samples.copy()


def lift_winding(samples, manifold):
    """Integer winding vectors (..., d, 1) of (..., d, N) chart-lift rows.

    Zero for embedded targets.  Recovery from samples assumes every step
    increment is below half a period, which holds for any resolved curve.
    """
    if manifold is not CHART_FLAT_TORUS2:
        return np.zeros(samples.shape[:-2] + (manifold.ambient_dim, 1))
    return np.rint(samples[..., -1:] - samples[..., :1])


def lift_trend(samples, manifold):
    """(trend W*x, winding W) of (..., d, N) rows; both zero off the chart."""
    w = lift_winding(samples, manifold)
    if not w.any():
        return np.zeros_like(samples), w
    return w * spectral.grid(samples.shape[-1]), w


def lifted_velocity(samples, manifold):
    """Winding-aware spectral first derivative of (..., d, N) rows.

    On the chart torus each member's trend W*x is removed before
    differentiating and its winding W added back; any leading axes are a
    batch of curves on one grid.
    """
    trend, w = lift_trend(samples, manifold)
    if w.any():
        return w + spectral._derivative(samples - trend)
    return spectral._derivative(samples)


def _tower(manifold, base, field, j):
    """[X, P D X, ..., (P D)^j X] of a (..., d, N) row field X along ``base``.

    D is the spectral x-derivative and P the unchecked tangential
    projection at the base rows: the one P D loop of the package, so its
    callers check the base on the target once, at their entry.
    """
    out = [field]
    for _ in range(j):
        out.append(manifold._tangent(base, spectral._derivative(out[-1])))
    return out


def covariant_derivative(curve, vectors):
    """Covariant derivative P d/dx, (N, d), of an (N, d) tangent field.

    For the velocity field it agrees with v_xx - A(v)(v_x, v_x), A the
    second fundamental form.  A field of the wrong shape raises ValueError,
    a curve off the target PointOffManifold, a normal part TangencyViolation.
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.shape != curve.samples.shape:
        raise ValueError("field shape must match the base curve samples")
    m, rows, field = curve.manifold, curve.samples.T, vectors.T
    m._require_on(rows)
    res = np.max(np.abs(field - m._tangent(rows, field)))
    scale = np.max(np.abs(vectors)) or 1.0
    if res > ON_MANIFOLD_TOL * scale:
        raise TangencyViolation(f"normal component {res:.3e} exceeds "
                                f"{ON_MANIFOLD_TOL:.0e} * {scale:.3e}")
    return _tower(m, rows, field, 1)[1].T


def covariant_tower(curve, j):
    """[u_x, cov u_x, ..., cov^j u_x], (N, d) arrays, by iterating cov.

    Capped at j = 6: each level amplifies roundoff by one factor of the
    top retained frequency, and nothing in the lab needs more.  One
    on-target check (for j >= 1), then :func:`_tower`.
    """
    spectral.check_order(j, "tower order j", 0, 6)
    m, rows = curve.manifold, curve.samples.T
    if j:
        m._require_on(rows)
    return [f.T for f in _tower(m, rows, lifted_velocity(rows, m), j)]


def sobolev_norm(curve, m):
    """Bundle Sobolev norm (sum_{j<=m} ||cov^j u_x||_L2^2)^(1/2), m <= 5."""
    spectral.check_order(m, "Sobolev order m", 0, 5)
    tower = covariant_tower(curve, m)
    total = sum(spectral.l2_inner(f, f) for f in tower)
    return float(np.sqrt(total))


def curvature_apply(k_gauss, x, y, z):
    """Constant-curvature tensor R(X,Y)Z = K(g(Y,Z)X - g(X,Z)Y), pointwise."""
    x, y, z = (np.asarray(v, float) for v in (x, y, z))
    gyz = (y * z).sum(axis=-1, keepdims=True)
    gxz = (x * z).sum(axis=-1, keepdims=True)
    return k_gauss * (gyz * x - gxz * y)


def h1_distance(c1, c2):
    """Discrete H1 distance between two curves on the same target.

    Chart-torus lifts are aligned by removing the integer offset of their
    mean difference before comparing.  The velocity difference is one
    winding-aware derivative of the difference, which cancels no O(1)
    velocities.
    """
    if c1.manifold is not c2.manifold or c1.n != c2.n:
        raise ValueError("curves must share manifold and grid")
    diff = c1.samples - c2.samples
    if c1.manifold is CHART_FLAT_TORUS2:
        diff = diff - np.rint(diff.mean(axis=0))[None, :]
    dvel = lifted_velocity(diff.T, c1.manifold).T
    return float(
        np.sqrt(spectral.l2_inner(diff, diff) + spectral.l2_inner(dvel, dvel))
    )


def resample(curve, n):
    """Spectral interpolation of a curve onto another power-of-two grid.

    Exact for band-limited curves; winding lifts are handled by
    detrending.  Upsampled points are re-projected to the target (the
    interpolant of on-manifold samples is off-manifold at truncation
    level).  A size that is not a grid raises ValueError before any
    transform; so does a coarser grid that cannot carry the curve, whose
    samples read back another winding or leave the target's tube.
    """
    if not is_grid_size(n):
        raise ValueError(f"grid size must be a power of two >= 16, got {n!r}")
    if n == curve.n:
        return curve
    m = curve.manifold
    trend, w = lift_trend(curve.samples.T, m)
    dev = spectral.irfft(spectral.rfft(curve.samples.T - trend), n).T
    if w.any():
        dev += spectral.grid(n)[:, None] * w.T
    if n < curve.n and np.any(lift_winding(dev.T, m) != w):
        raise ValueError(f"winding {w[:, 0].tolist()} on {n} samples")
    if n < curve.n and not m.distance(dev).max() < m.tubular_radius:
        raise ValueError(f"shape: its interpolant on {n} samples leaves the tube")
    return ClosedCurve(m.project(dev), m)


def sup_distance(c1, c2):
    """Largest pointwise distance between two curves (torus-aware)."""
    if c1.manifold is not c2.manifold or c1.n != c2.n:
        raise ValueError("curves must share manifold and grid")
    diff = c1.samples - c2.samples
    if c1.manifold is CHART_FLAT_TORUS2:
        diff = (diff + 0.5) % 1.0 - 0.5
    return float(np.max(np.sqrt((diff**2).sum(axis=-1))))


# ---------------------------------------------------------------------------
# Structural identity checks
# ---------------------------------------------------------------------------


@dataclass
class IdentityReport:
    """Residuals of the structural identities the energy arguments rely on.

    third_pairing[l]   |integral g(cov^{l+3} u_x, cov^l u_x)|   (zero by parts)
    j_pairing[l]       |integral g(cov^{l+1} J cov u_x, cov^l u_x)|
                       (zero by the parallel complex structure + antisymmetry)
    curvature_symmetry max |g(R(X,Y)Z,W) - g(R(W,Z)Y,X)| over random quadruples
    commutator[l]      L2 residual of the covariant t/x commutation rule,
                       approximated by centered differences along a family

    The ``*_rel`` variants divide by the L2 norms of the paired fields;
    those are the meaningful numbers, since the raw integrals of high
    towers are differences of huge cancelling values whose absolute floor
    is set by the ulp of the summands rather than by the discretization.
    Note that for l >= 1 the tower fields are pointwise tangent by
    construction and discrete integration by parts is exact, so the
    third-pairing residual sits at the roundoff floor at *every*
    resolution; only l = 0 (the raw velocity carries a truncation-level
    normal defect) and the J-pairings exhibit spectral decay.
    """

    third_pairing: dict
    j_pairing: dict
    third_pairing_rel: dict
    j_pairing_rel: dict
    curvature_symmetry: float
    commutator: dict


def seeded_field(n, d, rng, top, decay):
    """Real periodic (n, d) field drawn from ``rng``: complex normals on
    modes 1..top-1 with envelope exp(-decay k)."""
    coef = np.zeros((d, n // 2 + 1), dtype=complex)
    modes = np.arange(1, top)
    coef[:, modes] = (
        rng.standard_normal((modes.size, d))
        + 1j * rng.standard_normal((modes.size, d))
    ).T * np.exp(-decay * modes)
    return spectral.irfft(coef, n).T


def _default_family(curve, seed=0):
    """Smooth one-parameter family of curves through ``curve`` at t = 0.

    The path is trigonometric in t (all t-derivatives present) so the
    O(h^2) term of the commutator check is nonzero even on flat targets,
    and the direction amplitude (1.5, on modes decaying as exp(-k)) is
    deliberately large so that term sits far above the finite-difference
    noise floor.
    """
    rng = np.random.default_rng(seed)
    n, d = curve.samples.shape
    dir1, dir2 = (seeded_field(n, d, rng, min(n // 2, 12), 1.0) * 1.5
                  for _ in range(2))
    manifold = curve.manifold

    def family(t):  # the chart's projection is a copy
        pts = curve.samples + np.sin(t) * dir1 + (1.0 - np.cos(t)) * dir2
        return curve.with_samples(manifold.project(pts))

    return family


def identity_residuals(curve, l_max=2, seed=0, n_quadruples=16, fd_step=1e-4):
    """Evaluate the discrete residuals of the structural identities.

    The pairing residuals vanish in the continuum by integration by parts;
    discretely they decay spectrally with resolution.  The curvature
    symmetry is algebraic and holds to roundoff.  The commutator residual
    uses second-order centered differences in the family parameter and is
    O(fd_step^2).  ``l_max`` is at most 3, since the tower goes 3 past it.
    """
    spectral.check_order(l_max, "l_max", 0, 3)
    m, base = curve.manifold, curve.samples.T
    k_gauss = m.gaussian_curvature
    tower = [f.T for f in covariant_tower(curve, l_max + 3)]  # checks

    third, third_rel = _pairings(tower[3:], tower)

    j_tower = _tower(m, base, m._j(base, tower[1]), l_max + 1)
    jpair, jpair_rel = _pairings(j_tower[1:], tower)

    rng = np.random.default_rng(seed)
    sym = 0.0
    for _ in range(n_quadruples):
        raw = rng.standard_normal((4,) + curve.samples.shape)
        x, y, z, w = (m._tangent(base, r.T).T for r in raw)
        lhs = (curvature_apply(k_gauss, x, y, z) * w).sum(axis=-1)
        rhs = (curvature_apply(k_gauss, w, z, y) * x).sum(axis=-1)
        sym = max(sym, float(np.max(np.abs(lhs - rhs))))

    commutator = _commutator_residuals(curve, l_max, fd_step, seed)
    return IdentityReport(third, jpair, third_rel, jpair_rel, sym, commutator)


def _pairings(fields, others):
    """|(a, b)| and |(a, b)| / (|a| |b|) of the l-th rows of two towers."""
    raw, rel = {}, {}
    for l, (a, b) in enumerate(zip(fields, others)):
        a, b = a.T, b.T
        raw[l] = abs(spectral.l2_inner(a, b))
        rel[l] = raw[l] / max(spectral.l2_norm(a) * spectral.l2_norm(b), 1e-300)
    return raw, rel


def _commutator_residuals(curve, l_max, h, seed):
    """L2 residuals of cov_t cov_x^l u_x = cov_x^{l+1} u_t + curvature terms.

    Unchecked: the family members lie on the target by construction.
    """
    family = _default_family(curve, seed=seed)
    m, k_gauss = curve.manifold, curve.manifold.gaussian_curvature
    base, plus, minus = (family(t).samples.T for t in (0.0, h, -h))
    u_t = m._tangent(base, (plus - minus) / (2.0 * h))

    tower_c, tower_p, tower_m = (_tower(m, r, lifted_velocity(r, m), l_max)
                                 for r in (base, plus, minus))
    ut_tower = _tower(m, base, u_t, l_max + 1)

    out = {}
    for l in range(1, l_max + 1):
        lhs = m._tangent(base, (tower_p[l] - tower_m[l]) / (2.0 * h))
        rhs = ut_tower[l + 1].copy()
        for j in range(l):
            term = curvature_apply(
                k_gauss, u_t.T, tower_c[0].T, tower_c[l - j - 1].T
            )
            rhs += _tower(m, base, term.T, j)[-1]
        out[l] = float(spectral.l2_norm((lhs - rhs).T))
    return out
