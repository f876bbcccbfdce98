"""Concrete target geometries with closed-form extrinsic operators.

Three constant-curvature targets are provided:

* ``Sphere2`` -- the unit two-sphere in R^3 (Gaussian curvature 1),
* ``CliffordTorus2`` -- the flat product of two circles of radius 1/(2*pi)
  in R^4, an isometric embedding of the unit-square flat torus,
* ``ChartFlatTorus2`` -- the flat torus worked directly in chart
  coordinates R^2/Z^2 (no constraint; coordinates wrap mod 1 lazily).

Every operation is a pure function of its inputs and is vectorized over
leading axes of points, so calls are safe to issue concurrently.  The
public ``tangent_project``, ``second_fundamental_form``,
``complex_structure`` and ``normal_project`` share one shape rule
(``_Manifold._at``): every argument has width d (else ValueError), the
base lies on the target (else ``PointOffManifold``), and base and
vectors broadcast by numpy's rules, pointwise.  Each has an
unchecked kernel (``_tangent``, ``_sff``, ``_j``) holding only the
formula, for callers that check or retract their points once and then
make many calls on them; ``_sff`` and ``_j`` write into a given ``out``,
and the sphere's ``_sff`` reads a given x.y (``xy``).  ``retract`` is
``require_in_tube`` followed by ``project`` from one squared norm per
point, which also gives the constraint residual before projection; what
it returns is on the target by construction (a residual of a few ulps,
property-tested on every target), so the flow never checks it again.

Public methods take (..., d) points.  The kernels (``_sq_norms``,
``_residual``, ``_distance``, ``_project``, ``_retract``,
``_require_on``, ``_tangent``, ``_sff``, ``_j``) and ``_ambient_sum``
take the row layout (..., d, N) of the flow and the reports: the
components on axis -2, the samples on the contiguous last axis, so each
component is one unstrided row.  ``_Manifold._rows`` is the one
conversion: it views (..., d) points as (..., d, 1), rows of one
sample, and each public method drops that axis again on the way out.

Convention note: ``second_fundamental_form`` returns the normal component
of the ambient directional derivative D_X Y (for the sphere this is
-(X.Y) y).  The evolution equations are assembled from the tangential
Gauss splitting D_X Y = (covariant part) + A(X, Y), i.e. the covariant
part is obtained by *subtracting* this A.  The complex structure on the
sphere is J_y X = y x X, so the Schroedinger term matches
u_t = u x u_xx; flipping the orientation time-reverses that term.
"""

import numpy as np

from .errors import OutOfTubularNeighborhood, PointOffManifold
from .spectral import TWO_PI

ON_MANIFOLD_TOL = 1e-8


def _ambient_sum(p):
    """Sum over the ambient axis -2 of (..., d, N) rows as whole-row adds.

    p0 + p1, then + p2 and so on: for d <= 4 these are the additions of
    the component sum ``.sum(axis=-1)`` of the (..., d) points in its
    order, so the result is bitwise the same (save a point of -0.0
    entries, which sums to -0.0 here and to 0.0 there), while a
    reduction over an axis this short costs about five times as much.
    """
    out = p[..., 0, :] + p[..., 1, :]
    for i in range(2, p.shape[-2]):
        out += p[..., i, :]
    return out


def _dot(a, b):
    return _ambient_sum(a * b)


class _Manifold:
    """Checked public operators; the formulas live in subclass kernels."""

    name = ""
    ambient_dim = 0
    gaussian_curvature = 0.0
    # largest principal curvature: the bound of |A(X, X)| / |X|^2
    principal_curvature = 0.0
    tubular_radius = np.inf

    def _rows(self, pts):
        """Checked (..., d) points as a (..., d, 1) view: rows of one sample."""
        pts = np.asarray(pts, dtype=float)
        if pts.shape[-1] != self.ambient_dim:
            raise ValueError(
                f"{self.name} expects ambient dimension {self.ambient_dim}, "
                f"got {pts.shape[-1]}"
            )
        return pts[..., None]

    def _point_sq(self, rows):
        """``_sq_norms`` as a public call reads them (the chart's differ)."""
        return self._sq_norms(rows)

    def require_on_manifold(self, pts, tol=ON_MANIFOLD_TOL):
        rows = self._rows(pts)
        self._require_on(rows, tol, self._point_sq(rows))

    def _require_on(self, rows, tol=ON_MANIFOLD_TOL, sq=None):
        res = self._residual(self._sq_norms(rows) if sq is None else sq).max()
        if not res <= tol:  # NaN included
            raise PointOffManifold(
                f"{self.name}: constraint residual {res:.3e} exceeds {tol:.1e}"
            )

    def require_in_tube(self, pts):
        self._require_tube(self.distance(pts))

    def _require_tube(self, dist):
        dist = dist.max()
        if not dist < self.tubular_radius:  # NaN and inf included
            raise OutOfTubularNeighborhood(
                f"{self.name}: distance {dist:.3e} >= tubular radius "
                f"{self.tubular_radius:.3e}"
            )

    # Each target writes its formulas once, as kernels of its squared norms
    # ``sq`` (``_sq_norms``) or of their square roots ``norm``:
    # ``_residual(sq)``, ``_distance(norm)`` and ``_project(pts, norm)``,
    # the last raising where the projection is undefined.

    def constraint_residual(self, pts):
        return self._residual(self._point_sq(self._rows(pts)))[..., 0]

    def distance(self, pts):
        return self._distance(np.sqrt(self._point_sq(self._rows(pts))))[..., 0]

    def project(self, pts):
        rows = self._rows(pts)
        return self._project(rows, np.sqrt(self._sq_norms(rows)))[..., 0]

    def retract(self, pts):
        """Nearest-point projection of tube points, from one |p|^2 per point.

        Raises what ``require_in_tube`` and then ``project`` raise, and
        returns ``(projection, sq)``: ``_residual(sq[..., None])[..., 0]``
        is ``constraint_residual(pts)``, the residual before projection.
        """
        rows = self._rows(pts)
        proj, sq = self._retract(rows, self._point_sq(rows))
        return proj[..., 0], sq[..., 0]

    def _retract(self, rows, sq=None):
        """:meth:`retract` of row-layout points; ``sq`` keeps the layout."""
        sq = self._sq_norms(rows) if sq is None else sq
        norm = np.sqrt(sq)
        self._require_tube(self._distance(norm))
        return self._project(rows, norm), sq

    def _at(self, kernel, base, *vecs):
        """A kernel's checked call on rows of one shape: the module's rule."""
        base = self._rows(base)
        self._require_on(base, sq=self._point_sq(base))
        return kernel(*np.broadcast_arrays(base, *map(self._rows, vecs)))[..., 0]

    def tangent_project(self, base, vec):
        return self._at(self._tangent, base, vec)

    def second_fundamental_form(self, base, x, y):
        return self._at(self._sff, base, x, y)

    def complex_structure(self, base, vec):
        return self._at(self._j, base, vec)

    def normal_project(self, base, vec):
        return np.asarray(vec, dtype=float) - self.tangent_project(base, vec)

    def __repr__(self):
        return self.name


class Sphere2(_Manifold):
    """Unit sphere in R^3."""

    name = "Sphere2"
    ambient_dim = 3
    gaussian_curvature = 1.0
    principal_curvature = 1.0
    tubular_radius = 0.5  # safely inside the focal distance 1

    def _sq_norms(self, pts):
        return _dot(pts, pts)

    def _residual(self, sq):
        return np.abs(sq - 1.0)

    def _distance(self, norm):
        return np.abs(norm - 1.0)

    def _project(self, pts, norm):
        if (norm < 1e-12).any():
            raise OutOfTubularNeighborhood(
                "Sphere2: cannot project a point at the center"
            )
        return pts / norm[..., None, :]

    def _tangent(self, base, vec):
        return vec - _dot(vec, base)[..., None, :] * base

    def _sff(self, base, x, y, out=None, xy=None):
        if xy is None:
            xy = _dot(x, y)[..., None, :]
        return np.multiply(-xy, base, out=out)

    def _j(self, base, vec, out=None):
        # base x vec, one component row at a time into one output: no
        # gathered copies of the inputs (np.cross costs twice as much)
        out = np.empty(vec.shape) if out is None else out
        for c, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
            row = out[..., c, :]
            np.multiply(base[..., i, :], vec[..., j, :], out=row)
            row -= base[..., j, :] * vec[..., i, :]
        return out


class CliffordTorus2(_Manifold):
    """Product of two circles of radius 1/(2*pi) in R^4 (flat, unit area)."""

    name = "CliffordTorus2"
    ambient_dim = 4
    gaussian_curvature = 0.0
    radius = 1.0 / TWO_PI
    principal_curvature = TWO_PI  # each circle has curvature 1 / radius
    tubular_radius = 0.5 / TWO_PI

    def _sq_norms(self, pts):
        """(..., 2, N) squared norms of the pairs (p1, p2) and (p3, p4)."""
        pairs = pts.shape[:-2] + (2, 2) + pts.shape[-1:]
        return _ambient_sum((pts * pts).reshape(pairs))

    def _residual(self, sq):
        gap = np.abs(sq - self.radius**2)
        return np.maximum(gap[..., 0, :], gap[..., 1, :])

    def _distance(self, norm):
        gap = norm - self.radius
        return np.hypot(gap[..., 0, :], gap[..., 1, :])

    def _project(self, pts, norm):
        if (norm < 1e-12).any():
            raise OutOfTubularNeighborhood(
                "CliffordTorus2: cannot project from a circle axis"
            )
        pairs = pts.reshape(norm.shape[:-1] + (2,) + norm.shape[-1:])
        return (pairs * (self.radius / norm)[..., None, :]).reshape(pts.shape)

    def _frame(self, base):
        """Orthonormal tangent frame (tau1, tau2) at on-manifold points."""
        tau1 = np.zeros_like(base)
        tau1[..., 0, :] = -base[..., 1, :] / self.radius
        tau1[..., 1, :] = base[..., 0, :] / self.radius
        tau2 = np.zeros_like(base)
        tau2[..., 2, :] = -base[..., 3, :] / self.radius
        tau2[..., 3, :] = base[..., 2, :] / self.radius
        return tau1, tau2

    def _tangent(self, base, vec):
        tau1, tau2 = self._frame(base)
        return (_dot(vec, tau1)[..., None, :] * tau1
                + _dot(vec, tau2)[..., None, :] * tau2)

    def _sff(self, base, x, y, out=None, xy=None):
        r2 = self.radius**2
        out = np.empty_like(base) if out is None else out
        for s in (slice(0, 2), slice(2, 4)):
            c = -_dot(x[..., s, :], y[..., s, :]) / r2
            out[..., s, :] = c[..., None, :] * base[..., s, :]
        return out

    def _j(self, base, vec, out=None):
        tau1, tau2 = self._frame(base)
        return np.subtract(_dot(vec, tau1)[..., None, :] * tau2,
                           _dot(vec, tau2)[..., None, :] * tau1, out=out)

    def embed_chart(self, chart_pts):
        """Isometric embedding of chart coordinates (y1, y2) into R^4."""
        chart_pts = np.asarray(chart_pts, dtype=float)
        phi1 = TWO_PI * chart_pts[..., 0]
        phi2 = TWO_PI * chart_pts[..., 1]
        out = np.empty(chart_pts.shape[:-1] + (4,))
        out[..., 0] = self.radius * np.cos(phi1)
        out[..., 1] = self.radius * np.sin(phi1)
        out[..., 2] = self.radius * np.cos(phi2)
        out[..., 3] = self.radius * np.sin(phi2)
        return out


class ChartFlatTorus2(_Manifold):
    """Flat torus R^2/Z^2 in chart coordinates.

    There is no embedding constraint: every point of R^2 represents a
    torus point via its class mod 1.  Derivatives act on unwrapped lifts,
    so projection and tangent projection are identities and the second
    fundamental form vanishes.
    """

    name = "ChartFlatTorus2"
    ambient_dim = 2
    gaussian_curvature = 0.0
    tubular_radius = np.inf

    def _sq_norms(self, pts):
        return np.zeros(pts.shape[:-2] + pts.shape[-1:])

    def _point_sq(self, rows):
        # NaN at a non-finite point, which every public check refuses; the
        # kernel's zeros leave such a stage point to the step end's check
        return np.where(np.isfinite(rows).all(axis=-2), 0.0, np.nan)

    def _residual(self, sq):
        return sq

    def _distance(self, norm):
        return norm

    def _project(self, pts, norm):
        return pts.copy()

    def _tangent(self, base, vec):
        return vec.copy()

    def _sff(self, base, x, y, out=None, xy=None):
        out = np.empty_like(base) if out is None else out
        out.fill(0.0)
        return out

    def _j(self, base, vec, out=None):
        out = np.empty_like(vec) if out is None else out
        out[..., 0, :] = -vec[..., 1, :]
        out[..., 1, :] = vec[..., 0, :]
        return out

    def wrap(self, pts):
        """Representative in [0, 1)^2; used only when emitting output."""
        return self._rows(pts)[..., 0] % 1.0


SPHERE2 = Sphere2()
CLIFFORD_TORUS2 = CliffordTorus2()
CHART_FLAT_TORUS2 = ChartFlatTorus2()

MANIFOLDS = {
    m.name: m for m in (SPHERE2, CLIFFORD_TORUS2, CHART_FLAT_TORUS2)
}


def by_name(name):
    if not isinstance(name, str) or name not in MANIFOLDS:
        raise KeyError(
            f"unknown manifold {name!r}; choose from {sorted(MANIFOLDS)}"
        )
    return MANIFOLDS[name]
