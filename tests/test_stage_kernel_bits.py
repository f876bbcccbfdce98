"""The lean stage kernels give the bits of their earlier formulation.

The stage slope forms |v_x|^2 once, sums ``rest`` in place into one
product buffer, takes the winding as None when there is none and reads
its derivative rows pre-shaped; the checks reduce with ``ndarray.max``
and one comparison; the Duhamel kernel is one contraction over all
targets.  The reference below is a verbatim copy of the formulation
before those changes: ``_Stepper.slope`` and ``_Stepper.remainder``,
``Sphere2._j``, ``_require_on``, ``_require_tube``, the ``_sff``, ``_j``
and ``_project`` kernels they call, and ``_tangent``.  Every output must
match it bit for bit on all three targets, and every check must raise the
same exception with the same message.  Signs of zeros are held as int64
words: the kernels, the stage slope and the RK4 step on curves in a
coordinate plane, whose rows hold +0.0 and -0.0, and the component sum
and the sphere's cross product against their row-by-row forms on rows
full of signed zeros.
"""

import numpy as np
import pytest
from conftest import stiff_symbol

from dcl import spectral
from dcl.curves import lift_trend
from dcl.errors import OutOfTubularNeighborhood, PointOffManifold
from dcl.flow import (
    FlowConfig,
    TWO_PI,
    _duhamel_quadrature,
    _picard_step,
    _rk4_step,
    _sq,
    _Stepper,
    run_band,
)
from dcl.manifolds import (
    CHART_FLAT_TORUS2,
    CLIFFORD_TORUS2,
    ON_MANIFOLD_TOL,
    SPHERE2,
    ChartFlatTorus2,
    CliffordTorus2,
    Sphere2,
    _ambient_sum,
    _dot,
)
from dcl.presets import random_smooth

N = 64


# ---------------------------------------------------------------------------
# the reference: the earlier kernels, verbatim
# ---------------------------------------------------------------------------


class _ReferenceChecks:
    def _require_on(self, rows, tol=ON_MANIFOLD_TOL):
        res = np.max(self._residual(self._sq_norms(rows)))
        if not np.isfinite(res) or res > tol:
            raise PointOffManifold(
                f"{self.name}: constraint residual {res:.3e} exceeds {tol:.1e}"
            )

    def _require_tube(self, dist):
        dist = np.max(dist)
        if not np.isfinite(dist) or dist >= self.tubular_radius:
            raise OutOfTubularNeighborhood(
                f"{self.name}: distance {dist:.3e} >= tubular radius "
                f"{self.tubular_radius:.3e}"
            )


class ReferenceSphere2(_ReferenceChecks, Sphere2):
    def _tangent(self, base, vec):
        return vec - _dot(vec, base)[..., None, :] * base

    def _project(self, pts, norm):
        if np.any(norm < 1e-12):
            raise OutOfTubularNeighborhood(
                "Sphere2: cannot project a point at the center"
            )
        return pts / norm[..., None, :]

    def _sff(self, base, x, y):
        return -_dot(x, y)[..., None, :] * base

    def _j(self, base, vec):
        # base x vec, one component row at a time into one output: no
        # gathered copies of the inputs (np.cross costs twice as much)
        out = np.empty(np.broadcast_shapes(base.shape, vec.shape))
        for c, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
            np.subtract(base[..., i, :] * vec[..., j, :],
                        base[..., j, :] * vec[..., i, :], out=out[..., c, :])
        return out


class ReferenceCliffordTorus2(_ReferenceChecks, CliffordTorus2):
    def _tangent(self, base, vec):
        tau1, tau2 = self._frame(base)
        return (_dot(vec, tau1)[..., None, :] * tau1
                + _dot(vec, tau2)[..., None, :] * tau2)

    def _project(self, pts, norm):
        if np.any(norm < 1e-12):
            raise OutOfTubularNeighborhood(
                "CliffordTorus2: cannot project from a circle axis"
            )
        pairs = pts.reshape(norm.shape[:-1] + (2,) + norm.shape[-1:])
        return (pairs * (self.radius / norm)[..., None, :]).reshape(pts.shape)

    def _sff(self, base, x, y):
        r2 = self.radius**2
        out = np.empty_like(base)
        for s in (slice(0, 2), slice(2, 4)):
            c = -_dot(x[..., s, :], y[..., s, :]) / r2
            out[..., s, :] = c[..., None, :] * base[..., s, :]
        return out

    def _j(self, base, vec):
        tau1, tau2 = self._frame(base)
        return (_dot(vec, tau1)[..., None, :] * tau2
                - _dot(vec, tau2)[..., None, :] * tau1)


class ReferenceChartFlatTorus2(_ReferenceChecks, ChartFlatTorus2):
    def _tangent(self, base, vec):
        return vec.copy()

    def _sff(self, base, x, y):
        return np.zeros_like(base)

    def _j(self, base, vec):
        out = np.empty_like(vec)
        out[..., 0, :] = -vec[..., 1, :]
        out[..., 1, :] = vec[..., 0, :]
        return out


REFERENCE = {
    SPHERE2: ReferenceSphere2(),
    CLIFFORD_TORUS2: ReferenceCliffordTorus2(),
    CHART_FLAT_TORUS2: ReferenceChartFlatTorus2(),
}


class ReferenceStepper(_Stepper):
    """The stepper with the earlier slope; the precomputation is shared."""

    def __init__(self, cfg, manifold, keep, eps):
        super().__init__(cfg, manifold, keep, eps)
        orders = 3 if self.third_order else 2
        d1s = {g: spectral._derivative_multiplier(g, 1)
               for g in {cfg.N_g, self.n}}
        self.derivs = {g: np.stack([d1, d1**2, d1**3][:orders])
                       for g, d1 in d1s.items()}

    def slope(self, samples, winding):
        m = self.manifold
        proj, _ = m._retract(samples)
        m._require_on(proj)
        return self.remainder(proj, np.fft.rfft(proj, norm="forward"), winding)

    def remainder(self, proj, coef, winding):
        cfg, m = self.cfg, self.manifold
        n, kept = proj.shape[-1], self.n // 2 + 1
        d_pows = self.derivs[n]
        d1 = d_pows[0]
        d_pows = d_pows.reshape((-1,) + (1,) * (coef.ndim - 1) + d1.shape)
        rows = np.fft.irfft(d_pows * coef, n=n, norm="forward")
        vx, vxx = rows[0], rows[1]
        if winding.any():
            vx = winding + vx
        a0 = m._sff(proj, vx, vx)
        s1 = vxx - a0
        a1 = m._sff(proj, s1, vx)
        rest = m._j(proj, s1)
        if self.cubic:
            rest = rest + cfg.b * _sq(vx) * vx
        if self.dispersive:
            rest = rest - cfg.a * a1
        if not self.third_order:
            a0_hat, rest_hat = np.fft.rfft(np.stack([a0, rest]),
                                           norm="forward")[..., :kept]
            out = rest_hat + self.c_a0 * a0_hat
        else:
            a0_hat = np.fft.rfft(a0, norm="forward")
            s2 = rows[2] - np.fft.irfft(d1 * a0_hat, n=n, norm="forward") - a1
            # a member at eps = 0 adds 0 * (...), which leaves it as is
            rest = rest + self.eps * m._sff(proj, s2, vx)
            a1_hat, rest_hat = np.fft.rfft(np.stack([a1, rest]),
                                           norm="forward")[..., :kept]
            out = (rest_hat + self.c_a0 * a0_hat[..., :kept]
                   + self.c_a1 * a1_hat)
        return self.mask * out


def reference_quadrature(cfg, k):
    """The Duhamel kernel built one target at a time."""
    q = cfg.quadrature_nodes
    nodes, _ = spectral.gauss_legendre(q, 0.0, cfg.dt)
    targets = np.append(nodes, cfg.dt)
    k4 = (TWO_PI * k) ** 4
    k3 = cfg.a * (1j * TWO_PI * k) ** 3
    k3[..., -1] = k3[..., -1].real

    def decay(t):
        out = np.exp(-cfg.epsilon * t[..., None] * k4)
        return out * np.exp(t[..., None] * k3) if cfg.a else out

    # row i holds the inner rule on [0, s_i]; one interpolation call for all
    tau, w = spectral.gauss_legendre(q, 0.0, targets[:, None])
    interp = spectral.lagrange_matrix(nodes, tau.ravel()).reshape(-1, q, q)
    kernel = np.empty((targets.size, q, k4.size), complex if cfg.a else float)
    for i, s in enumerate(targets):
        kernel[i] = np.einsum("t,tk,tj->jk", w[i], decay(s - tau[i]), interp[i])
    return nodes, kernel, decay(targets)


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    for part in (np.real, np.imag):
        assert np.array_equal(part(got), part(want), equal_nan=True)
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


def member_rows(target, seed):
    """(d, N) rows of one curve on its target."""
    manifold = CHART_FLAT_TORUS2 if target.startswith("chart") else {
        "Sphere2": SPHERE2, "CliffordTorus2": CLIFFORD_TORUS2}[target]
    c = random_smooth(manifold, N, seed, decay=1.0, amplitude=0.2)
    rows = c.samples.T
    if target == "chart-unwound":
        rows = rows - lift_trend(rows, manifold)[0]
    return manifold, rows


TARGETS = ["Sphere2", "CliffordTorus2", "chart-winding", "chart-unwound"]
COEFFS = [(0.7, 0.3), (0.7, 0.0), (0.0, 0.3)]
# one (d, N) curve at eps = 0 or eps > 0, or a (3, d, N) stack of levels
LAYOUTS = {"curve": [0.0], "curve-eps": [1e-3], "stack": [0.0, 1e-3, 2e-3]}


def prepare(target, eps):
    """The periodic part of the state, on the target, its rfft and winding."""
    members = [member_rows(target, 5 + i) for i in range(len(eps))]
    manifold = members[0][0]
    rows = members[0][1] if len(eps) == 1 else np.stack([r for _, r in members])
    trend, winding = lift_trend(rows, manifold)
    state, _ = manifold._retract(rows - trend)
    assert winding.any() == (target == "chart-winding")
    return manifold, state, np.fft.rfft(state, norm="forward"), winding


def stage_point(coef, n, members):
    """A stage point off the target, inside the tube, on the ``n`` grid."""
    scale = 1.0 + 1e-3 * np.arange(1, members + 1)
    coef = coef[..., : n // 2 + 1]
    if members > 1:
        scale = scale.reshape(-1, *(1,) * coef.ndim)
    return np.fft.irfft(scale * coef, n=n, norm="forward")


def steppers(cfg, manifold, eps, keep):
    return (_Stepper(cfg, manifold, keep, eps),
            ReferenceStepper(cfg, REFERENCE[manifold], keep, eps))


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("a,b", COEFFS)
@pytest.mark.parametrize("target", TARGETS)
def test_rk4_stage_kernels_keep_their_bits(target, a, b, layout):
    eps = LAYOUTS[layout]
    manifold, state, coef, winding = prepare(target, eps)
    lift = winding if winding.any() else None  # as the march passes it
    # a pinned band of 6 puts the stages on a 32-point grid
    cfg = FlowConfig(a=a, b=b, epsilon=eps[0], N_g=N, dt=1e-5, T=1e-5,
                     mode_cutoff=6)
    st, ref = steppers(cfg, manifold, eps, 6)
    assert (cfg.N_g, st.n) == (N, 32)
    # stage 1 as the step calls it and a stage point, both on the stage grid
    stage1 = state[..., :: N // st.n], coef[..., : st.n // 2 + 1]
    same_bits(st.remainder(*stage1, lift), ref.remainder(*stage1, winding))
    stage = stage_point(coef, st.n, 1)
    same_bits(st.slope(stage, lift), ref.slope(stage, winding))
    got = _rk4_step(state, st, coef, lift)
    want = _rk4_step(state, ref, coef, winding)
    for g, w in zip(got, want):
        same_bits(g, w)


# at N = 4096: the README curve, and decay-1.0 curves on every target
BAND_LIMITED = {"readme": (SPHERE2, 11, 1.1, 0.18),
                "Sphere2": (SPHERE2, 5, 1.0, 0.2),
                "CliffordTorus2": (CLIFFORD_TORUS2, 5, 1.0, 0.2),
                "chart-winding": (CHART_FLAT_TORUS2, 5, 1.0, 0.2)}


@pytest.mark.parametrize("eps", [0.0, 1e-3])
@pytest.mark.parametrize("case", BAND_LIMITED)
def test_stage1_on_the_stage_grid_is_the_curve_grids_on_band_limited_states(
        case, eps):
    # stage 1 sees only the state's every (N/M)-th sample and its first
    # M/2 + 1 modes; a state with nothing past mode M/2 above roundoff
    # slopes as the earlier stage 1 on all N samples slopes it
    manifold, seed, decay, amplitude = BAND_LIMITED[case]
    n = 4096
    u0 = random_smooth(manifold, n, seed, decay=decay, amplitude=amplitude)
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=eps, N_g=n, dt=1e-6, T=1e-6)
    keep = run_band(cfg, u0)
    st = _Stepper(cfg, manifold, keep, [eps])
    ref = ReferenceStepper(cfg, REFERENCE[manifold], keep, [eps])
    assert st.n <= n // 8
    trend, winding = lift_trend(u0.samples.T, manifold)
    state, _ = manifold._retract(u0.samples.T - trend)
    coef = np.fft.rfft(state, norm="forward")
    assert np.abs(coef[..., st.n // 2:]).max() <= 1e-15
    got = st.remainder(state[..., :: n // st.n], coef[..., : st.n // 2 + 1],
                       winding if winding.any() else None)
    want = ref.remainder(state, coef, winding)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("a,b", COEFFS)
@pytest.mark.parametrize("target", TARGETS)
def test_picard_stage_kernels_keep_their_bits(target, a, b):
    manifold, state, coef, winding = prepare(target, [1e-2])
    lift = winding if winding.any() else None
    cfg = FlowConfig(a=a, b=b, epsilon=1e-2, N_g=N, dt=1e-4, T=1e-4,
                     integrator="DuhamelPicard", quadrature_nodes=4)
    st, ref = steppers(cfg, manifold, [cfg.epsilon], spectral.dealias_keep(N))
    assert st.n == N
    nodes = stage_point(coef, N, 4)  # the (q, d, N) stack of node states
    same_bits(st.slope(nodes, lift), ref.slope(nodes, winding))
    got = _picard_step(state[None], st, coef[None], lift)
    want = _picard_step(state[None], ref, coef[None], winding)
    for g, w in zip(got, want):
        same_bits(g, w)
    assert st.iterations == ref.iterations


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("q", [1, 8])
@pytest.mark.parametrize("a", [0.0, 1.0, -0.7])
def test_duhamel_kernel_keeps_its_bits(a, q, n):
    cfg = FlowConfig(a=a, epsilon=1e-2, N_g=n, dt=1e-4, T=1e-4,
                     integrator="DuhamelPicard", quadrature_nodes=q)
    k = spectral.wavenumbers(n)
    for got, want in zip(_duhamel_quadrature(cfg, *stiff_symbol(cfg, k)),
                         reference_quadrature(cfg, k)):
        same_bits(got, want)


def raised(call):
    """(type, message) of what ``call`` raises, or None."""
    try:
        call()
    except (PointOffManifold, OutOfTubularNeighborhood) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("manifold", [SPHERE2, CLIFFORD_TORUS2, CHART_FLAT_TORUS2])
def test_checks_raise_as_they_did(manifold):
    ref = REFERENCE[manifold]
    d = manifold.ambient_dim
    good = member_rows(manifold.name if d != 2 else "chart-winding", 5)[1]
    centre = good.copy()
    centre[: 2 if d == 4 else d, 7] = 0.0  # the sphere's centre, a circle axis
    inputs = {"good": good, "centre": centre}
    for bad in (np.nan, np.inf, -np.inf):
        rows = good.copy()
        rows[0, 3] = bad
        inputs[str(bad)] = rows
    outcomes = set()
    for label, rows in inputs.items():
        for kernel in ("_require_on", "_retract"):
            got = raised(lambda: getattr(manifold, kernel)(rows))
            assert got == raised(lambda: getattr(ref, kernel)(rows)), (label, kernel)
            outcomes.add(got and got[0])
        norm = np.sqrt(manifold._sq_norms(rows))
        with np.errstate(invalid="ignore"):  # inf / inf past the guard
            got = raised(lambda: manifold._project(rows, norm))
            assert got == raised(lambda: ref._project(rows, norm)), label
        outcomes.add(got and got[0])
        dist = manifold._distance(norm)
        got = raised(lambda: manifold._require_tube(dist))
        assert got == raised(lambda: ref._require_tube(dist)), label
    # the inputs reach every exception the checks raise; the chart has
    # no constraint, so its checks pass whatever the points
    want = {None, PointOffManifold, OutOfTubularNeighborhood}
    assert outcomes == (want if d != 2 else {None})


def row_adds(p):
    """The sequential row adds p0 + p1, then + p2 and so on."""
    out = p[..., 0, :] + p[..., 1, :]
    for i in range(2, p.shape[-2]):
        out += p[..., i, :]
    return out


def nine_op_j(base, vec, out):
    """Sphere2's base x vec as nine row operations into one output."""
    for c, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        row = out[..., c, :]
        np.multiply(base[..., i, :], vec[..., j, :], out=row)
        row -= base[..., j, :] * vec[..., i, :]
    return out


def signed_zero_rows(rng, shape):
    """Rows of +0.0, -0.0 and products of them, so that many sums are -0.0."""
    zeros = rng.choice([0.0, -0.0], size=shape)
    values = rng.choice([0.0, -0.0, 1.0, -1.0], size=shape) * rng.standard_normal(shape)
    return np.where(rng.random(shape) < 0.7, zeros, values)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("B", [1, 4, 8])
def test_ambient_sum_and_cross_keep_signed_zeros(B, d):
    # compared as int64 words: a -0.0 that comes out as +0.0 fails here
    rng = np.random.default_rng(100 * B + d)
    p = signed_zero_rows(rng, (B, d, N))
    want = row_adds(p)
    assert np.signbit(want).any() and (want == 0.0).any() and not np.signbit(want).all()
    assert np.array_equal(_ambient_sum(p).view(np.int64), want.view(np.int64))
    one = np.ascontiguousarray(p[..., :1])  # the public operators' one-sample rows
    assert np.array_equal(_ambient_sum(one).view(np.int64), row_adds(one).view(np.int64))
    if d == 3:
        base, vec = signed_zero_rows(rng, (B, 3, N)), signed_zero_rows(rng, (B, 3, N))
        out = np.empty((B, 3, N))
        got = SPHERE2._j(base, vec, out=out)
        want = nine_op_j(base, vec, np.empty((B, 3, N)))
        assert got is out
        assert np.signbit(want).any()
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# signed zeros through the stage kernels
# ---------------------------------------------------------------------------


def same_words(got, want):
    """Bit equality as int64 words: a -0.0 where +0.0 is due fails."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(np.ascontiguousarray(got).view(np.int64),
                          np.ascontiguousarray(want).view(np.int64))


def plane_rows(target, rng):
    """(d, N) rows of a curve in a coordinate plane of its target: the
    sphere's equator, the Clifford torus's circle at phi2 = 0 and the
    chart's line y = 0, traversed at a varying speed, with the row off the
    plane a random mix of +0.0 and -0.0 and roundoff zeros made exact."""
    manifold = CHART_FLAT_TORUS2 if target.startswith("chart") else {
        "Sphere2": SPHERE2, "CliffordTorus2": CLIFFORD_TORUS2}[target]
    x = spectral.grid(N)
    theta = TWO_PI * x + 0.3 * np.sin(TWO_PI * x)
    zeros = rng.choice([0.0, -0.0], size=N)
    r = CliffordTorus2.radius
    rows = np.stack({3: [np.cos(theta), np.sin(theta), zeros],
                     4: [r * np.cos(theta), r * np.sin(theta), np.full(N, r), zeros],
                     2: [theta / TWO_PI, zeros]}[manifold.ambient_dim])
    rows = np.where(np.abs(rows) < 1e-15, np.copysign(0.0, rows), rows)
    if target == "chart-unwound":
        rows = rows - lift_trend(rows, manifold)[0]
    return manifold, rows


@pytest.mark.parametrize("eps", [0.0, 1e-3])
@pytest.mark.parametrize("target", TARGETS)
def test_stage_kernels_keep_signed_zeros(target, eps):
    rng = np.random.default_rng(7)
    manifold, rows = plane_rows(target, rng)
    ref = REFERENCE[manifold]
    trend, winding = lift_trend(rows, manifold)
    assert winding.any() == (target == "chart-winding")
    state, _ = manifold._retract(rows - trend)
    zero = state == 0.0
    assert np.signbit(state[zero]).any() and not np.signbit(state[zero]).all()
    # the kernels, on the curve and on vectors full of signed zeros
    vec, other = signed_zero_rows(rng, state.shape), signed_zero_rows(rng, state.shape)
    norm = np.sqrt(manifold._sq_norms(state))
    outputs = []
    for kernel, args in (("_project", (state, norm)), ("_tangent", (state, vec)),
                         ("_sff", (state, vec, vec)), ("_sff", (state, vec, other)),
                         ("_j", (state, vec))):
        got = getattr(manifold, kernel)(*args)
        same_words(got, getattr(ref, kernel)(*args))
        outputs.append(got)
    assert any(np.signbit(out[out == 0.0]).any() for out in outputs)
    # the stage slope and one RK4 step, with the stages on a 32-point grid
    lift = winding if winding.any() else None
    coef = np.fft.rfft(state, norm="forward")
    cfg = FlowConfig(a=0.7, b=0.3, epsilon=eps, N_g=N, dt=1e-5, T=1e-5,
                     mode_cutoff=6)
    st, ref_st = steppers(cfg, manifold, [eps], 6)
    stage1 = state[..., :: N // st.n], coef[..., : st.n // 2 + 1]
    got = st.remainder(*stage1, lift)
    same_words(got, ref_st.remainder(*stage1, winding))
    stage = stage_point(coef, st.n, 1)
    assert (stage == 0.0).any()
    same_words(st.slope(stage, lift), ref_st.slope(stage, winding))
    for g, w in zip(_rk4_step(state, st, coef, lift),
                    _rk4_step(state, ref_st, coef, winding)):
        same_words(g, w)
