"""Right-hand sides and time integration for the dispersive curve flow.

The evolution solved here, written for the embedded representative v, is

    v_t = a * (third covariant derivative image)
          + J_v (second covariant derivative image)
          + b |v_x|^2 v_x

optionally regularized by the fourth-order dissipation -eps * v_xxxx with
the matching lower-order corrections, in which case the nonlinearity is
evaluated on the nearest-point projection of the state.

Integrators
-----------
``ProjectedRK4``   Classical four-stage explicit step taken in the frame of
                   the integrating factor exp(t*L) with L = a*d_x^3 -
                   eps*d_x^4 (the constant-coefficient stiff part, handled
                   exactly), with nearest-point projection at every stage
                   and at the step end.  When a = eps = 0 the factor is the
                   identity and this is the literal projected RK4.  Without
                   the factor the third-derivative term makes every mode
                   above a handful linearly unstable at production step
                   sizes, so the factor is what makes an explicit scheme
                   viable at all.  State and stage slopes live in rfft
                   coefficients, and so do the slope's linear terms (D A0,
                   D t2): when every member has eps = 0 a stage makes 3
                   transform calls on 5 rows and a step 17; otherwise t2
                   is needed pointwise and a stage makes 5 calls on 8
                   rows, a step 25.  Each stage retracts its point once
                   (``retract``: tube check and projection from one
                   squared norm per point) and checks the projection on
                   the target before running unchecked geometry kernels;
                   the step end's residual before projection comes from
                   the squared norms of its own retraction.
                   The stability clamp, not N, sets the band, so stages
                   2-4 run on the stage grid: the smallest power of two
                   M >= 16 that dealiases the band by the N/4 rule,
                   capped at N.  Stage 1 slopes the state on the curve
                   grid (the state is not band-limited, and a coarser
                   grid would alias its tail into the band), and the step
                   end zero-pads onto the curve grid; past N = 4 keep
                   stages 2-4 cost the same at every N.
                   The step acts on one curve (d, N) or on a stack
                   (B, d, N) whose members may carry their own eps; the
                   epsilon continuation marches its baseline and all
                   levels as one such stack.
``DuhamelPicard``  Fixed-point iteration on the mild (Duhamel) form driven
                   by the fourth-order heat semigroup; requires eps > 0.
                   Each iteration evaluates the nonlinearity at all Gauss
                   nodes in one call of the RK4 stage slope, which then
                   also carries a*d_x^3 (5 calls on 8 rows).  The band
                   keeps the modes below the first whose linear gain per
                   iteration exceeds 1/2, read off the one quadrature
                   kernel that :class:`_PicardWorkspace` builds; a run
                   where that is mode 1 fails with NoContraction.
                   States may sit slightly off the target (inside the
                   tube); at a = b = 0 their normal part then decays
                   monotonically (``dcl verify --suite maxprinciple``).
``IMEX``           First-order integrating-factor Euler step (same L and
                   stage), projected at the step end.  Cheap, for smoke runs.

``_march`` is the one step loop: ``evolve`` is its single member, and
``epsilon_continuation`` marches the eps = 0 baseline and every level as
one stack with per-member guards.  It decides the run's band once and
hands it to every stepper it builds.  It transforms each accepted state
once (:func:`_lift`): that rfft of its periodic part feeds the H2
blow-up guard and the next step's V0, or the Picard free term, so at
stride 1 the guard costs no transform of its own.  Off the chart torus
the trend is zero and is neither added nor subtracted.

The march stores every state, stage point and slope in the row layout
(..., d, N), components first and the samples on the contiguous last
axis, so each transform runs on ``axis=-1``, and the stepper's
multipliers are rows over rfft modes.  States, their :func:`_lift`,
the guards and the snapshots stay on the N curve samples, and so does
stage 1, the slope of the state itself; later stage points live on the
M stage samples, and every slope, once taken, on the stage grid's
modes.  A step moves between the grids only by an exact rescaling of
coefficients, the strided view of the trend and the zero-padding irfft
of its end.  ``_march`` is where the layout changes: it takes u0 as
(N, d) once and returns each snapshot as the transpose of its member's
row state.  The public references ``dispersive_rhs`` and
``regularized_rhs`` stay (N, d): each is one call
of :func:`_assemble`, the one checked assembly of the reference RHS.

Products of fields are cubic, so state and nonlinear terms are dealiased
by the N/4 rule; the mask is part of the spatial discretization and is
applied identically by every integrator.
"""

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import spectral
from .curves import h1_distance, lift_trend, lifted_velocity, tangency_residual
from .errors import (
    NoContraction,
    OutOfTubularNeighborhood,
    StepSizeUnstable,
    TangencyViolation,
)
from .manifolds import _ambient_sum, _dot

TWO_PI = 2.0 * np.pi

INTEGRATORS = ("DuhamelPicard", "ProjectedRK4", "IMEX")

# Under-resolution guard threshold for the tangency of the assembled RHS.
RHS_TANGENCY_TOL = 1e-6

# The most steps a run may take: a longer horizon T / dt is a configuration
# error rather than a march that does not end.
MAX_STEPS = 10**7


@dataclass
class FlowConfig:
    """Coefficients, discretization and integrator choice for one run."""

    a: float = 0.0
    b: float = 0.0
    epsilon: float = 0.0
    N_g: int = 64
    dt: float = 1e-4
    T: float = 1e-2
    integrator: str = "ProjectedRK4"
    picard_tol: float = 1e-12
    picard_max_iter: int = 60
    quadrature_nodes: int = 8
    dealias: bool = True
    mode_cutoff: int = 0  # 0 = automatic (dealias rule + stability edge)

    def __post_init__(self):
        if self.integrator not in INTEGRATORS:
            raise ValueError(
                f"integrator must be one of {INTEGRATORS}, got {self.integrator!r}"
            )
        for name in ("a", "b", "epsilon", "dt", "T"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.integrator == "DuhamelPicard" and self.epsilon <= 0:
            raise ValueError("DuhamelPicard requires epsilon > 0")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.T < 0:
            raise ValueError("T must be nonnegative")
        if self.T and self.dt > self.T * (1 + 1e-12):
            raise ValueError("dt must not exceed the horizon T")
        if not isinstance(self.dealias, (bool, np.bool_)):
            raise ValueError("dealias must be true or false")
        for name, low in (("N_g", 1), ("quadrature_nodes", 1),
                          ("picard_max_iter", 1), ("mode_cutoff", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer")
            if value < low:
                raise ValueError(f"{name} must be at least {low}")
        if not self.picard_tol > 0:
            raise ValueError("picard_tol must be positive")

    def n_steps(self):
        if self.T == 0:
            return 0
        ratio = self.T / self.dt
        if not math.isfinite(ratio):
            raise ValueError("T / dt overflows; T is too large for this dt")
        if ratio > MAX_STEPS:
            raise ValueError(f"T = {self.T!r} over dt = {self.dt!r} takes "
                             f"more than MAX_STEPS = {MAX_STEPS} steps")
        steps = int(round(ratio))
        if steps < 1 or abs(steps * self.dt - self.T) > 1e-9 * max(self.T, 1.0):
            raise ValueError("T must be an integer multiple of dt")
        return steps


@dataclass
class Trajectory:
    """Snapshots of one run plus per-step diagnostics."""

    times: list
    states: list
    config: FlowConfig
    step_residuals: list = field(default_factory=list)
    picard_iterations: list = field(default_factory=list)
    failure: str = None

    def __post_init__(self):
        if self.times and self.times[0] != 0.0:
            raise ValueError("trajectories start at t = 0")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("snapshot times must be strictly increasing")

    @property
    def final(self):
        return self.states[-1]

    def off_manifold(self):
        return [s.off_manifold() for s in self.states]


# ---------------------------------------------------------------------------
# Right-hand sides
# ---------------------------------------------------------------------------


def _sq(v):
    """|v|^2 of (..., d, N) rows, as a (..., 1, N) row."""
    return _dot(v, v)[..., None, :]


def _gauss_tower(manifold, base, vx, order):
    """Images of the covariant derivatives of u_x, assembled extrinsically.

    S[0] = v_x and S[k+1] = d_x S[k] - A(S[k], v_x) with A the second
    fundamental form; each S[k] is tangent along the curve.  Unchecked
    (..., d, N) rows.
    """
    out = [vx]
    for _ in range(order):
        out.append(spectral._derivative(out[-1]) - manifold._sff(base, out[-1], vx))
    return out


def _assemble(curve, a, b, eps=None):
    """The reference RHS a S2 + J S1 + b |v_x|^2 v_x at an on-target curve.

    The one assembly of both references: one on-target check, then the
    unchecked kernels on the curve's (d, N) rows, returned as (N, d).  A
    number ``eps``, 0 included, adds -eps (S3 - v_xxxx) first, the
    lower-order part of the regularized flow's nonlinearity.
    """
    m, v = curve.manifold, curve.samples.T
    m._require_on(v)
    vx = lifted_velocity(v, m)
    s = _gauss_tower(m, v, vx, 2 if eps is None else 3)
    rhs = a * s[2]
    if eps is not None:
        rhs = -eps * (s[3] - spectral._derivative(vx, 3)) + rhs
    return (rhs + m._j(v, s[1]) + b * _sq(vx) * vx).T


def dispersive_rhs(curve, a, b):
    """Velocity of the unregularized flow at an on-manifold curve.

    Raises TangencyViolation when the assembled field has a normal
    component beyond the under-resolution guard.
    """
    rhs = _assemble(curve, a, b)
    res = tangency_residual(curve, rhs)
    scale = max(1.0, float(np.max(np.abs(rhs))))
    if res > RHS_TANGENCY_TOL * scale:
        raise TangencyViolation(
            f"rhs normal component {res:.3e} exceeds "
            f"{RHS_TANGENCY_TOL:.0e} * {scale:.3e}; raise the resolution"
        )
    return rhs


def regularized_rhs(curve, cfg):
    """Velocity of the eps-regularized flow; valid slightly off the target.

    Computes -eps * v_xxxx on the raw state plus the full nonlinearity
    evaluated at the nearest-point projection of the state; the checked
    physical-space reference for the integrators' stage slope.
    """
    proj, _ = curve.manifold.retract(curve.samples)
    nonlinear = _assemble(curve.with_samples(proj), cfg.a, cfg.b, cfg.epsilon)
    raw4 = spectral.spectral_derivative(curve.velocity(), 3)
    return -cfg.epsilon * raw4 + nonlinear


# ---------------------------------------------------------------------------
# Steppers
# ---------------------------------------------------------------------------


# Explicit stages stay stable while dt * c * k^2 is below this edge, where
# c collects the second-order remainder terms (the complex-structure
# rotation plus the curvature corrections scaling with |a| |v_x|).
STABILITY_EDGE = 2.5

# The Picard band keeps modes whose linear gain per iteration is at most
# this, so the iteration shrinks their error about twofold or more each time.
PICARD_GAIN = 0.5


def mode_cutoff(cfg, manifold, speed):
    """Highest retained frequency for one run on ``manifold``.

    A pinned ``cfg.mode_cutoff`` wins, else the dealias band.  For
    ProjectedRK4/IMEX the explicit stages see an effective second-order
    operator; modes beyond the stability edge of the classical four-stage
    scheme must be masked or roundoff there is amplified by orders of
    magnitude per step.  ``speed`` is the largest |v_x| of the data.  The
    remainder terms carry the target's second fundamental form, so their
    coefficient grows with its largest principal curvature (floored at
    1, which leaves the sphere and the flat chart as they were).
    DuhamelPicard ignores ``speed``: :class:`_PicardWorkspace` narrows
    the band by the gain of its iteration instead.
    """
    if cfg.mode_cutoff:
        return cfg.mode_cutoff
    keep = cfg.N_g // 2
    if cfg.dealias:
        keep = spectral.dealias_keep(cfg.N_g)
    if cfg.integrator != "DuhamelPicard":
        coeff = (1.0 + 4.0 * abs(cfg.a) * max(speed, 1.0)) * max(
            manifold.principal_curvature, 1.0
        )
        edge = int(np.sqrt(STABILITY_EDGE / (cfg.dt * coeff)) / TWO_PI)
        keep = min(keep, max(edge, 2))
    return keep


def stage_grid(n, keep):
    """Points of the grid the RK4/IMEX stages run on, for a band of ``keep``.

    The smallest power of two M >= 16 that dealiases the band by the N/4
    rule (M // 4 >= keep), capped at the curve grid N, itself a power of
    two: the stage grid is every (N/M)-th curve sample, and rescaling
    coefficients between the grids is exact.
    """
    while n // 2 >= 16 and spectral.dealias_keep(n // 2) >= keep:
        n //= 2
    return n


class _Modes:
    """The stage slope's multipliers on the rfft modes of one grid.

    Rows over the K modes of an ``n``-point grid: the retained-band mask,
    d/dx with its powers 1..3, or 1..2 when no slope term needs v_xxx
    (Nyquist zeroed, as repeated first derivatives zero it), and the
    multipliers of the slope's linear terms: ``c_a0`` on A0 = A(v_x, v_x),
    ``c_a1`` on A1 (eps term only) and, for DuhamelPicard at a != 0,
    ``c_v`` = a*d_x^3 on the state.  A given mode k has the same
    multipliers on every grid.
    """

    def __init__(self, st, n, keep):
        cfg = st.cfg
        self.n = n
        self.k = spectral.wavenumbers(n)
        self.mask = (self.k <= keep).astype(float)
        self.d1 = 1j * TWO_PI * self.k
        self.d1[-1] = 0.0
        self.d_pows = np.stack([self.d1, self.d1**2, self.d1**3])
        if not st.third_order:
            self.d_pows = self.d_pows[:2]
        # a t2 = -a (D A0 + A1) and -eps D t2 = eps D (D A0 + A1); a member
        # at eps = 0 adds 0 * d1^2 and 0 * d1, which leaves it as is
        self.c_a0 = -cfg.a * self.d1
        if st.regularized:
            self.c_a0 = self.c_a0 + st.eps * self.d_pows[1]
            self.c_a1 = st.eps * self.d1
        if st.dispersion_in_slope and st.dispersive:
            self.c_v = cfg.a * self.d_pows[2]


class _Stepper:
    """Spectral precomputation and the stage slope for one (config, grid) pair.

    The caller decides the band ``keep`` once per run (:func:`mode_cutoff`,
    or the Picard workspace's gain edge); the stages run on the stage
    grid ``n`` (:func:`stage_grid` of the band; the curve grid ``n_curve``
    for DuhamelPicard, whose quadrature kernel lives on the curve's
    modes).  Stage 1 slopes the state itself, on the curve grid: the
    state is not band-limited, and its samples on a coarser grid would
    alias its tail into the band.  ``modes`` holds the slope's
    :class:`_Modes` on both grids (one entry when they are the same), and
    :meth:`slope` takes those of its input's grid; ``mask``, ``d1`` and
    ``d_pows`` are the stage grid's.  The integrating factors over a full
    and a half step, masked by the band, are rows over the stage grid's
    modes.  ``eps`` holds one level per member: B > 1 levels give the
    integrating factors and the slope's multipliers a leading member
    axis, (B, 1, K), for a (B, d, N) stack whose member i carries eps[i];
    one level gives them none, so it steps a (d, N) curve or a stack.
    The band and the derivative multipliers are shared by all members.

    The stiff part L holds -eps*d_x^4 and, for RK4/IMEX, a*d_x^3.  The
    Duhamel propagator is the fourth-order heat semigroup alone, so for
    DuhamelPicard a*d_x^3 stays in the slope and the integrating factors
    go unused.  The slope's linear terms act on rfft coefficients.  The
    terms added pointwise, or to the state's coefficients, are not formed
    when their coefficient is zero: b |v_x|^2 v_x at b = 0, a A1 and, for
    DuhamelPicard, a*d_x^3 at a = 0.
    """

    def __init__(self, cfg, manifold, n, keep, eps):
        self.cfg = cfg
        self.manifold = manifold
        self.keep = keep
        eps = np.asarray(eps, dtype=float)
        self.eps = eps[:, None, None] if eps.size > 1 else eps.reshape(1, 1)
        self.dispersion_in_slope = cfg.integrator == "DuhamelPicard"
        self.regularized = bool(np.any(self.eps))
        # v_xxx and t2 in physical space feed only a*S2 and the eps term:
        # without both, a stage makes 3 transform calls instead of 5
        self.third_order = self.dispersion_in_slope or self.regularized
        self.cubic, self.dispersive = cfg.b != 0, cfg.a != 0
        self.n_curve = n
        self.n = n if self.dispersion_in_slope else stage_grid(n, keep)
        self.modes = {g: _Modes(self, g, keep) for g in {n, self.n}}
        stage = self.modes[self.n]
        self.mask, self.d1, self.d_pows = stage.mask, stage.d1, stage.d_pows
        k = stage.k
        lam = cfg.a * (1j * TWO_PI * k) ** 3 - self.eps * (TWO_PI * k) ** 4
        # odd-order multipliers have no real Nyquist representative (n even)
        lam[..., -1] = lam[..., -1].real
        self.e_full = np.exp(cfg.dt * lam) * self.mask
        self.e_half = np.exp(0.5 * cfg.dt * lam) * self.mask

    def slope(self, samples, trend, winding):
        """Masked rfft coefficients of the non-stiff remainder at a stage.

        The remainder is the RHS minus L v, assembled at the projection P
        of the stage point without cancelling large terms (A is the second
        fundamental form at P, s1 = v_xx - A(v_x, v_x), S2 = v_xxx + t2):

            t2 = -D A(v_x, v_x) - A(s1, v_x),  t3 = D t2 - A(S2, v_x),
            a t2 + J s1 + b |v_x|^2 v_x - eps t3,

        with a S2 in place of a t2 when a*d_x^3 is not part of L.  The
        derivatives of A0 = A(v_x, v_x) and A1 = A(s1, v_x), and a v_xxx,
        enter as multipliers on rfft coefficients; the rest,
        J s1 + b |v_x|^2 v_x - a A1 (plus eps A(S2, v_x)), is pointwise.

        Arrays are (..., d, N) rows with ``winding`` (..., d, 1).  The
        stage points are retracted (tube check, then P) and P checked on
        the target once; the geometric kernels then run unchecked.  When
        every member has eps = 0 outside Picard, three transform calls on
        5 rows: P, [v_x, v_xx] and [A0, rest].  Otherwise t2 is needed
        pointwise for A(S2, v_x): five calls on 8 rows, P, [v_x, v_xx,
        v_xxx], A0, D A0 and [A1, rest].
        """
        cfg, m = self.cfg, self.manifold
        g = self.modes[samples.shape[-1]]
        proj, _ = m._retract(samples)
        m._require_on(proj)
        winds = winding.any()
        coef = np.fft.rfft(proj - trend if winds else proj)
        d_pows = g.d_pows.reshape((-1,) + (1,) * (coef.ndim - 1) + g.d1.shape)
        rows = np.fft.irfft(d_pows * coef, n=g.n)
        vx, vxx = rows[0], rows[1]
        if winds:
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
            a0_hat, rest_hat = np.fft.rfft(np.stack([a0, rest]))
            return g.mask * (rest_hat + g.c_a0 * a0_hat)
        a0_hat = np.fft.rfft(a0)
        s2 = rows[2] - np.fft.irfft(g.d1 * a0_hat, n=g.n) - a1
        # a member at eps = 0 adds 0 * (...), which leaves it as is
        rest = rest + self.eps * m._sff(proj, s2, vx)
        a1_hat, rest_hat = np.fft.rfft(np.stack([a1, rest]))
        out = rest_hat + g.c_a0 * a0_hat + g.c_a1 * a1_hat
        if self.dispersion_in_slope and self.dispersive:
            out += g.c_v * coef
        return g.mask * out


def _lift(samples, manifold):
    """(trend, winding, rfft of the periodic part) of (..., d, N) rows.

    Off the chart torus, and on it for a curve that does not wind, the
    trend is zero and the samples are transformed as they are (x - 0.0
    is x bitwise).  A strided view (a transposed curve) is copied first,
    so the coefficients, and all that the step derives from them, are
    C-contiguous rows.
    """
    samples = np.ascontiguousarray(samples)
    trend, winding = lift_trend(samples, manifold)
    periodic = samples - trend if winding.any() else samples
    return trend, winding, np.fft.rfft(periodic)


def _to_stage(st, coef):
    """Stage-grid rfft coefficients of curve-grid ones: the first M/2+1
    modes times M/N.  The band lies below M/4, and N/M is a power of two,
    so a band-limited row is carried over exactly."""
    return coef[..., : st.n // 2 + 1] * (st.n / st.n_curve)


def _rk4_step(samples, cfg, st, lifted):
    """Integrating-factor RK4 on rfft coefficients (Trefethen, Program 27).

    ``samples`` is one curve (d, N) or a stack (..., d, N) on one grid;
    ``lifted`` is its :func:`_lift`.  The periodic part V0 of the state
    and the stage slopes stay in coefficient space on the stage grid.  Stage 1 slopes the state on the curve grid; each
    later stage point is one irfft on the stage grid, where its trend is
    every (N/M)-th curve sample (``grid(N)[::r]`` is ``grid(M)`` bit for
    bit), and the step end one irfft onto the curve grid.  Returns the
    projected state and each curve's largest residual before projection.
    """
    h = cfg.dt
    trend, winding, v0 = lifted
    winds = winding.any()
    m1 = _to_stage(st, st.slope(samples, trend, winding))
    v0 = _to_stage(st, v0)
    stage_trend = trend[..., :: st.n_curve // st.n]
    half_v0, full_v0 = st.e_half * v0, st.e_full * v0

    def slope(coef):
        point = np.fft.irfft(coef, n=st.n)
        return st.slope(stage_trend + point if winds else point,
                        stage_trend, winding)

    m2 = slope(st.e_half * (v0 + (0.5 * h) * m1))
    m3 = slope(half_v0 + (0.5 * h) * m2)
    m4 = slope(full_v0 + h * (st.e_half * m3))
    end = full_v0 + (h / 6.0) * (
        st.e_full * m1 + 2.0 * (st.e_half * (m2 + m3)) + m4
    )
    return _step_end(st, trend, winding, end)


def _imex_step(samples, cfg, st, lifted):
    """Integrating-factor Euler step (first order), projected at the end."""
    trend, winding, v0 = lifted
    m1 = _to_stage(st, st.slope(samples, trend, winding))
    return _step_end(st, trend, winding,
                     st.e_full * (_to_stage(st, v0) + cfg.dt * m1))


def _step_end(st, trend, winding, coef):
    """Guarded projection of trend + irfft(coef); (samples, residuals before).

    ``coef`` holds stage-grid modes; rescaled by N/M, the irfft onto the
    curve grid zero-pads them.
    """
    m = st.manifold
    pre = np.fft.irfft(coef * (st.n_curve / st.n), n=st.n_curve)
    if winding.any():
        pre = trend + pre
    if not np.all(np.isfinite(pre)):
        raise StepSizeUnstable("non-finite state")
    proj, sq = m._retract(pre)
    return proj, m._residual(sq).max(axis=-1)


# ---------------------------------------------------------------------------
# Duhamel fixed point
# ---------------------------------------------------------------------------


def _duhamel_quadrature(cfg, k):
    """Gauss nodes, fused quadrature kernel and decay at wavenumbers ``k``.

    Targets s_i are the q Gauss nodes of [0, dt] and dt.  ``kernel[i, j, m]``
    maps mode k[m] of the nonlinearity at node j to the Duhamel integral at
    s_i (inner Gauss rule on [0, s_i] of the Lagrange interpolant, times
    the decay over s_i - tau); the decay over s_i is returned as the third
    item.
    """
    q = cfg.quadrature_nodes
    nodes, _ = spectral.gauss_legendre(q, 0.0, cfg.dt)
    targets = np.append(nodes, cfg.dt)
    k4 = (TWO_PI * k) ** 4

    def decay(t):
        return np.exp(-cfg.epsilon * t[..., None] * k4)

    # row i holds the inner rule on [0, s_i]; one interpolation call for all
    tau, w = spectral.gauss_legendre(q, 0.0, targets[:, None])
    interp = spectral.lagrange_matrix(nodes, tau.ravel()).reshape(-1, q, q)
    kernel = np.empty((targets.size, q, k4.size))
    for i, s in enumerate(targets):
        kernel[i] = np.einsum(
            "t,tk,tj->jk", w[i], decay(s - tau[i]), interp[i]
        )
    return nodes, kernel, decay(targets)


def _gain(cfg, kernel, k):
    """Linear gain of one Picard iteration at each wavenumber ``k``.

    ``kernel`` is the unmasked fused quadrature kernel at ``k``.  The
    iteration maps the node values of mode k through
    a (2 pi i k)^3 kernel[:q, :, k]; its spectral radius is the factor by
    which the error of that mode shrinks (or grows) per iteration.  This
    is the discrete face of the smoothing bound
    ||d_x^3 exp(-eps t d_x^4)|| <= C (eps t)^(-3/4).
    """
    q = cfg.quadrature_nodes
    blocks = np.moveaxis(kernel[:q], -1, 0)
    radius = np.abs(np.linalg.eigvals(blocks)).max(axis=-1)
    return abs(cfg.a) * (TWO_PI * k) ** 3 * radius


class _PicardWorkspace:
    """Band, stage slope, nodes, fused quadrature kernel and semigroup decay.

    The quadrature is built once, on the rfft modes, and the band read
    off it: :func:`mode_cutoff`'s, cut at a != 0 below the first mode
    whose :func:`_gain` exceeds PICARD_GAIN (NoContraction when that is
    mode 1).  ``stepper``, whose ``slope`` is the nonlinearity, has that
    band, and ``kernel`` and ``prop0`` are masked by it.  ``pairs`` is
    ``kernel`` with each mode repeated for the real and the imaginary
    part, the kernel of the float view of (..., d, K) complex rows.
    """

    def __init__(self, cfg, manifold, n):
        self.nodes, kernel, prop0 = _duhamel_quadrature(
            cfg, spectral.wavenumbers(n)
        )
        keep = mode_cutoff(cfg, manifold, None)
        if cfg.a and not cfg.mode_cutoff:
            # a*d_x^3 is explicit in the Duhamel integrand.  Its gain rises
            # from 0 at k = 0, peaks and falls again where the semigroup
            # smooths; modes past the peak stay out even where their gain
            # is small again, which keeps the band one run of modes
            k = np.arange(keep + 1)
            gain = _gain(cfg, kernel[..., : keep + 1], k)
            over = np.flatnonzero(gain > PICARD_GAIN)
            if over.size:
                keep = int(over[0]) - 1
            if keep < 1:
                raise NoContraction(
                    f"Picard band keeps no mode k >= 1: rho_1 = {gain[1]:.3f} "
                    f"exceeds PICARD_GAIN = {PICARD_GAIN}; reduce dt"
                )
        self.stepper = _Stepper(cfg, manifold, n, keep, [cfg.epsilon])
        mask = self.stepper.mask
        self.kernel, self.prop0 = kernel * mask, prop0 * mask
        self.pairs = np.repeat(self.kernel, 2, axis=-1)
        # H1 norm squared by Parseval on rfft coefficients: 1 + (2 pi k)^2,
        # doubled for the modes with a conjugate twin, the Nyquist mode
        # without its derivative (as d/dx drops it)
        k2 = (TWO_PI * spectral.wavenumbers(n)) ** 2
        k2[-1] = 0.0
        self.h1_weights = (1.0 + k2) / n**2
        self.h1_weights[1:-1] *= 2.0


def _picard_step(cfg, ws, lifted):
    """Solve the mild form on [0, dt]; returns (state at dt, iterations).

    ``lifted`` is the :func:`_lift` of one curve's (d, N) rows.  Each
    iteration advances all targets at once from one stage slope of the
    (q, d, N) stack of node states.
    """
    st = ws.stepper
    n, q = st.n, ws.nodes.size
    trend, winding, v0 = lifted
    winds = winding.any()
    # initial guess: pure semigroup evolution of the data
    free = ws.prop0[:, None, :] * v0
    devs = np.fft.irfft(free, n=n)
    prev = free

    for iteration in range(1, cfg.picard_max_iter + 1):
        states = trend + devs[:q] if winds else devs[:q]
        if not np.all(np.isfinite(states)):
            raise StepSizeUnstable("non-finite state")
        f_hat = st.slope(states, trend, winding)
        # the kernel is real: contracting the float view of f_hat with it,
        # repeated per real/imaginary pair, gives the complex contraction
        # bitwise, at about two thirds of its cost
        coef = free + np.einsum(
            "ijk,jdk->idk", ws.pairs, f_hat.view(float)
        ).view(complex)
        devs = np.fft.irfft(coef, n=n)
        # H1 norm of each target's update; the largest decides convergence
        update = coef - prev
        power = _ambient_sum(update.real**2 + update.imag**2)
        delta = float(np.sqrt((power @ ws.h1_weights).max()))
        prev = coef
        if delta <= cfg.picard_tol:
            # a copy: a view would keep the whole node stack alive
            end = trend + devs[-1] if winds else devs[-1].copy()
            return end, iteration
    raise NoContraction(
        f"no fixed point after {cfg.picard_max_iter} iterations "
        f"(last update {delta:.3e}); reduce dt for this epsilon"
    )


# ---------------------------------------------------------------------------
# Marching
# ---------------------------------------------------------------------------

BLOWUP_FACTOR = 10.0


@lru_cache(maxsize=None)
def _h2_weights(n):
    """Read-only Parseval weights k2 + k2^2 + k2^3 of D^1..D^3, k2 = (2 pi k)^2.

    The Nyquist mode is dropped, as odd-order derivatives drop it.
    """
    k2 = (TWO_PI * spectral.wavenumbers(n)) ** 2
    k2[-1] = 0.0
    weights = k2 + k2**2 + k2**3
    weights.setflags(write=False)
    return weights


def _extrinsic_h2(samples, lifted):
    """H2 norm of the velocity by plain spectral derivatives.

    Valid for states slightly off the target (unlike the covariant norm),
    which is all the blow-up guard needs.  By Parseval on one transform
    of the periodic part (``lifted``, the :func:`_lift` of the samples):
    |W|^2 plus the power of D^j of it for j = 1..3.  One norm per curve
    of a (..., d, N) stack.
    """
    n = samples.shape[-1]
    _, winding, coef = lifted
    power = _ambient_sum(coef.real**2 + coef.imag**2) * _h2_weights(n)
    total = _dot(winding, winding)[..., 0] + 2.0 * power.sum(axis=-1) / n**2
    return np.sqrt(total)


# The failures a march records in ``Trajectory.failure`` instead of raising.
_GUARD_TRIPS = (OutOfTubularNeighborhood, NoContraction, StepSizeUnstable,
               TangencyViolation)


def _h2_blowup(norm, guard_norm):
    return norm > BLOWUP_FACTOR * np.maximum(guard_norm, 1e-30)


def evolve(u0, cfg, stride=1):
    """March the flow to T, snapshotting every ``stride`` steps.

    Guard trips (tube exit, failed contraction, runaway H2 growth, a
    non-finite step) abort the march and are reported through
    ``Trajectory.failure`` while the partial trajectory is preserved.
    """
    return _march(u0, cfg, stride)[0]


def _march(u0, cfg, stride, levels=None):
    """March u0 at each eps of ``levels``; one Trajectory per level.

    ``levels`` defaults to ``[cfg.epsilon]``.  The members advance as one
    (B, d, N) stack whose member i carries eps = levels[i]; DuhamelPicard
    marches a single member.  Guards act per member: when a stacked step
    trips one, each live member takes that step alone, which gives its
    own result bit for bit as the stacked step does.  A member whose step
    raises, or whose H2 norm grows BLOWUP_FACTOR-fold within a stride, is
    frozen with its failure, and the others march on as a smaller stack.
    """
    if u0.n != cfg.N_g:
        raise ValueError(f"curve grid {u0.n} does not match config N_g={cfg.N_g}")
    n_steps = cfg.n_steps()
    if stride < 1 or (n_steps and n_steps % stride):
        raise ValueError("stride must divide the step count")
    configs = ([cfg] if levels is None
               else [replace(cfg, epsilon=eps) for eps in levels])
    trajs = [Trajectory(times=[0.0], states=[u0], config=c) for c in configs]
    if n_steps == 0:
        return trajs

    def freeze(i, exc):
        trajs[i].failure = f"{type(exc).__name__}: {exc}"

    m = u0.manifold
    if cfg.integrator == "DuhamelPicard":
        try:
            # the automatic band raises NoContraction when it is empty
            ws = _PicardWorkspace(cfg, m, u0.n)
        except _GUARD_TRIPS as exc:
            freeze(0, exc)
            return trajs

        def advance(rows, lifted, members):
            end, iterations = _picard_step(cfg, ws, [x[0] for x in lifted])
            trajs[0].picard_iterations.append(iterations)
            return end[None], m._residual(m._sq_norms(end[None])).max(axis=-1)
    else:
        # the largest |v_x| of the data fixes the RK4 stability band, which
        # every set of live members shares
        keep = mode_cutoff(cfg, m, float(np.max(np.abs(u0.velocity()))))
        step_fn = _rk4_step if cfg.integrator == "ProjectedRK4" else _imex_step

        # built once per set of live members
        @lru_cache(maxsize=None)
        def stepper(members):
            return _Stepper(cfg, m, u0.n, keep,
                            [configs[i].epsilon for i in members])

        def advance(rows, lifted, members):
            return step_fn(rows, cfg, stepper(tuple(members)), lifted)

    # the march state is (B, d, N) rows; a snapshot is a member's transpose
    live = list(range(len(trajs)))
    state = np.stack([u0.samples.T] * len(live))
    # one transform per state: the H2 guard and the next step share it
    lifted = _lift(state, m)
    guard = _extrinsic_h2(state, lifted)  # indexed by member
    for k in range(1, n_steps + 1):
        try:
            state, residuals = advance(state, lifted, live)
        except _GUARD_TRIPS as exc:
            if len(live) == 1:
                freeze(live[0], exc)
                break
            # alone, each member takes the step it takes in the stack
            done = {}
            for j, i in enumerate(live):
                try:
                    done[j] = advance(state[j:j + 1],
                                      [x[j:j + 1] for x in lifted], [i])
                except _GUARD_TRIPS as trip:
                    freeze(i, trip)
            live = [live[j] for j in done]
            if not live:
                break
            state, residuals = (np.concatenate(x) for x in zip(*done.values()))
        for i, residual in zip(live, residuals):
            trajs[i].step_residuals.append(float(residual))
        lifted = _lift(state, m)
        if k % stride:
            continue
        norms = _extrinsic_h2(state, lifted)
        blown = _h2_blowup(norms, guard[live])
        for j, i in enumerate(live):
            if blown[j]:
                freeze(i, StepSizeUnstable(
                    f"H2 norm grew {norms[j] / guard[i]:.1f}x within one stride"
                ))
            else:
                trajs[i].times.append(k * cfg.dt)
                trajs[i].states.append(u0.with_samples(state[j].T))
        guard[live] = norms
        if blown.any():
            kept = np.flatnonzero(~blown)
            live, state = [live[j] for j in kept], state[kept]
            lifted = [x[kept] for x in lifted]
            if not live:
                break
    return trajs


def epsilon_continuation(u0, cfg, eps_list):
    """Run the flow for each eps plus eps = 0 and tabulate H1 distances.

    Rows are ordered by eps (largest first).  Per-run failures are
    recorded in their row; the table is returned regardless.  All runs use
    the projected RK4 stepper so that the eps = 0 baseline is admissible.
    The baseline and the levels march as one (B, d, N) stack with
    per-member integrating factors and guards: a level that trips a guard
    is frozen with the failure it alone hits while the others march on.
    """
    eps_list = list(eps_list)
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps levels must be positive")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps levels must be strictly decreasing")
    cfg = replace(cfg, integrator="ProjectedRK4")
    base, *runs = _march(u0, cfg, cfg.n_steps() or 1, [0.0, *eps_list])
    rows = []
    prev_final = None
    for eps, traj in zip(eps_list, runs):
        row = {
            "epsilon": eps,
            "h1_to_zero": np.nan,
            "h1_to_prev": np.nan,
            "failure": traj.failure or (base.failure and f"baseline {base.failure}"),
        }
        if traj.failure is None and base.failure is None:
            row["h1_to_zero"] = h1_distance(traj.final, base.final)
            if prev_final is not None:
                row["h1_to_prev"] = h1_distance(traj.final, prev_final)
            prev_final = traj.final
        rows.append(row)
    return rows
