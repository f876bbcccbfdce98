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
``ProjectedRK4``   Classical four-stage explicit step in the frame of the
                   integrating factor exp(t*L), L = a*d_x^3 - eps*d_x^4 (the
                   constant-coefficient stiff part, handled exactly), with
                   nearest-point projection at every stage and at the step
                   end; at a = eps = 0 the literal projected RK4.  The
                   stages run on the stage grid (:func:`stage_grid`), which
                   the band sets, not N.  A step makes 16 transforms, or 24
                   if a member has eps > 0 (:meth:`_Stepper.remainder`), on
                   one curve (d, N) or a stack (B, d, N) whose members may
                   carry their own eps.
``DuhamelPicard``  Fixed-point iteration on the mild (Duhamel) form driven
                   by the propagator exp(t*L) of the stepper's one symbol
                   of L; requires eps > 0.  Each iteration evaluates the
                   nonlinearity at all Gauss nodes in one call of the RK4
                   stage slope (5 calls on 8 rows), on the dealias band; a
                   step that does not contract fails with NoContraction.
                   States may sit slightly off the target (inside the
                   tube); at a = b = 0 their normal part then decays
                   monotonically (``dcl verify --suite maxprinciple``).

``_march`` is the one step loop: ``evolve`` is its single member, and
``epsilon_continuation`` marches the eps = 0 baseline and every level as
one stack with per-member guards.  It decides the run's band once, for
every stepper it builds, and transforms each accepted state once: that
rfft feeds the H2 blow-up guard and the next step's V0 and stage 1, or
the Picard free term.  The march state is each curve's periodic part: on
the chart torus a closed curve's winding W is a homotopy invariant, so
the march reads W and the trend W*x of u0 once and adds the trend back
to each snapshot.  No chart-torus kernel reads its base point, so W
enters a step only as the constant part of v_x; off the chart torus W
is zero.  The march checks only what can fail: the tube check in each
retraction (of u0, a stage point, a step end, the snapshots), the
non-finite check of each step end and Picard iteration, and the H2
guard; a retraction is on the target by construction (property-tested).

Fields are stored in the row layout (..., d, N) of :mod:`spectral` and
transformed by its :func:`spectral.rfft` and :func:`spectral.irfft`; the
stepper's multipliers are rows over their modes.  A ProjectedRK4 march
whose stage grid M is below N carries the band, not the curve: it keeps
u0's every (N/M)-th sample and first M/2 + 1 modes, and every step end,
its rfft, the H2 guard and every stage then live on the M stage samples.
The snapshots reach the N curve samples once, when the march returns
(:func:`_curve_snapshots`).  DuhamelPicard, whose states may sit off the
target, and every run with M = N march on the curve grid.  ``_march``
takes u0 as (N, d) and returns each snapshot as (N, d); so do the public
references ``dispersive_rhs`` and ``regularized_rhs``, each with one check
and one call of :func:`_assemble`, the one unchecked assembly.

Products of fields are cubic, so the automatic band dealiases them by
the N/4 rule (a pinned ``mode_cutoff`` is used as given: above N/4 it
aliases); the mask is applied identically by every integrator.
"""

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import spectral
from .curves import h1_distance, is_grid_size, lift_trend, lifted_velocity
from .errors import (
    NoContraction,
    OutOfTubularNeighborhood,
    StepSizeUnstable,
    TangencyViolation,
)
from .manifolds import _ambient_sum, _dot
from .spectral import TWO_PI

INTEGRATORS = ("DuhamelPicard", "ProjectedRK4")

# Under-resolution guard threshold for the tangency of the assembled RHS.
RHS_TANGENCY_TOL = 1e-6

# The most steps a run may take: a longer horizon T / dt is a configuration
# error rather than a march that does not end.
MAX_STEPS = 10**7

# The largest curve grid and Gauss rule a run may ask for: a larger value is
# a configuration error rather than a failed allocation.  The largest array,
# DuhamelPicard's quadrature kernel of (q + 1) q (N_g/2 + 1) complex entries,
# takes 528 MiB at both bounds (its build peaks near 1.04 GiB, 16 times the
# 67 MiB measured at N_g = 4096).  RK4 runs share the grid bound: a grid
# study from N_g = 4096 may have 5 levels, not 6.
MAX_N_G = 2**16
MAX_QUADRATURE_NODES = 32


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
    mode_cutoff: int = 0  # 0 = automatic (dealias rule + stability edge)

    def __post_init__(self):
        if self.integrator not in INTEGRATORS:
            raise ValueError(
                f"integrator must be one of {INTEGRATORS}, got {self.integrator!r}"
            )
        for name in ("a", "b", "epsilon", "dt", "T", "picard_tol"):
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
        for name, low, high in (
            ("N_g", None, MAX_N_G), ("quadrature_nodes", 1, MAX_QUADRATURE_NODES),
            ("picard_max_iter", 1, None), ("mode_cutoff", 0, None),
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer")
            if low is not None and value < low:
                raise ValueError(f"{name} must be at least {low}")
            if high is not None and value > high:
                raise ValueError(f"{name} must be at most {high}")
        if not is_grid_size(self.N_g):
            raise ValueError("N_g must be a power of two >= 16")
        if not self.picard_tol > 0:
            raise ValueError("picard_tol must be positive")

    def n_steps(self, stride=1):
        """The steps of dt to T, of which T must be a multiple to 1e-9
        relative; ``stride``, an integer >= 1 (not a bool), must divide them."""
        ratio = self.T / self.dt
        if not math.isfinite(ratio):
            raise ValueError("T / dt overflows; T is too large for this dt")
        if ratio > MAX_STEPS:
            raise ValueError(f"T = {self.T!r} over dt = {self.dt!r} takes "
                             f"more than MAX_STEPS = {MAX_STEPS} steps")
        steps = int(round(ratio))
        if abs(steps * self.dt - self.T) > 1e-9 * self.T:
            raise ValueError("T must be an integer multiple of dt")
        if isinstance(stride, bool) or not isinstance(stride, numbers.Integral) or stride < 1:
            raise ValueError("stride must be a positive integer")
        if steps % stride:
            raise ValueError(f"stride {stride} does not divide the step count {steps}")
        return steps


@dataclass
class Trajectory:
    """Snapshots of one run plus per-step diagnostics: ``step_residuals``
    holds each step's largest residual before projection over the points
    it ended on, the M stage samples when the march carries the band."""

    times: list
    states: list
    config: FlowConfig
    step_residuals: list = field(default_factory=list)
    picard_iterations: list = field(default_factory=list)
    failure: str = None

    @property
    def final(self):
        return self.states[-1]


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


def _assemble(m, v, a, b, eps=None):
    """The reference RHS a S2 + J S1 + b |v_x|^2 v_x at on-target rows.

    The one assembly of both references: the unchecked kernels on (d, N)
    rows ``v`` the caller checked or retracted, returned as rows.  A
    number ``eps``, 0 included, takes the stiff part L v = a v_xxx -
    eps v_xxxx off: a (S2 - v_xxx) - eps (S3 - v_xxxx) + J S1 +
    b |v_x|^2 v_x, the remainder the integrators' stage slope assembles.
    """
    vx = lifted_velocity(v, m)
    s = _gauss_tower(m, v, vx, 2 if eps is None else 3)
    if eps is None:
        rhs = a * s[2]
    else:
        rhs = (-eps * (s[3] - spectral._derivative(vx, 3))
               + a * (s[2] - spectral._derivative(vx, 2)))
    return rhs + m._j(v, s[1]) + b * _sq(vx) * vx


def dispersive_rhs(curve, a, b):
    """Velocity of the unregularized flow at an on-manifold curve.

    One on-target check of the curve, then :func:`_assemble`.  Raises
    TangencyViolation when the assembled field has a normal component
    beyond the under-resolution guard, taken on the same rows.
    """
    m, v = curve.manifold, curve.samples.T
    m._require_on(v)
    rows = _assemble(m, v, a, b)
    res = float(np.abs(rows - m._tangent(v, rows)).max())
    scale = max(1.0, float(np.max(np.abs(rows))))
    if res > RHS_TANGENCY_TOL * scale:
        raise TangencyViolation(
            f"rhs normal component {res:.3e} exceeds "
            f"{RHS_TANGENCY_TOL:.0e} * {scale:.3e}; raise the resolution"
        )
    return rows.T


def regularized_rhs(curve, cfg):
    """Velocity of the eps-regularized flow; valid slightly off the target.

    L v = a v_xxx - eps v_xxxx on the raw state plus the remainder
    evaluated at the nearest-point projection of the state, as every
    integrator splits it; the physical-space reference for their stage
    slope plus L v.  Its one check is the retraction's tube check.
    """
    m, v = curve.manifold, curve.samples.T
    proj, _ = m._retract(v)
    raw = lifted_velocity(v, m)
    linear = (cfg.a * spectral._derivative(raw, 2)
              - cfg.epsilon * spectral._derivative(raw, 3))
    return (linear + _assemble(m, proj, cfg.a, cfg.b, cfg.epsilon)).T


# ---------------------------------------------------------------------------
# Steppers
# ---------------------------------------------------------------------------


# Explicit stages stay stable while dt * c * k^2 is below this edge, where
# c collects the second-order remainder terms (the complex-structure
# rotation plus the curvature corrections scaling with |a| |v_x|).
STABILITY_EDGE = 2.5


def mode_cutoff(cfg, manifold, speed):
    """Highest retained frequency for one run on ``manifold``.

    A pinned ``cfg.mode_cutoff`` wins, else the dealias band.  For
    ProjectedRK4 the explicit stages see an effective second-order operator
    whose modes beyond the classical four-stage scheme's stability edge must
    be masked, or roundoff there grows by orders of magnitude per step; the
    edge is clamped to the band before int(), so a dt too small for it (an
    inf edge) keeps the band.  Its coefficient grows with ``speed``, the
    largest |v_x| of the data, and with the largest principal curvature of
    the target (floored at 1), whose second fundamental form the remainder
    terms carry.  DuhamelPicard ignores ``speed``: its propagator carries
    all of L, so it keeps the dealias band.
    """
    if cfg.mode_cutoff:
        return cfg.mode_cutoff
    keep = spectral.dealias_keep(cfg.N_g)
    if cfg.integrator != "DuhamelPicard":
        coeff = (1.0 + 4.0 * abs(cfg.a) * max(speed, 1.0)) * max(
            manifold.principal_curvature, 1.0
        )
        edge = int(min(np.sqrt(STABILITY_EDGE / (cfg.dt * coeff)) / TWO_PI, keep))
        keep = min(keep, max(edge, 2))
    return keep


def run_band(cfg, u0):
    """The band a run of u0 keeps: :func:`mode_cutoff` at u0's largest |v_x|."""
    speed = (None if cfg.integrator == "DuhamelPicard"
             else float(np.max(np.abs(u0.velocity()))))
    return mode_cutoff(cfg, u0.manifold, speed)


def stage_grid(n, keep):
    """Points of the grid the RK4 stages run on, for a band of ``keep``.

    The smallest power of two M >= 16 that dealiases the band by the N/4
    rule (M // 4 >= keep), capped at the curve grid N, itself a power of
    two: the stage grid is every (N/M)-th curve sample.
    """
    while n // 2 >= 16 and spectral.dealias_keep(n // 2) >= keep:
        n //= 2
    return n


class _Stepper:
    """Spectral precomputation and the stage slope for one run.

    Built from the run's config alone (each step reads dt and the Picard
    settings from ``cfg``), the target, the run's band ``keep``
    (:func:`mode_cutoff`) and each member's eps.  It holds one grid, the
    stage grid ``n`` (:func:`stage_grid` of the band; the curve grid for
    DuhamelPicard, whose quadrature kernel lives on its modes), and every
    slope is combined on its modes: ``d_pows`` (d/dx and its powers 1..3,
    or 1..2 when no term needs v_xxx, as (orders, K) rows), the band
    ``mask``, ``c_a0`` on A0 = A(v_x, v_x), ``c_a1`` on A1 (eps term only)
    and the masked integrating factors over a full and a half step.  B > 1
    levels of ``eps`` give the factors and the multipliers a leading member
    axis, (B, 1, K), for a (B, d, N) stack whose member i carries eps[i];
    one level steps a (d, N) curve or a stack.

    L = a*d_x^3 - eps*d_x^4 is every integrator's, its symbol built here
    once, k3 = a d1^3 from the d/dx table; a DuhamelPicard stepper holds the
    masked quadrature that propagates it (``nodes``, ``kernel``, ``prop0``)
    in place of the integrating factors, and each step's count in
    ``iterations``.  The pointwise terms are not formed when their
    coefficient is zero: b |v_x|^2 v_x at b = 0 and a A1 at a = 0.

    ``work`` is the workspace: :meth:`buffer` makes each array of
    :meth:`remainder` and of the step end's irfft by np.empty on first use,
    keyed by (name, shape).  ``_march`` builds one stepper per set of live
    members, so the buffers live as long as the march.  No result aliases
    them: slopes, states and residuals leave a step as fresh arrays.
    """

    def __init__(self, cfg, manifold, keep, eps):
        self.cfg, self.manifold, self.keep = cfg, manifold, keep
        eps = np.asarray(eps, dtype=float)
        self.eps = eps[:, None, None] if eps.size > 1 else eps.reshape(1, 1)
        # v_xxx and t2 in physical space feed only the eps term: without
        # it, a stage makes 3 transform calls instead of 5
        self.third_order = bool(np.any(self.eps))
        self.cubic, self.dispersive = cfg.b != 0, cfg.a != 0
        self.work = {}
        self.n = (cfg.N_g if cfg.integrator == "DuhamelPicard"
                  else stage_grid(cfg.N_g, keep))
        # powers of d/dx, which drops the Nyquist mode
        d1 = spectral._derivative_multiplier(self.n, 1)
        self.d_pows = np.stack([d1, d1**2, d1**3][: 3 if self.third_order else 2])
        k = spectral.wavenumbers(self.n)
        self.mask = (k <= keep).astype(float)
        # L's symbol k3 - eps k4; k3 takes d/dx's Nyquist 0 from its table
        k3, k4 = cfg.a * d1**3, (TWO_PI * k) ** 4
        # a t2 = -a (D A0 + A1) and -eps D t2 = eps D (D A0 + A1); a member
        # at eps = 0 adds 0 * d1^2 and 0 * d1, which leaves it as is
        self.c_a0 = -cfg.a * d1
        if self.third_order:
            self.c_a0 = self.c_a0 + self.eps * self.d_pows[1]
            self.c_a1 = self.eps * d1
        if cfg.integrator == "DuhamelPicard":
            self.nodes, self.kernel, self.prop0 = _duhamel_quadrature(cfg, k3, k4)
            # in place: the build holds one kernel, not two
            self.kernel *= self.mask
            self.prop0 *= self.mask
            self.iterations = []
        else:
            lam = k3 - self.eps * k4
            self.e_full = np.exp(cfg.dt * lam) * self.mask
            self.e_half = np.exp(0.5 * cfg.dt * lam) * self.mask

    def buffer(self, name, shape, dtype=float):
        """The workspace array ``name`` of ``shape``, np.empty on first use."""
        if (name, shape) not in self.work:
            self.work[name, shape] = np.empty(shape, dtype)
        return self.work[name, shape]

    def slope(self, samples, winding):
        """Masked stage-grid rfft coefficients of the remainder at stage
        points ``samples``, (d, N) or (B, d, N) periodic parts of winding
        (d, 1) or (B, d, 1), or None: :meth:`remainder` at their retraction
        (tube check, then P) and its rfft, one transform call more."""
        proj, _ = self.manifold._retract(samples)
        return self.remainder(proj, spectral.rfft(proj), winding)

    def remainder(self, proj, coef, winding):
        """The slope at an on-target periodic part ``proj`` on the stage grid
        (a retraction, so unchecked) from its M/2 + 1 modes ``coef``.

        The remainder is the RHS minus L v, assembled at P = ``proj``
        without cancelling large terms (A is the second fundamental form
        at P, s1 = v_xx - A(v_x, v_x), S2 = v_xxx + t2):

            t2 = -D A(v_x, v_x) - A(s1, v_x),  t3 = D t2 - A(S2, v_x),
            a t2 + J s1 + b |v_x|^2 v_x - eps t3.

        The derivatives of A0 = A(v_x, v_x) and A1 = A(s1, v_x) enter as
        multipliers on rfft coefficients; the rest,
        J s1 + b |v_x|^2 v_x - a A1 (plus eps A(S2, v_x)), is pointwise.

        When every member has eps = 0, two transform calls on 4 rows:
        [v_x, v_xx] and [A0, rest].  Otherwise t2 is needed pointwise for
        A(S2, v_x): four calls on 7 rows, [v_x, v_xx, v_xxx], A0, D A0 and
        [A1, rest].  One |v_x|^2 serves A0 = -|v_x|^2 P on the sphere and
        the cubic term; ``rest`` is summed in place, in one product buffer
        with A0 or A1.
        """
        cfg, m, third = self.cfg, self.manifold, self.third_order
        ws, shape, n = self.buffer, proj.shape, self.n
        modes = coef.shape
        d_pows = self.d_pows.reshape((-1,) + (1,) * (coef.ndim - 1) + modes[-1:])
        lin = np.multiply(d_pows, coef, out=ws("lin", d_pows.shape[:1] + modes, complex))
        rows = spectral.irfft(lin, n, ws("rows", lin.shape[:1] + shape))
        vx, vxx = rows[0], rows[1]
        if winding is not None:
            vx = np.add(winding, vx, out=ws("vx", shape))
        # [A0, rest], or [A1, rest] with the eps term: one rfft of one buffer
        pair, tmp = ws("pair", (2,) + shape), ws("tmp", shape)
        sq = (_ambient_sum(np.multiply(vx, vx, out=tmp))[..., None, :]
              if self.cubic else None)
        a0 = m._sff(proj, vx, vx, out=ws("a0", shape) if third else pair[0], xy=sq)
        s1 = np.subtract(vxx, a0, out=ws("s1", shape))
        rest = m._j(proj, s1, out=pair[1])
        if self.cubic:
            rest += np.multiply(cfg.b * sq, vx, out=tmp)
        if self.dispersive or third:
            a1 = m._sff(proj, s1, vx, out=pair[0] if third else ws("a1", shape))
        if self.dispersive:
            rest -= np.multiply(cfg.a, a1, out=tmp)
        if third:
            a0_hat = spectral.rfft(a0, ws("a0_hat", modes, complex))
            s2 = spectral.irfft(np.multiply(d_pows[0], a0_hat, out=ws("da0", modes, complex)),
                                n, ws("s2", shape))
            np.subtract(rows[2], s2, out=s2)
            s2 -= a1
            # a member at eps = 0 adds 0 * (...), which leaves it as is
            rest += np.multiply(self.eps, m._sff(proj, s2, vx, out=tmp), out=tmp)
        a_hat, rest_hat = spectral.rfft(pair, ws("hat", (2,) + modes, complex))
        out = rest_hat + self.c_a0 * (a0_hat if third else a_hat)
        return self.mask * (out + self.c_a1 * a_hat if third else out)


def _rk4_step(samples, st, coef, winding):
    """Integrating-factor RK4 on rfft coefficients (Trefethen, Program 27).

    dt and every multiplier are the stepper ``st``'s.  ``samples`` is the
    on-target periodic part (d, N) or (..., d, N) of a state the march
    accepted or retracted, ``coef`` its rfft and ``winding`` its (d, 1) or
    (..., d, 1) winding, or None.  V0, the first M/2 + 1 modes of ``coef``,
    and the slopes stay on the stage grid's modes.  Stage 1 is the remainder
    at the state's every (N/M)-th sample, from V0, with no retraction or
    transform of its own; each later stage point is one irfft on the stage
    grid.  Returns the projected periodic part on the grid of ``samples``
    and each curve's largest residual before projection.
    """
    h = st.cfg.dt
    v0 = coef[..., : st.n // 2 + 1]
    m1 = st.remainder(samples[..., :: samples.shape[-1] // st.n], v0, winding)
    half_v0, full_v0 = st.e_half * v0, st.e_full * v0

    def slope(coef):
        return st.slope(spectral.irfft(coef, st.n), winding)

    m2 = slope(st.e_half * (v0 + (0.5 * h) * m1))
    m3 = slope(half_v0 + (0.5 * h) * m2)
    m4 = slope(full_v0 + h * (st.e_half * m3))
    end = full_v0 + (h / 6.0) * (
        st.e_full * m1 + 2.0 * (st.e_half * (m2 + m3)) + m4
    )
    return _step_end(st, end, samples.shape[-1])


def _step_end(st, coef, n):
    """Guarded projection of the irfft of stage-grid modes ``coef`` onto
    ``n`` points, the step state's grid; (samples, residuals before)."""
    pre = spectral.irfft(coef, n, st.buffer("pre", coef.shape[:-1] + (n,)))
    if not np.isfinite(pre).all():
        raise StepSizeUnstable("non-finite state")
    proj, sq = st.manifold._retract(pre)
    return proj, st.manifold._residual(sq).max(axis=-1)


# ---------------------------------------------------------------------------
# Duhamel fixed point
# ---------------------------------------------------------------------------


def _duhamel_quadrature(cfg, k3, k4):
    """Gauss nodes, fused quadrature kernel and propagator of L's symbol.

    ``k3`` and ``k4`` are the stepper's symbol of L = a d_x^3 - eps d_x^4
    over its modes m (:class:`_Stepper`): L's symbol is k3 - eps k4.
    Targets s_i are the q Gauss nodes of [0, dt] and dt.  ``kernel[i, j, m]``
    maps mode m of the nonlinearity at node j to the Duhamel integral at
    s_i (inner Gauss rule on [0, s_i] of the Lagrange interpolant, times
    the propagator over s_i - tau); the propagator over s_i is returned as
    the third item.  The propagator exp(t L) is exp(-eps t k4) exp(t k3),
    whose odd-order factor is formed only at a != 0, where the kernel is
    complex; at a = 0 it is the real heat kernel.
    """
    q = cfg.quadrature_nodes
    nodes, _ = spectral.gauss_legendre(q, 0.0, cfg.dt)
    targets = np.append(nodes, cfg.dt)

    def decay(t):
        out = np.exp(-cfg.epsilon * t[..., None] * k4)
        if not cfg.a:
            return out
        osc = t[..., None] * k3  # in place: as large as the whole kernel
        np.exp(osc, out=osc)
        osc *= out
        return osc

    # row i holds the inner rule on [0, s_i]; one interpolation call and
    # one contraction for all targets
    tau, w = spectral.gauss_legendre(q, 0.0, targets[:, None])
    interp = spectral.lagrange_matrix(nodes, tau.ravel()).reshape(-1, q, q)
    kernel = np.einsum("it,itk,itj->ijk", w, decay(targets[:, None] - tau), interp)
    return nodes, kernel, decay(targets)


def _picard_step(samples, st, coef, winding):
    """Solve the mild form on [0, dt]; (state at dt, residuals), as
    :func:`_rk4_step` returns them, for one curve.

    dt, ``picard_tol`` and ``picard_max_iter`` are ``st.cfg``'s.  ``coef``
    is the rfft of the (1, d, N) periodic part ``samples`` and ``winding``
    its (d, 1) winding or None; the step appends its iteration count to
    ``st.iterations``.  Each iteration advances all targets at once from
    one stage slope of the (q, d, N) stack of node states.
    """
    cfg, m, n, q = st.cfg, st.manifold, st.n, st.nodes.size
    # initial guess: the data propagated by exp(t L) alone
    free = prev = st.prop0[:, None, :] * coef
    devs = spectral.irfft(free, n)

    for iteration in range(1, cfg.picard_max_iter + 1):
        states = devs[:q]
        if not np.all(np.isfinite(states)):
            raise StepSizeUnstable("non-finite state")
        f_hat = st.slope(states, winding)
        coef = free + np.einsum("ijk,jdk->idk", st.kernel, f_hat)
        devs = spectral.irfft(coef, n)
        # H1 norm of each target's update; the largest decides convergence
        update = coef - prev
        power = _ambient_sum(update.real**2 + update.imag**2)
        delta = float(np.sqrt((power @ _parseval_weights(n, 0, 1)).max()))
        prev = coef
        if delta <= cfg.picard_tol:
            st.iterations.append(iteration)
            # a copy: a view would keep the whole node stack alive
            end = devs[-1:].copy()
            return end, m._residual(m._sq_norms(end)).max(axis=-1)
    raise NoContraction(
        f"no fixed point after {cfg.picard_max_iter} iterations "
        f"(last update {delta:.3e}); reduce dt for this epsilon"
    )


# ---------------------------------------------------------------------------
# Marching
# ---------------------------------------------------------------------------

BLOWUP_FACTOR = 10.0


@lru_cache(maxsize=None)
def _parseval_weights(n, low, high):
    """Read-only Parseval weights of D^low..D^high on the rfft modes of n:
    the sum of k2^j, j = low..high, k2 = |d/dx|^2 from :mod:`spectral`'s
    table (0 at Nyquist, as odd orders drop it), and the modes that have a
    conjugate twin doubled, for the power of forward coefficients."""
    k2 = np.abs(spectral._derivative_multiplier(n, 1)) ** 2
    weights = sum(k2**j for j in range(low, high + 1))
    weights[1:-1] *= 2.0
    weights.setflags(write=False)
    return weights


def _extrinsic_h2(coef, winding):
    """H2 norm of the velocity by Parseval on the rfft ``coef`` of a periodic
    part, on any grid: |W|^2 plus the power of D^j of it for j = 1..3, one
    norm per curve of a stack.  Valid slightly off the target (unlike the
    covariant norm), as the blow-up guard needs."""
    n = 2 * (coef.shape[-1] - 1)
    power = _ambient_sum(coef.real**2 + coef.imag**2) * _parseval_weights(n, 1, 3)
    total = _dot(winding, winding)[..., 0] + power.sum(axis=-1)
    return np.sqrt(total)


# The failures a march records in ``Trajectory.failure`` instead of raising.
_GUARD_TRIPS = (OutOfTubularNeighborhood, NoContraction, StepSizeUnstable)


def evolve(u0, cfg, stride=1):
    """March the flow to T, snapshotting every ``stride`` steps.

    Guard trips (tube exit, failed contraction, runaway H2 growth, a
    non-finite step) abort the march and are reported through
    ``Trajectory.failure`` while the partial trajectory is preserved.
    """
    return _march(u0, cfg, stride)[0]


# a blow-up overflows before the step's non-finite check reports it
@np.errstate(over="ignore", invalid="ignore")
def _march(u0, cfg, stride, levels=None):
    """March u0 at each eps of ``levels``; one Trajectory per level.

    ``levels`` defaults to ``[cfg.epsilon]``.  The members advance as one
    (B, d, N) stack whose member i carries eps = levels[i]; DuhamelPicard
    marches a single member.  Guards act per member: when a stacked step
    trips one, each live member takes that step alone, which gives its
    own result bit for bit as the stacked step does.  A member whose step
    raises, or whose H2 norm grows BLOWUP_FACTOR-fold within a stride, is
    frozen with its failure, and the others march on as a smaller stack.
    For ProjectedRK4 the march starts from the retraction of u0 (a u0
    outside the tube freezes every member with that failure) and carries
    the band when the stage grid is coarser (see the module docstring);
    snapshot 0 is u0 as given.  :func:`run_band` decides the band here.
    """
    if u0.n != cfg.N_g:
        raise ValueError(f"curve grid {u0.n} does not match config N_g={cfg.N_g}")
    n_steps = cfg.n_steps(stride)
    configs = ([cfg] if levels is None
               else [replace(cfg, epsilon=eps) for eps in levels])
    trajs = [Trajectory(times=[0.0], states=[u0], config=c) for c in configs]
    if n_steps == 0:
        return trajs

    def freeze(i, exc):
        trajs[i].failure = f"{type(exc).__name__}: {exc}"

    m = u0.manifold
    # the march state is C-contiguous (B, d, N) rows of each member's
    # periodic part; a snapshot is a member's transpose, plus the trend
    state = np.stack([u0.samples.T] * len(trajs))
    trend, winding = lift_trend(u0.samples.T, m)
    winds = winding.any()
    keep = run_band(cfg, u0)  # every stepper of the run shares it

    @lru_cache(maxsize=None)  # built once per set of live members
    def stepper(members):
        return _Stepper(cfg, m, keep, [configs[i].epsilon for i in members])

    if cfg.integrator == "DuhamelPicard":
        step_fn, trajs[0].picard_iterations = _picard_step, stepper((0,)).iterations
    else:
        step_fn = _rk4_step
        try:
            # stage 1 slopes each state as it is: u0's retraction, then each step end
            state, _ = m._retract(state)
        except _GUARD_TRIPS as exc:
            for i in range(len(trajs)):
                freeze(i, exc)
            return trajs
    lift = winding if winds else None  # the slopes test no winding again
    if winds:
        state = state - trend
    live = list(range(len(trajs)))
    # one transform per state: the H2 guard and the next step share it
    coef = spectral.rfft(state)
    n = stepper(tuple(live)).n
    band = n < cfg.N_g  # the march carries the stage grid, not the curve
    if band:
        state, coef = state[..., :: cfg.N_g // n].copy(), coef[..., : n // 2 + 1].copy()
    guard = _extrinsic_h2(coef, winding)  # indexed by member
    modes = [[] for _ in trajs]  # each member's snapshots' modes, if band
    for k in range(1, n_steps + 1):
        try:
            state, residuals = step_fn(state, stepper(tuple(live)), coef, lift)
        except _GUARD_TRIPS as exc:
            if len(live) == 1:
                freeze(live[0], exc)
                break
            # alone, each member takes the step it takes in the stack
            done = {}
            for j, i in enumerate(live):
                try:
                    done[j] = step_fn(state[j:j + 1], stepper((i,)), coef[j:j + 1], lift)
                except _GUARD_TRIPS as trip:
                    freeze(i, trip)
            live = [live[j] for j in done]
            if not live:
                break
            state, residuals = (np.concatenate(x) for x in zip(*done.values()))
        for i, residual in zip(live, residuals):
            trajs[i].step_residuals.append(float(residual))
        coef = spectral.rfft(state)
        if k % stride:
            continue
        norms = _extrinsic_h2(coef, winding)
        blown = norms > BLOWUP_FACTOR * np.maximum(guard[live], 1e-30)
        for j, i in enumerate(live):
            if blown[j]:
                freeze(i, StepSizeUnstable(
                    f"H2 norm grew {norms[j] / guard[i]:.1f}x within one stride"))
            else:
                trajs[i].times.append(k * cfg.dt)
                if band:
                    modes[i].append(coef[j])
                    continue
                rows = trend + state[j] if winds else state[j]
                trajs[i].states.append(u0.with_samples(rows.T))
        guard[live] = norms
        if blown.any():
            kept = np.flatnonzero(~blown)
            live, state, coef = [live[j] for j in kept], state[kept], coef[kept]
            if not live:
                break
    if band and any(modes):
        _curve_snapshots(u0, trajs, modes, trend if winds else None)
    return trajs


def _curve_snapshots(u0, trajs, modes, trend):
    """Append each member's snapshots from their stage-grid ``modes``: one
    batched irfft onto the curve grid and one tube-checked retraction, plus
    ``trend`` unless None.  A snapshot outside the tube cuts its member's
    times and states there and becomes its failure."""
    m, ends = u0.manifold, np.cumsum([0] + [len(rows) for rows in modes])
    pre = spectral.irfft(np.stack([row for rows in modes for row in rows]), u0.n)
    try:
        curves, _ = m._retract(pre)
    except OutOfTubularNeighborhood:
        curves = None  # each row alone finds each member's first exit
    for traj, start, end in zip(trajs, ends, ends[1:]):
        for s in range(start, end):
            try:
                curve = curves[s] if curves is not None else m._retract(pre[s])[0]
            except OutOfTubularNeighborhood as exc:
                t = traj.times[len(traj.states)]
                del traj.times[len(traj.states):]
                traj.failure = f"{type(exc).__name__}: {exc} at t = {t!r}"
                break
            rows = curve if trend is None else trend + curve
            traj.states.append(u0.with_samples(rows.T))


def epsilon_continuation(u0, cfg, eps_list):
    """Run the flow for each eps plus eps = 0 and tabulate H1 distances.

    Rows are ordered by eps (largest first).  Per-run failures are
    recorded in their row; the table is returned regardless.  All runs use
    the projected RK4 stepper so that the eps = 0 baseline is admissible.
    The baseline and the levels march as one stack (:func:`_march`): a
    level that trips a guard alone is frozen while the others march on.
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
