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
                   viable at all.
``DuhamelPicard``  Fixed-point iteration on the mild (Duhamel) form driven
                   by the fourth-order heat semigroup; requires eps > 0.
                   Each iteration evaluates the nonlinearity at all Gauss
                   nodes in one batched call.
                   States may sit slightly off the target (inside the
                   tube); their normal part then decays monotonically.
``IMEX``           First-order integrating-factor Euler step (same L),
                   projected at the step end.  Cheap, for smoke runs.

Products of fields are cubic, so state and nonlinear terms are dealiased
by the N/4 rule; the mask is part of the spatial discretization and is
applied identically by every integrator.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import spectral
from .curves import (
    h1_distance,
    lifted_velocity,
    require_finite,
    tangency_residual,
)
from .errors import (
    NoContraction,
    OutOfTubularNeighborhood,
    StepSizeUnstable,
    TangencyViolation,
)

TWO_PI = 2.0 * np.pi

INTEGRATORS = ("DuhamelPicard", "ProjectedRK4", "IMEX")

# Under-resolution guard threshold for the tangency of the assembled RHS.
RHS_TANGENCY_TOL = 1e-6


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
            if not math.isfinite(getattr(self, name)):
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

    def n_steps(self):
        if self.T == 0:
            return 0
        steps = int(round(self.T / self.dt))
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
    return (v * v).sum(axis=-1, keepdims=True)


def _gauss_tower(manifold, samples, vx, order):
    """Images of the covariant derivatives of u_x, assembled extrinsically.

    S[0] = v_x and S[k+1] = d_x S[k] - A(S[k], v_x) with A the second
    fundamental form; each S[k] is tangent along the curve.
    """
    out = [vx]
    for _ in range(order):
        cur = out[-1]
        nxt = spectral.spectral_derivative(cur) - manifold.second_fundamental_form(
            samples, cur, vx
        )
        out.append(nxt)
    return out


def dispersive_rhs(curve, a, b, check_tangency=True):
    """Velocity of the unregularized flow at an on-manifold curve.

    Raises TangencyViolation when the assembled field has a normal
    component beyond the under-resolution guard.
    """
    m = curve.manifold
    v = curve.samples
    vx = curve.velocity()
    _, s1, s2 = _gauss_tower(m, v, vx, 2)
    rhs = a * s2 + m.complex_structure(v, s1) + b * _sq(vx) * vx
    if check_tangency:
        res = tangency_residual(curve, rhs)
        scale = max(1.0, float(np.max(np.abs(rhs))))
        if res > RHS_TANGENCY_TOL * scale:
            raise TangencyViolation(
                f"rhs normal component {res:.3e} exceeds "
                f"{RHS_TANGENCY_TOL:.0e} * {scale:.3e}; raise the resolution"
            )
    return rhs


def _regularized_nonlinearity(manifold, proj, pvx, cfg):
    """-eps*(S3 - v_xxxx) + a*S2 + J S1 + b|v_x|^2 v_x at projected points.

    ``proj`` are on-target samples and ``pvx`` their velocity, both of
    shape (..., N, d); any leading axes are a batch of curves.
    """
    _, s1, s2, s3 = _gauss_tower(manifold, proj, pvx, 3)
    proj4 = spectral.spectral_derivative(pvx, 3)
    return (
        -cfg.epsilon * (s3 - proj4)
        + cfg.a * s2
        + manifold.complex_structure(proj, s1)
        + cfg.b * _sq(pvx) * pvx
    )


def regularized_rhs(curve, cfg, check_tangency=False):
    """Velocity of the eps-regularized flow; valid slightly off the target.

    Computes -eps * v_xxxx on the raw state plus the full nonlinearity
    evaluated at the nearest-point projection of the state.
    """
    m = curve.manifold
    eps = cfg.epsilon
    m.require_in_tube(curve.samples)
    proj = curve.with_samples(m.project(curve.samples))
    pvx = proj.velocity()
    nonlinear = _regularized_nonlinearity(m, proj.samples, pvx, cfg)
    if check_tangency:
        # the tangent object is the full covariant assembly, -eps*S3 + ...
        proj4 = spectral.spectral_derivative(pvx, 3)
        res = tangency_residual(proj, nonlinear - eps * proj4)
        scale = max(1.0, float(np.max(np.abs(nonlinear))))
        if res > RHS_TANGENCY_TOL * scale:
            raise TangencyViolation(
                f"regularized rhs normal component {res:.3e} too large"
            )
    raw4 = spectral.spectral_derivative(curve.velocity(), 3)
    return -eps * raw4 + nonlinear


def _nonstiff_remainder(curve, cfg):
    """Full RHS minus the constant-coefficient part L v, assembled directly.

    For an on-manifold curve this equals regularized_rhs - (a v_xxx -
    eps v_xxxx) but is built without the cancellation of large terms:
    only differences of second-fundamental-form corrections appear.
    """
    m = curve.manifold
    v = curve.samples
    vx = curve.velocity()
    order = 3 if cfg.epsilon else 2
    tower = _gauss_tower(m, v, vx, order)
    s1, s2 = tower[1], tower[2]
    # t2 = (image of cov^2 u_x) - v_xxx, lower-order by construction
    t2 = -spectral.spectral_derivative(
        m.second_fundamental_form(v, vx, vx)
    ) - m.second_fundamental_form(v, s1, vx)
    out = cfg.a * t2 + m.complex_structure(v, s1) + cfg.b * _sq(vx) * vx
    if cfg.epsilon:
        t3 = spectral.spectral_derivative(t2) - m.second_fundamental_form(
            v, s2, vx
        )
        out -= cfg.epsilon * t3
    return out


def semigroup_apply(eps, t, f):
    """Fourth-order heat semigroup on a periodic sampled field."""
    return spectral.semigroup_apply(eps, t, f)


# ---------------------------------------------------------------------------
# Steppers
# ---------------------------------------------------------------------------


# Explicit stages stay stable while dt * c * k^2 is below this edge, where
# c collects the second-order remainder terms (the complex-structure
# rotation plus the curvature corrections scaling with |a| |v_x|).
STABILITY_EDGE = 2.5


def mode_cutoff(cfg, speed):
    """Highest retained frequency for one run.

    The explicit stages see an effective second-order operator; modes
    beyond the stability edge of the classical four-stage scheme must be
    masked or roundoff there is amplified by orders of magnitude per
    step.  ``speed`` is the largest |v_x| of the data.
    """
    if cfg.mode_cutoff:
        return cfg.mode_cutoff
    keep = cfg.N_g // 2
    if cfg.dealias:
        keep = spectral.dealias_keep(cfg.N_g)
    if cfg.integrator == "DuhamelPicard":
        # the third-derivative term is explicit in the Duhamel integrand;
        # its per-iteration gain at frequency k scales like |a|/(eps*k),
        # so the fixed point is only reached well inside that edge
        if cfg.a:
            edge = int(0.5 * abs(cfg.a) / (TWO_PI * cfg.epsilon))
            keep = min(keep, max(edge, 2))
    else:
        coeff = 1.0 + 4.0 * abs(cfg.a) * max(speed, 1.0)
        edge = int(np.sqrt(STABILITY_EDGE / (cfg.dt * coeff)) / TWO_PI)
        keep = min(keep, max(edge, 2))
    return keep


class _Stepper:
    """Shared spectral precomputation for one (config, grid) pair."""

    def __init__(self, cfg, manifold, n, speed=1.0):
        self.cfg = cfg
        self.manifold = manifold
        self.n = n
        k = spectral.wavenumbers(n)
        lam = cfg.a * (1j * TWO_PI * k) ** 3 - cfg.epsilon * (TWO_PI * k) ** 4
        if n % 2 == 0:
            # odd-order multiplier has no real Nyquist representative
            lam[-1] = lam[-1].real
        self.keep = mode_cutoff(cfg, speed)
        mask = (k <= self.keep).astype(float)
        self.e_full = np.exp(cfg.dt * lam) * mask
        self.e_half = np.exp(0.5 * cfg.dt * lam) * mask
        self.mask = mask

    def _apply(self, mult, arr):
        coef = np.fft.rfft(arr, axis=0)
        coef *= mult[:, None]
        return np.fft.irfft(coef, n=self.n, axis=0)

    def prop_full(self, arr):
        return self._apply(self.e_full, arr)

    def prop_half(self, arr):
        return self._apply(self.e_half, arr)

    def filt(self, arr):
        return self._apply(self.mask, arr)

    def project_state(self, samples):
        self.manifold.require_in_tube(samples)
        return self.manifold.project(samples)


def step_projected_rk4(curve, cfg):
    """One projected integrating-factor RK4 step; returns the new curve.

    Each stage point is projected to the target before the nonlinearity is
    evaluated, and the result is projected again at the step end; the
    off-manifold residual before that final projection is available via
    :func:`evolve` diagnostics.
    """
    speed = float(np.max(np.abs(curve.velocity())))
    new_curve, _ = _rk4_step(
        curve, cfg, _Stepper(cfg, curve.manifold, curve.n, speed)
    )
    return new_curve


def _rk4_step(curve, cfg, st):
    h = cfg.dt
    trend = curve.trend()
    v0 = curve.samples

    def pos_full(samples):
        return trend + st.prop_full(samples - trend)

    def pos_half(samples):
        return trend + st.prop_half(samples - trend)

    def nl(samples):
        stage = curve.with_samples(st.project_state(samples))
        return st.filt(_nonstiff_remainder(stage, cfg))

    m1 = nl(v0)
    g2 = pos_half(v0 + (0.5 * h) * m1)
    m2 = nl(g2)
    g3 = pos_half(v0) + (0.5 * h) * m2
    m3 = nl(g3)
    g4 = pos_full(v0) + h * st.prop_half(m3)
    m4 = nl(g4)
    pre = pos_full(v0) + (h / 6.0) * (
        st.prop_full(m1) + 2.0 * st.prop_half(m2 + m3) + m4
    )
    residual = float(np.max(curve.manifold.constraint_residual(pre)))
    out = curve.with_samples(st.project_state(pre))
    return out, residual


def _imex_step(curve, cfg, st):
    """Integrating-factor Euler step (first order), projected at the end."""
    trend = curve.trend()
    pre = trend + st.prop_full(
        curve.samples - trend + cfg.dt * nl_masked(curve, cfg, st)
    )
    residual = float(np.max(curve.manifold.constraint_residual(pre)))
    return curve.with_samples(st.project_state(pre)), residual


def nl_masked(curve, cfg, st):
    stage = curve.with_samples(st.project_state(curve.samples))
    return st.filt(_nonstiff_remainder(stage, cfg))


# ---------------------------------------------------------------------------
# Duhamel fixed point
# ---------------------------------------------------------------------------


class _PicardWorkspace:
    """Nodes, fused quadrature kernel and semigroup decay reused across steps.

    Targets s_i are the q Gauss nodes of [0, dt] and dt.  ``kernel[i, j, k]``
    maps mode k of the nonlinearity at node j to the Duhamel integral at
    s_i (inner Gauss rule on [0, s_i] of the Lagrange interpolant, times
    the decay over s_i - tau); ``prop0[i]`` is the masked decay over s_i.
    """

    def __init__(self, cfg, n):
        q = cfg.quadrature_nodes
        self.nodes, _ = spectral.gauss_legendre(q, 0.0, cfg.dt)
        targets = np.append(self.nodes, cfg.dt)
        k4 = (TWO_PI * spectral.wavenumbers(n)) ** 4
        mask = (spectral.wavenumbers(n) <= mode_cutoff(cfg, 1.0)).astype(float)

        def decay(t):
            return np.exp(-cfg.epsilon * t[..., None] * k4) * mask

        self.kernel = np.empty((targets.size, q, k4.size))
        for i, s in enumerate(targets):
            tau, w = spectral.gauss_legendre(q, 0.0, s)
            interp = spectral.lagrange_matrix(self.nodes, tau)
            self.kernel[i] = np.einsum("t,tk,tj->jk", w, decay(s - tau), interp)
        self.prop0 = decay(targets)


def _picard_step(curve, cfg, ws):
    """Solve the mild form on [0, dt]; returns (state at dt, iterations).

    Each iteration advances all targets at once from one batched
    nonlinearity on the stack of node states.
    """
    m = curve.manifold
    n = curve.n
    q = ws.nodes.size
    trend = curve.trend()
    # initial guess: pure semigroup evolution of the data
    free = ws.prop0[:, :, None] * np.fft.rfft(curve.samples - trend, axis=0)
    devs = np.fft.irfft(free, n=n, axis=-2)

    for iteration in range(1, cfg.picard_max_iter + 1):
        states = trend + devs[:q]
        require_finite(states)
        m.require_in_tube(states)
        proj = m.project(states)
        f_val = _regularized_nonlinearity(
            m, proj, lifted_velocity(proj, m), cfg
        )
        f_hat = np.fft.rfft(f_val, axis=-2)
        coef = free + np.einsum("ijk,jkd->ikd", ws.kernel, f_hat)
        new_devs = np.fft.irfft(coef, n=n, axis=-2)
        update = new_devs - devs
        dupdate = spectral.spectral_derivative(update)
        # H1 norm of each target's update; the largest decides convergence
        h1_sq = _sq(update).mean(axis=(-2, -1)) + _sq(dupdate).mean(axis=(-2, -1))
        delta = float(np.sqrt(h1_sq.max()))
        devs = new_devs
        if delta <= cfg.picard_tol:
            return curve.with_samples(trend + devs[-1]), iteration
    raise NoContraction(
        f"no fixed point after {cfg.picard_max_iter} iterations "
        f"(last update {delta:.3e}); reduce dt for this epsilon"
    )


def picard_solve(curve, cfg):
    """One Duhamel fixed-point step over [0, dt], returned as a Trajectory."""
    if cfg.epsilon <= 0:
        raise ValueError("picard_solve requires epsilon > 0")
    ws = _PicardWorkspace(cfg, curve.n)
    out, iterations = _picard_step(curve, cfg, ws)
    return Trajectory(
        times=[0.0, cfg.dt],
        states=[curve, out],
        config=cfg,
        step_residuals=[out.off_manifold()],
        picard_iterations=[iterations],
    )


# ---------------------------------------------------------------------------
# Marching
# ---------------------------------------------------------------------------

BLOWUP_FACTOR = 10.0


def _extrinsic_h2(curve):
    """H2 norm of the velocity by plain spectral derivatives.

    Valid for states slightly off the target (unlike the covariant norm),
    which is all the blow-up guard needs.
    """
    vx = curve.velocity()
    total = 0.0
    for _ in range(3):
        total += spectral.l2_inner(vx, vx)
        vx = spectral.spectral_derivative(vx)
    return float(np.sqrt(total))


def evolve(u0, cfg, stride=1):
    """March the flow to T, snapshotting every ``stride`` steps.

    Guard trips (tube exit, failed contraction, runaway H2 growth) abort
    the march and are reported through ``Trajectory.failure`` while the
    partial trajectory is preserved.
    """
    if u0.n != cfg.N_g:
        raise ValueError(f"curve grid {u0.n} does not match config N_g={cfg.N_g}")
    n_steps = cfg.n_steps()
    if stride < 1 or (n_steps and n_steps % stride):
        raise ValueError("stride must divide the step count")

    traj = Trajectory(times=[0.0], states=[u0], config=cfg)
    if n_steps == 0:
        return traj

    if cfg.integrator == "DuhamelPicard":
        ws = _PicardWorkspace(cfg, u0.n)

        def advance(c):
            return _picard_step(c, cfg, ws)
    else:
        speed = float(np.max(np.abs(u0.velocity())))
        st = _Stepper(cfg, u0.manifold, u0.n, speed)
        step_fn = _rk4_step if cfg.integrator == "ProjectedRK4" else _imex_step

        def advance(c):
            out, residual = step_fn(c, cfg, st)
            return out, residual

    state = u0
    guard_norm = _extrinsic_h2(u0)
    try:
        for k in range(1, n_steps + 1):
            state, diag = advance(state)
            if not np.all(np.isfinite(state.samples)):
                raise StepSizeUnstable("non-finite state")
            if cfg.integrator == "DuhamelPicard":
                traj.picard_iterations.append(diag)
                traj.step_residuals.append(state.off_manifold())
            else:
                traj.step_residuals.append(diag)
            if k % stride == 0:
                norm = _extrinsic_h2(state)
                if norm > BLOWUP_FACTOR * max(guard_norm, 1e-30):
                    raise StepSizeUnstable(
                        f"H2 norm grew {norm / guard_norm:.1f}x within one stride"
                    )
                guard_norm = norm
                traj.times.append(k * cfg.dt)
                traj.states.append(state)
    except (OutOfTubularNeighborhood, NoContraction, StepSizeUnstable,
            TangencyViolation) as exc:
        traj.failure = f"{type(exc).__name__}: {exc}"
    return traj


def epsilon_continuation(u0, cfg, eps_list):
    """Run the flow for each eps plus eps = 0 and tabulate H1 distances.

    Rows are ordered by eps (largest first).  Per-run failures are
    recorded in their row; the table is returned regardless.  All runs use
    the projected RK4 stepper so that the eps = 0 baseline is admissible.
    """
    eps_list = list(eps_list)
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps levels must be positive")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps levels must be strictly decreasing")

    def run(eps):
        cfg_eps = replace(cfg, epsilon=eps, integrator="ProjectedRK4")
        return evolve(u0, cfg_eps, stride=cfg.n_steps())

    base = run(0.0)
    rows = []
    prev_final = None
    for eps in eps_list:
        traj = run(eps)
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
