from dataclasses import replace

import numpy as np
import pytest

import dcl
from dcl import spectral
from dcl.curves import (
    ClosedCurve,
    covariant_tower,
    h1_distance,
    lift_trend,
    lifted_velocity,
    sup_distance,
    tangency_residual,
)
from dcl.errors import NoContraction
from dcl import flow
from dcl.flow import (
    FlowConfig,
    _duhamel_quadrature,
    _extrinsic_h2,
    _gain,
    _imex_step,
    _lift,
    _picard_step,
    _PicardWorkspace,
    _rk4_step,
    _Stepper,
    INTEGRATORS,
    dispersive_rhs,
    epsilon_continuation,
    evolve,
    mode_cutoff,
    regularized_rhs,
)
from dcl.invariants import (
    oracle_latitude_circle,
    oracle_torus_line,
    smoothing_constant_exact,
)
from dcl.manifolds import CHART_FLAT_TORUS2, CLIFFORD_TORUS2, SPHERE2
from dcl.presets import great_circle, random_smooth, torus_geodesic

TWO_PI = 2.0 * np.pi


def constant_curve(n=32):
    return ClosedCurve(np.tile([0.0, 0.0, 1.0], (n, 1)), SPHERE2)


def picard_band(cfg):
    """The band a DuhamelPicard run on the sphere decides at set-up."""
    return _PicardWorkspace(cfg, SPHERE2, cfg.N_g).stepper.keep


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(integrator="LeapFrog")
    with pytest.raises(ValueError):
        FlowConfig(integrator="DuhamelPicard", epsilon=0.0)
    with pytest.raises(ValueError):
        FlowConfig(dt=1e-2, T=1e-3)
    FlowConfig(dt=1e-3, T=0.0)  # zero-horizon runs are allowed


@pytest.mark.parametrize("name", ["a", "b", "epsilon", "dt", "T"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        FlowConfig(**{name: value})


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("quadrature_nodes", 0, "quadrature_nodes must be at least 1"),
        ("quadrature_nodes", 2.5, "quadrature_nodes must be an integer"),
        ("picard_max_iter", 0, "picard_max_iter must be at least 1"),
        ("picard_max_iter", True, "picard_max_iter must be an integer"),
        ("mode_cutoff", -1, "mode_cutoff must be at least 0"),
        ("mode_cutoff", 16.0, "mode_cutoff must be an integer"),
        ("picard_tol", 0.0, "picard_tol must be positive"),
        ("picard_tol", np.nan, "picard_tol must be positive"),
    ],
)
def test_config_rejects_bad_counts_and_tolerance(field, value, message):
    with pytest.raises(ValueError, match=message):
        FlowConfig(**{field: value})


def test_config_accepts_numpy_integers():
    cfg = FlowConfig(quadrature_nodes=np.int64(4), mode_cutoff=np.int32(8))
    assert cfg.quadrature_nodes == 4 and cfg.mode_cutoff == 8


# ---------------------------------------------------------------------------
# dispersive right-hand side
# ---------------------------------------------------------------------------


def test_rhs_great_circle_schrodinger_vanishes():
    rhs = dispersive_rhs(great_circle(64), 0.0, 0.0)
    assert np.max(np.abs(rhs)) <= 1e-9


def test_rhs_great_circle_full_coefficients():
    # geodesic: only the cubic term survives and equals b (2*pi)^2 u_x
    c = great_circle(64)
    for b in (0.0, 0.5, -2.0):
        rhs = dispersive_rhs(c, 1.0, b)
        expected = b * TWO_PI**2 * c.velocity()
        assert np.max(np.abs(rhs - expected)) <= 1e-8


def test_rhs_chart_line():
    c = torus_geodesic(CHART_FLAT_TORUS2, 1, 0, n=32)
    rhs = dispersive_rhs(c, 3.7, 0.7)
    assert np.max(np.abs(rhs - np.array([0.7, 0.0]))) <= 1e-12


def test_rhs_matches_covariant_assembly():
    # dual route: a*cov^2 u_x + J cov u_x + b|u_x|^2 u_x via the intrinsic
    # tower against the extrinsic transcription
    a, b = 0.8, 0.3
    for m, seed in ((SPHERE2, 0), (CLIFFORD_TORUS2, 1)):
        c = random_smooth(m, 64, seed=seed, decay=1.0, amplitude=0.3)
        tower = covariant_tower(c, 2)
        vx = tower[0].vectors
        oracle = (
            a * tower[2].vectors
            + m.complex_structure(c.samples, tower[1].vectors)
            + b * (vx * vx).sum(-1, keepdims=True) * vx
        )
        got = dispersive_rhs(c, a, b)
        scale = max(1.0, np.max(np.abs(got)))
        assert np.max(np.abs(got - oracle)) <= 1e-9 * scale


def test_rhs_tangency():
    c = random_smooth(SPHERE2, 128, seed=2, decay=0.8, amplitude=0.3)
    rhs = dispersive_rhs(c, 1.0, 0.5)
    scale = max(1.0, float(np.max(np.abs(rhs))))
    assert tangency_residual(c, rhs) <= 1e-8 * scale


# ---------------------------------------------------------------------------
# regularized right-hand side
# ---------------------------------------------------------------------------


def test_regularized_constant_curve():
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=0.3, N_g=32, dt=1e-4, T=1e-4)
    rhs = regularized_rhs(constant_curve(), cfg)
    assert np.max(np.abs(rhs)) <= 1e-14


def test_regularized_reduces_to_dispersive_at_zero_eps():
    c = random_smooth(SPHERE2, 64, seed=3, decay=1.0, amplitude=0.3)
    cfg = FlowConfig(a=0.7, b=0.2, epsilon=0.0, N_g=64, dt=1e-4, T=1e-4)
    got = regularized_rhs(c, cfg)
    want = dispersive_rhs(c, 0.7, 0.2)
    assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


def test_regularized_great_circle_term_structure():
    # on a geodesic the covariant tower vanishes: the epsilon part of the
    # nonlinearity must cancel -eps*v_xxxx exactly, leaving b*(2pi)^2*u_x
    c = great_circle(64)
    eps, b = 0.1, 0.0
    cfg = FlowConfig(a=0.0, b=b, epsilon=eps, N_g=64, dt=1e-6, T=1e-6,
                     integrator="DuhamelPicard")
    rhs = regularized_rhs(c, cfg)
    assert np.max(np.abs(rhs)) <= 1e-7
    # the raw dissipation alone is huge, so the cancellation is nontrivial
    v4 = spectral.spectral_derivative(c.velocity(), 3)
    assert np.max(np.abs(eps * v4)) >= 1e2


def test_regularized_off_manifold_input():
    c = great_circle(64)
    inflated = c.with_samples(c.samples * 1.001)
    cfg = FlowConfig(a=0.0, b=0.0, epsilon=1e-2, N_g=64, dt=1e-4, T=1e-4,
                     integrator="DuhamelPicard")
    rhs = regularized_rhs(inflated, cfg)
    assert np.all(np.isfinite(rhs))


@pytest.mark.parametrize(
    "manifold", [SPHERE2, CLIFFORD_TORUS2, CHART_FLAT_TORUS2],
    ids=lambda m: m.name,
)
def test_batched_nonlinearity_matches_single_curves(manifold):
    # the Picard nonlinearity is the stage slope with a*d_x^3 kept in it;
    # on an (8, 64, d) stack of slightly inflated states it equals 8
    # single-curve slopes, and with the full band (mask all ones) adding
    # -eps*v_xxxx of the raw state gives the checked regularized_rhs
    cfg = FlowConfig(a=0.7, b=0.3, epsilon=1e-2, N_g=64, dt=1e-4, T=1e-4,
                     integrator="DuhamelPicard", mode_cutoff=32)
    st = _PicardWorkspace(cfg, manifold, 64).stepper
    assert np.all(st.mask == 1.0)
    inflate = 1.0 if manifold is CHART_FLAT_TORUS2 else 1.0005
    curves = [
        random_smooth(manifold, 64, seed=s, decay=1.5, amplitude=0.3)
        for s in range(8)
    ]
    curves = [c.with_samples(c.samples * inflate) for c in curves]
    stack = np.stack([c.samples.T for c in curves])
    slopes = st.slope(stack, *lift_trend(stack, manifold)).swapaxes(-1, -2)
    assert slopes.shape == (8, 33, manifold.ambient_dim)
    for c, got in zip(curves, slopes):
        single = st.slope(c.samples.T, *lift_trend(c.samples.T, manifold)).T
        assert np.array_equal(got, single)
    raw4 = spectral.spectral_derivative(
        lifted_velocity(stack, manifold).swapaxes(-1, -2), 3)
    batched = np.fft.irfft(slopes, n=64, axis=-2) - cfg.epsilon * raw4
    for c, got in zip(curves, batched):
        want = regularized_rhs(c, cfg)
        assert np.max(np.abs(got - want)) <= 2e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# semigroup
# ---------------------------------------------------------------------------


def test_semigroup_smoothing_bound():
    # sup over modes of |2 pi n|^3 exp(-eps t (2 pi n)^4) <= C (eps t)^(-3/4)
    c_star = smoothing_constant_exact()
    modes = np.arange(1, 2049)
    for eps in (1e-3, 1e-2, 1e-1):
        for t in (1e-3, 1e-2, 1e-1):
            vals = (TWO_PI * modes) ** 3 * np.exp(-eps * t * (TWO_PI * modes) ** 4)
            assert np.max(vals) <= c_star * (eps * t) ** (-0.75) * (1 + 1e-12)


def test_semigroup_matches_spectral_module():
    assert dcl.semigroup_apply is spectral.semigroup_apply


# ---------------------------------------------------------------------------
# picard
# ---------------------------------------------------------------------------


def test_picard_constant_curve_one_iteration():
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=1e-2, N_g=32, dt=1e-3, T=1e-3,
                     integrator="DuhamelPicard")
    traj = evolve(constant_curve(), cfg)
    assert traj.picard_iterations == [1]
    assert sup_distance(traj.final, constant_curve()) <= 1e-14


def test_picard_agrees_with_rk4():
    gc = great_circle(32)
    base = dict(a=0.0, b=0.0, epsilon=1e-2, N_g=32, dt=1e-4, T=1e-4)
    tp = evolve(gc, FlowConfig(integrator="DuhamelPicard", **base))
    tr = evolve(gc, FlowConfig(integrator="ProjectedRK4", **base), stride=1)
    assert h1_distance(tp.final, tr.final) <= 1e-10


def test_picard_tolerance_cauchy_property():
    c = random_smooth(SPHERE2, 32, seed=6, decay=1.5, amplitude=0.3)
    base = dict(a=0.0, b=0.3, epsilon=1e-2, N_g=32, dt=1e-4, T=1e-4)
    coarse = evolve(
        c, FlowConfig(integrator="DuhamelPicard", picard_tol=1e-6, **base)
    )
    fine = evolve(
        c, FlowConfig(integrator="DuhamelPicard", picard_tol=5e-7, **base)
    )
    assert h1_distance(coarse.final, fine.final) <= 1e-6


def test_picard_no_contraction():
    # the dispersive term is explicit in the Duhamel integrand; past its
    # per-mode gain edge the iteration stalls and the step reports failure
    # (this mirrors the smallness condition on the regularized existence
    # time: the remedy is a smaller dt or a smaller retained band).  A
    # 1e-8 wiggle at mode 10, beyond the edge but inside the band, seeds
    # the growth: the smallest update of the first step is about 5e-7,
    # over three decades above picard_tol, so the step it fails at does
    # not depend on roundoff
    x = spectral.grid(64)
    bump = 1.0 + 1e-4 * np.cos(TWO_PI * x)
    samples = great_circle(64).samples * bump[:, None]
    samples[:, 2] += 1e-8 * np.cos(TWO_PI * 10 * x)
    c = ClosedCurve(samples, SPHERE2)
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=1e-2, N_g=64, dt=2e-4, T=5e-3,
                     integrator="DuhamelPicard", picard_tol=1e-10,
                     picard_max_iter=25, mode_cutoff=16)
    traj = evolve(c, cfg, stride=1)
    assert traj.failure is not None and "NoContraction" in traj.failure
    # it fails in the first step
    assert traj.picard_iterations == [] and len(traj.states) == 1


def test_picard_band_from_contraction_factor():
    # the input of test_picard_no_contraction with the automatic band: the
    # edge 0.5|a|/(2 pi eps) kept 7 modes, whose gain per iteration is 0.96
    # at dt = 2e-4, and the steps took 5, 5, 5, 17 and 29 iterations before
    # step 6 failed with NoContraction.  The band now ends below the first
    # mode whose gain exceeds 1/2
    x = spectral.grid(64)
    bump = 1.0 + 1e-4 * np.cos(TWO_PI * x)
    samples = great_circle(64).samples * bump[:, None]
    samples[:, 2] += 1e-8 * np.cos(TWO_PI * 10 * x)
    c = ClosedCurve(samples, SPHERE2)
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=1e-2, N_g=64, dt=2e-4, T=4e-3,
                     integrator="DuhamelPicard", picard_tol=1e-10)
    k = np.arange(17)
    gain = _gain(cfg, _duhamel_quadrature(cfg, k)[1], k)
    assert gain[0] == 0.0 and gain[5] <= 0.5 < gain[6] and gain[7] > 0.9
    assert picard_band(cfg) == 5
    assert picard_band(replace(cfg, dt=1e-4)) == 6
    # a pinned band wins; without the third-derivative term the gain is 0
    assert picard_band(replace(cfg, mode_cutoff=16)) == 16
    assert picard_band(replace(cfg, a=0.0)) == 16
    traj = evolve(c, cfg, stride=1)
    assert traj.failure is None
    assert len(traj.picard_iterations) == 20
    assert max(traj.picard_iterations) <= 11


def test_picard_band_without_a_contracting_mode_fails_early():
    # rho_1 = 0.635 > 1/2: no band of modes k >= 1 contracts.  The band
    # used to collapse to the mean, the initial guess onto it, and the
    # step left the tube (distance 1); now the set-up names the cause
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=1e-2, N_g=32, dt=3e-2, T=3e-2,
                     integrator="DuhamelPicard")
    k = np.arange(2)
    assert _gain(cfg, _duhamel_quadrature(cfg, k)[1], k)[1] > 0.5
    with pytest.raises(NoContraction, match="reduce dt"):
        picard_band(cfg)
    traj = evolve(great_circle(32), cfg)
    assert traj.failure.startswith("NoContraction")
    assert "rho_1 = 0.635" in traj.failure and "PICARD_GAIN" in traj.failure
    assert len(traj.states) == 1 and traj.picard_iterations == []


def test_fused_quadrature_matches_per_target_loop():
    # reference: interpolate the node values to each target's inner Gauss
    # nodes, apply the semigroup decay, sum with the inner weights
    cfg = FlowConfig(a=0.3, b=0.2, epsilon=1e-2, N_g=64, dt=1e-4, T=1e-4,
                     integrator="DuhamelPicard")
    ws = _PicardWorkspace(cfg, SPHERE2, 64)
    q = cfg.quadrature_nodes
    k4 = (TWO_PI * spectral.wavenumbers(64)) ** 4
    mask = spectral.wavenumbers(64) <= ws.stepper.keep
    rng = np.random.default_rng(7)
    f_hat = rng.standard_normal((q, 33, 3)) + 1j * rng.standard_normal((q, 33, 3))
    fused = np.einsum("ijk,jkd->ikd", ws.kernel, f_hat)
    for i, s in enumerate(np.append(ws.nodes, cfg.dt)):
        tau, w = spectral.gauss_legendre(q, 0.0, s)
        f_interp = np.einsum(
            "tj,jkd->tkd", spectral.lagrange_matrix(ws.nodes, tau), f_hat
        )
        mults = np.exp(-cfg.epsilon * (s - tau)[:, None] * k4) * mask
        want = np.einsum("t,tkd->kd", w, mults[:, :, None] * f_interp)
        assert np.max(np.abs(fused[i] - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.array_equal(ws.prop0[i], np.exp(-cfg.epsilon * s * k4) * mask)


def test_picard_workspace_builds_quadrature_once(monkeypatch):
    # the automatic band at a != 0 reads its gains off the workspace's own
    # kernel instead of building the quadrature a second time
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _duhamel_quadrature(*args, **kwargs)

    monkeypatch.setattr(flow, "_duhamel_quadrature", counted)
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=1e-2, N_g=64, dt=2e-4, T=2e-4,
                     integrator="DuhamelPicard")
    ws = _PicardWorkspace(cfg, SPHERE2, 64)
    assert len(calls) == 1
    monkeypatch.undo()
    keep = ws.stepper.keep
    assert keep == 5 and ws.stepper.mask.sum() == keep + 1
    k = spectral.wavenumbers(64)
    mask = (k <= keep).astype(float)
    nodes, kernel, decay = _duhamel_quadrature(cfg, k)
    want = nodes, kernel * mask, decay * mask
    for got, ref in zip((ws.nodes, ws.kernel, ws.prop0), want):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize(
    "n,q,dt", [(64, 8, 2e-4), (64, 8, 1e-4), (256, 8, 1e-4), (32, 5, 1e-3)]
)
def test_picard_gain_read_off_full_kernel_bitwise(n, q, dt):
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=1e-2, N_g=n, dt=dt, T=dt,
                     integrator="DuhamelPicard", quadrature_nodes=q)
    keep = spectral.dealias_keep(n)
    k = np.arange(keep + 1)
    _, kernel, _ = _duhamel_quadrature(cfg, spectral.wavenumbers(n))
    got = _gain(cfg, kernel[..., : keep + 1], k)
    want = _gain(cfg, _duhamel_quadrature(cfg, k)[1], k)
    assert got.tobytes() == want.tobytes()


def test_picard_contraction_on_float_view_bitwise():
    # a real kernel contracted with the float view of complex node values
    # gives the complex contraction bit for bit
    rng = np.random.default_rng(9)
    kernel = rng.standard_normal((9, 8, 33))
    f_hat = rng.standard_normal((8, 33, 3)) + 1j * rng.standard_normal((8, 33, 3))
    f_hat *= 10.0 ** rng.integers(-8, 8, f_hat.shape)
    want = np.einsum("ijk,jkd->ikd", kernel, f_hat)
    got = np.einsum("ijk,jkd->ikd", kernel, f_hat.view(float)).view(complex)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_picard_row_contraction_on_float_view_bitwise():
    # in the row layout the float view interleaves real and imaginary
    # parts along the modes, so the kernel is repeated once per pair
    rng = np.random.default_rng(10)
    kernel = rng.standard_normal((9, 8, 33))
    f_hat = rng.standard_normal((8, 3, 33)) + 1j * rng.standard_normal((8, 3, 33))
    f_hat *= 10.0 ** rng.integers(-8, 8, f_hat.shape)
    want = np.einsum("ijk,jdk->idk", kernel, f_hat)
    pairs = np.repeat(kernel, 2, axis=-1)
    got = np.einsum("ijk,jdk->idk", pairs, f_hat.view(float)).view(complex)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # and it is the column-layout contraction of the same values
    cols = np.einsum("ijk,jkd->ikd", kernel, np.swapaxes(f_hat, -1, -2).copy())
    assert np.swapaxes(got, -1, -2).tobytes() == np.ascontiguousarray(cols).tobytes()


def test_picard_iterations_on_maximum_principle_input():
    c = great_circle(64)
    bump = 1.0 + 1e-4 * np.cos(TWO_PI * spectral.grid(64))
    c = c.with_samples(c.samples * bump[:, None])
    cfg = FlowConfig(a=0.0, b=0.0, epsilon=1e-2, N_g=64, dt=1e-4, T=6e-4,
                     integrator="DuhamelPicard")
    traj = evolve(c, cfg, stride=1)
    assert traj.failure is None
    assert traj.picard_iterations == [3, 4, 4, 4, 4, 4]


def test_picard_tube_guard():
    c = great_circle(32)
    far = c.with_samples(c.samples * 1.6)  # distance 0.6 > tubular radius 0.5
    cfg = FlowConfig(a=0.0, b=0.0, epsilon=1e-2, N_g=32, dt=1e-4, T=1e-4,
                     integrator="DuhamelPicard")
    traj = evolve(far, cfg)
    assert traj.failure.startswith("OutOfTubularNeighborhood")


# ---------------------------------------------------------------------------
# projected RK4 stepper
# ---------------------------------------------------------------------------


def test_stage_forms_third_order_rows_only_when_used():
    # v_xxx and D t2 feed only a*S2 (Picard) and the eps term, so an RK4 or
    # IMEX stage whose members all have eps = 0 transforms 2 derivative
    # rows instead of 3
    base = dict(a=1.0, b=0.5, N_g=64, dt=1e-5, T=1e-5)

    def rows(cfg, eps=None):
        keep = mode_cutoff(cfg, SPHERE2, 1.0)
        return _Stepper(cfg, SPHERE2, 64, keep,
                        eps or [cfg.epsilon]).d_pows.shape[0]

    assert rows(FlowConfig(**base)) == 2
    assert rows(FlowConfig(integrator="IMEX", **base)) == 2
    assert rows(FlowConfig(**base), eps=[0.0, 0.0]) == 2
    assert rows(FlowConfig(epsilon=1e-4, **base)) == 3
    assert rows(FlowConfig(**base), eps=[0.0, 1e-4]) == 3
    assert rows(FlowConfig(epsilon=1e-2, integrator="DuhamelPicard",
                           **base)) == 3


def test_rk4_constant_curve_fixed():
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=0.0, N_g=32, dt=1e-3, T=1e-3)
    out = evolve(constant_curve(), cfg).final
    assert sup_distance(out, constant_curve()) <= 1e-14


def test_rk4_chart_line_exact_step():
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=0.0, N_g=32, dt=1e-4, T=1e-4)
    c = torus_geodesic(CHART_FLAT_TORUS2, 1, 0, n=32)
    out = evolve(c, cfg).final
    expected = c.samples + np.array([0.5 * 1e-4, 0.0])
    assert np.max(np.abs(out.samples - expected)) <= 1e-12


def test_rk4_single_step_fifth_order_local_error():
    theta = np.pi / 3
    errs = []
    for dt in (4e-4, 2e-4):
        u0 = oracle_latitude_circle(theta, 0.0, 0.0, 0.0, 32)
        cfg = FlowConfig(a=0.0, b=0.0, epsilon=0.0, N_g=32, dt=dt, T=dt)
        out = evolve(u0, cfg).final
        errs.append(sup_distance(out, oracle_latitude_circle(theta, dt, 0.0, 0.0, 32)))
    # local error O(dt^5): halving dt shrinks it by about 32
    assert errs[0] / errs[1] >= 20


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


def test_evolve_zero_horizon():
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=0.0, N_g=32, dt=1e-3, T=0.0)
    traj = evolve(great_circle(32), cfg)
    assert traj.times == [0.0]
    assert traj.failure is None


def test_evolve_conserves_speed_on_great_circle():
    c = great_circle(64)
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=0.0, N_g=64, dt=1e-4, T=1e-2)
    traj = evolve(c, cfg, stride=10)
    assert traj.failure is None
    l2 = [spectral.l2_inner(s.velocity(), s.velocity()) for s in traj.states]
    drift = max(abs(v - l2[0]) / l2[0] for v in l2)
    assert drift <= 1e-9


def test_evolve_stride_must_divide():
    cfg = FlowConfig(a=0.0, b=0.0, epsilon=0.0, N_g=32, dt=1e-3, T=1e-2)
    with pytest.raises(ValueError):
        evolve(great_circle(32), cfg, stride=3)


@pytest.mark.parametrize(
    "integrator,want", [("ProjectedRK4", 17), ("IMEX", 5)]
)
def test_evolve_transforms_each_state_once(monkeypatch, integrator, want):
    # each accepted state is transformed once: the H2 guard at stride 1
    # and the next step share that rfft, so a step costs what it costs
    # standalone (17 for an eps = 0 RK4 step, 5 for IMEX), not one more
    calls = []
    for name in ("rfft", "irfft"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(_original.__name__)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    u0 = random_smooth(SPHERE2, 64, seed=5, decay=1.0, amplitude=0.2)
    counts = []
    for steps in (1, 3):
        cfg = FlowConfig(a=1.0, b=0.5, N_g=64, dt=1e-5, T=steps * 1e-5,
                         integrator=integrator)
        before = len(calls)
        assert evolve(u0, cfg, stride=1).failure is None
        counts.append(len(calls) - before)
    assert (counts[1] - counts[0]) / 2 == want


@pytest.mark.parametrize("integrator", INTEGRATORS)
@pytest.mark.parametrize(
    "manifold", [SPHERE2, CLIFFORD_TORUS2, CHART_FLAT_TORUS2],
    ids=lambda m: m.name,
)
def test_evolve_states_bitwise_equal_standalone_steps(manifold, integrator):
    # the march hands each step the transform it made of the state; the
    # states are those of steps that transform it themselves
    u0 = random_smooth(manifold, 64, seed=2, decay=1.2, amplitude=0.1)
    cfg = FlowConfig(a=0.5, b=0.5, epsilon=1e-2 if integrator ==
                     "DuhamelPicard" else 1e-4, N_g=64, dt=1e-5, T=4e-5,
                     integrator=integrator)
    traj = evolve(u0, cfg, stride=1)
    assert traj.failure is None
    samples = u0.samples
    if integrator == "DuhamelPicard":
        ws = _PicardWorkspace(cfg, manifold, 64)
    else:
        keep = mode_cutoff(cfg, manifold, float(np.max(np.abs(u0.velocity()))))
        st = _Stepper(cfg, manifold, 64, keep, [cfg.epsilon])
    for state in traj.states[1:]:
        lifted = _lift(samples.T, manifold)
        if integrator == "DuhamelPicard":
            samples = _picard_step(cfg, ws, lifted)[0].T
        else:
            step = _rk4_step if integrator == "ProjectedRK4" else _imex_step
            samples = step(samples.T, cfg, st, lifted)[0].T
        assert samples.tobytes() == state.samples.tobytes()


def test_evolve_grid_mismatch():
    cfg = FlowConfig(a=0.0, b=0.0, epsilon=0.0, N_g=64, dt=1e-3, T=1e-2)
    with pytest.raises(ValueError):
        evolve(great_circle(32), cfg)


def test_evolve_blowup_guard_trips():
    # undamped explicit stepping far beyond the stability edge
    c = random_smooth(SPHERE2, 64, seed=8, decay=0.3, amplitude=0.5)
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=0.0, N_g=64, dt=5e-4, T=5e-2,
                     integrator="ProjectedRK4", dealias=False,
                     mode_cutoff=32)
    traj = evolve(c, cfg, stride=10)
    assert traj.failure is not None
    assert len(traj.states) >= 1


def test_automatic_band_holds_on_clifford_torus():
    # the Clifford circles have curvature 2 pi; a band that ignores it keeps
    # all 32 dealiased modes here and the run leaves the tube within 30 steps
    u0 = random_smooth(CLIFFORD_TORUS2, 128, seed=5, decay=1.0, amplitude=0.2)
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=0.0, N_g=128, dt=1e-5, T=3e-4)
    traj = evolve(u0, cfg, stride=cfg.n_steps())
    assert traj.failure is None
    speed = float(np.max(np.abs(u0.velocity())))
    assert mode_cutoff(cfg, CLIFFORD_TORUS2, speed) < mode_cutoff(cfg, SPHERE2, speed)
    assert mode_cutoff(cfg, CHART_FLAT_TORUS2, speed) == mode_cutoff(cfg, SPHERE2, speed)


@pytest.mark.parametrize("integrator", ["ProjectedRK4", "DuhamelPicard"])
def test_evolve_non_finite_state_is_step_size_unstable(integrator):
    # the chart torus has no tube to leave, so a blow-up overflows to
    # non-finite samples before the strided H2 guard runs
    c = random_smooth(CHART_FLAT_TORUS2, 64, seed=3, decay=1.1, amplitude=0.18)
    if integrator == "ProjectedRK4":
        cfg = FlowConfig(a=1.0, b=5.0, epsilon=0.0, N_g=64, dt=1e-3, T=0.2,
                         mode_cutoff=16)
    else:
        c = random_smooth(CHART_FLAT_TORUS2, 32, seed=3, decay=1.1,
                          amplitude=0.18)
        cfg = FlowConfig(a=0.0, b=50.0, epsilon=1e-4, N_g=32, dt=1e-3,
                         T=4e-3, integrator=integrator, mode_cutoff=8)
    with np.errstate(all="ignore"):
        traj = evolve(c, cfg, stride=cfg.n_steps())
    assert traj.failure == "StepSizeUnstable: non-finite state"
    assert traj.times == [0.0]


def parent_extrinsic_h2(curve):
    # ||v_x||^2 + ||D v_x||^2 + ||D^2 v_x||^2 by repeated derivatives
    vx = curve.velocity()
    total = 0.0
    for _ in range(3):
        total += spectral.l2_inner(vx, vx)
        vx = spectral.spectral_derivative(vx)
    return float(np.sqrt(total))


@pytest.mark.parametrize(
    "manifold", [SPHERE2, CLIFFORD_TORUS2, CHART_FLAT_TORUS2],
    ids=lambda m: m.name,
)
def test_extrinsic_h2_matches_derivative_chain(manifold):
    for n, seed in ((16, 0), (64, 1), (256, 2)):
        c = random_smooth(manifold, n, seed=seed, decay=0.5, amplitude=0.3)
        if manifold is CHART_FLAT_TORUS2:
            assert c.winding().any()
        want = parent_extrinsic_h2(c)
        lifted = _lift(c.samples.T, c.manifold)
        assert abs(_extrinsic_h2(c.samples.T, lifted) - want) <= 1e-13 * want
        # the cached Parseval weights and a shared transform change no bit
        k2 = (TWO_PI * spectral.wavenumbers(n)) ** 2
        k2[-1] = 0.0
        trend, winding = lift_trend(c.samples.T, manifold)
        trend, winding = trend.T, winding[:, 0]
        coef = np.fft.rfft(c.samples - trend, axis=-2)
        power = ((coef.real**2 + coef.imag**2).sum(axis=-1)
                 * (k2 + k2**2 + k2**3))
        inline = np.sqrt((winding * winding).sum(axis=-1)
                         + 2.0 * power.sum(axis=-1) / n**2)
        got = _extrinsic_h2(c.samples.T, _lift(c.samples.T, manifold))
        assert got == inline
        assert got == _extrinsic_h2(c.samples.T, _lift(c.samples.T, manifold))


@pytest.mark.parametrize(
    "eps,stride,snapshots,failure",
    [
        (0.0, 1, 2, "H2 norm grew 1659.2x within one stride"),
        (1e-4, 1, 5, "H2 norm grew 35663109491.5x within one stride"),
        (0.0, 2, 1, "H2 norm grew 4657.0x within one stride"),
    ],
)
def test_h2_guard_trips_where_it_did(eps, stride, snapshots, failure):
    # a winding chart curve far past the stability edge: the guard reads
    # the transform the march shares with the next step, and trips at the
    # step and with the growth factor of a guard that made its own
    u0 = random_smooth(CHART_FLAT_TORUS2, 64, seed=3, decay=1.1, amplitude=0.18)
    cfg = FlowConfig(a=1.0, b=5.0, epsilon=eps, N_g=64, dt=1e-3, T=8e-3,
                     mode_cutoff=16)
    with np.errstate(all="ignore"):
        traj = evolve(u0, cfg, stride=stride)
    assert traj.failure == f"StepSizeUnstable: {failure}"
    assert len(traj.states) == snapshots


def test_evolve_time_reversal():
    # reversal on the sphere: x -> -x composed with the antipodal map flips
    # the Schroedinger term; evolving the transformed state with the same
    # coefficients and transforming back returns the initial curve
    u0 = random_smooth(SPHERE2, 64, seed=3, decay=1.0, amplitude=0.3)
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=0.0, N_g=64, dt=1e-5, T=2e-3)

    def conjugate(curve):
        s = np.roll(curve.samples[::-1], 1, axis=0)
        return curve.with_samples(-s)

    fwd = evolve(u0, cfg, stride=cfg.n_steps())
    back = evolve(conjugate(fwd.final), cfg, stride=cfg.n_steps())
    err = h1_distance(conjugate(back.final), u0)

    pinned = replace(cfg, mode_cutoff=15)
    f1 = evolve(u0, pinned, stride=pinned.n_steps())
    f2 = evolve(u0, replace(pinned, dt=cfg.dt / 2),
                stride=2 * pinned.n_steps())
    truncation = h1_distance(f1.final, f2.final) * 16 / 15
    assert err <= 10 * max(truncation, 1e-12)


def test_integrator_consistency_fourth_order():
    # DuhamelPicard and ProjectedRK4 approximate the same masked dynamics;
    # their mutual distance decays at the RK4 rate
    u0 = random_smooth(SPHERE2, 64, seed=4, decay=1.6, amplitude=0.4)
    dists = []
    for dt in (2e-4, 1e-4, 5e-5, 2.5e-5):
        base = dict(a=0.2, b=0.1, epsilon=5e-3, N_g=64, dt=dt, T=1.6e-3,
                    mode_cutoff=12, picard_tol=1e-10)
        tp = evolve(u0, FlowConfig(integrator="DuhamelPicard", **base),
                    stride=FlowConfig(**base).n_steps())
        tr = evolve(u0, FlowConfig(integrator="ProjectedRK4", **base),
                    stride=FlowConfig(**base).n_steps())
        assert tp.failure is None and tr.failure is None
        dists.append(h1_distance(tp.final, tr.final))
    slopes = [np.log2(dists[i] / dists[i + 1]) for i in range(3)]
    assert min(slopes) >= 3.5


def test_imex_converges():
    u0 = great_circle(32)
    errs = []
    ref_cfg = FlowConfig(a=0.0, b=0.5, epsilon=0.0, N_g=32, dt=1e-5, T=4e-3)
    ref = evolve(u0, ref_cfg, stride=ref_cfg.n_steps()).final
    for dt in (2e-4, 1e-4, 5e-5):
        cfg = FlowConfig(a=0.0, b=0.5, epsilon=0.0, N_g=32, dt=dt, T=4e-3,
                         integrator="IMEX")
        traj = evolve(u0, cfg, stride=cfg.n_steps())
        assert traj.failure is None
        errs.append(h1_distance(traj.final, ref))
    assert all(e1 / e2 >= 1.8 for e1, e2 in zip(errs, errs[1:]))


# ---------------------------------------------------------------------------
# epsilon continuation
# ---------------------------------------------------------------------------


def test_epsilon_continuation_constant_curve():
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=0.0, N_g=32, dt=1e-4, T=1e-3)
    rows = epsilon_continuation(constant_curve(), cfg, [1e-3, 5e-4])
    assert all(r["h1_to_zero"] <= 1e-12 for r in rows)


def test_epsilon_continuation_single_entry():
    cfg = FlowConfig(a=0.0, b=0.0, epsilon=0.0, N_g=32, dt=1e-4, T=1e-3)
    rows = epsilon_continuation(great_circle(32), cfg, [1e-3])
    assert len(rows) == 1
    assert np.isnan(rows[0]["h1_to_prev"])
    assert np.isfinite(rows[0]["h1_to_zero"])


def test_epsilon_continuation_monotone():
    u0 = random_smooth(SPHERE2, 64, seed=11, decay=1.0, amplitude=0.2)
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=0.0, N_g=64, dt=2e-5, T=1e-3)
    rows = epsilon_continuation(u0, cfg, [4e-4, 2e-4, 1e-4])
    dists = [r["h1_to_zero"] for r in rows]
    assert all(np.isfinite(dists))
    assert all(b < a for a, b in zip(dists, dists[1:]))


def test_epsilon_continuation_zero_horizon():
    u0 = random_smooth(SPHERE2, 64, seed=3, decay=1.0, amplitude=0.18)
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=0.0, N_g=64, dt=1e-5, T=0.0)
    rows = epsilon_continuation(u0, cfg, [1e-3, 5e-4, 2.5e-4])
    assert [r["h1_to_zero"] for r in rows] == [0.0, 0.0, 0.0]
    assert all(r["failure"] is None for r in rows)


def test_epsilon_continuation_validates_levels():
    cfg = FlowConfig(a=0.0, b=0.0, epsilon=0.0, N_g=32, dt=1e-4, T=1e-3)
    with pytest.raises(ValueError):
        epsilon_continuation(great_circle(32), cfg, [1e-4, 2e-4])
    with pytest.raises(ValueError):
        epsilon_continuation(great_circle(32), cfg, [-1e-4])
