from dataclasses import replace

import numpy as np
import pytest
from conftest import constant_curve, stiff_symbol

from dcl import spectral
from dcl.curves import (
    ClosedCurve,
    covariant_tower,
    h1_distance,
    lift_trend,
    lifted_velocity,
    sup_distance,
)
from dcl import flow
from dcl.flow import (
    FlowConfig,
    _duhamel_quadrature,
    _extrinsic_h2,
    _picard_step,
    _rk4_step,
    _Stepper,
    INTEGRATORS,
    MAX_N_G,
    MAX_QUADRATURE_NODES,
    dispersive_rhs,
    epsilon_continuation,
    evolve,
    mode_cutoff,
    regularized_rhs,
    run_band,
)
from dcl.errors import TangencyViolation
from dcl.invariants import (
    oracle_latitude_circle,
    smoothing_constant_exact,
)
from dcl.manifolds import CHART_FLAT_TORUS2, CLIFFORD_TORUS2, SPHERE2
from dcl.presets import great_circle, random_smooth, torus_geodesic

TWO_PI = 2.0 * np.pi


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


def test_config_refuses_the_retired_imex_integrator():
    assert INTEGRATORS == ("DuhamelPicard", "ProjectedRK4")
    assert not hasattr(flow, "_imex_step")
    with pytest.raises(ValueError, match=(
            r"integrator must be one of \('DuhamelPicard', 'ProjectedRK4'\), "
            r"got 'IMEX'")):
        FlowConfig(integrator="IMEX")


@pytest.mark.parametrize("name", ["a", "b", "epsilon", "dt", "T", "picard_tol"])
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
        ("picard_tol", np.nan, "picard_tol must be finite"),
        # inf stopped every Picard step after one iteration
        ("picard_tol", np.inf, "picard_tol must be finite"),
        ("picard_tol", True, "picard_tol must be a number"),
        # each used to ask for far more memory than any machine has
        ("N_g", 2**34, "N_g must be at most 65536"),
        # no closed curve has these grids: a run used to fail on building one
        ("N_g", 8, "N_g must be a power of two >= 16"),
        ("N_g", 24, "N_g must be a power of two >= 16"),
        # below 16 the grid rule is the bound, not a separate "at least 1"
        ("N_g", 0, "N_g must be a power of two >= 16"),
        ("N_g", 1, "N_g must be a power of two >= 16"),
        ("N_g", -64, "N_g must be a power of two >= 16"),
        ("quadrature_nodes", 3000, "quadrature_nodes must be at most 32"),
    ],
)
def test_config_rejects_bad_counts_and_tolerance(field, value, message):
    with pytest.raises(ValueError, match=message):
        FlowConfig(**{field: value})


def test_config_accepts_the_largest_grid_and_rule():
    # the bounds themselves are valid, one past either is not
    cfg = FlowConfig(epsilon=1e-2, integrator="DuhamelPicard",
                     N_g=MAX_N_G, quadrature_nodes=MAX_QUADRATURE_NODES)
    assert (cfg.N_g, cfg.quadrature_nodes) == (2**16, 32)
    for field, value in (("N_g", MAX_N_G + 1),
                         ("quadrature_nodes", MAX_QUADRATURE_NODES + 1)):
        with pytest.raises(ValueError, match=f"{field} must be at most"):
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
        vx = tower[0]
        oracle = (
            a * tower[2]
            + m.complex_structure(c.samples, tower[1])
            + b * (vx * vx).sum(-1, keepdims=True) * vx
        )
        got = dispersive_rhs(c, a, b)
        scale = max(1.0, np.max(np.abs(got)))
        assert np.max(np.abs(got - oracle)) <= 1e-9 * scale


def tangency_residual(curve, vectors):
    """Largest pointwise normal component of an ambient field along a curve."""
    normal = curve.manifold.normal_project(curve.samples, vectors)
    return float(np.max(np.abs(normal)))


def test_rhs_tangency():
    c = random_smooth(SPHERE2, 128, seed=2, decay=0.8, amplitude=0.3)
    rhs = dispersive_rhs(c, 1.0, 0.5)
    scale = max(1.0, float(np.max(np.abs(rhs))))
    assert tangency_residual(c, rhs) <= 1e-8 * scale


@pytest.mark.parametrize("manifold", [SPHERE2, CLIFFORD_TORUS2])
def test_dispersive_rhs_checks_its_curve_once(manifold, on_target_checks,
                                              monkeypatch):
    c = random_smooth(manifold, 64, seed=2, decay=0.8, amplitude=0.3)
    rhs = dispersive_rhs(c, 1.0, 0.5)
    assert on_target_checks == [(manifold.ambient_dim, 64)]
    # the guard reads the residual of the public normal projection; a
    # threshold just below it trips with the message it always had
    res = tangency_residual(c, rhs)
    scale = max(1.0, float(np.max(np.abs(rhs))))
    assert res > 0.0
    monkeypatch.setattr(flow, "RHS_TANGENCY_TOL", 0.99 * res / scale)
    with pytest.raises(TangencyViolation) as trip:
        dispersive_rhs(c, 1.0, 0.5)
    assert str(trip.value) == (
        f"rhs normal component {res:.3e} exceeds "
        f"{0.99 * res / scale:.0e} * {scale:.3e}; raise the resolution"
    )


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
    # the Picard nonlinearity is the stage slope; on an (8, 64, d) stack of
    # slightly inflated states it equals 8 single-curve slopes, and with
    # the full band (mask all ones) adding L v = a*v_xxx - eps*v_xxxx of
    # the raw state gives the checked regularized_rhs
    cfg = FlowConfig(a=0.7, b=0.3, epsilon=1e-2, N_g=64, dt=1e-4, T=1e-4,
                     integrator="DuhamelPicard", mode_cutoff=32)
    st = _Stepper(cfg, manifold, mode_cutoff(cfg, manifold, None),
                  [cfg.epsilon])
    assert np.all(st.mask == 1.0)
    inflate = 1.0 if manifold is CHART_FLAT_TORUS2 else 1.0005
    curves = [
        random_smooth(manifold, 64, seed=s, decay=1.5, amplitude=0.3)
        for s in range(8)
    ]
    curves = [c.with_samples(c.samples * inflate) for c in curves]
    stack = np.stack([c.samples.T for c in curves])
    # the slope takes each curve's periodic part and its winding
    trend, winding = lift_trend(stack, manifold)
    slopes = st.slope(stack - trend, winding).swapaxes(-1, -2)
    assert slopes.shape == (8, 33, manifold.ambient_dim)
    for c, got in zip(curves, slopes):
        trend, winding = lift_trend(c.samples.T, manifold)
        single = st.slope(c.samples.T - trend, winding).T
        assert np.array_equal(got, single)
    raw = lifted_velocity(stack, manifold).swapaxes(-1, -2)
    batched = (np.fft.irfft(slopes, n=64, axis=-2, norm="forward")
               + cfg.a * spectral.spectral_derivative(raw, 2)
               - cfg.epsilon * spectral.spectral_derivative(raw, 3))
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


def _propagate(mult, f):
    """Apply rfft multipliers (one per mode) to a sampled field on axis -1."""
    return np.fft.irfft(mult * np.fft.rfft(f), n=f.shape[-1])


def test_propagator_identity_at_zero_eps():
    # an eps = 0 member of a heat-only stack is not propagated on its band
    cfg = FlowConfig(a=0.0, b=0.0, epsilon=1e-2, N_g=64, dt=1e-3, T=1e-3)
    st = _Stepper(cfg, SPHERE2, spectral.dealias_keep(64), [0.0, 1e-2])
    assert np.array_equal(st.e_full[0], st.mask[None, :])
    assert np.array_equal(st.e_half[0], st.mask[None, :])
    # the eps = 1e-2 member beside it is damped
    assert np.all(np.abs(st.e_full[1]) <= st.mask) and st.e_full[1, 0, 1] < 1


def test_propagator_single_mode_value():
    # exp(t L) with L = a d_x^3 - eps d_x^4 maps sin(2 pi x) to
    # exp(-eps t (2 pi)^4) sin(2 pi x - a t (2 pi)^3), direct evaluation
    a, eps, dt = 0.3, 1e-3, 1e-2
    for integrator in ("DuhamelPicard", "ProjectedRK4"):
        cfg = FlowConfig(a=a, b=0.0, epsilon=eps, N_g=64, dt=dt, T=dt,
                         integrator=integrator)
        st = _Stepper(cfg, SPHERE2, spectral.dealias_keep(64), [eps])
        mult = (st.prop0[-1] if integrator == "DuhamelPicard"
                else st.e_full[0])
        x = spectral.grid(st.n)
        got = _propagate(mult, np.sin(TWO_PI * x))
        want = (np.exp(-eps * dt * TWO_PI**4)
                * np.sin(TWO_PI * x - a * dt * TWO_PI**3))
        assert np.max(np.abs(got - want)) <= 1e-12


def test_propagator_underflow_mode():
    # eps = dt = 1: every factor exp(-(2 pi k)^4), k >= 1, underflows to
    # zero in doubles, without an overflow or invalid value on the way,
    # so only transform roundoff survives of sin(2 pi x)
    k = spectral.wavenumbers(64)
    for a in (0.0, 1.0):
        cfg = FlowConfig(a=a, b=0.0, epsilon=1.0, N_g=64, dt=1.0, T=1.0,
                         integrator="DuhamelPicard")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _, kernel, prop0 = _duhamel_quadrature(cfg, *stiff_symbol(cfg, k))
        assert np.all(np.isfinite(kernel))
        assert np.all(prop0[:, 0] == 1.0) and np.all(prop0[-1, 1:] == 0.0)
        out = _propagate(prop0[-1], np.sin(TWO_PI * spectral.grid(64)))
        assert np.max(np.abs(out)) <= 1e-15


def test_propagator_norm_nonincreasing():
    # the propagator's targets increase to dt; its multipliers are at most
    # 1 in modulus and nonincreasing along them, and so are L2 norms
    cfg = FlowConfig(a=0.3, b=0.0, epsilon=1e-2, N_g=64, dt=1e-1, T=1e-1,
                     integrator="DuhamelPicard")
    k = spectral.wavenumbers(64)
    nodes, _, prop0 = _duhamel_quadrature(cfg, *stiff_symbol(cfg, k))
    assert np.all(np.diff(np.append(nodes, cfg.dt)) > 0)
    mags = np.abs(prop0)
    assert np.all(mags <= 1.0) and np.all(np.diff(mags, axis=0) <= 0)
    f = np.random.default_rng(4).standard_normal(64)
    norms = [spectral.l2_norm(f)] + [
        spectral.l2_norm(_propagate(m, f)) for m in prop0
    ]
    assert all(b <= a + 1e-15 for a, b in zip(norms, norms[1:]))


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


def wiggled_great_circle():
    """A great circle with a cosine bump and a 1e-8 wiggle at mode 10."""
    x = spectral.grid(64)
    bump = 1.0 + 1e-4 * np.cos(TWO_PI * x)
    samples = great_circle(64).samples * bump[:, None]
    samples[:, 2] += 1e-8 * np.cos(TWO_PI * 10 * x)
    return ClosedCurve(samples, SPHERE2)


def test_picard_no_contraction():
    # at eps = 1e-3 and dt = 5e-4 the explicit remainder outgrows what
    # the propagator damps on band 16: the iteration stalls and the step
    # reports failure (this mirrors the smallness condition on the
    # regularized existence time: the remedy is a smaller dt)
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=1e-3, N_g=64, dt=5e-4, T=5e-3,
                     integrator="DuhamelPicard", picard_tol=1e-10,
                     picard_max_iter=25, mode_cutoff=16)
    traj = evolve(wiggled_great_circle(), cfg, stride=1)
    assert traj.failure is not None and "NoContraction" in traj.failure
    assert "after 25 iterations" in traj.failure
    # it fails in the first step
    assert traj.picard_iterations == [] and len(traj.states) == 1


def test_picard_band_is_the_dealias_band():
    # the input of test_picard_no_contraction at eps = 1e-2 and dt = 2e-4:
    # the propagator carries a*d_x^3, so no explicit k^3 gain narrows the
    # band below the dealias band, at any dt
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=1e-2, N_g=64, dt=2e-4, T=4e-3,
                     integrator="DuhamelPicard", picard_tol=1e-10)
    assert mode_cutoff(cfg, SPHERE2, None) == 16
    assert mode_cutoff(replace(cfg, dt=1e-4), SPHERE2, None) == 16
    # a pinned band wins
    assert mode_cutoff(replace(cfg, mode_cutoff=5), SPHERE2, None) == 5
    assert mode_cutoff(replace(cfg, a=0.0), SPHERE2, None) == 16
    traj = evolve(wiggled_great_circle(), cfg, stride=1)
    assert traj.failure is None
    assert len(traj.picard_iterations) == 20
    assert max(traj.picard_iterations) <= 11


def test_picard_pinned_narrow_band_still_contracts():
    # at dt = 2e-3 this input does not contract on the dealias band (the
    # CLI exits 3 on it); pinned to the 2 modes that a heat-only propagator
    # once chose for it, it contracts and finishes, as it did then, with
    # the state 0.04 off the sphere
    u0 = random_smooth(SPHERE2, 64, seed=3, decay=1.0, amplitude=0.2)
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=1e-2, N_g=64, dt=2e-3, T=2e-3,
                     integrator="DuhamelPicard")
    assert evolve(u0, cfg).failure.startswith("NoContraction")
    traj = evolve(u0, replace(cfg, mode_cutoff=2))
    assert traj.failure is None and traj.picard_iterations == [30]
    assert 0.03 < traj.final.off_manifold() < 0.05


@pytest.mark.parametrize(
    "seed,amplitude,dt,max_mean_iterations,min_band",
    # bounds: 60% of the iterations, and the band, that a heat-only
    # propagator with a*d_x^3 in the slope takes (23.1, 33.0 and 25.5 per
    # step on bands 6, 5 and 6, up to 4.2e-4 off the sphere)
    [(3, 0.2, 1e-4, 13.8, 6), (5, 0.2, 2e-4, 19.8, 5), (7, 0.4, 1e-4, 15.3, 6)],
)
def test_picard_dispersive_runs_contract_fast_on_the_dealias_band(
        seed, amplitude, dt, max_mean_iterations, min_band):
    u0 = random_smooth(SPHERE2, 64, seed=seed, decay=1.0, amplitude=amplitude)
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=1e-2, N_g=64, dt=dt, T=10 * dt,
                     integrator="DuhamelPicard")
    assert mode_cutoff(cfg, SPHERE2, None) >= min_band
    traj = evolve(u0, cfg, stride=1)
    assert traj.failure is None and len(traj.picard_iterations) == 10
    assert np.mean(traj.picard_iterations) <= max_mean_iterations
    assert max(s.off_manifold() for s in traj.states) <= 1e-6


def test_picard_iteration_leaving_the_tube_fails():
    # at dt = 3e-2 the first iterate of the great circle leaves the tube;
    # the run keeps u0 and reports the tube exit
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=1e-2, N_g=32, dt=3e-2, T=3e-2,
                     integrator="DuhamelPicard")
    assert mode_cutoff(cfg, SPHERE2, None) == spectral.dealias_keep(32)
    traj = evolve(great_circle(32), cfg)
    assert traj.failure.startswith("OutOfTubularNeighborhood")
    assert len(traj.states) == 1 and traj.picard_iterations == []


@pytest.mark.parametrize("eps,dt,T,failure,counts", [
    (1e-4, 1e-3, 4e-2, "NoContraction", 2),
    (1e-5, 3e-4, 3e-2, "StepSizeUnstable: non-finite state", 9),
])
def test_picard_records_one_count_and_residual_per_accepted_step(
        eps, dt, T, failure, counts):
    # a winding chart curve at b = 5 trips a guard after several steps;
    # every step the march accepted left one iteration count and one
    # residual, the step that tripped none
    u0 = random_smooth(CHART_FLAT_TORUS2, 64, seed=3, decay=1.1,
                       amplitude=0.18)
    cfg = FlowConfig(a=1.0, b=5.0, epsilon=eps, N_g=64, dt=dt, T=T,
                     integrator="DuhamelPicard")
    with np.errstate(all="ignore"):
        traj = evolve(u0, cfg)
    assert traj.failure.startswith(failure)
    assert len(traj.picard_iterations) == counts
    assert len(traj.step_residuals) == counts
    assert len(traj.states) == counts + 1
    if eps == 1e-4:
        assert traj.picard_iterations == [53, 57]


def test_fused_quadrature_matches_per_target_loop():
    # reference: interpolate the node values to each target's inner Gauss
    # nodes, apply the propagator of L = a d_x^3 - eps d_x^4, sum with the
    # inner weights
    cfg = FlowConfig(a=0.3, b=0.2, epsilon=1e-2, N_g=64, dt=1e-4, T=1e-4,
                     integrator="DuhamelPicard")
    st = _Stepper(cfg, SPHERE2, mode_cutoff(cfg, SPHERE2, None),
                  [cfg.epsilon])
    q = cfg.quadrature_nodes
    k = spectral.wavenumbers(64)
    k4 = (TWO_PI * k) ** 4
    k3 = cfg.a * (1j * TWO_PI * k) ** 3
    k3[-1] = 0.0  # no odd-order part at the Nyquist mode
    mask = k <= st.keep
    rng = np.random.default_rng(7)
    f_hat = rng.standard_normal((q, 33, 3)) + 1j * rng.standard_normal((q, 33, 3))
    fused = np.einsum("ijk,jkd->ikd", st.kernel, f_hat)
    for i, s in enumerate(np.append(st.nodes, cfg.dt)):
        tau, w = spectral.gauss_legendre(q, 0.0, s)
        f_interp = np.einsum(
            "tj,jkd->tkd", spectral.lagrange_matrix(st.nodes, tau), f_hat
        )
        mults = (np.exp(-cfg.epsilon * (s - tau)[:, None] * k4)
                 * np.exp((s - tau)[:, None] * k3) * mask)
        want = np.einsum("t,tkd->kd", w, mults[:, :, None] * f_interp)
        assert np.max(np.abs(fused[i] - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.array_equal(
            st.prop0[i], np.exp(-cfg.epsilon * s * k4) * np.exp(s * k3) * mask)


def test_picard_evolve_builds_quadrature_once(monkeypatch):
    # one evolve builds the quadrature once, in the run's one stepper,
    # which masks it by its band
    calls, steppers = [], []

    def counted(*args, **kwargs):
        calls.append(args)
        return _duhamel_quadrature(*args, **kwargs)

    def recorded(*args):
        steppers.append(_Stepper(*args))
        return steppers[-1]

    monkeypatch.setattr(flow, "_duhamel_quadrature", counted)
    monkeypatch.setattr(flow, "_Stepper", recorded)
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=1e-2, N_g=64, dt=2e-4, T=6e-4,
                     integrator="DuhamelPicard")
    traj = evolve(wiggled_great_circle(), cfg)
    assert traj.failure is None and len(traj.picard_iterations) == 3
    assert len(calls) == 1 and len(steppers) == 1
    monkeypatch.undo()
    st = steppers[0]
    assert traj.picard_iterations is st.iterations
    keep = st.keep
    assert keep == 16 and st.mask.sum() == keep + 1
    k = spectral.wavenumbers(64)
    mask = (k <= keep).astype(float)
    nodes, kernel, decay = _duhamel_quadrature(cfg, *stiff_symbol(cfg, k))
    want = nodes, kernel * mask, decay * mask
    for got, ref in zip((st.nodes, st.kernel, st.prop0), want):
        assert np.array_equal(got, ref)


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
    # the step contracts every kernel as complex; at a = 0 the kernel is
    # real, and that contraction is bit for bit the float-view one (the
    # float view interleaves real and imaginary parts along the modes, so
    # the kernel is repeated once per pair), which a = 0 runs used before
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
    # v_xxx and D t2 feed only a*S2 (Picard) and the eps term, so an RK4
    # stage whose members all have eps = 0 transforms 2 derivative rows
    # instead of 3
    base = dict(a=1.0, b=0.5, N_g=64, dt=1e-5, T=1e-5)

    def rows(cfg, eps=None):
        keep = mode_cutoff(cfg, SPHERE2, 1.0)
        return _Stepper(cfg, SPHERE2, keep,
                        eps or [cfg.epsilon]).d_pows.shape[0]

    assert rows(FlowConfig(**base)) == 2
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


@pytest.mark.parametrize("stride,message", [
    (3, "stride 3 does not divide the step count 10"),
    (0, "stride must be a positive integer"),
    (-1, "stride must be a positive integer"),
    (True, "stride must be a positive integer"),
    (2.0, "stride must be a positive integer"),
    (np.float64(2.0), "stride must be a positive integer"),
], ids=["3", "0", "-1", "True", "2.0", "float64-2.0"])
def test_evolve_stride_must_divide(stride, message):
    # the library refuses the strides a manifest may not carry
    cfg = FlowConfig(a=0.0, b=0.0, epsilon=0.0, N_g=32, dt=1e-3, T=1e-2)
    with pytest.raises(ValueError, match=message):
        evolve(great_circle(32), cfg, stride=stride)


def test_evolve_takes_a_numpy_integer_stride():
    cfg = FlowConfig(a=0.0, b=0.0, epsilon=0.0, N_g=32, dt=1e-3, T=1e-2)
    traj = evolve(great_circle(32), cfg, stride=np.int64(5))
    assert traj.failure is None and len(traj.states) == 3


def test_n_steps_needs_a_multiple_of_dt_to_relative_roundoff():
    # the horizon is a multiple of dt to 1e-9 relative, whatever the scale
    # of dt: below T = 1 an absolute 1e-9 took a fraction of a step as none
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hyp.given(m=st.floats(1.0, 9.99), e=st.integers(-300, 0),
               k=st.integers(1, 1000))
    def multiples(m, e, k):
        dt = m * 10.0**e
        assert FlowConfig(dt=dt, T=k * dt).n_steps() == k
        with pytest.raises(ValueError, match="T must be an integer multiple of dt"):
            FlowConfig(dt=dt, T=(k + 0.5) * dt).n_steps()

    multiples()
    with pytest.raises(ValueError, match="T must be an integer multiple of dt"):
        FlowConfig(dt=2e-9, T=5e-9).n_steps()


@pytest.mark.parametrize("integrator", INTEGRATORS)
@pytest.mark.parametrize(
    "manifold", [SPHERE2, CLIFFORD_TORUS2, CHART_FLAT_TORUS2],
    ids=lambda m: m.name,
)
def test_evolve_states_bitwise_equal_standalone_steps(manifold, integrator):
    # the march hands each step the transform it made of the state; the
    # states are those of steps that transform it themselves.  RK4
    # marches from the retraction of u0, Picard from u0 as given
    u0 = random_smooth(manifold, 64, seed=2, decay=1.2, amplitude=0.1)
    cfg = FlowConfig(a=0.5, b=0.5, epsilon=1e-2 if integrator ==
                     "DuhamelPicard" else 1e-4, N_g=64, dt=1e-5, T=4e-5,
                     integrator=integrator)
    traj = evolve(u0, cfg, stride=1)
    assert traj.failure is None
    # the steps march the periodic part; a snapshot adds u0's trend back
    trend, winding = lift_trend(u0.samples.T, manifold)
    rows = u0.samples.T[None]
    if integrator != "DuhamelPicard":
        rows = manifold.retract(u0.samples)[0].T[None]
    keep = run_band(cfg, u0)
    st = _Stepper(cfg, manifold, keep, [cfg.epsilon])
    step = _picard_step if integrator == "DuhamelPicard" else _rk4_step
    rows = rows - trend
    for state in traj.states[1:]:
        coef = np.fft.rfft(rows, norm="forward")
        rows = step(rows, st, coef, winding)[0]
        samples = (trend + rows[0] if winding.any() else rows[0]).T
        assert samples.tobytes() == state.samples.tobytes()


def test_evolve_grid_mismatch():
    cfg = FlowConfig(a=0.0, b=0.0, epsilon=0.0, N_g=64, dt=1e-3, T=1e-2)
    with pytest.raises(ValueError):
        evolve(great_circle(32), cfg)


def test_evolve_blowup_guard_trips():
    # undamped explicit stepping far beyond the stability edge
    c = random_smooth(SPHERE2, 64, seed=8, decay=0.3, amplitude=0.5)
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=0.0, N_g=64, dt=5e-4, T=5e-2,
                     integrator="ProjectedRK4", mode_cutoff=32)
    traj = evolve(c, cfg, stride=10)
    assert traj.failure is not None
    assert len(traj.states) >= 1


@pytest.mark.parametrize("dt", [5e-324, 1e-309])
def test_a_dt_too_small_for_the_stability_edge_keeps_the_dealias_band(dt):
    # dt * coeff below 2.5 / DBL_MAX makes the float edge inf; the edge is
    # clamped to the dealias band before it becomes an int
    for manifold in (SPHERE2, CLIFFORD_TORUS2):
        cfg = FlowConfig(a=1.0, b=0.5, N_g=64, dt=dt, T=dt)
        assert mode_cutoff(cfg, manifold, 1.0) == spectral.dealias_keep(64)


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
        trend, winding = lift_trend(c.samples.T, manifold)
        got = _extrinsic_h2(np.fft.rfft(c.samples.T - trend, norm="forward"),
                            winding)
        assert abs(got - want) <= 1e-13 * want
        # the cached Parseval weights and a shared transform change no bit
        k2 = (TWO_PI * spectral.wavenumbers(n)) ** 2
        k2[-1] = 0.0
        coef = np.fft.rfft(c.samples - trend.T, axis=-2)
        power = ((coef.real**2 + coef.imag**2).sum(axis=-1)
                 * (k2 + k2**2 + k2**3))
        w = winding[:, 0]
        inline = np.sqrt((w * w).sum(axis=-1)
                         + 2.0 * power.sum(axis=-1) / n**2)
        assert got == inline
        # the transform of the transposed curve is bitwise that of a
        # C-contiguous copy
        rows = np.ascontiguousarray(c.samples.T)
        coef = np.fft.rfft(rows - trend, norm="forward")
        assert got == _extrinsic_h2(coef, winding)


@pytest.mark.parametrize(
    "eps,stride,snapshots,failure",
    [
        (0.0, 1, 2, "H2 norm grew 1617.5x within one stride"),
        (1e-4, 1, 5, "H2 norm grew 29727728803.5x within one stride"),
        (0.0, 2, 1, "H2 norm grew 4540.0x within one stride"),
    ],
)
def test_h2_guard_trips_where_it_did(eps, stride, snapshots, failure):
    # a winding chart curve far past the stability edge: the guard reads
    # the transform the march shares with the next step, and u0's winding,
    # which an under-resolved state would misread as (2, 0) by step 2
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
