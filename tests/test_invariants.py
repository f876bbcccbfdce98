import numpy as np
import pytest
from conftest import constant_curve, integrate

from dcl import invariants, spectral
from dcl.curves import covariant_tower, sup_distance
from dcl.errors import PointOffManifold, UnsupportedCoefficients, WrongManifold
from dcl.flow import FlowConfig, Trajectory, dispersive_rhs, evolve
from dcl.invariants import (
    EnergyReport,
    drift_report,
    energy,
    energy_report,
    latitude_rates,
    nt_quantity,
    oracle_latitude_circle,
    oracle_latitude_velocity,
    oracle_torus_line,
    smoothing_constant_exact,
    smoothing_constant_numeric,
    trajectory_reports,
)
from dcl.manifolds import CHART_FLAT_TORUS2, CLIFFORD_TORUS2, SPHERE2
from dcl.presets import great_circle, random_smooth, torus_geodesic

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# energy functional
# ---------------------------------------------------------------------------


def test_energy_constant_curve():
    assert energy(constant_curve(), 1.0) == 0.0


def test_energy_great_circle():
    # geodesic: only the cubic speed term survives, (K^2/8) (2*pi)^6
    got = energy(great_circle(64), 1.0)
    expected = TWO_PI**6 / 8.0
    assert abs(got - expected) <= 1e-10 * expected


def test_energy_flat_chart_is_extrinsic_h2():
    c = torus_geodesic(CHART_FLAT_TORUS2, 1, 0, n=64)
    wiggle = 0.05 * np.stack(
        [np.sin(TWO_PI * spectral.grid(64)), np.zeros(64)], axis=-1
    )
    c = c.with_samples(c.samples + wiggle)
    vx = c.velocity()
    uxxx = spectral.spectral_derivative(vx, 2)
    assert abs(energy(c, 0.0) - spectral.l2_inner(uxxx, uxxx)) <= 1e-10


def test_energy_quadrature_oracle():
    # recompute the three K-terms by direct quadrature of the tower fields
    c = random_smooth(SPHERE2, 64, seed=0, decay=0.8, amplitude=0.4)
    t0, t1, t2 = covariant_tower(c, 2)
    g00 = (t0 * t0).sum(-1)
    g01 = (t0 * t1).sum(-1)
    g11 = (t1 * t1).sum(-1)
    k = 1.0
    oracle = (
        np.mean((t2 * t2).sum(-1))
        + (k**2 / 8) * np.mean(g00**3)
        - k * np.mean(g01**2)
        - 1.5 * k * np.mean(g00 * g11)
    )
    assert abs(energy(c, k) - oracle) <= 1e-12 * max(1.0, abs(oracle))


def test_energy_k_derivative():
    # dE/dK = (K/4) I3 - I12 - (3/2) I11 with the three quadrature integrals
    c = random_smooth(SPHERE2, 64, seed=1, decay=0.8, amplitude=0.4)
    t0, t1, _ = covariant_tower(c, 2)
    g00 = (t0 * t0).sum(-1)
    g01 = (t0 * t1).sum(-1)
    g11 = (t1 * t1).sum(-1)
    k = 0.7
    analytic = (
        (k / 4) * np.mean(g00**3) - np.mean(g01**2) - 1.5 * np.mean(g00 * g11)
    )
    h = 1e-4
    fd = (energy(c, k + h) - energy(c, k - h)) / (2 * h)
    assert abs(fd - analytic) <= 1e-8 * max(1.0, abs(analytic))


# ---------------------------------------------------------------------------
# extrinsic sphere quantity
# ---------------------------------------------------------------------------


def test_nt_constant_curve():
    assert nt_quantity(constant_curve()) == 0.0


def test_nt_great_circle():
    # u_xxx = -(2pi)^2 u_x, |u_xx| = (2pi)^2, u_x.u_xx = 0, |u_x| = 2pi:
    # (1 - 7/2 + 21/8) (2pi)^6 = (2pi)^6 / 8, confirmed by quadrature below
    c = great_circle(128)
    ux = c.velocity()
    uxx = spectral.spectral_derivative(ux)
    uxxx = spectral.spectral_derivative(uxx)
    oracle = (
        np.mean((uxxx**2).sum(-1))
        - 3.5 * np.mean((ux**2).sum(-1) * (uxx**2).sum(-1))
        - 14.0 * np.mean((ux * uxx).sum(-1) ** 2)
        + (21 / 8) * np.mean((ux**2).sum(-1) ** 3)
    )
    expected = TWO_PI**6 / 8.0
    assert abs(oracle - expected) <= 1e-9 * expected
    assert abs(nt_quantity(c) - expected) <= 1e-9 * expected


def test_nt_equals_energy_with_unit_curvature():
    # settled numerically: the extrinsic combination coincides with E(K=1)
    # curve by curve (not only along flows)
    for seed in (0, 1, 2):
        c = random_smooth(SPHERE2, 128, seed=seed, decay=0.7, amplitude=0.5)
        e = energy(c, 1.0)
        q = nt_quantity(c)
        assert abs(e - q) <= 1e-9 * max(1.0, abs(e))


def test_nt_wrong_manifold():
    with pytest.raises(WrongManifold):
        nt_quantity(torus_geodesic(CHART_FLAT_TORUS2, 1, 0, n=32))


def test_invariants_reparametrization_shift():
    c = random_smooth(SPHERE2, 64, seed=3, decay=0.8, amplitude=0.4)
    shifted = c.with_samples(np.roll(c.samples, 7, axis=0))
    assert abs(energy(c, 1.0) - energy(shifted, 1.0)) <= 1e-12 * abs(energy(c, 1.0))
    assert abs(nt_quantity(c) - nt_quantity(shifted)) <= 1e-12 * abs(nt_quantity(c))


# ---------------------------------------------------------------------------
# energy report and drift
# ---------------------------------------------------------------------------


def test_energy_report_fields():
    rep = energy_report(great_circle(64), t=0.25)
    assert rep.t == 0.25
    assert abs(rep.l2_ux - TWO_PI**2) <= 1e-9
    assert rep.nt_quantity is not None
    assert rep.hm_norms[0] <= rep.hm_norms[1] <= rep.hm_norms[2]


def test_energy_report_no_nt_off_sphere():
    rep = energy_report(torus_geodesic(CHART_FLAT_TORUS2, 1, 0, n=32))
    assert rep.nt_quantity is None


def test_drift_single_snapshot():
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=0.0, N_g=32, dt=1e-3, T=0.0)
    traj = evolve(great_circle(32), cfg)
    rep = drift_report(traj)
    assert rep.max_l2_drift == 0.0
    assert rep.max_e_drift == 0.0


def test_drift_detects_broken_coefficient_pairing():
    # small-scale version of the conservation control: b = a K / 2 conserves
    # E, b = 0 does not
    u0 = random_smooth(SPHERE2, 64, seed=11, decay=1.0, amplitude=0.25)
    good = FlowConfig(a=1.0, b=0.5, epsilon=0.0, N_g=64, dt=1e-5, T=5e-3)
    bad = FlowConfig(a=1.0, b=0.0, epsilon=0.0, N_g=64, dt=1e-5, T=5e-3)
    rep_good = drift_report(evolve(u0, good, stride=100))
    rep_bad = drift_report(evolve(u0, bad, stride=100))
    assert rep_good.max_e_drift <= 1e-6
    assert rep_bad.max_e_drift >= 1e-3


def test_energy_drift_order_in_dt():
    # E-drift from the 4th-order stepper shrinks at >= 3rd order in dt
    u0 = random_smooth(SPHERE2, 64, seed=11, decay=1.0, amplitude=0.3)
    drifts = []
    for dt in (1e-5, 5e-6, 2.5e-6):
        cfg = FlowConfig(a=1.0, b=0.5, epsilon=0.0, N_g=64, dt=dt, T=4e-3,
                         mode_cutoff=14)
        traj = evolve(u0, cfg, stride=cfg.n_steps())
        assert traj.failure is None
        drifts.append(drift_report(traj).max_e_drift)
    slopes = [np.log2(drifts[i] / drifts[i + 1]) for i in range(2)]
    assert min(slopes) >= 3.0


def _per_row_report(curve, t):
    """One snapshot's report by separate per-curve calls, as rows once were.

    Builds the covariant tower through the checked public calls, E from a
    second tower and nt_quantity from its own derivatives.
    """
    tower = covariant_tower(curve, 3)
    sq = [spectral.l2_inner(f, f) for f in tower]
    t0, t1, t2 = covariant_tower(curve, 2)
    g00 = (t0 * t0).sum(axis=-1)
    g01 = (t0 * t1).sum(axis=-1)
    g11 = (t1 * t1).sum(axis=-1)
    k = curve.manifold.gaussian_curvature
    e = (
        spectral.l2_inner(t2, t2)
        + (k**2 / 8.0) * integrate(g00**3)
        - k * integrate(g01**2)
        - (1.5 * k) * integrate(g00 * g11)
    )
    nt = None
    if curve.manifold is SPHERE2:
        ux = curve.velocity()
        uxx = spectral.spectral_derivative(ux)
        uxxx = spectral.spectral_derivative(uxx)
        sq_x = (ux * ux).sum(axis=-1)
        nt = float(
            spectral.l2_inner(uxxx, uxxx)
            - 3.5 * integrate(sq_x * (uxx * uxx).sum(axis=-1))
            - 14.0 * integrate((ux * uxx).sum(axis=-1) ** 2)
            + (21.0 / 8.0) * integrate(sq_x**3)
        )
    return EnergyReport(
        t=float(t),
        l2_ux=float(sq[0]),
        E=float(e),
        hm_norms=tuple(float(np.sqrt(sum(sq[: j + 1]))) for j in (1, 2, 3)),
        off_manifold=curve.off_manifold(),
        nt_quantity=nt,
    )


def _winding_chart_curve(n=64):
    c = torus_geodesic(CHART_FLAT_TORUS2, 2, 1, n=n)
    x = spectral.grid(n)
    wiggle = 0.03 * np.stack([np.sin(TWO_PI * x), np.cos(2 * TWO_PI * x)], axis=-1)
    return c.with_samples(c.samples + wiggle)


@pytest.mark.parametrize(
    "u0, cfg",
    [
        (random_smooth(SPHERE2, 128, seed=3, decay=1.0, amplitude=0.3),
         FlowConfig(a=1.0, b=0.5, N_g=128, dt=1e-5, T=2e-4)),
        (random_smooth(CLIFFORD_TORUS2, 64, seed=2, decay=1.0, amplitude=0.1),
         FlowConfig(a=1.0, N_g=64, dt=1e-5, T=1e-4)),
        (_winding_chart_curve(),
         FlowConfig(a=1.0, b=0.5, N_g=64, dt=1e-5, T=1e-4)),
        (random_smooth(SPHERE2, 64, seed=1), FlowConfig(a=1.0, N_g=64, T=0.0)),
    ],
    ids=["Sphere2", "CliffordTorus2", "ChartFlatTorus2-winding", "one-snapshot"],
)
def test_trajectory_reports_bitwise_equal_per_row(u0, cfg, monkeypatch):
    # blocks of 8 snapshots: rows must not depend on how the stack is cut
    monkeypatch.setattr(invariants, "_BLOCK", 8)
    traj = evolve(u0, cfg)
    assert traj.failure is None
    expected = [_per_row_report(s, t) for t, s in zip(traj.times, traj.states)]
    assert trajectory_reports(traj) == expected
    assert [energy_report(s, t) for t, s in zip(traj.times, traj.states)] == expected

    drift = drift_report(traj)
    l2_0, e_0 = expected[0].l2_ux, expected[0].E
    assert [(r.t, r.l2_drift, r.e_drift, r.off_manifold) for r in drift.rows] == [
        (r.t, abs(r.l2_ux - l2_0) / abs(l2_0), abs(r.E - e_0) / abs(e_0),
         r.off_manifold)
        for r in expected
    ]


def test_trajectory_reports_reject_off_target_snapshot():
    c = random_smooth(SPHERE2, 64, seed=4, decay=1.0, amplitude=0.3)
    off = c.with_samples(1.01 * c.samples)
    traj = Trajectory(times=[0.0, 0.1, 0.2], states=[c, off, c], config=FlowConfig())
    with pytest.raises(PointOffManifold):
        trajectory_reports(traj)
    with pytest.raises(PointOffManifold):
        drift_report(traj)


def test_trajectory_reports_refuse_an_empty_trajectory():
    with pytest.raises(ValueError, match="trajectory is empty"):
        trajectory_reports(Trajectory(times=[], states=[], config=FlowConfig()))


# ---------------------------------------------------------------------------
# exact solutions
# ---------------------------------------------------------------------------


def test_latitude_rates_schrodinger():
    omega, speed = latitude_rates(np.pi / 3, 0.0, 0.0)
    assert abs(omega + TWO_PI**2 * 0.5) <= 1e-12
    assert speed == 0.0


def test_latitude_rates_frozen_constants():
    # regression values computed once from the ansatz balance
    omega, speed = latitude_rates(np.pi / 3, 1.0, 0.5)
    assert abs(omega - (-19.739208802178716)) <= 1e-12
    assert abs(speed - 4.934802200544679) <= 1e-12


def test_equator_is_stationary_for_schrodinger():
    a = oracle_latitude_circle(np.pi / 2, 0.0, 0.0, 0.0, 64)
    b = oracle_latitude_circle(np.pi / 2, 0.37, 0.0, 0.0, 64)
    assert sup_distance(a, b) <= 1e-12


def test_latitude_rotation_rate():
    theta, t = np.pi / 3, 0.05
    moved = oracle_latitude_circle(theta, t, 0.0, 0.0, 64)
    start = oracle_latitude_circle(theta, 0.0, 0.0, 0.0, 64)
    angle = -(TWO_PI**2) * np.cos(theta) * t
    rot = np.array(
        [
            [np.cos(angle), -np.sin(angle), 0],
            [np.sin(angle), np.cos(angle), 0],
            [0, 0, 1],
        ]
    )
    assert np.max(np.abs(moved.samples - start.samples @ rot.T)) <= 1e-12


def test_oracle_pde_residuals():
    # the ansatz satisfies the flow: residual at roundoff on the supported
    # band (higher modes are pure derivative-amplified FFT noise)
    for theta, a, b in ((np.pi / 2, 0.0, 0.0), (np.pi / 3, 0.0, 0.0),
                        (np.pi / 3, 1.0, 0.5), (0.9, 2.0, 1.0)):
        state = oracle_latitude_circle(theta, 0.13, a, b, 128)
        u_t = oracle_latitude_velocity(theta, 0.13, a, b, 128)
        rhs = dispersive_rhs(state, a, b)
        assert spectral.l2_norm(spectral.lowpass(u_t - rhs, 8)) <= 1e-10


def test_oracle_coefficient_gate():
    with pytest.raises(UnsupportedCoefficients):
        oracle_latitude_circle(np.pi / 3, 0.0, 1.0, 0.3)
    with pytest.raises(ValueError):
        oracle_latitude_circle(0.0, 0.0, 0.0, 0.0)


def test_torus_line_oracle():
    line = oracle_torus_line(0.7, 0.0, (1, 0), 32)
    assert np.max(np.abs(line.samples[:, 1])) == 0.0
    moved = oracle_torus_line(0.7, 0.1, (1, 0), 32)
    assert np.max(np.abs(moved.samples[:, 0] - (spectral.grid(32) + 0.07))) <= 1e-14
    rhs = dispersive_rhs(moved, 5.0, 0.7)
    assert np.max(np.abs(rhs - np.array([0.7, 0.0]))) <= 1e-10


def test_smoothing_constants():
    exact = smoothing_constant_exact()
    assert abs(smoothing_constant_numeric() - exact) <= 1e-9 * exact
