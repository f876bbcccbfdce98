"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line once its assertions hold (run with
``pytest tests/test_acceptance.py -s`` to see them); the thresholds and
run parameters are fixed here, nothing is calibrated at runtime.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import chart_coordinates

from dcl import spectral
from dcl.curves import ClosedCurve, h1_distance, resample, sup_distance
from dcl.flow import dispersive_rhs
from dcl.flow import FlowConfig, epsilon_continuation, evolve, run_band
from dcl.invariants import (
    drift_report,
    oracle_latitude_circle,
    oracle_latitude_velocity,
    oracle_torus_line,
    smoothing_constant_exact,
)
from dcl.manifolds import CHART_FLAT_TORUS2, CLIFFORD_TORUS2, SPHERE2
from dcl.presets import random_smooth, torus_geodesic
from dcl.verify import suite_identities, suite_maxprinciple

TWO_PI = 2.0 * np.pi

CONSERVATION_IC = dict(seed=11, decay=1.1, amplitude=0.18)


def _report(k, text):
    print(f"ACCEPTANCE {k}: PASS  {text}")


@pytest.fixture(scope="module")
def conservation_run():
    u0 = random_smooth(SPHERE2, 256, **CONSERVATION_IC)
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=0.0, N_g=256, dt=1e-5, T=1e-2,
                     integrator="ProjectedRK4")
    start = time.monotonic()
    traj = evolve(u0, cfg, stride=100)
    elapsed = time.monotonic() - start
    return u0, cfg, traj, elapsed


def test_criterion_1_conservation(conservation_run):
    u0, cfg, traj, elapsed = conservation_run
    assert traj.failure is None
    rep = drift_report(traj)
    assert rep.max_l2_drift <= 1e-8
    assert rep.max_e_drift <= 1e-6
    assert elapsed <= 60.0

    control = drift_report(evolve(u0, replace(cfg, b=0.0), stride=100))
    assert control.max_e_drift >= 1e-3
    _report(
        1,
        f"l2 drift {rep.max_l2_drift:.2e} (<=1e-8), E drift "
        f"{rep.max_e_drift:.2e} (<=1e-6), runtime {elapsed:.1f}s (<=60), "
        f"b=0 control E drift {control.max_e_drift:.2e} (>=1e-3)",
    )


def test_criterion_2_da_rios_oracle():
    theta = np.pi / 3
    u0 = oracle_latitude_circle(theta, 0.0, 0.0, 0.0, 128)
    cfg = FlowConfig(a=0.0, b=0.0, epsilon=0.0, N_g=128, dt=5e-6, T=1e-2,
                     integrator="ProjectedRK4")
    traj = evolve(u0, cfg, stride=cfg.n_steps())
    assert traj.failure is None
    exact = oracle_latitude_circle(theta, cfg.T, 0.0, 0.0, 128)
    err = sup_distance(traj.final, exact)
    assert err <= 1e-6
    _report(2, f"sup distance to rotating circle {err:.2e} (<=1e-6)")


def test_criterion_3_travelling_rotating_oracle():
    theta, a, b = np.pi / 3, 1.0, 0.5
    u0 = oracle_latitude_circle(theta, 0.0, a, b, 128)
    residual = spectral.l2_norm(
        spectral.lowpass(
            oracle_latitude_velocity(theta, 0.0, a, b, 128)
            - dispersive_rhs(u0, a, b),
            8,
        )
    )
    assert residual <= 1e-10
    cfg = FlowConfig(a=a, b=b, epsilon=0.0, N_g=128, dt=2.5e-6, T=5e-3,
                     integrator="ProjectedRK4")
    traj = evolve(u0, cfg, stride=cfg.n_steps())
    assert traj.failure is None
    err = sup_distance(traj.final, oracle_latitude_circle(theta, cfg.T, a, b, 128))
    assert err <= 1e-5
    _report(
        3,
        f"distance to travelling-rotating circle {err:.2e} (<=1e-5), "
        f"ansatz residual {residual:.2e} (<=1e-10)",
    )


def test_criterion_4_flat_torus_exact():
    b = 0.7
    chart0 = torus_geodesic(CHART_FLAT_TORUS2, 1, 0, n=32)
    cfg = FlowConfig(a=1.0, b=b, epsilon=0.0, N_g=32, dt=1e-3, T=0.1,
                     integrator="ProjectedRK4")
    chart_traj = evolve(chart0, cfg, stride=cfg.n_steps())
    assert chart_traj.failure is None
    exact = oracle_torus_line(b, cfg.T, (1, 0), 32)
    chart_err = sup_distance(chart_traj.final, exact)
    assert chart_err <= 1e-10

    emb0 = ClosedCurve(
        CLIFFORD_TORUS2.embed_chart(chart0.samples), CLIFFORD_TORUS2
    )
    cfg_emb = replace(cfg, dt=5e-5)
    emb_traj = evolve(emb0, cfg_emb, stride=cfg_emb.n_steps())
    assert emb_traj.failure is None
    back = chart_coordinates(emb_traj.final.samples)
    diff = (back - exact.samples % 1.0 + 0.5) % 1.0 - 0.5
    emb_err = float(np.max(np.abs(diff)))
    assert emb_err <= 1e-8
    _report(
        4,
        f"chart error {chart_err:.2e} (<=1e-10), embedded-vs-chart "
        f"{emb_err:.2e} (<=1e-8)",
    )


def test_criterion_5_maximum_principle():
    checks = suite_maxprinciple(seed=0)
    failed = [c.line() for c in checks if not c.passed]
    assert not failed, "\n".join(failed)
    values = {c.name: c.value for c in checks}
    _report(
        5,
        f"rho norm nonincreasing (max step {values['rho_norm_nonincreasing']:.2e}"
        f" <= 0), decay-rate mismatch {values['rho_decay_rate_match']:.2e} "
        f"(<=0.1)",
    )


def test_criterion_6_smoothing_constant():
    c_star = smoothing_constant_exact()
    eps_grid = np.logspace(-3, -1, 40)
    t_grid = np.logspace(-3, -1, 40)
    modes = np.arange(1, 4097)
    family_sup = 0.0
    overshoot = 0.0
    for eps in eps_grid:
        for t in t_grid:
            et = eps * t
            vals = (
                (TWO_PI * modes) ** 3
                * np.exp(-et * (TWO_PI * modes) ** 4)
                * et**0.75
            )
            top = float(np.max(vals))
            family_sup = max(family_sup, top)
            overshoot = max(overshoot, top - c_star)
    rel = abs(family_sup - c_star) / c_star
    assert overshoot <= 1e-12
    assert rel <= 0.01
    _report(
        6,
        f"family sup {family_sup:.6f} vs scalar max {c_star:.6f}, "
        f"relative gap {rel:.2e} (<=1e-2), never exceeded",
    )


def test_criterion_7_identity_suite():
    checks = suite_identities(grids=(64, 128), seed=0)
    failed = [c.line() for c in checks if not c.passed]
    assert not failed, "\n".join(failed)
    by_name = {c.name: c for c in checks}
    slope = by_name["commutator_fd_slope"].value
    assert slope >= 1.8
    _report(
        7,
        "pairing residuals drop >=4 decades (or sit at the exactness "
        f"floor), curvature symmetry {by_name['curvature_symmetry'].value:.1e}"
        f" (<=1e-12), commutator slope {slope:.2f} (>=1.8)",
    )


def test_criterion_8_epsilon_continuation():
    u0 = random_smooth(SPHERE2, 128, seed=11, decay=1.0, amplitude=0.18)
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=0.0, N_g=128, dt=1e-5, T=5e-3,
                     integrator="ProjectedRK4")
    rows = epsilon_continuation(u0, cfg, [2e-5, 1e-5, 5e-6])
    assert all(r["failure"] is None for r in rows)
    dists = [r["h1_to_zero"] for r in rows]
    assert all(np.isfinite(dists))
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert dists[-1] <= 1e-3
    # the distance is first order in eps: each halving halves it
    orders = [float(np.log2(a / b)) for a, b in zip(dists, dists[1:])]
    assert all(order >= 0.9 for order in orders)
    _report(
        8,
        "H1 distances to the unregularized run "
        + " > ".join(f"{d:.2e}" for d in dists)
        + f", final {dists[-1]:.2e} (<=1e-3), observed orders in eps "
        + ", ".join(f"{o:.3f}" for o in orders) + " (>=0.9)",
    )


def _band_field(n, seed, band=6):
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal((band, 3)) + 1j * rng.standard_normal((band, 3))
    x = spectral.grid(n)
    out = np.zeros((n, 3))
    for m in range(1, band):
        out += (coef[m][None, :] * np.exp(2j * np.pi * m * x)[:, None]).real
    return out


def test_criterion_9_continuous_dependence():
    base = random_smooth(SPHERE2, 128, seed=11, decay=0.7, amplitude=1.0)
    rates = {}
    peaks = {}
    for n in (128, 256):
        u0 = resample(base, n)
        direction = _band_field(n, 5)
        scale = 1e-7
        for _ in range(40):
            pert = u0.with_samples(
                SPHERE2.project(u0.samples + scale * direction)
            )
            dist = h1_distance(u0, pert)
            if abs(dist - 1e-6) <= 1e-9:
                break
            scale *= 1e-6 / dist
        cfg = FlowConfig(a=1.0, b=0.5, epsilon=0.0, N_g=n, dt=1e-5, T=1e-2,
                         integrator="ProjectedRK4")
        t_base = evolve(u0, cfg, stride=50)
        t_pert = evolve(pert, cfg, stride=50)
        assert t_base.failure is None and t_pert.failure is None
        dists = [
            h1_distance(s1, s2)
            for s1, s2 in zip(t_base.states, t_pert.states)
        ]
        peaks[n] = max(dists)
        rates[n] = float(np.polyfit(t_base.times, np.log(dists), 1)[0])
    assert max(peaks.values()) <= 1e-4
    ratio = rates[256] / rates[128]
    assert 0.8 <= ratio <= 1.2
    _report(
        9,
        f"perturbation stays <= {max(peaks.values()):.2e} (<=1e-4); fitted "
        f"rates {rates[128]:.2f} / {rates[256]:.2f} (ratio {ratio:.3f} "
        f"within +-20%)",
    )


def test_criterion_10_dt_convergence(conservation_run):
    u0, cfg, traj, _ = conservation_run
    keep = run_band(cfg, u0)
    finals = [traj.final]
    for i in (1, 2, 3):
        level = replace(cfg, dt=cfg.dt * 0.5**i, mode_cutoff=keep)
        run = evolve(u0, level, stride=level.n_steps())
        assert run.failure is None
        finals.append(run.final)
    diffs = [h1_distance(finals[i], finals[i + 1]) for i in range(3)]
    orders = [np.log2(diffs[i] / diffs[i + 1]) for i in range(2)]
    assert min(orders) >= 3.5
    _report(
        10,
        "Richardson orders " + ", ".join(f"{o:.2f}" for o in orders)
        + " (>=3.5)",
    )
