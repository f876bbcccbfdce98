"""The grid the RK4 stages run on, and what a step transforms there.

The stability clamp, not N, sets the band of a ProjectedRK4 run, so the
stages run on the smallest grid that dealiases the band by the N/4 rule:
stage 1 at the state's every (N/M)-th sample, from the first M/2 + 1
modes of the march's transform of it.  The step end follows the grid of
the state the step was given, and the march gives it the stage grid: only
u0's transform and the one batched irfft of the snapshots, when the march
returns, transform all N curve samples.
"""

from dataclasses import replace

import numpy as np
import pytest

from dcl.curves import h1_distance, lift_trend, resample
from dcl.flow import (
    FlowConfig,
    _parseval_weights,
    _rk4_step,
    _Stepper,
    evolve,
    mode_cutoff,
    run_band,
    stage_grid,
)
from dcl.manifolds import CHART_FLAT_TORUS2, CLIFFORD_TORUS2, SPHERE2
from dcl.presets import random_smooth
from dcl.spectral import TWO_PI


def smallest_power_of_two(n, keep):
    m = 16
    while m // 4 < keep:
        m *= 2
    return min(m, n)


@pytest.mark.parametrize("n", [2**j for j in range(2, 13)])
def test_stage_grid_is_smallest_dealiasing_power_of_two(n):
    for keep in range(n // 2 + 2):
        assert stage_grid(n, keep) == smallest_power_of_two(n, keep)


def test_stepper_stage_grid_follows_the_band():
    u0 = random_smooth(SPHERE2, 4096, seed=11, decay=1.1, amplitude=0.18)
    speed = float(np.max(np.abs(u0.velocity())))
    cfg = FlowConfig(a=1.0, b=0.5, N_g=4096, dt=1e-6, T=1e-6)
    keep = mode_cutoff(cfg, SPHERE2, speed)
    st = _Stepper(cfg, SPHERE2, keep, [cfg.epsilon])
    assert keep == 46 and st.n == 256 and cfg.N_g == 4096
    assert st.mask.shape == (129,) and st.mask.sum() == keep + 1
    for eps in ([0.0], [0.0, 1e-4, 5e-5]):
        assert _Stepper(cfg, SPHERE2, keep, eps).n == 256


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_stage_grid_is_curve_grid_for_a_wide_pinned_band(n):
    for cutoff in (n // 4, n // 2):
        cfg = FlowConfig(a=1.0, b=0.5, N_g=n, dt=1e-5, T=1e-5,
                         mode_cutoff=cutoff)
        keep = mode_cutoff(cfg, SPHERE2, 5.0)
        assert _Stepper(cfg, SPHERE2, keep, [cfg.epsilon]).n == n


def test_forward_coefficients_move_between_grids_by_a_slice():
    # forward-normalized coefficients do not depend on the grid: those of
    # every (N/M)-th sample of a row band-limited below M/4 are the first
    # M/2+1 of the full row's, and the irfft onto N points zero-pads them
    n, m, band = 4096, 256, 64
    rng = np.random.default_rng(3)
    coef = np.zeros((3, n // 2 + 1), dtype=complex)
    coef[:, : band + 1] = (rng.standard_normal((3, band + 1))
                           + 1j * rng.standard_normal((3, band + 1)))
    coef[:, 0] = coef[:, 0].real
    rows = np.fft.irfft(coef, n=n, norm="forward")
    full = np.fft.rfft(rows, norm="forward")
    coarse = np.fft.rfft(rows[..., :: n // m], norm="forward")
    assert coarse.shape == (3, m // 2 + 1)
    scale = np.max(np.abs(full))
    assert np.max(np.abs(coarse - full[..., : m // 2 + 1])) <= 1e-14 * scale
    back = np.fft.irfft(coarse, n=n, norm="forward")
    assert np.max(np.abs(back - rows)) <= 1e-14 * np.max(np.abs(rows))


@pytest.mark.parametrize("a,cutoff", [(0.0, 0), (1.0, 0), (1.0, 5)])
def test_picard_stages_stay_on_curve_grid(a, cutoff):
    # the Picard kernel lives on the curve's modes, whatever the band
    cfg = FlowConfig(a=a, epsilon=1e-2, N_g=256, dt=1e-4, T=1e-4,
                     integrator="DuhamelPicard", mode_cutoff=cutoff)
    st = _Stepper(cfg, SPHERE2, mode_cutoff(cfg, SPHERE2, None),
                  [cfg.epsilon])
    assert st.n == cfg.N_g == 256
    assert st.mask.sum() <= 256 // 4 + 1


def test_step_transforms_curve_grid_only_at_march_and_step_end(fft_calls):
    n, m = 4096, 256
    u0 = random_smooth(SPHERE2, n, seed=11, decay=1.1, amplitude=0.18)
    cfg = FlowConfig(a=1.0, b=0.5, N_g=n, dt=1e-6, T=2e-6)
    traj = evolve(u0, cfg)
    assert traj.failure is None and traj.final.n == n
    # stage 1 slopes the state on the stage grid from the modes of the
    # rfft the march made of it: [v_x, v_xx] and [A0, rest]; stages 2-4
    # first transform their point back; the step ends on the stage grid
    stages = [("irfft", m), ("rfft", m)] + 3 * [
        ("irfft", m), ("rfft", m), ("irfft", m), ("rfft", m)]
    step = stages + [("irfft", m), ("rfft", m)]
    assert len(step) == 16
    # the march's only curve-grid calls: u0's rfft, and one irfft of every
    # snapshot's modes when it returns
    assert fft_calls[-(2 + 2 * 16):] == [("rfft", n)] + 2 * step + [("irfft", n)]


@pytest.mark.parametrize("eps", [[0.0], [1e-4], [0.0, 1e-4]],
                         ids=["eps0", "eps", "stack"])
@pytest.mark.parametrize("manifold", [SPHERE2, CLIFFORD_TORUS2, CHART_FLAT_TORUS2],
                         ids=["Sphere2", "CliffordTorus2", "chart-winding"])
def test_a_step_returns_its_state_on_the_grid_it_was_given(manifold, eps):
    # the step end's irfft goes onto the grid of the state, so a step of
    # the state's every (N/M)-th sample and first M/2 + 1 modes returns
    # every (N/M)-th sample of the step of the curve-grid state
    n = 1024
    u0 = random_smooth(manifold, n, 5, decay=1.0, amplitude=0.2)
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=eps[0], N_g=n, dt=1e-6, T=1e-6)
    st = _Stepper(cfg, manifold, run_band(cfg, u0), eps)
    trend, winding = lift_trend(u0.samples.T, manifold)
    rows, _ = manifold._retract(u0.samples.T - trend)
    state = np.stack([rows] * len(eps))
    coef = np.fft.rfft(state, norm="forward")
    lift = winding if winding.any() else None
    assert (lift is not None) == (manifold is CHART_FLAT_TORUS2)
    m = st.n
    assert m < n
    fine, _ = _rk4_step(state, st, coef, lift)
    coarse, _ = _rk4_step(state[..., :: n // m].copy(), st,
                          coef[..., : m // 2 + 1].copy(), lift)
    assert fine.shape == (len(eps), manifold.ambient_dim, n)
    assert coarse.shape == (len(eps), manifold.ambient_dim, m)
    scale = max(1.0, float(np.max(np.abs(state))))
    assert np.max(np.abs(coarse - fine[..., :: n // m])) <= 1e-14 * scale


def test_the_band_state_is_as_accurate_as_the_curve_grid_state():
    # the march carries each state on the stage grid; a march that carries
    # it on the curve grid (each step of the N-point state from its full
    # rfft) stands as close to a finer reference: N doubled, dt / 16 and
    # the same band
    n, steps, dt = 1024, 50, 1e-6
    u0 = random_smooth(SPHERE2, n, seed=11, decay=1.1, amplitude=0.18)
    cfg = FlowConfig(a=1.0, b=0.5, N_g=n, dt=dt, T=steps * dt)
    keep = run_band(cfg, u0)
    st = _Stepper(cfg, SPHERE2, keep, [cfg.epsilon])
    assert (keep, st.n) == (47, 256)
    state, _ = SPHERE2._retract(u0.samples.T)
    for _ in range(steps):
        state, _ = _rk4_step(state, st, np.fft.rfft(state, norm="forward"), None)
    curve = u0.with_samples(state.T)
    band = evolve(u0, cfg, stride=steps).final
    fine = replace(cfg, N_g=2 * n, dt=dt / 16, mode_cutoff=keep)
    ref = evolve(resample(u0, 2 * n), fine, stride=16 * steps)
    assert ref.failure is None
    ref = u0.with_samples(ref.final.samples[::2])
    to_ref = [h1_distance(c, ref) for c in (band, curve)]
    assert to_ref[0] == pytest.approx(to_ref[1], rel=5e-4)
    assert h1_distance(band, curve) < 0.1 * to_ref[1]


@pytest.mark.parametrize("n", [16, 64, 4096])
@pytest.mark.parametrize("low,high", [(0, 1), (1, 3)])
def test_parseval_weights_drop_the_nyquist_k2_and_double_twinned_modes(n, low, high):
    k2 = (TWO_PI * np.arange(n // 2 + 1)) ** 2
    k2[-1] = 0.0
    want = sum(k2**j for j in range(low, high + 1))
    want[1:-1] *= 2.0
    got = _parseval_weights(n, low, high)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert not got.flags.writeable
