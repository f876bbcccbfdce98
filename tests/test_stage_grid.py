"""The grid the RK4/IMEX stages run on, and what a step transforms there.

The stability clamp, not N, sets the band of a ProjectedRK4 run, so the
later stages run on the smallest grid that dealiases the band by the N/4
rule; only ``_lift``, the slope of the state (stage 1) and the step end
transform all N curve samples.
"""

import numpy as np
import pytest

from dcl.flow import (
    FlowConfig,
    _PicardWorkspace,
    _Stepper,
    evolve,
    mode_cutoff,
    stage_grid,
)
from dcl.manifolds import SPHERE2
from dcl.presets import random_smooth


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
    st = _Stepper(cfg, SPHERE2, 4096, keep, [cfg.epsilon])
    assert keep == 46 and st.n == 256 and st.n_curve == 4096
    assert st.mask.shape == (129,) and st.mask.sum() == keep + 1
    for eps in ([0.0], [0.0, 1e-4, 5e-5]):
        assert _Stepper(cfg, SPHERE2, 4096, keep, eps).n == 256


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_stage_grid_is_curve_grid_for_a_wide_pinned_band(n):
    for cutoff in (n // 4, n // 2):
        cfg = FlowConfig(a=1.0, b=0.5, N_g=n, dt=1e-5, T=1e-5,
                         mode_cutoff=cutoff)
        keep = mode_cutoff(cfg, SPHERE2, 5.0)
        assert _Stepper(cfg, SPHERE2, n, keep, [cfg.epsilon]).n == n


@pytest.mark.parametrize("a,cutoff", [(0.0, 0), (1.0, 0), (1.0, 5)])
def test_picard_stages_stay_on_curve_grid(a, cutoff):
    # the Picard kernel lives on the curve's modes, whatever the band
    cfg = FlowConfig(a=a, epsilon=1e-2, N_g=256, dt=1e-4, T=1e-4,
                     integrator="DuhamelPicard", mode_cutoff=cutoff)
    st = _PicardWorkspace(cfg, SPHERE2, 256).stepper
    assert st.n == st.n_curve == 256
    assert st.mask.sum() <= 256 // 4 + 1


@pytest.fixture
def fft_sizes(monkeypatch):
    """Record every np.fft.rfft/irfft call as (name, transform length)."""
    calls = []
    rfft, irfft = np.fft.rfft, np.fft.irfft

    def counted_rfft(a, *args, **kwargs):
        calls.append(("rfft", np.shape(a)[-1]))
        return rfft(a, *args, **kwargs)

    def counted_irfft(a, *args, **kwargs):
        calls.append(("irfft", kwargs["n"]))
        return irfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted_rfft)
    monkeypatch.setattr(np.fft, "irfft", counted_irfft)
    return calls


def test_step_transforms_curve_grid_only_at_lift_stage1_and_end(fft_sizes):
    n, m = 4096, 256
    u0 = random_smooth(SPHERE2, n, seed=11, decay=1.1, amplitude=0.18)
    cfg = FlowConfig(a=1.0, b=0.5, N_g=n, dt=1e-6, T=2e-6)
    traj = evolve(u0, cfg)
    assert traj.failure is None and traj.final.n == n
    # stage 1 slopes the state on the curve grid: P, [v_x, v_xx] and
    # [A0, rest]; stages 2-4 first transform their point back
    stages = [("rfft", n), ("irfft", n), ("rfft", n)] + 3 * [
        ("irfft", m), ("rfft", m), ("irfft", m), ("rfft", m)]
    step = stages + [("irfft", n), ("rfft", n)]
    assert len(step) == 17
    assert fft_sizes[-(1 + 2 * 17):] == [("rfft", n)] + 2 * step
