"""The stacked march against one ``evolve`` per eps level.

``flow._march`` advances every level as one (B, d, N) stack with
per-member guards.  Each of its trajectories must equal the one that
level's own ``evolve`` returns, bit for bit: snapshot times and states,
step residuals and the failure string.  A guard trip costs one retry per
live member on the step that trips, never a rerun of the march.
"""

from dataclasses import replace

import numpy as np
import pytest

from dcl import flow
from dcl.flow import FlowConfig, _march, evolve
from dcl.manifolds import CHART_FLAT_TORUS2, SPHERE2
from dcl.presets import random_smooth

# the guard-trip input of test_epsilon_batch, and a healthy sphere run
TRIP_U0 = random_smooth(CHART_FLAT_TORUS2, 64, seed=3, decay=1.1,
                        amplitude=0.18)
TRIP_CFG = FlowConfig(a=1.0, b=5.0, epsilon=0.0, N_g=64, dt=1e-3, T=0.2,
                      mode_cutoff=16)
CASES = {
    # the baseline and eps = 1e-4 overflow in steps 4 and 6
    "non-finite": (TRIP_U0, TRIP_CFG, 200, [0.0, 1e-3, 3e-4, 1e-4]),
    # after 4 steps eps = 1e-4 is finite but trips the H2 guard
    "h2-guard": (TRIP_U0, replace(TRIP_CFG, T=4e-3), 4,
                 [0.0, 3e-4, 2e-4, 1e-4]),
    # the H2 guard at every step freezes members at different steps
    "h2-stride-1": (TRIP_U0, replace(TRIP_CFG, T=4e-3), 1,
                    [0.0, 3e-4, 2e-4, 1e-4]),
    "sphere-stride-1": (
        random_smooth(SPHERE2, 64, seed=11, decay=1.0, amplitude=0.18),
        FlowConfig(a=1.0, b=0.5, N_g=64, dt=1e-5, T=5e-5), 1,
        [0.0, 4e-4, 1e-4],
    ),
}


def assert_same_trajectory(got, want):
    assert got.failure == want.failure
    assert got.times == want.times
    assert got.step_residuals == want.step_residuals
    assert got.picard_iterations == want.picard_iterations == []
    assert len(got.states) == len(want.states)
    for g, w in zip(got.states, want.states):
        assert g.samples.tobytes() == w.samples.tobytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_members_equal_their_own_evolve(case):
    u0, cfg, stride, levels = CASES[case]
    with np.errstate(all="ignore"):
        trajs = _march(u0, cfg, stride, levels)
        wants = [evolve(u0, replace(cfg, epsilon=eps), stride)
                 for eps in levels]
    assert [t.config.epsilon for t in trajs] == levels
    for got, want in zip(trajs, wants):
        assert_same_trajectory(got, want)
    if case != "sphere-stride-1":
        assert trajs[0].failure is not None and trajs[1].failure is None


@pytest.mark.parametrize("case", sorted(CASES))
def test_guard_trip_costs_one_retry_per_live_member(monkeypatch, case):
    u0, cfg, stride, levels = CASES[case]
    calls = []  # [members stepped, raised] per call
    step = flow._rk4_step

    def counted(samples, *args):
        calls.append([samples.shape[0], True])
        out = step(samples, *args)
        calls[-1][1] = False
        return out

    monkeypatch.setattr(flow, "_rk4_step", counted)
    with np.errstate(all="ignore"):
        trajs = _march(u0, cfg, stride, levels)
    assert any(t.failure is None for t in trajs)
    # each step is one stacked call; one that raises is followed by one
    # call per member it stepped, each member alone
    steps, i, retries = 0, 0, 0
    while i < len(calls):
        members, raised = calls[i]
        steps, i = steps + 1, i + 1
        if raised:
            assert members > 1
            assert all(m == 1 for m, _ in calls[i:i + members])
            i, retries = i + members, retries + members
    assert steps == cfg.n_steps()
    assert len(calls) == cfg.n_steps() + retries
    if case == "non-finite":
        assert retries == 4 + 3
