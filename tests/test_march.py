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
from dcl.flow import (
    INTEGRATORS,
    FlowConfig,
    _march,
    _Stepper,
    evolve,
    mode_cutoff,
    run_band,
    stage_grid,
)
from dcl.errors import TangencyViolation
from dcl.manifolds import CHART_FLAT_TORUS2, SPHERE2, _Manifold
from dcl.presets import great_circle, random_smooth

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


# ---------------------------------------------------------------------------
# The march checks what can fail: the tube check inside every retraction
# (u0 at entry, each later stage point, each step end).  A retraction is on
# the target by construction (tests/test_retract_property.py), so no
# on-target check follows one.
# ---------------------------------------------------------------------------


def test_step_checks_later_stages_and_its_end(on_target_checks, tube_checks):
    # stage 1 takes the state as its step end retracted it; stages 2-4
    # retract their points, and the step end the state it accepts
    u0 = random_smooth(SPHERE2, 64, seed=5, decay=1.0, amplitude=0.2)
    cfg = FlowConfig(a=1.0, b=0.5, N_g=64, dt=1e-5, T=1e-5)
    st = _Stepper(cfg, SPHERE2, mode_cutoff(cfg, SPHERE2, 1.0), [0.0])
    rows = u0.samples.T
    flow._rk4_step(rows, st, np.fft.rfft(rows, norm="forward"),
                   np.zeros((3, 1)))
    assert len(on_target_checks) == 0
    assert len(tube_checks) == 4


@pytest.mark.parametrize("levels", [None, [0.0, 1e-4, 5e-5]])
def test_march_checks_u0_once_per_run(on_target_checks, tube_checks, levels):
    u0 = random_smooth(SPHERE2, 64, seed=5, decay=1.0, amplitude=0.2)
    for steps in (1, 3):
        cfg = FlowConfig(a=1.0, b=0.5, N_g=64, dt=1e-5, T=steps * 1e-5)
        tube_checks.clear()
        trajs = _march(u0, cfg, 1, levels)
        assert all(t.failure is None for t in trajs)
        assert len(on_target_checks) == 0
        assert len(tube_checks) == 1 + 4 * steps
        # the entry retraction sees the whole stack of u0
        assert tube_checks[0] == (len(trajs), 64)


def test_picard_march_checks_only_its_node_stacks(on_target_checks,
                                                  tube_checks):
    # Picard states sit off the target by design: no entry retraction, one
    # retraction of the node stack per iteration
    cfg = FlowConfig(epsilon=1e-2, N_g=32, dt=1e-4, T=3e-4,
                     integrator="DuhamelPicard")
    traj = evolve(great_circle(32), cfg)
    assert traj.failure is None
    assert len(on_target_checks) == 0
    assert len(tube_checks) == sum(traj.picard_iterations)
    assert set(tube_checks) == {(cfg.quadrature_nodes, 32)}


@pytest.mark.parametrize("levels", [None, [0.0, 1e-4]])
def test_u0_outside_the_tube_fails_every_member_at_entry(levels):
    c = great_circle(32)
    far = c.with_samples(c.samples * 1.6)  # distance 0.6 > tubular radius 0.5
    cfg = FlowConfig(a=1.0, b=0.5, N_g=32, dt=1e-5, T=2e-5)
    trajs = _march(far, cfg, 1, levels)
    assert len(trajs) == (1 if levels is None else len(levels))
    for traj in trajs:
        assert traj.failure == ("OutOfTubularNeighborhood: Sphere2: distance "
                                "6.000e-01 >= tubular radius 5.000e-01")
        assert len(traj.states) == 1 and traj.states[0] is far
        assert traj.times == [0.0] and traj.step_residuals == []


@pytest.mark.parametrize("levels", [None, [0.0, 1e-4]])
def test_the_march_records_only_what_a_step_can_raise(monkeypatch, levels):
    # a step trips the tube, contraction or step-size guards; the tangency
    # guard belongs to the checked references, which no step calls, so an
    # error of that type from a step is a fault and leaves the march
    def tangency(*args):
        raise TangencyViolation("raised by a step")

    monkeypatch.setattr(flow, "_rk4_step", tangency)
    cfg = FlowConfig(a=1.0, b=0.5, N_g=32, dt=1e-5, T=2e-5)
    with pytest.raises(TangencyViolation, match="raised by a step"):
        _march(great_circle(32), cfg, 1, levels)
    if levels is None:
        with pytest.raises(TangencyViolation, match="raised by a step"):
            evolve(great_circle(32), cfg)


# ---------------------------------------------------------------------------
# The winding: a homotopy invariant, read once per march
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("integrator,levels", [
    ("ProjectedRK4", None), ("ProjectedRK4", [0.0, 1e-4]),
    ("DuhamelPicard", None),
])
def test_march_reads_the_trend_once(monkeypatch, integrator, levels):
    # the march steps each curve's periodic part: the trend of u0 is read
    # at entry, never again from a step's state
    calls = []
    read = flow.lift_trend

    def counted(samples, manifold):
        calls.append(samples.shape)
        return read(samples, manifold)

    monkeypatch.setattr(flow, "lift_trend", counted)
    u0 = random_smooth(CHART_FLAT_TORUS2, 64, seed=2, decay=1.2,
                       amplitude=0.1)
    cfg = FlowConfig(a=0.5, b=0.5, N_g=64, dt=1e-5, T=4e-5,
                     integrator=integrator,
                     epsilon=1e-2 if integrator == "DuhamelPicard" else 0.0)
    trajs = _march(u0, cfg, 1, levels)
    assert all(t.failure is None and len(t.states) == 5 for t in trajs)
    assert calls == [(2, 64)]


@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_snapshots_keep_the_winding_of_u0(integrator):
    runs = [(random_smooth(CHART_FLAT_TORUS2, 64, seed=2, decay=1.2,
                           amplitude=0.1),
             FlowConfig(a=0.5, b=0.5, N_g=64, dt=1e-5, T=4e-5,
                        integrator=integrator, epsilon=1e-2), 1)]
    if integrator == "ProjectedRK4":
        # the blow-up input: its states are under-resolved by step 2
        runs.append((TRIP_U0, replace(TRIP_CFG, epsilon=1e-4, T=8e-3), 1))
    for u0, cfg, stride in runs:
        assert u0.winding().any()
        with np.errstate(all="ignore"):
            traj = evolve(u0, cfg, stride)
        assert len(traj.states) == 5
        for state in traj.states:
            assert np.array_equal(state.winding(), u0.winding())
            assert state.trend().tobytes() == u0.trend().tobytes()


# a snapshot is the state at its step, whatever stride asks for it: the
# property that carrying the band and a stride-free guard must keep
STRIDE_U0 = random_smooth(SPHERE2, 64, seed=3, decay=1.0, amplitude=0.2)
STRIDE_CFG = FlowConfig(a=1.0, b=0.5, N_g=64, dt=1e-5, T=1.2e-4)
BAND_U0 = random_smooth(SPHERE2, 256, seed=3, decay=1.0, amplitude=0.2)
BAND_CFG = replace(STRIDE_CFG, N_g=256)
STRIDE_CASES = {
    "rk4-sphere": (STRIDE_U0, STRIDE_CFG, None),
    "picard-sphere": (STRIDE_U0, replace(STRIDE_CFG, epsilon=1e-2,
                                         integrator="DuhamelPicard"), None),
    "rk4-chart-winding": (
        random_smooth(CHART_FLAT_TORUS2, 64, seed=3, decay=1.0, amplitude=0.2),
        replace(STRIDE_CFG, epsilon=1e-4), None),
    "rk4-levels": (STRIDE_U0, STRIDE_CFG, [0.0, 1e-4, 5e-5]),
    # the band state: a stage grid of 64 points under a curve grid of 256
    "rk4-band": (BAND_U0, BAND_CFG, None),
    "rk4-band-levels": (BAND_U0, BAND_CFG, [0.0, 1e-4, 5e-5]),
}


@pytest.mark.parametrize("case", sorted(STRIDE_CASES))
def test_snapshots_do_not_depend_on_the_stride(case):
    u0, cfg, levels = STRIDE_CASES[case]
    if case == "rk4-chart-winding":
        assert u0.winding().any()
    every = _march(u0, cfg, 1, levels)
    assert cfg.n_steps() == 12 and len(every) == len(levels or [0])
    for stride in (2, 3, 4, 12):
        for got, want in zip(_march(u0, cfg, stride, levels), every):
            assert got.failure is None and want.failure is None
            assert got.step_residuals == want.step_residuals
            assert got.picard_iterations == want.picard_iterations
            assert got.times == want.times[::stride]
            assert ([s.samples.tobytes() for s in got.states]
                    == [s.samples.tobytes() for s in want.states[::stride]])


def test_band_cases_march_on_the_stage_grid():
    # the stride cases above at N = 64 march on the curve grid, M = N
    keep = run_band(BAND_CFG, BAND_U0)
    assert stage_grid(BAND_CFG.N_g, keep) == 64 < BAND_CFG.N_g
    assert stage_grid(STRIDE_CFG.N_g, run_band(STRIDE_CFG, STRIDE_U0)) == 64


# ---------------------------------------------------------------------------
# The band state: snapshots reach the curve grid when the march returns
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("stride", [1, 3])
def test_a_snapshot_outside_the_tube_cuts_only_its_member(monkeypatch, stride):
    # the curve-grid retraction of the snapshots runs once, after the loop:
    # a snapshot it finds outside the tube ends its member's trajectory
    # there, as a tube exit at its step would, and no other member's
    levels = [0.0, 1e-4, 5e-5]
    wants = _march(BAND_U0, BAND_CFG, stride, levels)
    assert all(t.failure is None and len(t.states) == 1 + 12 // stride
               for t in wants)
    bad = wants[1].states[2].samples.T  # member 1's second snapshot
    retract, hits = _Manifold._retract, []

    def leave_the_tube(self, rows, sq=None):
        # the bad snapshot's curve-grid rows, and only they, move out to
        # distance 0.6 before the real retraction sees them
        if rows.shape[-1] != bad.shape[-1]:
            return retract(self, rows, sq)
        hit = np.all(np.abs(rows - bad) < 1e-9, axis=(-2, -1))
        hits.append(int(np.sum(hit)))
        if hit.any():
            rows = np.where(hit[..., None, None], 1.6 * rows, rows)
        return retract(self, rows, sq)

    monkeypatch.setattr(_Manifold, "_retract", leave_the_tube)
    trajs = _march(BAND_U0, BAND_CFG, stride, levels)
    alone = evolve(BAND_U0, replace(BAND_CFG, epsilon=levels[1]), stride)
    assert sum(hits) >= 1
    for got, want in zip(trajs, wants):
        if got is not trajs[1]:
            assert_same_trajectory(got, want)
    for got in (trajs[1], alone):
        t = wants[1].times[2]
        assert got.failure == ("OutOfTubularNeighborhood: Sphere2: distance "
                               f"6.000e-01 >= tubular radius 5.000e-01 at t = {t!r}")
        assert got.times == wants[1].times[:2]
        assert ([s.samples.tobytes() for s in got.states]
                == [s.samples.tobytes() for s in wants[1].states[:2]])
        # every step was accepted on the stage grid
        assert got.step_residuals == wants[1].step_residuals
