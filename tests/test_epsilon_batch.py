"""The batched epsilon continuation against one ``evolve`` per level.

``reference_rows`` is the per-level loop the continuation ran before its
members were stacked: the eps = 0 baseline and every level each march on
their own.  The batched march must reproduce its rows bit for bit,
including the failure strings when a guard trips for some member.
"""

from dataclasses import replace

import numpy as np
import pytest
from conftest import periodic_step

from dcl import flow
from dcl.curves import h1_distance
from dcl.flow import (
    FlowConfig,
    _Stepper,
    epsilon_continuation,
    evolve,
    mode_cutoff,
)
from dcl.manifolds import CHART_FLAT_TORUS2, CLIFFORD_TORUS2, SPHERE2
from dcl.presets import random_smooth

TARGETS = [SPHERE2, CLIFFORD_TORUS2, CHART_FLAT_TORUS2]


def reference_rows(u0, cfg, eps_list):
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


def assert_rows_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        assert g["epsilon"] == w["epsilon"]
        assert g["failure"] == w["failure"]
        for key in ("h1_to_zero", "h1_to_prev"):
            assert np.array_equal(g[key], w[key], equal_nan=True), key


def smooth_start(manifold, n, seed=11):
    u0 = random_smooth(manifold, n, seed=seed, decay=1.0, amplitude=0.18)
    if manifold is CHART_FLAT_TORUS2:
        assert np.array_equal(u0.winding(), [1.0, 0.0])
    return u0


@pytest.mark.parametrize("manifold", TARGETS, ids=lambda m: m.name)
def test_batched_rows_match_per_level_loop(manifold):
    u0 = smooth_start(manifold, 64)
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=0.0, N_g=64, dt=1e-5, T=1e-4)
    eps_list = [4e-4, 2e-4, 1e-4]
    rows = epsilon_continuation(u0, cfg, eps_list)
    assert all(r["failure"] is None for r in rows)
    assert_rows_identical(rows, reference_rows(u0, cfg, eps_list))


@pytest.mark.parametrize(
    "horizon,eps_list,tripped",
    [
        # the baseline and eps = 1e-4 overflow; the larger levels survive
        (0.2, [1e-3, 3e-4, 1e-4], "StepSizeUnstable: non-finite state"),
        # after 4 steps eps = 1e-4 is finite but trips the H2 guard
        (4e-3, [3e-4, 2e-4, 1e-4], "StepSizeUnstable: H2 norm grew"),
    ],
    ids=["non-finite", "h2-guard"],
)
def test_guard_trips_give_per_level_rows(horizon, eps_list, tripped):
    u0 = random_smooth(CHART_FLAT_TORUS2, 64, seed=3, decay=1.1,
                       amplitude=0.18)
    cfg = FlowConfig(a=1.0, b=5.0, epsilon=0.0, N_g=64, dt=1e-3, T=horizon,
                     mode_cutoff=16)
    with np.errstate(all="ignore"):
        rows = epsilon_continuation(u0, cfg, eps_list)
        want = reference_rows(u0, cfg, eps_list)
        survivors = [
            evolve(u0, replace(cfg, epsilon=eps), stride=cfg.n_steps()).failure
            for eps in eps_list[:2]
        ]
    assert survivors == [None, None]
    assert_rows_identical(rows, want)
    assert all(r["failure"].startswith("baseline ") for r in rows[:2])
    assert rows[2]["failure"].startswith(tripped)


def test_march_ends_when_every_member_fails_its_retry():
    # the stacked step goes non-finite, and so does each member's own retry
    # of it, the baseline's included: no member is left to march on
    u0 = random_smooth(CHART_FLAT_TORUS2, 64, seed=3, decay=1.1,
                       amplitude=0.18)
    cfg = FlowConfig(a=1.0, b=5.0, epsilon=0.0, N_g=64, dt=1e-3, T=0.2,
                     mode_cutoff=16)
    rows = epsilon_continuation(u0, cfg, [1e-6, 5e-7])
    assert [r["failure"] for r in rows] == ["StepSizeUnstable: non-finite state"] * 2
    assert all(np.isnan(r["h1_to_zero"]) for r in rows)


@pytest.mark.parametrize(
    "horizon,eps_list",
    [(0.2, [1e-3, 3e-4, 1e-4]), (4e-3, [3e-4, 2e-4, 1e-4])],
    ids=["non-finite", "h2-guard"],
)
def test_band_is_decided_once_per_run(monkeypatch, horizon, eps_list):
    # the guard-trip continuations above freeze members at different steps,
    # so they build a stepper for each set of live members; all of them
    # share the one band the march decided
    calls = []
    cutoff = flow.mode_cutoff

    def counted(*args):
        calls.append(args)
        return cutoff(*args)

    monkeypatch.setattr(flow, "mode_cutoff", counted)
    u0 = random_smooth(CHART_FLAT_TORUS2, 64, seed=3, decay=1.1,
                       amplitude=0.18)
    cfg = FlowConfig(a=1.0, b=5.0, epsilon=0.0, N_g=64, dt=1e-3, T=horizon,
                     mode_cutoff=16)
    with np.errstate(all="ignore"):
        rows = epsilon_continuation(u0, cfg, eps_list)
    assert all(r["failure"] for r in rows)
    assert len(calls) == 1


@pytest.mark.parametrize("manifold", TARGETS, ids=lambda m: m.name)
def test_stacked_step_equals_member_steps(manifold):
    # distinct members, each with its own eps
    members = [smooth_start(manifold, 128, seed) for seed in (11, 12, 13)]
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=0.0, N_g=128, dt=1e-5, T=1e-5)
    levels = [0.0, 3e-5, 1e-4]
    speed = float(np.max(np.abs(members[0].velocity())))
    stack = np.stack([u.samples.T for u in members])
    keep = mode_cutoff(cfg, manifold, speed)
    st_stack = _Stepper(cfg, manifold, keep, levels)
    stepped = periodic_step(stack, st_stack, manifold)
    for eps, u, got in zip(levels, members, stepped):
        cfg_eps = replace(cfg, epsilon=eps)
        st = _Stepper(cfg_eps, manifold,
                      mode_cutoff(cfg_eps, manifold, speed), [eps])
        want = periodic_step(u.samples.T, st, manifold)
        assert np.array_equal(got, want)
