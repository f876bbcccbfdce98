"""The stepper's workspace: fewer allocations, and no state leaks through it.

A ``_Stepper`` keeps the arrays of its stage slopes and step ends in
``work``, keyed by (name, shape), and reuses them from call to call.  A
warmed stepper's stage 1 and step at N = 4096 must allocate only a few
(d, N) rows; one stepper fed alternating grids, ranks and curves must
return bitwise what a fresh stepper returns; and nothing a step returns
may share memory with a workspace buffer.
"""

import tracemalloc

import numpy as np
import pytest

from dcl.curves import lift_trend
from dcl.flow import (
    FlowConfig,
    _picard_step,
    _rk4_step,
    _step_end,
    _Stepper,
    evolve,
    run_band,
)
from dcl.manifolds import CHART_FLAT_TORUS2, CLIFFORD_TORUS2, SPHERE2
from dcl.presets import random_smooth

BIG = 4096
ROW = 3 * BIG * 8  # one (3, N) float row on the sphere, 96 KiB


def peak_bytes(call):
    """Bytes ``call`` allocates at its peak, beyond what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def big_case(eps):
    """A warmed N = 4096 sphere stepper, the state, its rfft and config."""
    u0 = random_smooth(SPHERE2, BIG, seed=11, decay=1.1, amplitude=0.18)
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=eps[0], N_g=BIG, dt=1e-6, T=1e-6)
    keep = run_band(cfg, u0)
    st = _Stepper(cfg, SPHERE2, keep, eps)
    rows = u0.samples.T if len(eps) == 1 else np.stack([u0.samples.T] * len(eps))
    rows = np.ascontiguousarray(rows)
    coef = np.fft.rfft(rows, norm="forward")
    _rk4_step(rows, st, coef, None)  # the first use makes the buffers
    return st, rows, coef, cfg


# eps levels per layout: a (d, N) curve, or a (3, d, N) stack
BIG_LAYOUTS = {"curve": [0.0], "curve-eps": [1e-3], "stack": [0.0, 0.0, 0.0],
               "stack-eps": [0.0, 1e-3, 2e-3]}


@pytest.mark.parametrize("layout", BIG_LAYOUTS)
def test_warmed_stage1_and_step_allocate_a_few_rows(layout):
    # before the workspace, a second stage 1 allocated 823 KiB on a curve
    # at eps = 0 and 1122 KiB at eps > 0, about 8.6 and 11.7 rows; on the
    # curve grid with the workspace, 1.7-1.9 rows per member.  Stage 1 as
    # the step calls it, on the stage grid, reads 0.26-0.39 and the step
    # 2.4-2.8
    eps = BIG_LAYOUTS[layout]
    st, rows, coef, cfg = big_case(eps)
    members = len(eps)
    stage1 = peak_bytes(lambda: st.remainder(
        rows[..., :: BIG // st.n], coef[..., : st.n // 2 + 1], None))
    assert stage1 <= members * ROW // 2, stage1
    step = peak_bytes(lambda: _rk4_step(rows, st, coef, None))
    assert step <= 3 * members * ROW, step


# ---------------------------------------------------------------------------
# reuse leaks no state
# ---------------------------------------------------------------------------

N = 64


def curve_rows(manifold, seed):
    """(d, N) periodic part on the target and its (d, 1) winding."""
    c = random_smooth(manifold, N, seed, decay=1.0, amplitude=0.2)
    trend, winding = lift_trend(c.samples.T, manifold)
    rows, _ = manifold._retract(c.samples.T - trend)
    return rows, winding


def inputs(manifold, members):
    """Alternating inputs for a stepper of one eps level or ``members``:
    (d, N) curves and (2, d, N) stacks of two other curves, or stacks of
    different curves, each curve on the target with its winding."""
    curves = [curve_rows(manifold, seed) for seed in (5, 6, 7)]

    def stack(i, j):
        return tuple(np.stack(x) for x in zip(curves[i], curves[j]))

    if members == 1:
        return [curves[0], stack(1, 2), curves[0], curves[1]]
    return [stack(0, 1), stack(1, 2), stack(0, 1)]


def stage_point(rows, n):
    """A point near ``rows`` on the ``n``-point grid: its first modes, scaled."""
    coef = np.fft.rfft(rows, norm="forward")[..., : n // 2 + 1]
    return np.fft.irfft(1.001 * coef, n=n, norm="forward")


def workspace_of(st):
    return list(st.work.values())


def fresh_arrays(st, results):
    """No result shares memory with a buffer of ``st``'s workspace."""
    for r in results:
        for buf in workspace_of(st):
            assert not np.shares_memory(r, buf)


def same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


TARGETS = {"Sphere2": SPHERE2, "CliffordTorus2": CLIFFORD_TORUS2,
           "ChartFlatTorus2": CHART_FLAT_TORUS2}


@pytest.mark.parametrize("eps", [[0.0], [1e-3], [0.0, 1e-3]],
                         ids=["eps0", "eps", "stack"])
@pytest.mark.parametrize("target", TARGETS)
def test_a_reused_stepper_gives_a_fresh_steppers_bits(target, eps):
    manifold = TARGETS[target]
    cfg = FlowConfig(a=0.7, b=0.3, epsilon=eps[0], N_g=N, dt=1e-5, T=1e-5,
                     mode_cutoff=6)
    st = _Stepper(cfg, manifold, 6, eps)
    assert (cfg.N_g, st.n) == (N, 32)
    for rows, winding in inputs(manifold, len(eps)):
        lift = winding if winding.any() else None
        coef = np.fft.rfft(rows, norm="forward")
        stage = stage_point(rows, st.n)
        # stage 1 as the step calls it, a stage point, steps, then stage 1
        # once more; the step end alone runs on the curve grid
        v0 = coef[..., : st.n // 2 + 1]
        calls = [lambda s: s.remainder(rows[..., :: N // st.n], v0, lift),
                 lambda s: s.slope(stage, lift),
                 lambda s: _rk4_step(rows, s, coef, lift),
                 lambda s: _step_end(s, st.e_full * v0, N),
                 lambda s: s.remainder(rows[..., :: N // st.n], v0, lift)]
        for call in calls:
            got = call(st)
            want = call(_Stepper(cfg, manifold, 6, eps))
            got, want = (x if isinstance(x, tuple) else (x,) for x in (got, want))
            for g, w in zip(got, want):
                same_bits(g, w)
            fresh_arrays(st, got)
    assert workspace_of(st)


@pytest.mark.parametrize("target", TARGETS)
def test_a_reused_picard_stepper_gives_a_fresh_steppers_bits(target):
    manifold = TARGETS[target]
    cfg = FlowConfig(a=0.7, b=0.3, epsilon=1e-2, N_g=N, dt=1e-4, T=1e-4,
                     integrator="DuhamelPicard", quadrature_nodes=4)
    st = _Stepper(cfg, manifold, 16, [cfg.epsilon])
    curves = [curve_rows(manifold, seed) for seed in (5, 6, 5)]
    for rows, winding in curves:
        lift = winding if winding.any() else None
        coef = np.fft.rfft(rows, norm="forward")[None]
        got = _picard_step(rows[None], st, coef, lift)
        want = _picard_step(rows[None],
                            _Stepper(cfg, manifold, 16, [cfg.epsilon]),
                            coef, lift)
        for g, w in zip(got, want):
            same_bits(g, w)
        fresh_arrays(st, got)
    assert workspace_of(st)


@pytest.mark.parametrize("integrator,eps", [("ProjectedRK4", 0.0),
                                            ("DuhamelPicard", 1e-2)])
def test_snapshots_at_stride_one_are_distinct_arrays(integrator, eps):
    u0 = random_smooth(SPHERE2, N, 3, decay=1.0, amplitude=0.2)
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=eps, N_g=N, dt=1e-5, T=5e-5,
                     integrator=integrator)
    states = [s.samples for s in evolve(u0, cfg, stride=1).states]
    assert len(states) == 6
    for i, a in enumerate(states):
        for b in states[i + 1:]:
            assert not np.shares_memory(a, b)
    assert not any(np.array_equal(a, b) for a, b in zip(states, states[1:]))
