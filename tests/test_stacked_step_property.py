"""Property: a stacked RK4/IMEX step equals its members' single steps.

A (B, N, d) stack whose member i carries eps[i] must step every member
bit for bit as a single-curve step at that eps does.  A stack with any
eps > 0 forms the third-order rows for all members, while a single curve
at eps = 0 skips them, so this also pins the lean stage to the full one.
"""

from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dcl.flow import (  # noqa: E402
    FlowConfig,
    _imex_step,
    _lift,
    _rk4_step,
    _Stepper,
    mode_cutoff,
)
from dcl.manifolds import MANIFOLDS  # noqa: E402
from dcl.presets import random_smooth  # noqa: E402

N = 64

levels = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-6, 1e-3)), min_size=1, max_size=4
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    manifold=st.sampled_from(list(MANIFOLDS.values())),
    step_fn=st.sampled_from([_rk4_step, _imex_step]),
    eps=levels,
    seed=st.integers(0, 2**16),
)
def test_stacked_step_equals_member_steps(manifold, step_fn, eps, seed):
    members = [
        random_smooth(manifold, N, seed + i, decay=1.0, amplitude=0.18)
        for i in range(len(eps))
    ]
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=0.0, N_g=N, dt=1e-5, T=1e-5)
    speed = float(np.max(np.abs(members[0].velocity())))
    stack = np.stack([u.samples.T for u in members])
    st_stack = _Stepper(cfg, manifold, N, mode_cutoff(cfg, manifold, speed),
                        eps)
    stepped = step_fn(stack, cfg, st_stack, _lift(stack, manifold))[0]
    for level, u, got in zip(eps, members, stepped):
        cfg_level = replace(cfg, epsilon=level)
        st = _Stepper(cfg_level, manifold, N,
                      mode_cutoff(cfg_level, manifold, speed), [level])
        want = step_fn(u.samples.T, cfg_level, st,
                       _lift(u.samples.T, manifold))[0]
        assert np.array_equal(got, want)
