"""``_retract`` returns points on the target, or raises.

The march takes each retraction as it is: u0, every stage point after the
first and every step end are retracted and never checked on the target
again.  This property is why that is safe: on every target, for (d, N),
(B, d, N) and (q, d, N) rows of points inside the tube (up to 0.999 of
its radius), outside it, or not finite, ``_retract`` either raises
OutOfTubularNeighborhood or returns rows whose constraint residual is at
most ON_MANIFOLD_TOL.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dcl.errors import OutOfTubularNeighborhood  # noqa: E402
from dcl.manifolds import (  # noqa: E402
    CHART_FLAT_TORUS2,
    CLIFFORD_TORUS2,
    MANIFOLDS,
    ON_MANIFOLD_TOL,
    SPHERE2,
)

# a lone curve, a stack of B members, the Picard stack of q Gauss nodes
LAYOUTS = {"d-N": (), "B-d-N": (3,), "q-d-N": (8,)}


def _unit(rows):
    return rows / np.linalg.norm(rows, axis=-2, keepdims=True)


def rows_at(manifold, lead, n, reach, rng):
    """(*lead, d, n) rows of points at ``reach`` times the tubular radius
    from the target, ``reach`` shaped (*lead, n).  The chart's tube is all
    of R^2: there ``reach`` only scales the points up."""
    shape = lead + (manifold.ambient_dim, n)
    if manifold is SPHERE2:
        sign = rng.choice([-1.0, 1.0], size=reach.shape)
        scale = 1.0 + sign * reach * manifold.tubular_radius
        return _unit(rng.standard_normal(shape)) * scale[..., None, :]
    if manifold is CLIFFORD_TORUS2:
        # pair norms r + rho cos(theta) and r + rho sin(theta): distance rho
        theta = rng.uniform(0.0, 2.0 * np.pi, size=reach.shape)
        rho = reach * manifold.tubular_radius
        pairs = [_unit(rng.standard_normal(lead + (2, n)))
                 * (manifold.radius + rho * f(theta))[..., None, :]
                 for f in (np.cos, np.sin)]
        return np.concatenate(pairs, axis=-2)
    return rng.uniform(-1.0, 2.0, size=shape) * (1.0 + 1e6 * reach)[..., None, :]


@pytest.mark.parametrize("bad", [None, "outside", "nan", "inf", "-inf"])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("manifold", list(MANIFOLDS.values()), ids=str)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(reach=st.floats(0.0, 0.999), outside=st.floats(1.001, 1.9),
       n=st.sampled_from([16, 64]), seed=st.integers(0, 2**32 - 1))
def test_retract_returns_points_on_the_target_or_raises(
        manifold, layout, bad, reach, outside, n, seed):
    rng = np.random.default_rng(seed)
    lead = LAYOUTS[layout]
    reaches = rng.uniform(0.0, reach, size=lead + (n,))
    reaches.flat[0] = reach  # one point at the drawn reach itself
    if bad == "outside":
        reaches.flat[-1] = outside
    rows = rows_at(manifold, lead, n, reaches, rng)
    if bad in ("nan", "inf", "-inf"):
        rows.flat[rng.integers(rows.size)] = float(bad)
    # the chart has no tube to leave, and its kernels leave a non-finite
    # point to the step end's finite check
    refused = bad is not None and manifold is not CHART_FLAT_TORUS2
    try:
        proj, _ = manifold._retract(rows)
    except OutOfTubularNeighborhood:
        assert refused
        return
    assert not refused
    assert proj.shape == rows.shape
    residual = manifold._residual(manifold._sq_norms(proj))
    assert residual.max() <= ON_MANIFOLD_TOL
