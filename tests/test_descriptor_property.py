"""Property test of the initial-condition descriptor grammar.

Every descriptor ``make_initial`` is given either builds the curve of the
direct preset call it names, on the requested grid, or raises
ConfigError.  The oracle below reads a descriptor by the documented
grammar on its own: after the colon, comma-separated fields, none empty,
exactly as many as the preset takes (up to three for ``random_smooth``).
Any descriptor it cannot turn into a call, and any call that fails, must
be a ConfigError.  ``file:`` descriptors are left out: their grid is the
file's.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dcl.errors import ConfigError, DclError  # noqa: E402
from dcl.manifolds import MANIFOLDS, SPHERE2  # noqa: E402
from dcl.presets import (  # noqa: E402
    DEFAULT_AMPLITUDE,
    DEFAULT_DECAY,
    great_circle,
    latitude_circle,
    make_initial,
    random_smooth,
    torus_geodesic,
)

N = 16
SEED = 4

FIELDS = st.one_of(
    st.sampled_from(["", "0", "1", "-1", "2", "0.3", "1.1", "1e308", "nan",
                     "inf", "-inf", "junk", " 1", "1.5", "+2", "1_0"]),
    st.integers(-3, 40).map(str),
    st.floats(-3.0, 3.0).map(repr),
)


@st.composite
def descriptors(draw):
    name = draw(st.sampled_from(
        ["great_circle", "latitude", "torus_geodesic", "random_smooth",
         "spiral", ""]))
    if draw(st.booleans()):
        return name
    return name + ":" + ",".join(draw(st.lists(FIELDS, max_size=5)))


def direct(descriptor, manifold):
    """The preset call the descriptor names; raises where it names none."""
    name, colon, arg = descriptor.partition(":")
    fields = arg.split(",") if colon else []
    if "" in fields:
        raise ValueError("empty field")
    if name == "great_circle" and not fields and manifold is SPHERE2:
        return great_circle(N)
    if name == "latitude" and len(fields) == 1 and manifold is SPHERE2:
        return latitude_circle(float(fields[0]), N)
    if name == "torus_geodesic" and len(fields) == 2:
        return torus_geodesic(manifold, int(fields[0]), int(fields[1]), N)
    if name == "random_smooth" and len(fields) <= 3:
        seed = int(fields[0]) if fields else SEED
        numbers = [float(v) for v in fields[1:]]
        decay, amplitude = numbers + [DEFAULT_DECAY, DEFAULT_AMPLITUDE][len(numbers):]
        return random_smooth(manifold, N, seed, decay, amplitude)
    raise ValueError("no preset call")


@settings(derandomize=True, max_examples=200, deadline=None)
@given(descriptor=descriptors(), manifold=st.sampled_from(sorted(MANIFOLDS)))
@example(descriptor="random_smooth:1,,2", manifold="Sphere2")
@example(descriptor="random_smooth:1,1,1,1", manifold="Sphere2")
@example(descriptor="great_circle:junk", manifold="Sphere2")
@example(descriptor="random_smooth:1,1,1e308", manifold="Sphere2")
@example(descriptor="random_smooth:1,1,1e308", manifold="CliffordTorus2")
@example(descriptor="random_smooth:2,0.7", manifold="ChartFlatTorus2")
def test_descriptor_builds_its_preset_call_or_raises_config_error(
    descriptor, manifold
):
    m = MANIFOLDS[manifold]
    with np.errstate(all="ignore"):  # huge amplitudes overflow on the way
        try:
            want = direct(descriptor, m)
        except (ValueError, DclError):  # no preset call, or one that fails
            want = None
        if want is None:
            with pytest.raises(ConfigError):
                make_initial(descriptor, m, N, seed=SEED)
            return
        got = make_initial(descriptor, m, N, seed=SEED)
    assert got.n == N and got.manifold is m
    assert got.samples.tobytes() == want.samples.tobytes()
