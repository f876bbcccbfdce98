"""The public layout at the boundary of the row-layout internals.

Inside ``dcl`` the flow, the geometry kernels and the reports store
fields as (..., d, N) rows.  The public surface keeps (..., d) points and
(..., N, d) fields: each public call returns its input's layout with the
bits of the per-point (or per-column) formula, written out here once per
target, and the snapshots ``evolve`` returns read like C-contiguous
(N, d) arrays.
"""

import numpy as np
import pytest

from dcl import spectral
from dcl.curves import ClosedCurve
from dcl.flow import FlowConfig, evolve
from dcl.manifolds import CHART_FLAT_TORUS2, CLIFFORD_TORUS2, SPHERE2, MANIFOLDS
from dcl.presets import random_smooth

R = CLIFFORD_TORUS2.radius


def sphere_point(p):
    sq = p[0] * p[0] + p[1] * p[1] + p[2] * p[2]
    norm = np.sqrt(sq)
    return {"sq": sq, "residual": np.abs(sq - 1.0),
            "distance": np.abs(norm - 1.0), "project": p / norm}


def sphere_vectors(y, x, z):
    xy = x[0] * y[0] + x[1] * y[1] + x[2] * y[2]
    xz = x[0] * z[0] + x[1] * z[1] + x[2] * z[2]
    cross = np.array([y[1] * x[2] - y[2] * x[1], y[2] * x[0] - y[0] * x[2],
                      y[0] * x[1] - y[1] * x[0]])
    return {"tangent": x - xy * y, "sff": -xz * y, "j": cross}


def clifford_point(p):
    s1, s2 = p[0] * p[0] + p[1] * p[1], p[2] * p[2] + p[3] * p[3]
    n1, n2 = np.sqrt(s1), np.sqrt(s2)
    return {"sq": np.array([s1, s2]),
            "residual": np.maximum(np.abs(s1 - R**2), np.abs(s2 - R**2)),
            "distance": np.hypot(n1 - R, n2 - R),
            "project": np.array([p[0] * (R / n1), p[1] * (R / n1),
                                 p[2] * (R / n2), p[3] * (R / n2)])}


def clifford_vectors(y, x, z):
    t1 = np.array([-y[1] / R, y[0] / R, 0.0, 0.0])
    t2 = np.array([0.0, 0.0, -y[3] / R, y[2] / R])

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + u[3] * v[3]

    c1 = -(x[0] * z[0] + x[1] * z[1]) / R**2
    c2 = -(x[2] * z[2] + x[3] * z[3]) / R**2
    return {"tangent": dot(x, t1) * t1 + dot(x, t2) * t2,
            "sff": np.array([c1 * y[0], c1 * y[1], c2 * y[2], c2 * y[3]]),
            "j": dot(x, t1) * t2 - dot(x, t2) * t1}


def chart_point(p):
    return {"sq": 0.0, "residual": 0.0, "distance": 0.0, "project": p}


def chart_vectors(y, x, z):
    return {"tangent": x, "sff": np.zeros(2), "j": np.array([-x[1], x[0]])}


FORMULAS = {
    SPHERE2: (sphere_point, sphere_vectors),
    CLIFFORD_TORUS2: (clifford_point, clifford_vectors),
    CHART_FLAT_TORUS2: (chart_point, chart_vectors),
}
LEADS = [(), (16,), (3, 16)]


def per_point(fn, key, *arrays):
    """``fn(...)[key]`` at every point of (..., d) arrays, stacked back."""
    lead = arrays[0].shape[:-1]
    flat = [a.reshape(-1, a.shape[-1]) for a in arrays]
    out = [np.asarray(fn(*pts)[key]) for pts in zip(*flat)]
    return np.array(out).reshape(lead + out[0].shape)


def points(manifold, lead, seed, off=1e-3):
    rng = np.random.default_rng(seed)
    d = manifold.ambient_dim
    on = manifold.project(rng.standard_normal(lead + (d,)))
    return on, on * (1.0 + off * rng.standard_normal(lead + (1,)))


def same(got, want):
    got = np.asarray(got)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("lead", LEADS, ids=["point", "curve", "stack"])
@pytest.mark.parametrize("manifold", list(MANIFOLDS.values()), ids=str)
def test_point_operators_keep_layout_and_bits(manifold, lead):
    formula = FORMULAS[manifold][0]
    _, pts = points(manifold, lead, seed=1)
    proj, sq = manifold.retract(pts)
    assert same(proj, per_point(formula, "project", pts))
    assert same(sq, per_point(formula, "sq", pts))
    assert same(manifold.project(pts), per_point(formula, "project", pts))
    for key, fn in (("residual", manifold.constraint_residual),
                    ("distance", manifold.distance)):
        assert same(fn(pts), per_point(formula, key, pts))


@pytest.mark.parametrize("lead", LEADS, ids=["point", "curve", "stack"])
@pytest.mark.parametrize("manifold", list(MANIFOLDS.values()), ids=str)
def test_vector_operators_keep_layout_and_bits(manifold, lead):
    formula = FORMULAS[manifold][1]
    base, _ = points(manifold, lead, seed=2)
    rng = np.random.default_rng(3)
    x, z = rng.standard_normal((2,) + base.shape)
    assert same(manifold.tangent_project(base, x),
                per_point(formula, "tangent", base, x, z))
    assert same(manifold.second_fundamental_form(base, x, z),
                per_point(formula, "sff", base, x, z))
    assert same(manifold.complex_structure(base, x),
                per_point(formula, "j", base, x, z))


@pytest.mark.parametrize("case", ["one-base", "one-vector"])
@pytest.mark.parametrize("manifold", list(MANIFOLDS.values()), ids=str)
def test_vector_operators_broadcast_base_against_vectors(manifold, case):
    # one shape rule on every target: a (1, d) base against (5, d) vectors
    # and a (5, d) base against (1, d) vectors both give (5, d) results
    formula = FORMULAS[manifold][1]
    base, _ = points(manifold, (5,), seed=4)
    rng = np.random.default_rng(5)
    x, z = rng.standard_normal((2, 5, manifold.ambient_dim))
    if case == "one-base":
        base = base[:1]
    else:
        x, z = x[:1], z[:1]
    full = [np.broadcast_to(a, (5, manifold.ambient_dim)) for a in (base, x, z)]
    tangent = per_point(formula, "tangent", *full)
    assert same(manifold.tangent_project(base, x), tangent)
    assert same(manifold.normal_project(base, x), full[1] - tangent)
    assert same(manifold.second_fundamental_form(base, x, z),
                per_point(formula, "sff", *full))
    assert same(manifold.complex_structure(base, x),
                per_point(formula, "j", *full))


@pytest.mark.parametrize("manifold", list(MANIFOLDS.values()), ids=str)
def test_vector_operators_refuse_a_vector_of_another_width(manifold):
    base, _ = points(manifold, (5,), seed=6)
    d = manifold.ambient_dim
    for k in (d - 1, d + 1):
        bad, good = np.ones(k), np.ones(d)
        for call in (lambda: manifold.tangent_project(base, bad),
                     lambda: manifold.normal_project(base, bad),
                     lambda: manifold.second_fundamental_form(base, bad, good),
                     lambda: manifold.second_fundamental_form(base, good, bad),
                     lambda: manifold.complex_structure(base, bad)):
            with pytest.raises(ValueError,
                               match=f"expects ambient dimension {d}, got {k}"):
                call()


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("shape", [(32,), (32, 3), (4, 32, 2)],
                         ids=["N", "N-d", "B-N-d"])
def test_spectral_derivative_is_the_derivative_of_each_column(shape, order):
    f = np.random.default_rng(4).standard_normal(shape)
    mult = (2j * np.pi * spectral.wavenumbers(32)) ** order
    if order % 2:
        mult[-1] = 0.0

    def column(c):
        return np.fft.irfft(np.fft.rfft(c) * mult, n=32)

    got = spectral.spectral_derivative(f, order)
    assert got.shape == f.shape
    columns = np.moveaxis(f, -2, -1) if f.ndim > 1 else f
    want = np.array([column(c) for c in columns.reshape(-1, 32)])
    want = want.reshape(columns.shape)
    assert same(got, np.moveaxis(want, -1, -2) if f.ndim > 1 else want)


@pytest.mark.parametrize("integrator", ["ProjectedRK4", "DuhamelPicard"])
@pytest.mark.parametrize("manifold", list(MANIFOLDS.values()), ids=str)
def test_snapshots_read_as_c_contiguous_curves(manifold, integrator):
    u0 = random_smooth(manifold, 32, seed=6, decay=1.2, amplitude=0.1)
    eps = 1e-2 if integrator == "DuhamelPicard" else 0.0
    cfg = FlowConfig(a=0.5, b=0.5, epsilon=eps, N_g=32, dt=1e-5, T=3e-5,
                     integrator=integrator)
    traj = evolve(u0, cfg)
    assert traj.failure is None and len(traj.states) == 4
    for state in traj.states[1:]:
        # each snapshot is the transpose of the march's (d, N) row state
        assert state.samples.shape == (32, manifold.ambient_dim)
        assert state.samples.T.flags.c_contiguous
        copy = ClosedCurve(np.ascontiguousarray(state.samples), manifold)
        assert same(state.output_samples(), copy.output_samples())
        assert state.output_samples().tolist() == copy.output_samples().tolist()
        assert state.samples.tolist() == copy.samples.tolist()
