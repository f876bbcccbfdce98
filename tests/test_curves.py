from dataclasses import astuple

import numpy as np
import pytest
from conftest import constant_curve

from dcl import spectral
from dcl.curves import (
    ClosedCurve,
    covariant_derivative,
    covariant_tower,
    curvature_apply,
    h1_distance,
    identity_residuals,
    is_grid_size,
    resample,
    sobolev_norm,
    sup_distance,
)
from dcl.errors import PointOffManifold, TangencyViolation
from dcl.manifolds import CHART_FLAT_TORUS2, CLIFFORD_TORUS2, SPHERE2, by_name
from dcl.presets import great_circle, latitude_circle, random_smooth, torus_geodesic

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# construction and velocity
# ---------------------------------------------------------------------------


def test_grid_size_must_be_power_of_two():
    with pytest.raises(ValueError):
        ClosedCurve(np.zeros((24, 3)), SPHERE2)
    with pytest.raises(ValueError):
        ClosedCurve(np.zeros((8, 3)), SPHERE2)


@pytest.mark.parametrize("samples", [5.0, np.zeros(3), np.zeros((32, 3, 1)),
                                     np.zeros((32, 2))],
                         ids=["0-d", "1-d", "3-d", "wrong-width"])
def test_samples_of_the_wrong_shape_raise_the_shape_error(samples):
    with pytest.raises(ValueError, match=r"samples must have shape \(N, 3\)"):
        ClosedCurve(samples, "Sphere2")


@pytest.mark.parametrize("manifold,samples", [
    ("ChartFlatTorus2", 5.0), ("ChartFlatTorus2", np.zeros((32, 3))),
    ("CliffordTorus2", np.zeros((32, 3))),
], ids=["chart-0-d", "chart-width-3", "clifford-width-3"])
def test_the_shape_error_names_the_targets_ambient_width(manifold, samples):
    width = by_name(manifold).ambient_dim
    with pytest.raises(ValueError,
                       match=rf"samples must have shape \(N, {width}\)"):
        ClosedCurve(samples, manifold)


@pytest.mark.parametrize("call,name", [
    (lambda c: spectral.spectral_derivative(c.samples, 1.5), "order"),
    (lambda c: spectral.spectral_derivative(c.samples, 0), "order"),
    (lambda c: covariant_tower(c, 2.0), "order j"),
    (lambda c: covariant_tower(c, 7), "order j"),
    (lambda c: sobolev_norm(c, 1.5), "order m"),
    (lambda c: sobolev_norm(c, 6), "order m"),
    (lambda c: identity_residuals(c, l_max=4), "l_max"),
    (lambda c: identity_residuals(c, l_max=1.0), "l_max"),
    (lambda c: spectral.spectral_derivative(c.samples, -1), "order"),
    (lambda c: spectral.spectral_derivative(c.samples, "2"), "order"),
    (lambda c: covariant_tower(c, -1), "order j"),
    (lambda c: sobolev_norm(c, -1), "order m"),
    (lambda c: identity_residuals(c, l_max=-1), "l_max"),
    (lambda c: spectral.spectral_derivative(c.samples, True), "order"),
    (lambda c: spectral.spectral_derivative(c.samples, False), "order"),
    (lambda c: covariant_tower(c, True), "order j"),
    (lambda c: covariant_tower(c, False), "order j"),
    (lambda c: sobolev_norm(c, True), "order m"),
    (lambda c: sobolev_norm(c, False), "order m"),
    (lambda c: identity_residuals(c, l_max=True), "l_max"),
    (lambda c: identity_residuals(c, l_max=False), "l_max"),
], ids=["derivative-1.5", "derivative-0", "tower-2.0", "tower-7",
        "sobolev-1.5", "sobolev-6", "identities-4", "identities-1.0",
        "derivative--1", "derivative-str", "tower--1", "sobolev--1",
        "identities--1", "derivative-True", "derivative-False",
        "tower-True", "tower-False", "sobolev-True", "sobolev-False",
        "identities-True", "identities-False"])
def test_an_order_out_of_range_or_not_an_integer_names_its_argument(call,
                                                                     name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        call(great_circle(32))


ORDERED_CALLS = {
    "derivative": lambda c, k: spectral.spectral_derivative(c.samples, k),
    "tower": covariant_tower,
    "sobolev": sobolev_norm,
    "identities": lambda c, k: astuple(identity_residuals(c, l_max=k)),
}


@pytest.mark.parametrize("entry,order", [
    ("derivative", 1), ("derivative", 4), ("tower", 0), ("tower", 6),
    ("sobolev", 0), ("sobolev", 5), ("identities", 0), ("identities", 3),
])
def test_the_order_bounds_accept_python_and_numpy_integers(entry, order):
    # both ends of each range are valid, and an order read from a numpy
    # array is the same order as the Python int
    c = random_smooth(SPHERE2, 32, seed=4, decay=0.8, amplitude=0.3)
    call = ORDERED_CALLS[entry]
    want = call(c, order)
    got = call(c, np.int64(order))
    if entry == "tower":
        assert len(want) == order + 1
    if not isinstance(want, (list, tuple)):
        got, want = [got], [want]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_chart_winding_recovery():
    for winding in ((1, 0), (2, 3), (-1, 1)):
        c = torus_geodesic(CHART_FLAT_TORUS2, *winding, n=64)
        assert np.array_equal(c.winding(), np.array(winding, dtype=float))


def test_chart_velocity_of_winding_line():
    c = torus_geodesic(CHART_FLAT_TORUS2, 1, 0, n=32)
    assert np.max(np.abs(c.velocity() - np.array([1.0, 0.0]))) <= 1e-12


def test_embedded_velocity_is_tangent():
    c = random_smooth(SPHERE2, 64, seed=0, decay=1.0, amplitude=0.3)
    vx = c.velocity()
    normal = SPHERE2.normal_project(c.samples, vx)
    assert np.max(np.abs(normal)) <= 1e-9 * np.max(np.abs(vx))


# ---------------------------------------------------------------------------
# covariant derivative
# ---------------------------------------------------------------------------


def test_great_circle_is_geodesic():
    c = great_circle(64)
    cov = covariant_derivative(c, c.velocity())
    assert np.max(np.abs(cov)) <= 1e-10


def test_chart_straight_line_is_geodesic():
    c = torus_geodesic(CHART_FLAT_TORUS2, 1, 0, n=32)
    cov = covariant_derivative(c, c.velocity())
    assert np.max(np.abs(cov)) <= 1e-12


def test_covariant_derivative_matches_pointwise_projection():
    # oracle: p(u) applied to the plain spectral derivative of u_x
    c = random_smooth(SPHERE2, 64, seed=1, decay=0.8, amplitude=0.3)
    vx = c.velocity()
    oracle = SPHERE2.tangent_project(
        c.samples, spectral.spectral_derivative(vx)
    )
    got = covariant_derivative(c, c.velocity())
    assert np.max(np.abs(got - oracle)) <= 1e-12


def test_covariant_matches_extrinsic_assembly():
    # v_xx - A(v_x, v_x) reproduces the covariant derivative of u_x
    for m, seed in ((SPHERE2, 2), (CLIFFORD_TORUS2, 3)):
        c = random_smooth(m, 64, seed=seed, decay=0.9, amplitude=0.25)
        vx = c.velocity()
        vxx = spectral.spectral_derivative(vx)
        extrinsic = vxx - m.second_fundamental_form(c.samples, vx, vx)
        got = covariant_derivative(c, c.velocity())
        scale = max(1.0, np.max(np.abs(got)))
        assert np.max(np.abs(got - extrinsic)) <= 1e-10 * scale


def test_latitude_covariant_norm_closed_form():
    # |cov u_x|^2 = (2*pi)^4 sin^2(theta) cos^2(theta), derived by expanding
    # p(u) u_xx for the latitude circle; cross-checked against the analytic
    # field W = (2*pi)^2 cos(theta) (e_z - cos(theta) u) at the samples
    theta = 0.7
    c = latitude_circle(theta, 128)
    cov = covariant_derivative(c, c.velocity())
    analytic = TWO_PI**2 * np.cos(theta) * (
        np.array([0.0, 0.0, 1.0])[None, :] - np.cos(theta) * c.samples
    )
    assert np.max(np.abs(cov - analytic)) <= 1e-9
    value = spectral.l2_inner(cov, cov)
    expected = TWO_PI**4 * np.sin(theta) ** 2 * np.cos(theta) ** 2
    assert abs(value - expected) <= 1e-10 * expected


def test_tangency_violation_raises():
    c = great_circle(32)
    bad = np.tile(np.array([0.0, 0.0, 1.0]), (32, 1)) + c.samples
    with pytest.raises(TangencyViolation):
        covariant_derivative(c, bad)


def test_covariant_derivative_rejects_a_field_of_the_wrong_shape():
    c = great_circle(32)
    for bad in (great_circle(64).velocity(), c.velocity()[:, :2]):
        with pytest.raises(ValueError, match="field shape"):
            covariant_derivative(c, bad)


def test_covariant_derivative_rejects_a_base_off_the_target():
    # the field is tangent at the scaled samples too; only the base is off
    c = great_circle(32)
    off = ClosedCurve(1.01 * c.samples, SPHERE2)
    with pytest.raises(PointOffManifold):
        covariant_derivative(off, c.velocity())


# ---------------------------------------------------------------------------
# tower and Sobolev norms
# ---------------------------------------------------------------------------


def test_tower_great_circle():
    # geodesic: parallel velocity, every higher level vanishes up to the
    # roundoff amplified by one factor of k_max per derivative
    c = great_circle(64)
    tower = covariant_tower(c, 3)
    assert len(tower) == 4
    assert np.max(np.abs(tower[0] - c.velocity())) == 0.0
    k_max = TWO_PI * c.n / 2
    for j, f in enumerate(tower[1:], start=1):
        assert np.max(np.abs(f)) <= 1e-12 * k_max**j


def test_tower_constant_curve():
    tower = covariant_tower(constant_curve(), 3)
    for f in tower:
        assert np.max(np.abs(f)) <= 1e-14


def test_sobolev_examples():
    assert sobolev_norm(constant_curve(), 3) == 0.0
    assert abs(sobolev_norm(great_circle(64), 2) - TWO_PI) <= 1e-10
    theta = np.pi / 5
    expected = np.sqrt(
        TWO_PI**2 * np.sin(theta) ** 2
        + TWO_PI**4 * np.sin(theta) ** 2 * np.cos(theta) ** 2
    )
    assert abs(sobolev_norm(latitude_circle(theta, 128), 1) - expected) <= 1e-9


def test_sobolev_monotone_in_m():
    c = random_smooth(SPHERE2, 64, seed=4, decay=0.8, amplitude=0.3)
    norms = [sobolev_norm(c, m) for m in range(5)]
    assert all(b >= a for a, b in zip(norms, norms[1:]))


def test_chart_clifford_norm_consistency():
    # isometric embedding: covariant norms agree between chart and product
    chart = ClosedCurve(
        torus_geodesic(CHART_FLAT_TORUS2, 1, 2, n=128).samples
        + 0.05 * np.stack([np.sin(TWO_PI * spectral.grid(128)),
                           np.cos(2 * TWO_PI * spectral.grid(128))], axis=-1),
        CHART_FLAT_TORUS2,
    )
    embedded = ClosedCurve(CLIFFORD_TORUS2.embed_chart(chart.samples),
                           CLIFFORD_TORUS2)
    for m in (0, 1, 2, 3):
        a = sobolev_norm(chart, m)
        b = sobolev_norm(embedded, m)
        assert abs(a - b) <= 1e-8 * max(a, 1.0)


# ---------------------------------------------------------------------------
# curvature tensor
# ---------------------------------------------------------------------------


def _random_tangent_fields(curve, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        raw = rng.standard_normal(curve.samples.shape)
        out.append(curve.manifold.tangent_project(curve.samples, raw))
    return out


def test_curvature_antisymmetry_and_flat():
    c = great_circle(32)
    x, z = _random_tangent_fields(c, 2, 5)
    assert np.max(np.abs(curvature_apply(1.0, x, x, z))) == 0.0
    assert np.max(np.abs(curvature_apply(0.0, x, z, z))) == 0.0


def test_curvature_orthonormal_example():
    # X orthonormal to Z pointwise, Y = Z: R(X,Y)Z = K X
    c = great_circle(32)
    x = c.velocity() / TWO_PI
    z = np.cross(c.samples, x)
    got = curvature_apply(1.0, x, z, z)
    assert np.max(np.abs(got - x)) <= 1e-12


def test_curvature_gauss_equation_cross_check():
    # oracle on the sphere: <R(X,Y)Z,W> = <A(X,W),A(Y,Z)> - <A(X,Z),A(Y,W)>
    c = random_smooth(SPHERE2, 32, seed=6, decay=1.0, amplitude=0.3)
    x, y, z, w = _random_tangent_fields(c, 4, 7)
    lhs = (curvature_apply(1.0, x, y, z) * w).sum(-1)
    sff = SPHERE2.second_fundamental_form
    rhs = (
        sff(c.samples, x, w)
        * sff(c.samples, y, z)
    ).sum(-1) - (
        sff(c.samples, x, z)
        * sff(c.samples, y, w)
    ).sum(-1)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_curvature_base_mismatch():
    c1, c2 = great_circle(32), great_circle(64)
    x = c1.velocity()
    y = c2.velocity()
    with pytest.raises(ValueError):
        curvature_apply(1.0, x, y, x)


# ---------------------------------------------------------------------------
# distances and resampling
# ---------------------------------------------------------------------------


def test_h1_distance_chart_alignment():
    c1 = torus_geodesic(CHART_FLAT_TORUS2, 1, 0, n=32)
    shifted = c1.with_samples(c1.samples + np.array([3.0, -2.0]))
    assert h1_distance(c1, shifted) <= 1e-12


def test_sup_distance_torus_wraps():
    c1 = torus_geodesic(CHART_FLAT_TORUS2, 1, 0, n=32)
    c2 = c1.with_samples(c1.samples + np.array([0.999, 0.0]))
    assert sup_distance(c1, c2) <= 1e-3 + 1e-12


@pytest.mark.parametrize("distance", [h1_distance, sup_distance])
@pytest.mark.parametrize("other", [
    torus_geodesic(CLIFFORD_TORUS2, 1, 0, n=32), great_circle(64),
], ids=["other-target", "other-grid"])
def test_distances_refuse_curves_on_another_target_or_grid(distance, other):
    with pytest.raises(ValueError, match="curves must share manifold and grid"):
        distance(great_circle(32), other)


def test_resample_band_limited_exact():
    c = latitude_circle(0.9, 32)
    fine = resample(c, 128)
    exact = latitude_circle(0.9, 128)
    assert sup_distance(fine, exact) <= 1e-12
    back = resample(fine, 32)
    assert sup_distance(back, c) <= 1e-12


@pytest.mark.parametrize("n", [0, 1, 3, 8, 24, 16.0, True, -16], ids=repr)
def test_resample_refuses_a_size_that_is_not_a_grid(n):
    # refused before any transform, on a 16-sample curve that 16.0 equals
    assert not is_grid_size(n)
    with pytest.raises(ValueError, match="grid size must be a power of two >= 16, got"):
        resample(great_circle(16), n)


def test_resample_chart_keeps_winding():
    c = torus_geodesic(CHART_FLAT_TORUS2, 2, 1, n=32)
    fine = resample(c, 64)
    assert np.array_equal(fine.winding(), c.winding())


def nine_times_around(manifold, n=64):
    """A closed geodesic that winds 9 times: no mode of it fits 16 samples."""
    if manifold is SPHERE2:
        phase = TWO_PI * 9 * spectral.grid(n)
        return ClosedCurve(np.stack([np.cos(phase), np.sin(phase),
                                     np.zeros(n)], axis=-1), SPHERE2)
    return torus_geodesic(manifold, 9, 0, n=n)


@pytest.mark.parametrize("manifold", [SPHERE2, CLIFFORD_TORUS2, CHART_FLAT_TORUS2],
                         ids=str)
def test_resample_refuses_a_grid_that_cannot_carry_the_curve(manifold):
    # on 16 samples the chart lift steps 9/16 of a period and reads back
    # winding 8; the embedded interpolants collapse onto the sphere's
    # center and the torus's circle axes, far outside the tube
    c = nine_times_around(manifold)
    with pytest.raises(ValueError, match="16 samples"):
        resample(c, 16)
    coarse = resample(c, 32)  # steps of 9/32 of a period carry it
    assert sup_distance(resample(coarse, 64), c) <= 1e-12
    assert np.array_equal(coarse.winding(), c.winding())
