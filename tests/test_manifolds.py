import numpy as np
import pytest
from conftest import chart_coordinates

from dcl.errors import OutOfTubularNeighborhood, PointOffManifold
from dcl.manifolds import (
    CHART_FLAT_TORUS2,
    CLIFFORD_TORUS2,
    MANIFOLDS,
    SPHERE2,
    _dot,
    by_name,
)

TWO_PI = 2.0 * np.pi


def random_on(manifold, count, seed):
    rng = np.random.default_rng(seed)
    if manifold is CHART_FLAT_TORUS2:
        return rng.uniform(-1, 2, size=(count, 2))
    return manifold.project(rng.standard_normal((count, manifold.ambient_dim)))


def tube_points(manifold, count, seed):
    rng = np.random.default_rng(seed)
    on = random_on(manifold, count, seed)
    if manifold is CHART_FLAT_TORUS2:
        return on
    normal = manifold.normal_project(on, rng.standard_normal(on.shape))
    cap = np.maximum(1.0, np.abs(normal).max(axis=-1, keepdims=True))
    return on + 0.4 * manifold.tubular_radius * normal / cap


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------


def test_sphere_project_radial():
    assert np.allclose(SPHERE2.project(np.array([2.0, 0.0, 0.0])), [1, 0, 0])


def test_sphere_project_idempotent_on_manifold():
    assert np.allclose(SPHERE2.project(np.array([1.0, 0.0, 0.0])), [1, 0, 0])


def brute_force_clifford_projection(q, grid=200_000):
    # oracle: scan each circle independently (the squared distance splits)
    r = CLIFFORD_TORUS2.radius
    phi = np.linspace(0, TWO_PI, grid, endpoint=False)
    best = []
    for pair in (q[:2], q[2:]):
        pts = np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1)
        d = ((pts - pair[None, :]) ** 2).sum(axis=-1)
        best.append(pts[np.argmin(d)])
    return np.concatenate(best)


def test_clifford_project_matches_brute_force():
    q = np.array([1 / np.pi, 0.0, 0.0, 1 / TWO_PI])
    expected = np.array([1 / TWO_PI, 0.0, 0.0, 1 / TWO_PI])
    oracle = brute_force_clifford_projection(q)
    assert np.max(np.abs(oracle - expected)) <= 1e-4
    assert np.max(np.abs(CLIFFORD_TORUS2.project(q) - expected)) <= 1e-12


def test_project_idempotent_in_tube():
    for m in MANIFOLDS.values():
        pts = tube_points(m, 64, 1)
        proj = m.project(pts)
        assert np.max(m.constraint_residual(proj)) <= 1e-12
        assert np.max(np.abs(m.project(proj) - proj)) <= 1e-12


def test_project_tube_check():
    with pytest.raises(OutOfTubularNeighborhood):
        SPHERE2.require_in_tube(np.array([2.0, 0.0, 0.0]))
    with pytest.raises(OutOfTubularNeighborhood):
        SPHERE2.project(np.zeros(3))


# ---------------------------------------------------------------------------
# tangent/normal projection
# ---------------------------------------------------------------------------


def test_sphere_tangent_examples():
    y = np.array([0.0, 0.0, 1.0])
    assert np.allclose(SPHERE2.tangent_project(y, np.array([1.0, 0, 0])), [1, 0, 0])
    assert np.allclose(SPHERE2.tangent_project(y, np.array([0, 0, 5.0])), [0, 0, 0])
    y = np.array([1.0, 0.0, 0.0])
    assert np.allclose(
        SPHERE2.tangent_project(y, np.array([1.0, 1.0, 0.0])), [0, 1, 0]
    )


def test_tangent_project_matches_projection_differential():
    # oracle: p(y) X = d/dh project(y + h X) at h = 0, by central differences
    h = 1e-6
    rng = np.random.default_rng(2)
    for m in (SPHERE2, CLIFFORD_TORUS2):
        y = random_on(m, 8, 3)
        x = rng.standard_normal(y.shape)
        fd = (m.project(y + h * x) - m.project(y - h * x)) / (2 * h)
        got = m.tangent_project(y, x)
        assert np.max(np.abs(fd - got)) <= 1e-4 * max(1.0, np.max(np.abs(got)))


def test_projector_algebra():
    rng = np.random.default_rng(4)
    for m in MANIFOLDS.values():
        y = random_on(m, 32, 5)
        x = rng.standard_normal(y.shape)
        z = rng.standard_normal(y.shape)
        px = m.tangent_project(y, x)
        assert np.max(np.abs(px + m.normal_project(y, x) - x)) <= 1e-12
        assert np.max(np.abs(m.tangent_project(y, px) - px)) <= 1e-12
        sym = (px * z).sum(-1) - (x * m.tangent_project(y, z)).sum(-1)
        assert np.max(np.abs(sym)) <= 1e-12


def test_point_off_manifold_raises():
    bad = np.array([1.5, 0.0, 0.0])
    with pytest.raises(PointOffManifold):
        SPHERE2.tangent_project(bad, np.array([0.0, 1.0, 0.0]))


@pytest.mark.parametrize("manifold", [SPHERE2, CLIFFORD_TORUS2], ids=str)
def test_checked_operators_reject_off_manifold_base(manifold):
    bad = 1.5 * random_on(manifold, 4, seed=0)
    vec = np.ones_like(bad)
    with pytest.raises(PointOffManifold):
        manifold.tangent_project(bad, vec)
    with pytest.raises(PointOffManifold):
        manifold.second_fundamental_form(bad, vec, vec)
    with pytest.raises(PointOffManifold):
        manifold.complex_structure(bad, vec)


def rows(a):
    """(..., N, d) points as the kernels' (..., d, N) rows, and back."""
    return np.swapaxes(a, -1, -2)


@pytest.mark.parametrize("manifold", list(MANIFOLDS.values()), ids=str)
def test_unchecked_kernels_equal_public_operators(manifold):
    base = random_on(manifold, 64, seed=1)
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal((2,) + base.shape)
    assert np.array_equal(
        rows(manifold._tangent(rows(base), rows(x))),
        manifold.tangent_project(base, x)
    )
    assert np.array_equal(
        rows(manifold._sff(rows(base), rows(x), rows(y))),
        manifold.second_fundamental_form(base, x, y)
    )
    assert np.array_equal(
        rows(manifold._j(rows(base), rows(x))),
        manifold.complex_structure(base, x)
    )
    if manifold is SPHERE2:
        assert np.array_equal(rows(manifold._j(rows(base), rows(x))),
                              np.cross(base, x))


def test_chart_kernels_ignore_an_integer_trend():
    # the flow steps a winding chart curve's periodic part in place of the
    # curve: no chart kernel reads its base point, so a base and that base
    # plus an integer trend W x give the same bits (the retraction copies
    # either, with the same squared norms)
    m = CHART_FLAT_TORUS2
    rng = np.random.default_rng(7)
    base, x, y = rng.standard_normal((3, 4, 2, 32))
    shifted = base + np.array([[1.0], [-2.0]]) * (np.arange(32) / 32)
    retracted = [m._retract(b) for b in (base, shifted)]
    for b, (proj, _) in zip((base, shifted), retracted):
        assert proj.tobytes() == b.tobytes() and proj is not b
    for kernel in (lambda b: m._retract(b)[1], m._sq_norms,
                   lambda b: m._tangent(b, x), lambda b: m._sff(b, x, y),
                   lambda b: m._j(b, x)):
        assert kernel(base).tobytes() == kernel(shifted).tobytes()


# ---------------------------------------------------------------------------
# second fundamental form
# ---------------------------------------------------------------------------


def sff_finite_difference(m, y, x_vec, y_vec, h=1e-6):
    """Normal part of D_X Y via a path through y with velocity x_vec."""
    speed = np.linalg.norm(x_vec)
    direction = x_vec / speed

    def extended(p):
        return m.tangent_project(m.project(p), y_vec)

    plus = extended(y + h * direction)
    minus = extended(y - h * direction)
    deriv = speed * (plus - minus) / (2 * h)
    return m.normal_project(y, deriv)


def test_sphere_sff_examples():
    y = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    got = SPHERE2.second_fundamental_form(y, x, x)
    assert np.allclose(got, [0, 0, -1])
    oracle = sff_finite_difference(SPHERE2, y, x, x)
    assert np.max(np.abs(oracle - got)) <= 1e-4

    z = np.array([0.0, 1.0, 0.0])
    got = SPHERE2.second_fundamental_form(y, x, z)
    assert np.allclose(got, [0, 0, 0])
    assert np.max(np.abs(sff_finite_difference(SPHERE2, y, x, z))) <= 1e-4


def test_chart_sff_vanishes():
    y = np.array([0.3, 0.8])
    x = np.array([1.0, 0.0])
    assert np.allclose(
        CHART_FLAT_TORUS2.second_fundamental_form(y, x, x), [0.0, 0.0]
    )


def test_sff_matches_finite_difference_randomly():
    rng = np.random.default_rng(7)
    for m in (SPHERE2, CLIFFORD_TORUS2):
        pts = random_on(m, 6, 8)
        for y in pts:
            x = m.tangent_project(y, rng.standard_normal(m.ambient_dim))
            z = m.tangent_project(y, rng.standard_normal(m.ambient_dim))
            got = m.second_fundamental_form(y, x, z)
            oracle = sff_finite_difference(m, y, x, z)
            scale = max(1.0, np.max(np.abs(got)))
            assert np.max(np.abs(got - oracle)) <= 1e-4 * scale
            # normal-valued and symmetric
            assert np.max(np.abs(m.tangent_project(y, got))) <= 1e-10
            swapped = m.second_fundamental_form(y, z, x)
            assert np.max(np.abs(got - swapped)) <= 1e-12


# ---------------------------------------------------------------------------
# complex structure
# ---------------------------------------------------------------------------


def test_sphere_complex_structure_examples():
    y = np.array([0.0, 0.0, 1.0])
    assert np.allclose(
        SPHERE2.complex_structure(y, np.array([1.0, 0, 0])), [0, 1, 0]
    )
    assert np.allclose(SPHERE2.complex_structure(y, np.zeros(3)), [0, 0, 0])


def test_chart_complex_structure_rotation():
    y = np.array([0.2, 0.4])
    assert np.allclose(
        CHART_FLAT_TORUS2.complex_structure(y, np.array([1.0, 0.0])), [0, 1]
    )


def test_complex_structure_algebra():
    rng = np.random.default_rng(9)
    for m in MANIFOLDS.values():
        y = random_on(m, 16, 10)
        x = m.tangent_project(y, rng.standard_normal(y.shape))
        z = m.tangent_project(y, rng.standard_normal(y.shape))
        jx = m.complex_structure(y, x)
        assert np.max(np.abs(m.complex_structure(y, jx) + x)) <= 1e-12
        anti = (jx * z).sum(-1) + (x * m.complex_structure(y, z)).sum(-1)
        assert np.max(np.abs(anti)) <= 1e-12
        iso = np.sqrt((jx * jx).sum(-1)) - np.sqrt((x * x).sum(-1))
        assert np.max(np.abs(iso)) <= 1e-12
        # orthogonality g(JX, X) = 0
        assert np.max(np.abs((jx * x).sum(-1))) <= 1e-12


def test_clifford_complex_structure_is_chart_pushforward():
    # J on the embedded torus = dw o (90-degree chart rotation) o dw^{-1}
    chart = np.array([[0.15, 0.62], [0.8, 0.05]])
    h = 1e-7
    for y in chart:
        base = CLIFFORD_TORUS2.embed_chart(y)
        for v_chart in (np.array([1.0, 0.0]), np.array([0.3, -0.9])):
            push = (
                CLIFFORD_TORUS2.embed_chart(y + h * v_chart)
                - CLIFFORD_TORUS2.embed_chart(y - h * v_chart)
            ) / (2 * h)
            jv_chart = np.array([-v_chart[1], v_chart[0]])
            push_j = (
                CLIFFORD_TORUS2.embed_chart(y + h * jv_chart)
                - CLIFFORD_TORUS2.embed_chart(y - h * jv_chart)
            ) / (2 * h)
            got = CLIFFORD_TORUS2.complex_structure(base, push)
            assert np.max(np.abs(got - push_j)) <= 1e-6


# ---------------------------------------------------------------------------
# component kernels
# ---------------------------------------------------------------------------


def same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize(
    "lead", [(64,), (5, 64), (3, 1, 64)], ids=["N", "B-N", "3-1-N"]
)
def test_dot_bitwise_equals_axis_sum(d, lead):
    # entries spread over 16 decades, so a change of summation order shows
    rng = np.random.default_rng(d)
    a, b = rng.standard_normal((2,) + lead + (d,))
    a *= 10.0 ** rng.integers(-8, 8, a.shape)
    assert same_bits(_dot(rows(a), rows(b)), (a * b).sum(axis=-1))
    assert same_bits(_dot(rows(a), rows(a)), (a * a).sum(axis=-1))


@pytest.mark.parametrize(
    "lead", [(64,), (5, 64), (3, 1, 64)], ids=["N", "B-N", "3-1-N"]
)
def test_dot_bitwise_on_clifford_pair_slices(lead):
    rng = np.random.default_rng(4)
    pts = rng.standard_normal(lead + (4,)) * 10.0 ** rng.integers(-8, 8, 4)
    vec = rng.standard_normal(lead + (4,))
    for pair in (slice(0, 2), slice(2, 4)):
        x, y = pts[..., pair], vec[..., pair]
        assert same_bits(_dot(rows(x), rows(x)), (x * x).sum(axis=-1))
        assert same_bits(_dot(rows(x), rows(y)), (x * y).sum(axis=-1))


@pytest.mark.parametrize(
    "lead", [(64,), (5, 64), (3, 1, 64)], ids=["N", "B-N", "3-1-N"]
)
def test_sphere_j_bitwise_equals_gather_formula(lead):
    rng = np.random.default_rng(5)
    base = SPHERE2.project(rng.standard_normal(lead + (3,)))
    vec = rng.standard_normal(lead + (3,))
    i, j = [1, 2, 0], [2, 0, 1]
    want = base[..., i] * vec[..., j] - base[..., j] * vec[..., i]
    assert same_bits(rows(SPHERE2._j(rows(base), rows(vec))), want)
    # one base point against many vectors broadcasts as before
    point = base.reshape(-1, 3)[0]
    want = point[i] * vec[..., j] - point[j] * vec[..., i]
    assert same_bits(rows(SPHERE2._j(point[:, None], rows(vec))), want)


# ---------------------------------------------------------------------------
# retract: one squared norm per point for the tube check, the projection
# and the residual before projection
# ---------------------------------------------------------------------------


def parent_clifford_formulas(pts):
    """The pair formulas written with one ``_dot`` per pair and per call."""
    r = CLIFFORD_TORUS2.radius
    s12 = _dot(rows(pts[..., 0:2]), rows(pts[..., 0:2]))
    s34 = _dot(rows(pts[..., 2:4]), rows(pts[..., 2:4]))
    residual = np.maximum(np.abs(s12 - r**2), np.abs(s34 - r**2))
    n12, n34 = np.sqrt(s12), np.sqrt(s34)
    dist = np.hypot(n12 - r, n34 - r)
    proj = np.empty_like(pts)
    proj[..., 0:2] = pts[..., 0:2] * (r / n12)[..., None]
    proj[..., 2:4] = pts[..., 2:4] * (r / n34)[..., None]
    return residual, dist, proj


@pytest.mark.parametrize("lead", [(), (3,)], ids=["N-d", "B-N-d"])
@pytest.mark.parametrize("manifold", list(MANIFOLDS.values()), ids=str)
def test_retract_bitwise_equals_project_and_residual(manifold, lead):
    pts = np.stack([tube_points(manifold, 64, seed) for seed in range(3)])
    pts = pts[0] if lead == () else pts
    proj, sq = manifold.retract(pts)
    assert same_bits(proj, manifold.project(pts))
    assert same_bits(manifold._residual(sq[..., None])[..., 0],
                     manifold.constraint_residual(pts))
    if manifold is CLIFFORD_TORUS2:
        residual, dist, want = parent_clifford_formulas(pts)
        assert same_bits(manifold.constraint_residual(pts), residual)
        assert same_bits(manifold.distance(pts), dist)
        assert same_bits(proj, want)


def tube_then_project(manifold, pts):
    manifold.require_in_tube(pts)
    return manifold.project(pts)


def raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "bad",
    ["outside", "nan", "inf", "center-or-axis"],
)
@pytest.mark.parametrize("manifold", list(MANIFOLDS.values()), ids=str)
def test_retract_raises_as_tube_check_then_project(manifold, bad):
    pts = np.stack([tube_points(manifold, 16, seed) for seed in range(2)])
    if bad == "outside":
        pts[1, 5] *= 1.6 if manifold is SPHERE2 else 3.0
    elif bad == "center-or-axis":
        pts[0, 3, :2] = 0.0
        if manifold is SPHERE2:
            pts[0, 3] = 0.0
    else:
        pts[1, 7, 0] = float(bad)
    want = raised(tube_then_project, manifold, pts)
    assert raised(manifold.retract, pts) == want
    if manifold is CHART_FLAT_TORUS2 and bad in ("outside", "center-or-axis"):
        # no tube and no constraint: nothing is raised at a finite point,
        # the copy is returned
        assert want is None
        assert same_bits(manifold.retract(pts)[0], pts)
    else:
        assert want[0] is OutOfTubularNeighborhood


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_chart_public_calls_refuse_a_non_finite_point(bad):
    # every finite point is on the chart and inside its infinite tube, but
    # a non-finite one is no point: its residual and distance read NaN and
    # the public checks raise, as they do on the embedded targets
    m = CHART_FLAT_TORUS2
    assert np.isnan(m.constraint_residual([bad, 1.0]))
    assert np.isnan(m.distance([bad, 0.0]))
    pts = random_on(m, 8, 3)
    pts[5, 1] = bad
    assert np.isnan(m.constraint_residual(pts)[5]) and np.isnan(m.distance(pts)[5])
    assert not m.constraint_residual(pts)[:5].any() and not m.distance(pts)[:5].any()
    with pytest.raises(PointOffManifold, match="residual nan"):
        m.require_on_manifold(pts)
    with pytest.raises(OutOfTubularNeighborhood, match="distance nan"):
        m.require_in_tube(pts)
    with pytest.raises(OutOfTubularNeighborhood, match="distance nan"):
        m.retract(pts)
    with pytest.raises(PointOffManifold):
        m.tangent_project(pts, np.ones_like(pts))
    # the march's kernels still pass such rows: a non-finite stage point
    # ends at the step end's finite check, not at a tube check
    m._require_on(pts.T)
    proj, sq = m._retract(pts.T)
    assert not sq.any() and same_bits(proj, pts.T)
    m.require_on_manifold(random_on(m, 8, 3))
    m.require_in_tube(random_on(m, 8, 3) * 1e6)


@pytest.mark.parametrize("manifold", [SPHERE2, CLIFFORD_TORUS2], ids=str)
def test_project_from_center_or_axis_still_raises(manifold):
    pts = tube_points(manifold, 8, 1)
    pts[2, :2] = 0.0
    if manifold is SPHERE2:
        pts[2] = 0.0
    with pytest.raises(OutOfTubularNeighborhood, match="cannot project"):
        manifold.project(pts)


@pytest.mark.parametrize("manifold", MANIFOLDS.values(), ids=str)
def test_public_calls_refuse_points_of_another_width(manifold):
    d = manifold.ambient_dim
    pts = np.ones((8, d + 1))
    message = f"{manifold.name} expects ambient dimension {d}, got {d + 1}"
    for call in (manifold.project, manifold.constraint_residual,
                 manifold.require_on_manifold):
        with pytest.raises(ValueError, match=message):
            call(pts)


# ---------------------------------------------------------------------------
# registry and constants
# ---------------------------------------------------------------------------


def test_registry_and_curvatures():
    assert by_name("Sphere2").gaussian_curvature == 1.0
    assert by_name("CliffordTorus2").gaussian_curvature == 0.0
    assert by_name("ChartFlatTorus2").gaussian_curvature == 0.0
    with pytest.raises(KeyError):
        by_name("Hyperbolic2")


def test_tubular_radii_inside_focal_distance():
    assert SPHERE2.tubular_radius < 1.0
    assert CLIFFORD_TORUS2.tubular_radius < CLIFFORD_TORUS2.radius


def test_chart_wrap_only_on_output():
    pts = np.array([[1.25, -0.5], [0.0, 2.0]])
    wrapped = CHART_FLAT_TORUS2.wrap(pts)
    assert np.allclose(wrapped, [[0.25, 0.5], [0.0, 0.0]])


def test_clifford_chart_round_trip():
    y = np.array([[0.12, 0.93], [0.5, 0.0]])
    back = chart_coordinates(CLIFFORD_TORUS2.embed_chart(y))
    assert np.max(np.abs(back - y % 1.0)) <= 1e-12
