import json

import numpy as np
import pytest

from dcl.errors import ConfigError
from dcl.manifolds import CHART_FLAT_TORUS2, CLIFFORD_TORUS2, SPHERE2, ChartFlatTorus2
from dcl.presets import make_initial, random_smooth


def test_great_circle_descriptor():
    c = make_initial("great_circle", SPHERE2, 64)
    assert c.n == 64
    assert c.off_manifold() <= 1e-12
    assert abs(np.max(c.samples[:, 2])) <= 1e-12


def test_latitude_descriptor():
    theta = np.pi / 3
    c = make_initial(f"latitude:{theta!r}", SPHERE2, 64)
    assert np.allclose(c.samples[:, 2], np.cos(theta))


def test_torus_geodesic_descriptor():
    c = make_initial("torus_geodesic:2,-1", CHART_FLAT_TORUS2, 64)
    assert np.array_equal(c.winding(), [2.0, -1.0])
    k = make_initial("torus_geodesic:1,0", CLIFFORD_TORUS2, 64)
    assert k.off_manifold() <= 1e-14


@pytest.mark.parametrize("manifold", [CHART_FLAT_TORUS2, CLIFFORD_TORUS2],
                         ids=lambda m: m.name)
def test_torus_geodesic_refuses_a_winding_its_grid_cannot_resolve(manifold):
    # the chart lift is read back as rint(last - first), so every sample
    # step must stay below half a period: on 16 samples winding 9 would
    # read back as 8 on the chart torus and match -7 on the Clifford torus
    c = make_initial("torus_geodesic:7,0", manifold, 16)
    chart = np.stack([7 * np.arange(16) / 16, np.zeros(16)], axis=-1)
    if manifold is CLIFFORD_TORUS2:
        chart = manifold.embed_chart(chart)
    assert np.array_equal(c.samples, chart)
    for winding in ("8,0", "-8,0", "9,0", "0,9", "0,-8"):
        with pytest.raises(ConfigError, match="needs more than"):
            make_initial(f"torus_geodesic:{winding}", manifold, 16)


def test_random_smooth_on_manifold_and_deterministic():
    for m in (SPHERE2, CLIFFORD_TORUS2, CHART_FLAT_TORUS2):
        c1 = make_initial("random_smooth:7,0.8,0.3", m, 64)
        c2 = make_initial("random_smooth:7,0.8,0.3", m, 64)
        assert np.array_equal(c1.samples, c2.samples)
        assert c1.off_manifold() <= 1e-9
    a = make_initial("random_smooth:7", SPHERE2, 64)
    b = make_initial("random_smooth:8", SPHERE2, 64)
    assert np.max(np.abs(a.samples - b.samples)) > 1e-3


def test_random_smooth_uses_manifest_seed_by_default():
    a = make_initial("random_smooth", SPHERE2, 64, seed=5)
    b = make_initial("random_smooth:5", SPHERE2, 64)
    assert np.array_equal(a.samples, b.samples)


def test_random_smooth_spectral_decay():
    c = random_smooth(SPHERE2, 128, seed=0, decay=1.0, amplitude=0.3)
    coef = np.abs(np.fft.rfft(c.samples, axis=0)).max(axis=1) / 128
    assert coef[40:].max() <= 1e-12  # far tail is numerically empty
    assert coef[2:10].max() >= 1e-4  # but the low band is genuinely excited


def test_file_descriptor(tmp_path):
    path = tmp_path / "curve.json"
    samples = make_initial("great_circle", SPHERE2, 32).samples
    path.write_text(json.dumps({"samples": samples.tolist()}))
    c = make_initial(f"file:{path}", SPHERE2, 32)
    assert np.allclose(c.samples, samples)


def test_bad_descriptors():
    with pytest.raises(ConfigError):
        make_initial("spiral", SPHERE2, 64)
    with pytest.raises(ConfigError):
        make_initial("latitude:oops", SPHERE2, 64)
    with pytest.raises(ConfigError):
        make_initial("great_circle", CHART_FLAT_TORUS2, 64)
    with pytest.raises(ConfigError):
        make_initial("torus_geodesic:0,0", CHART_FLAT_TORUS2, 64)


def test_random_smooth_refuses_a_target_it_has_no_base_curve_for():
    class Plane(ChartFlatTorus2):
        name = "Plane"

    with pytest.raises(ConfigError, match="random_smooth is not defined on Plane"):
        random_smooth(Plane(), 64)


@pytest.mark.parametrize("decay", [-1.0, -50.0, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("manifold", [SPHERE2, CLIFFORD_TORUS2, CHART_FLAT_TORUS2])
def test_random_smooth_refuses_a_decay_that_is_not_finite_and_nonnegative(
        manifold, decay):
    with pytest.raises(ValueError, match="decay must be finite and >= 0"):
        random_smooth(manifold, 64, seed=3, decay=decay)


def test_random_smooth_takes_a_flat_envelope():
    c = random_smooth(SPHERE2, 64, seed=3, decay=0.0)
    assert c.off_manifold() <= 1e-12
