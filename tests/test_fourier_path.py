"""Every transform of dcl goes through dcl.spectral.rfft/irfft.

The first test replaces np.fft's transforms with functions that raise and
runs each public entry point that transforms; the others compare the
routines that once called np.fft themselves (backward norm on the last
axis, forward or backward norm on axis 0) with verbatim copies of that
code, bit for bit, on power-of-two grids, where moving the 1/N factor
between the two transforms is an exact scaling.
"""

import json

import numpy as np
import pytest

from dcl import spectral
from dcl.cli import main
from dcl.curves import ClosedCurve, identity_residuals, resample
from dcl.errors import ConfigError
from dcl.flow import FlowConfig, evolve
from dcl.invariants import trajectory_reports
from dcl.manifolds import CHART_FLAT_TORUS2, CLIFFORD_TORUS2, SPHERE2
from dcl.presets import (
    DEFAULT_AMPLITUDE,
    DEFAULT_DECAY,
    great_circle,
    make_initial,
    random_smooth,
    torus_geodesic,
)

TARGETS = [SPHERE2, CLIFFORD_TORUS2, CHART_FLAT_TORUS2]


@pytest.fixture
def no_np_fft(monkeypatch):
    """np.fft's transforms raise for the rest of the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a transform went through np.fft")

    for name in ("rfft", "irfft", "fft", "ifft"):
        monkeypatch.setattr(np.fft, name, refuse)


def test_no_entry_point_reaches_np_fft(no_np_fft, tmp_path, capsys):
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(json.dumps({"samples": great_circle(32).samples.tolist()}))
    for manifold, descriptor in [
        (SPHERE2, "great_circle"), (SPHERE2, "latitude:1.0"),
        (CLIFFORD_TORUS2, "torus_geodesic:1,2"),
        (CHART_FLAT_TORUS2, "torus_geodesic:2,-1"),
        *((m, "random_smooth:3,0.5,0.3") for m in TARGETS),
        (SPHERE2, f"file:{curve_file}"),
    ]:
        assert make_initial(descriptor, manifold, 64).n in (32, 64)

    winding = torus_geodesic(CHART_FLAT_TORUS2, 2, -1, 64)
    for curve in (random_smooth(SPHERE2, 64, seed=1), winding):
        for n in (16, 256):
            assert resample(curve, n).n == n
        spectral.spectral_derivative(curve.samples, 3)
        spectral.lowpass(curve.samples, 8)
    identity_residuals(random_smooth(SPHERE2, 32, seed=2), l_max=1)

    cfg = FlowConfig(a=1.0, b=0.5, N_g=32, dt=1e-5, T=4e-5)
    trajectory_reports(evolve(random_smooth(SPHERE2, 32, seed=4), cfg))

    manifest = {"config": {"manifold": "Sphere2", "N_g": 32, "dt": 1e-5,
                           "T": 4e-5, "a": 1.0, "b": 0.5,
                           "initial_condition": "random_smooth:5"},
                "output_dir": str(tmp_path / "out"), "stride": 1}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert main(["simulate", "--manifest", str(path)]) == 0
    assert main(["converge", "--manifest", str(path), "--mode", "grid"]) == 0
    assert capsys.readouterr().err == ""


# -- the np.fft code these routines ran before, verbatim -------------------


def np_fft_derivative(rows, order=1):
    n = rows.shape[-1]
    coef = np.fft.rfft(rows)
    return np.fft.irfft(coef * spectral._derivative_multiplier(n, order), n=n)


def np_fft_spectral_derivative(f, order=1):
    rows = spectral._rows(np.asarray(f, dtype=float))
    return spectral._rows(np_fft_derivative(rows, order))


def np_fft_lowpass(f, keep):
    rows = spectral._rows(np.asarray(f, dtype=float))
    n = rows.shape[-1]
    coef = np.fft.rfft(rows)
    coef *= spectral.wavenumbers(n) <= keep
    return spectral._rows(np.fft.irfft(coef, n=n))


def np_fft_resample(curve, n):
    if n == curve.n:
        return curve
    trend = curve.trend()
    coef = np.fft.rfft(curve.samples - trend, axis=0, norm="forward")
    dev = np.fft.irfft(coef, n=n, axis=0, norm="forward")
    w = curve.winding()
    if w.any():
        dev += spectral.grid(n)[:, None] * w[None, :]
    else:
        dev = curve.manifold.project(dev)
    return ClosedCurve(dev, curve.manifold)


def np_fft_random_periodic_field(n, d, rng, decay):
    coef = np.zeros((n // 2 + 1, d), dtype=complex)
    modes = np.arange(1, n // 2)
    envelope = np.exp(-decay * modes)
    coef[modes] = (
        rng.standard_normal((modes.size, d))
        + 1j * rng.standard_normal((modes.size, d))
    ) * envelope[:, None]
    field = np.fft.irfft(coef, n=n, axis=0)
    scale = np.max(np.abs(field))
    return field / scale if scale else field


def np_fft_random_smooth(manifold, n=128, seed=0, decay=DEFAULT_DECAY,
                         amplitude=DEFAULT_AMPLITUDE):
    rng = np.random.default_rng(seed)
    scale = 1.0
    if manifold is SPHERE2:
        base = great_circle(n).samples
    elif manifold is CLIFFORD_TORUS2:
        base = torus_geodesic(manifold, 1, 0, n).samples
        scale = manifold.radius
    elif manifold is CHART_FLAT_TORUS2:
        base = torus_geodesic(manifold, 1, 0, n).samples
    else:
        raise ConfigError(f"random_smooth is not defined on {manifold.name}")

    field = np_fft_random_periodic_field(n, manifold.ambient_dim, rng, decay)
    with np.errstate(over="ignore", invalid="ignore"):
        noise = amplitude * scale * field
        finite = np.all(np.isfinite((noise * noise).sum(axis=-1)))
    if not finite:
        raise ValueError(f"amplitude {amplitude!r} overflows the squared "
                         "norms of the perturbed curve")
    if manifold is CHART_FLAT_TORUS2:
        return ClosedCurve(base + noise, manifold)

    rough = manifold.project(base + noise)
    k = spectral.wavenumbers(n)
    envelope = np.exp(-decay * np.maximum(k - 1.0, 0.0))
    coef = np.fft.rfft(rough, axis=0) * envelope[:, None]
    smooth = np.fft.irfft(coef, n=n, axis=0)
    return ClosedCurve(manifold.project(smooth), manifold)


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [16, 64, 256, 4096])
@pytest.mark.parametrize("manifold", TARGETS, ids=lambda m: m.name)
def test_transforms_equal_their_np_fft_copies_bitwise(manifold, n):
    for seed in range(3):
        for decay in (0.05, 0.5, 1.1):
            curve = random_smooth(manifold, n, seed, decay, 0.3)
            assert_bitwise(curve.samples,
                           np_fft_random_smooth(manifold, n, seed, decay, 0.3).samples)
        for order in (1, 2, 3, 4):
            assert_bitwise(spectral.spectral_derivative(curve.samples, order),
                           np_fft_spectral_derivative(curve.samples, order))
        rows = np.ascontiguousarray(curve.samples.T)
        assert_bitwise(spectral._derivative(rows, 3), np_fft_derivative(rows, 3))
        assert_bitwise(spectral.lowpass(curve.samples, n // 8),
                       np_fft_lowpass(curve.samples, n // 8))
        for m in (16, n // 2, 2 * n):
            if m >= 16:
                assert_bitwise(resample(curve, m).samples,
                               np_fft_resample(curve, m).samples)


@pytest.mark.parametrize("n", [16, 64, 256])
def test_resampled_winding_curve_equals_its_np_fft_copy_bitwise(n):
    curve = torus_geodesic(CHART_FLAT_TORUS2, 3, -2, n)
    curve = curve.with_samples(curve.samples + 0.01 * np.sin(
        spectral.TWO_PI * spectral.grid(n))[:, None])
    for m in (16, 2 * n, 8 * n):
        assert_bitwise(resample(curve, m).samples, np_fft_resample(curve, m).samples)
