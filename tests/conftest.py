"""Counters shared by the test modules (on-target and tube checks, transforms)
and the quadrature, chart, curve and step helpers that only tests need."""

import numpy as np
import pytest

from dcl import spectral
from dcl.curves import ClosedCurve, lift_trend
from dcl.flow import _rk4_step
from dcl.manifolds import SPHERE2, _Manifold


def integrate(f):
    """Integral over one period by the trapezoid rule (mean of samples)."""
    return np.asarray(f).mean(axis=0)


def chart_coordinates(pts):
    """Chart coordinates in [0, 1)^2 of (..., 4) CliffordTorus2 points."""
    two_pi = 2.0 * np.pi
    y1 = np.arctan2(pts[..., 1], pts[..., 0]) / two_pi % 1.0
    y2 = np.arctan2(pts[..., 3], pts[..., 2]) / two_pi % 1.0
    return np.stack([y1, y2], axis=-1)


def stiff_symbol(cfg, k):
    """The stepper's symbol of L at wavenumbers ``k``, as
    ``_duhamel_quadrature`` takes it: a (2 pi i k)^3 with a real Nyquist
    entry, and (2 pi k)^4."""
    k3 = cfg.a * (1j * spectral.TWO_PI * k) ** 3
    k3[-1] = k3[-1].real
    return k3, (spectral.TWO_PI * k) ** 4


def constant_curve(n=32):
    """The north pole held for all n samples: a curve with no velocity."""
    return ClosedCurve(np.tile([0.0, 0.0, 1.0], (n, 1)), SPHERE2)


def periodic_step(rows, st, manifold):
    """``_rk4_step`` on the periodic part of (..., d, N) rows, as the march
    calls it: with the part's transform and the rows' winding."""
    trend, winding = lift_trend(rows, manifold)
    rows = rows - trend
    return _rk4_step(rows, st, np.fft.rfft(rows, norm="forward"), winding)[0]


def _record_shapes(monkeypatch, name):
    """Record the shape of the first argument of every ``_Manifold.name``
    call."""
    calls = []
    check = getattr(_Manifold, name)

    def counted(self, arg, *args, **kwargs):
        calls.append(arg.shape)
        return check(self, arg, *args, **kwargs)

    monkeypatch.setattr(_Manifold, name, counted)
    return calls


@pytest.fixture
def on_target_checks(monkeypatch):
    """Record the shape of the rows every ``_require_on`` call checks."""
    return _record_shapes(monkeypatch, "_require_on")


@pytest.fixture
def tube_checks(monkeypatch):
    """Record the shape of the distances every ``_require_tube`` call checks."""
    return _record_shapes(monkeypatch, "_require_tube")


@pytest.fixture
def fft_calls(monkeypatch):
    """Record every rfft/irfft call of np.fft and of dcl.spectral as (name,
    transform length)."""
    calls = []
    rfft, irfft = np.fft.rfft, np.fft.irfft
    direct_rfft, direct_irfft = spectral.rfft, spectral.irfft

    def counted_rfft(a, *args, **kwargs):
        calls.append(("rfft", np.shape(a)[-1]))
        return rfft(a, *args, **kwargs)

    def counted_irfft(a, *args, **kwargs):
        calls.append(("irfft", kwargs["n"]))
        return irfft(a, *args, **kwargs)

    def counted_direct_rfft(rows, *args, **kwargs):
        calls.append(("rfft", rows.shape[-1]))
        return direct_rfft(rows, *args, **kwargs)

    def counted_direct_irfft(coef, n, *args, **kwargs):
        calls.append(("irfft", n))
        return direct_irfft(coef, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted_rfft)
    monkeypatch.setattr(np.fft, "irfft", counted_irfft)
    monkeypatch.setattr(spectral, "rfft", counted_direct_rfft)
    monkeypatch.setattr(spectral, "irfft", counted_direct_irfft)
    return calls
