"""Counters shared by the test modules: on-target checks and transforms."""

import numpy as np
import pytest

from dcl.manifolds import _Manifold


@pytest.fixture
def on_target_checks(monkeypatch):
    """Record the shape of the rows every ``_require_on`` call checks."""
    calls = []
    check = _Manifold._require_on

    def counted(self, rows, *args, **kwargs):
        calls.append(rows.shape)
        return check(self, rows, *args, **kwargs)

    monkeypatch.setattr(_Manifold, "_require_on", counted)
    return calls


@pytest.fixture
def fft_calls(monkeypatch):
    """Record every np.fft.rfft/irfft call as (name, transform length)."""
    calls = []
    rfft, irfft = np.fft.rfft, np.fft.irfft

    def counted_rfft(a, *args, **kwargs):
        calls.append(("rfft", np.shape(a)[-1]))
        return rfft(a, *args, **kwargs)

    def counted_irfft(a, *args, **kwargs):
        calls.append(("irfft", kwargs["n"]))
        return irfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted_rfft)
    monkeypatch.setattr(np.fft, "irfft", counted_irfft)
    return calls
