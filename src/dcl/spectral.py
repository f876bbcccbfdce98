"""Fourier plumbing for periodic fields sampled on the uniform grid x_i = i/N.

Public fields are real arrays of shape (N,) or (..., N, d): a 1-D field
is its own sample axis, and otherwise axis -2 holds the samples and the
last axis the ambient components, so any leading axes form a batch (one
member per curve or quadrature node) that the transforms treat
independently.  The quadrature ``l2_inner`` takes one unbatched field:
the uniform trapezoid rule, which on a periodic grid is the plain mean
and is exact for resolved modes.

Inside the package fields are stored in the row layout (..., d, N): the
samples sit on the contiguous last axis, so every transform runs on
``axis=-1`` without striding.  ``_rows`` is the one conversion: the
public transforms swap axes with it on the way in and again on the way
out, as views, and run the row-layout kernel (``_derivative``) between.
Every transform of the package is :func:`rfft` or :func:`irfft`, one
convention: forward-normalized, on the last axis.
The fourth-order heat semigroup lives in the propagator of ``flow``.
"""

from functools import lru_cache

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft  # np.fft's backend

TWO_PI = 2.0 * np.pi


def grid(n):
    """Sample locations i/N of the unit circle."""
    return np.arange(n) / float(n)


def wavenumbers(n):
    """Integer frequencies of the rfft layout: 0, 1, ..., n//2."""
    return np.fft.rfftfreq(n, d=1.0 / n)


def rfft(rows, out=None):
    """Forward-normalized rfft of the rows (..., N), into ``out`` if given:
    ``np.fft.rfft(rows, norm="forward")`` bit for bit, by its gufunc and
    factor 1/N.  The modes do not depend on the grid: a coarser grid's are
    a slice of them, and :func:`irfft` onto a finer one zero-pads them."""
    n = rows.shape[-1]
    out = np.empty(rows.shape[:-1] + (n // 2 + 1,), complex) if out is None else out
    kernel = _pocketfft.rfft_n_odd if n % 2 else _pocketfft.rfft_n_even
    return kernel(rows, 1.0 / n, out)


def irfft(coef, n, out=None):
    """The n samples of forward-normalized modes ``coef`` (..., K): bit for
    bit ``np.fft.irfft(coef, n=n, norm="forward")``, which drops the modes
    past n//2 and zero-pads missing ones."""
    out = np.empty(coef.shape[:-1] + (n,)) if out is None else out
    return _pocketfft.irfft(coef, 1.0, out)


def _rows(f):
    """(..., N, d) field as its (..., d, N) row view, and back; 1-D as is."""
    return f if f.ndim == 1 else np.swapaxes(f, -1, -2)


@lru_cache(maxsize=None)
def _derivative_multiplier(n, order):
    """Read-only Fourier multiplier (i*2*pi*k)^order of the rfft layout.

    The Nyquist mode is zeroed for odd orders (its derivative has no real
    representative on the grid).
    """
    mult = (1j * TWO_PI * wavenumbers(n)) ** order
    if order % 2 == 1 and n % 2 == 0:
        mult[-1] = 0.0
    mult.flags.writeable = False
    return mult


def check_order(k, name, low, high):
    """Refuse an order ``k`` unless it is an integer in [low, high] (not a bool)."""
    if isinstance(k, bool) or not (isinstance(k, (int, np.integer)) and low <= k <= high):
        raise ValueError(f"{name} must be an integer in [{low}, {high}], got {k!r}")


def spectral_derivative(f, order=1):
    """Differentiate a periodic sampled field along its sample axis.

    Exact for band-limited input.  Orders above 4 never occur in the flow
    and are rejected.
    """
    check_order(order, "derivative order", 1, 4)
    return _rows(_derivative(_rows(np.asarray(f, dtype=float)), order))


def _derivative(rows, order=1):
    """:func:`spectral_derivative` of a row-layout field (samples last)."""
    n = rows.shape[-1]
    return irfft(rfft(rows) * _derivative_multiplier(n, order), n)


def lowpass(f, keep):
    """Zero every mode with |frequency| > keep."""
    rows = _rows(np.asarray(f, dtype=float))
    n = rows.shape[-1]
    coef = rfft(rows)
    coef *= wavenumbers(n) <= keep
    return _rows(irfft(coef, n))


def dealias_keep(n):
    """Highest retained frequency under the cubic-product dealiasing rule."""
    return n // 4


def l2_inner(f, g):
    """L2 pairing of two sampled fields, summing ambient components."""
    prod = np.asarray(f) * np.asarray(g)
    if prod.ndim > 1:
        prod = prod.sum(axis=tuple(range(1, prod.ndim)))
    return prod.mean()


def l2_norm(f):
    return np.sqrt(l2_inner(f, f))


@lru_cache(maxsize=None)
def _legendre_rule(n):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre(n, a, b):
    """Gauss-Legendre nodes and weights on [a, b].

    ``a`` and ``b`` may be arrays broadcasting against the n nodes, e.g.
    ends of shape (m, 1) give m rules as rows.
    """
    x, w = _legendre_rule(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def lagrange_matrix(nodes, targets):
    """Interpolation matrix L with L @ values(nodes) = values(targets).

    Plain Lagrange form; meant for a handful of Gauss nodes where it is
    perfectly conditioned.
    """
    nodes = np.asarray(nodes, dtype=float)
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    q = nodes.size
    out = np.empty((targets.size, q))
    for j in range(q):
        others = np.delete(nodes, j)
        num = np.prod(targets[:, None] - others[None, :], axis=1)
        den = np.prod(nodes[j] - others)
        out[:, j] = num / den
    return out
