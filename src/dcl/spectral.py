"""Fourier plumbing for periodic fields sampled on the uniform grid x_i = i/N.

Fields are real arrays of shape (N,) or (..., N, d): a 1-D field is its
own sample axis, and otherwise axis -2 holds the samples and the last
axis the ambient components, so any leading axes form a batch (one
member per curve or quadrature node) that the transforms treat
independently.  The quadratures (``integrate``, ``l2_inner``) take one
unbatched field.  Quadrature is the uniform trapezoid rule, which on a
periodic grid is the plain mean and is exact for resolved modes.
"""

from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi


def grid(n):
    """Sample locations i/N of the unit circle."""
    return np.arange(n) / float(n)


def wavenumbers(n):
    """Integer frequencies of the rfft layout: 0, 1, ..., n//2."""
    return np.fft.rfftfreq(n, d=1.0 / n)


def _sample_axis(f):
    """Axis holding the samples: 0 for a 1-D field, else -2."""
    return 0 if f.ndim == 1 else -2


def _col(mult, ndim):
    return mult if ndim == 1 else mult[:, None]


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


def spectral_derivative(f, order=1):
    """Differentiate a periodic sampled field along its sample axis.

    Exact for band-limited input.  Orders above 4 never occur in the flow
    and are rejected.
    """
    if not 1 <= order <= 4:
        raise ValueError("derivative order must lie in [1, 4]")
    f = np.asarray(f, dtype=float)
    axis = _sample_axis(f)
    n = f.shape[axis]
    coef = np.fft.rfft(f, axis=axis)
    mult = _derivative_multiplier(n, order)
    return np.fft.irfft(coef * _col(mult, f.ndim), n=n, axis=axis)


def lowpass(f, keep):
    """Zero every mode with |frequency| > keep."""
    f = np.asarray(f, dtype=float)
    axis = _sample_axis(f)
    n = f.shape[axis]
    coef = np.fft.rfft(f, axis=axis)
    coef *= _col(wavenumbers(n) <= keep, f.ndim)
    return np.fft.irfft(coef, n=n, axis=axis)


def dealias_keep(n):
    """Highest retained frequency under the cubic-product dealiasing rule."""
    return n // 4


def integrate(f):
    """Integral over one period by the trapezoid rule (mean of samples)."""
    return np.asarray(f).mean(axis=0)


def l2_inner(f, g):
    """L2 pairing of two sampled fields, summing ambient components."""
    prod = np.asarray(f) * np.asarray(g)
    if prod.ndim > 1:
        prod = prod.sum(axis=tuple(range(1, prod.ndim)))
    return prod.mean()


def l2_norm(f):
    return np.sqrt(l2_inner(f, f))


def heat4_multiplier(n, eps, t):
    """Fourier multiplier exp(-eps*t*(2*pi*k)^4) of the fourth-order heat semigroup."""
    k = wavenumbers(n)
    return np.exp(-eps * t * (TWO_PI * k) ** 4)


def semigroup_apply(eps, t, f):
    """Apply the fourth-order heat semigroup to a periodic sampled field.

    Multiplies mode k by exp(-eps*t*(2*pi*k)^4); t = 0 is the identity and
    every mode magnitude is nonincreasing in t.
    """
    if t < 0:
        raise ValueError("semigroup time must be nonnegative")
    f = np.asarray(f, dtype=float)
    if t == 0 or eps == 0:
        return f.copy()
    axis = _sample_axis(f)
    n = f.shape[axis]
    coef = np.fft.rfft(f, axis=axis)
    coef *= _col(heat4_multiplier(n, eps, t), f.ndim)
    return np.fft.irfft(coef, n=n, axis=axis)


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
