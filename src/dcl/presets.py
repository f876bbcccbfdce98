"""Named initial conditions and the descriptor grammar used by manifests.

Descriptors:

* ``great_circle``                    equator of the sphere
* ``latitude:<theta>``               latitude circle at polar angle theta
* ``torus_geodesic:<m1>,<m2>``       winding geodesic on either torus
* ``random_smooth[:<seed>[,<decay>[,<amplitude>]]]``
                                      seeded curve with exponentially
                                      decaying spectrum
* ``file:<path>``                     JSON file with a ``samples`` array

Fields are comma-separated.  A descriptor with an empty, missing or
extra field raises ConfigError, and so does one whose preset call fails.
"""

import json

import numpy as np

from . import spectral
from .curves import ClosedCurve, seeded_field
from .errors import ConfigError, OutOfTubularNeighborhood
from .manifolds import CHART_FLAT_TORUS2, CLIFFORD_TORUS2, SPHERE2

DEFAULT_DECAY = 0.5
DEFAULT_AMPLITUDE = 0.2


def great_circle(n=128):
    x = spectral.grid(n)
    phase = spectral.TWO_PI * x
    samples = np.stack([np.cos(phase), np.sin(phase), np.zeros(n)], axis=-1)
    return ClosedCurve(samples, SPHERE2)


def latitude_circle(theta, n=128):
    if not 0 < theta < np.pi:
        raise ConfigError("latitude angle must lie strictly between 0 and pi")
    x = spectral.grid(n)
    phase = spectral.TWO_PI * x
    samples = np.stack([np.sin(theta) * np.cos(phase), np.sin(theta) * np.sin(phase),
                        np.full(n, np.cos(theta))], axis=-1)
    return ClosedCurve(samples, SPHERE2)


def torus_geodesic(manifold, m1, m2, n=128):
    if (m1, m2) == (0, 0):
        raise ConfigError("torus geodesic needs a nonzero winding")
    top = max(abs(m1), abs(m2))
    if 2 * top >= n:  # a lift read back as rint(last - first) would alias
        raise ConfigError(f"torus_geodesic winding {top} needs more than "
                          f"{2 * top} samples, got {n}")
    x = spectral.grid(n)
    chart = np.stack([m1 * x, m2 * x], axis=-1)
    if manifold is CHART_FLAT_TORUS2:
        return ClosedCurve(chart, manifold)
    if manifold is CLIFFORD_TORUS2:
        return ClosedCurve(manifold.embed_chart(chart), manifold)
    raise ConfigError(f"torus_geodesic is not defined on {manifold.name}")


def random_smooth(manifold, n=128, seed=0, decay=DEFAULT_DECAY,
                  amplitude=DEFAULT_AMPLITUDE):
    """Seeded smooth curve: base state + spectral noise, projected twice.

    The perturbed base is projected to the target, re-smoothed once with
    the same exponential envelope (projection is pointwise and spreads the
    spectrum), and projected again.  ``decay`` must be finite and >= 0.
    """
    if not 0 <= decay < np.inf:  # NaN included
        raise ValueError(f"decay must be finite and >= 0, got {decay!r}")
    rng = np.random.default_rng(seed)
    scale = 1.0
    if manifold is SPHERE2:
        base = great_circle(n).samples
    elif manifold is CLIFFORD_TORUS2:
        base = torus_geodesic(manifold, 1, 0, n).samples
        scale = manifold.radius  # amplitude is relative to the circle size
    elif manifold is CHART_FLAT_TORUS2:
        base = torus_geodesic(manifold, 1, 0, n).samples
    else:
        raise ConfigError(f"random_smooth is not defined on {manifold.name}")

    field = seeded_field(n, manifold.ambient_dim, rng, n // 2, decay)
    field /= np.max(np.abs(field)) or 1.0  # to peak 1, unless all zero
    # the targets' constraints take squared norms of the samples: an
    # amplitude that overflows them is refused before numpy warns about it
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
    smooth = spectral.irfft(spectral.rfft(rough.T) * envelope, n).T
    return ClosedCurve(manifold.project(smooth), manifold)


def read_json(path, what):
    """The JSON value in file ``path``.  A file that cannot be read or
    decoded, or nests deeper than the decoder can follow, raises
    ConfigError(f"{what} {path}: ...")."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"{what} {path}: {exc}") from exc


def curve_from_file(path, manifold):
    payload = read_json(path, "bad initial_condition file")
    try:
        return ClosedCurve(np.asarray(payload["samples"], dtype=float), manifold)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad initial_condition file {path}: {exc}") from exc


# (fewest, most) fields after the colon
_FIELDS = {"great_circle": (0, 0), "latitude": (1, 1),
           "torus_geodesic": (2, 2), "random_smooth": (0, 3)}


def make_initial(descriptor, manifold, n, seed=0):
    """Resolve a descriptor string into a curve on ``manifold``."""
    if not isinstance(descriptor, str):
        raise ConfigError("initial-condition descriptor must be a string")
    name, colon, arg = descriptor.partition(":")
    if name == "file":
        return curve_from_file(arg, manifold)
    if name not in _FIELDS:
        raise ConfigError(f"unknown initial-condition preset {name!r}")
    fields = arg.split(",") if colon else []
    low, high = _FIELDS[name]
    if "" in fields or not low <= len(fields) <= high:
        counts = str(low) if low == high else f"{low} to {high}"
        raise ConfigError(f"bad initial_condition {descriptor!r}: {name} takes "
                          f"{counts} nonempty fields after ':'")
    if name in ("great_circle", "latitude") and manifold is not SPHERE2:
        raise ConfigError(f"{name} lives on Sphere2")
    try:
        if name == "great_circle":
            return great_circle(n)
        if name == "latitude":
            return latitude_circle(float(fields[0]), n)
        if name == "torus_geodesic":
            return torus_geodesic(manifold, int(fields[0]), int(fields[1]), n)
        numbers = [float(v) for v in fields[1:]]
        decay, amplitude = numbers + [DEFAULT_DECAY, DEFAULT_AMPLITUDE][len(numbers):]
        return random_smooth(manifold, n, int(fields[0]) if fields else seed,
                             decay, amplitude)
    except (ValueError, TypeError, OutOfTubularNeighborhood) as exc:
        raise ConfigError(f"bad initial_condition {descriptor!r}: {exc}") from exc
