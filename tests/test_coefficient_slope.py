"""The stage slope's coefficient-space assembly and the Picard set-up.

``reference_slope`` is the earlier form of ``_Stepper.slope``, which
formed every term of the remainder in physical space (D A0 and D t2 by
inverse transforms) before one forward transform of the sum.
``reference_quadrature`` is the earlier per-target construction of the
fused Duhamel kernel, one Gauss rule and one interpolation matrix per
target.  Both are kept here only to pin the faster forms in ``dcl.flow``.
"""

import numpy as np
import pytest
from conftest import stiff_symbol

from dcl import spectral
from dcl.curves import lift_trend
from dcl.flow import (
    FlowConfig,
    _duhamel_quadrature,
    _rk4_step,
    _sq,
    _Stepper,
    evolve,
    mode_cutoff,
)
from dcl.manifolds import CHART_FLAT_TORUS2, CLIFFORD_TORUS2, SPHERE2
from dcl.presets import random_smooth

TWO_PI = 2.0 * np.pi
TARGETS = [SPHERE2, CLIFFORD_TORUS2, CHART_FLAT_TORUS2]


def swap(a):
    """(..., N, d) samples as the flow's (..., d, N) rows, and back."""
    return np.swapaxes(a, -1, -2)


def reference_slope(st, samples, trend, winding):
    cfg, m, n, d1 = st.cfg, st.manifold, st.n, st.d_pows[0][:, None]
    m.require_in_tube(samples)
    proj = m.project(samples)
    m.require_on_manifold(proj)
    coef = np.fft.rfft(proj - trend, axis=-2)
    pows = np.stack([d1, d1**2, d1**3])
    pows = pows.reshape(pows.shape[:1] + (1,) * (coef.ndim - 2) + d1.shape)
    rows = np.fft.irfft(pows * coef, n=n, axis=-2)
    vx, vxx = rows[0], rows[1]
    if winding.any():
        vx = winding[..., None, :] + vx
    a0 = swap(m._sff(swap(proj), swap(vx), swap(vx)))
    s1 = vxx - a0
    a1 = swap(m._sff(swap(proj), swap(s1), swap(vx)))
    a0_hat, a1_hat = np.fft.rfft(np.stack([a0, a1]), axis=-2)
    da0_hat = d1 * a0_hat
    da0, dt2 = np.fft.irfft(
        np.stack([da0_hat, -d1 * (da0_hat + a1_hat)]), n=n, axis=-2
    )
    t2 = -da0 - a1
    s2 = rows[2] + t2
    out = (
        cfg.a * t2
        + swap(m._j(swap(proj), swap(s1)))
        + cfg.b * swap(_sq(swap(vx))) * vx
    )
    out -= st.eps * (dt2 - swap(m._sff(swap(proj), swap(s2), swap(vx))))
    return st.mask[:, None] * np.fft.rfft(out, axis=-2, norm="forward")


def stage_points(manifold, seeds, n=64):
    """Curves near the target (off it by about 1e-6), stacked if several."""
    rng = np.random.default_rng(3)
    curves = [random_smooth(manifold, n, seed=s, decay=1.0, amplitude=0.2)
              for s in seeds]
    samples = np.stack([c.samples for c in curves])
    samples = samples + 1e-6 * rng.standard_normal(samples.shape)
    speed = max(float(np.max(np.abs(c.velocity()))) for c in curves)
    return (samples if len(seeds) > 1 else samples[0]), speed


CASES = ["eps0-single", "mixed-stack", "picard"]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("manifold", TARGETS, ids=[m.name for m in TARGETS])
def test_slope_matches_physical_space_reference(manifold, case):
    if case == "eps0-single":
        samples, speed = stage_points(manifold, [5])
        cfg = FlowConfig(a=1.0, b=0.5, N_g=64, dt=1e-5, T=1e-5)
        st = _Stepper(cfg, manifold, mode_cutoff(cfg, manifold, speed),
                      [cfg.epsilon])
    elif case == "mixed-stack":
        samples, speed = stage_points(manifold, [5, 6, 7])
        cfg = FlowConfig(a=1.0, b=0.5, N_g=64, dt=1e-5, T=1e-5)
        st = _Stepper(cfg, manifold, mode_cutoff(cfg, manifold, speed),
                      [0.0, 3e-5, 1e-4])
    else:
        samples, speed = stage_points(manifold, [5, 6])
        cfg = FlowConfig(a=0.7, b=0.5, epsilon=1e-2, N_g=64, dt=1e-4,
                         T=1e-4, integrator="DuhamelPicard", mode_cutoff=16)
        st = _Stepper(cfg, manifold, mode_cutoff(cfg, manifold, speed),
                      [cfg.epsilon])
    trend, winding = lift_trend(swap(samples), manifold)
    want = reference_slope(st, samples, swap(trend), winding[..., 0])
    got = swap(st.slope(swap(samples) - trend, winding))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("eps,want", [(0.0, 16), (3e-5, 24)])
def test_step_transform_calls(fft_calls, eps, want):
    # an eps = 0 stage: P, [v_x, v_xx] and [A0, rest]; at eps > 0 t2 is
    # needed pointwise, which adds A0 and D A0.  Stage 1 takes P's
    # transform from the state's, which the step counts once, and a step
    # adds one inverse per later stage point and its end
    u0 = random_smooth(SPHERE2, 64, seed=5, decay=1.0, amplitude=0.2)
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=eps, N_g=64, dt=1e-5, T=1e-5)
    st = _Stepper(cfg, SPHERE2, mode_cutoff(cfg, SPHERE2, 1.0),
                  [cfg.epsilon])
    before = len(fft_calls)
    rows = u0.samples.T
    _rk4_step(rows, st, np.fft.rfft(rows, norm="forward"), np.zeros((3, 1)))
    assert len(fft_calls) - before == want
    # each accepted state is transformed once: the H2 guard at stride 1
    # and the next step's stage 1 share that rfft, so a step costs what it
    # costs standalone (16 for an eps = 0 step), not one more
    counts = []
    for steps in (1, 3):
        cfg = FlowConfig(a=1.0, b=0.5, epsilon=eps, N_g=64, dt=1e-5,
                         T=steps * 1e-5)
        before = len(fft_calls)
        assert evolve(u0, cfg, stride=1).failure is None
        counts.append(len(fft_calls) - before)
    assert (counts[1] - counts[0]) / 2 == want


def reference_quadrature(cfg, k, mask):
    def rule(a, b):
        x, w = np.polynomial.legendre.leggauss(q)
        half = 0.5 * (b - a)
        return a + half * (x + 1.0), half * w

    q = cfg.quadrature_nodes
    nodes, _ = rule(0.0, cfg.dt)
    targets = np.append(nodes, cfg.dt)
    k4 = (TWO_PI * k) ** 4
    k3 = cfg.a * (1j * TWO_PI * k) ** 3
    k3[-1] = 0.0  # no odd-order part at the Nyquist mode

    def decay(t):
        return (np.exp(-cfg.epsilon * t[..., None] * k4)
                * np.exp(t[..., None] * k3) * mask)

    kernel = np.empty((targets.size, q, k4.size), dtype=complex)
    for i, s in enumerate(targets):
        tau, w = rule(0.0, s)
        interp = spectral.lagrange_matrix(nodes, tau)
        kernel[i] = np.einsum("t,tk,tj->jk", w, decay(s - tau), interp)
    return nodes, kernel, decay(targets)


@pytest.mark.parametrize("q,dt", [(8, 1e-4), (8, 2e-4), (5, 3e-2)])
def test_fused_quadrature_bitwise_equals_per_target_rules(q, dt):
    cfg = FlowConfig(a=0.3, b=0.2, epsilon=1e-2, N_g=64, dt=dt, T=dt,
                     integrator="DuhamelPicard", quadrature_nodes=q)
    k = spectral.wavenumbers(64)
    mask = (k <= 12).astype(float)
    nodes, kernel, decay = _duhamel_quadrature(cfg, *stiff_symbol(cfg, k))
    for got, want in zip((nodes, kernel * mask, decay * mask),
                         reference_quadrature(cfg, k, mask)):
        assert np.array_equal(got, want)
