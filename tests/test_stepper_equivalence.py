"""The coefficient-space RK4 step against a physical-space reference.

The reference below is the earlier, transform-per-operation form of the
projected integrating-factor step: every stage builds a curve, assembles
the non-stiff remainder from the checked covariant tower, and propagates
and filters fields by separate rfft/irfft pairs.  Stage 1, as in the
step, is taken at the state's every (N/M)-th sample, M the stage grid,
with v_x from the state's first M/2 + 1 modes.  It is kept here only to
pin the faster step in ``dcl.flow`` to the same arithmetic.
"""

import numpy as np
import pytest

from dcl import spectral
from dcl.curves import lift_trend
from dcl.flow import (
    FlowConfig,
    _gauss_tower,
    _rk4_step,
    _sq,
    _Stepper,
    mode_cutoff,
)
from dcl.manifolds import CHART_FLAT_TORUS2, CLIFFORD_TORUS2, SPHERE2
from dcl.presets import random_smooth

TWO_PI = 2.0 * np.pi


def reference_remainder(curve, cfg, vx=None):
    m = curve.manifold
    v = curve.samples
    vx = curve.velocity() if vx is None else vx
    tower = [s.T for s in _gauss_tower(m, v.T, vx.T, 3 if cfg.epsilon else 2)]
    s1, s2 = tower[1], tower[2]
    t2 = -spectral.spectral_derivative(
        m.second_fundamental_form(v, vx, vx)
    ) - m.second_fundamental_form(v, s1, vx)
    out = cfg.a * t2 + m.complex_structure(v, s1) + cfg.b * _sq(vx.T).T * vx
    if cfg.epsilon:
        t3 = spectral.spectral_derivative(t2) - m.second_fundamental_form(
            v, s2, vx
        )
        out -= cfg.epsilon * t3
    return out


class Reference:
    """Multipliers on the curve grid, applied in physical space, one
    transform pair each."""

    def __init__(self, cfg, manifold, n, speed, stage_n):
        k = spectral.wavenumbers(n)
        lam = cfg.a * (1j * TWO_PI * k) ** 3 - cfg.epsilon * (TWO_PI * k) ** 4
        lam[-1] = lam[-1].real
        self.n, self.stage_n = n, stage_n
        self.mask = (k <= mode_cutoff(cfg, manifold, speed)).astype(float)
        self.e_full = np.exp(cfg.dt * lam) * self.mask
        self.e_half = np.exp(0.5 * cfg.dt * lam) * self.mask

    def apply(self, mult, arr):
        coef = np.fft.rfft(arr, axis=0) * mult[..., None]
        return np.fft.irfft(coef, n=self.n, axis=0)

    def nl(self, curve, cfg, samples):
        m = curve.manifold
        m.require_in_tube(samples)
        stage = curve.with_samples(m.project(samples))
        return self.apply(self.mask, reference_remainder(stage, cfg))

    def nl1(self, curve, cfg):
        """Stage 1 at the state's every (N/M)-th sample, with v_x from its
        first M/2 + 1 modes; masked on the M grid, zero-padded back to N."""
        n, m = self.n, self.stage_n
        trend = curve.trend()
        modes = np.fft.rfft(curve.samples - trend, axis=0)[: m // 2 + 1]
        low = np.fft.irfft(modes * (m / n), n=m, axis=0)
        vx = spectral.spectral_derivative(low) + curve.winding()
        stage = curve.with_samples(curve.samples[:: n // m])
        coef = np.fft.rfft(reference_remainder(stage, cfg, vx), axis=0)
        coef *= self.mask[: m // 2 + 1, None]
        return np.fft.irfft(coef * (n / m), n=n, axis=0)

    def finish(self, curve, pre):
        m = curve.manifold
        residual = float(np.max(m.constraint_residual(pre)))
        m.require_in_tube(pre)
        return curve.with_samples(m.project(pre)), residual

    def rk4_step(self, curve, cfg):
        h, st = cfg.dt, self
        trend = curve.trend()
        v0 = curve.samples

        def pos(mult, samples):
            return trend + self.apply(mult, samples - trend)

        m1 = self.nl1(curve, cfg)
        m2 = self.nl(curve, cfg, pos(st.e_half, v0 + (0.5 * h) * m1))
        m3 = self.nl(curve, cfg, pos(st.e_half, v0) + (0.5 * h) * m2)
        g4 = pos(st.e_full, v0) + h * self.apply(st.e_half, m3)
        m4 = self.nl(curve, cfg, g4)
        pre = pos(st.e_full, v0) + (h / 6.0) * (
            self.apply(st.e_full, m1)
            + 2.0 * self.apply(st.e_half, m2 + m3)
            + m4
        )
        return self.finish(curve, pre)


CASES = [
    (SPHERE2, 0.0), (SPHERE2, 3e-5),
    (CLIFFORD_TORUS2, 0.0), (CLIFFORD_TORUS2, 3e-5),
    (CHART_FLAT_TORUS2, 0.0), (CHART_FLAT_TORUS2, 3e-5),
]
CASES = [case + (128, 1e-5, 1.0) for case in CASES] + [
    # the band keeps 33-64 of 512 modes: stages on a grid of 256 points
    (SPHERE2, 0.0, 1024, 1e-6, 1.0), (CLIFFORD_TORUS2, 0.0, 1024, 1e-6, 1.0),
    (CHART_FLAT_TORUS2, 0.0, 1024, 2e-6, 1.0),
    # slowly decaying curves: their modes past the stage grid's Nyquist
    # mode would alias into the band if stage 1 took v_x from the state's
    # samples on the stage grid rather than from its first M/2 + 1 modes
    (SPHERE2, 0.0, 1024, 1e-6, 0.05), (CLIFFORD_TORUS2, 0.0, 1024, 1e-6, 0.05),
    (CHART_FLAT_TORUS2, 0.0, 1024, 5e-7, 0.05),
]


@pytest.mark.parametrize(
    "manifold,eps,n,dt,decay", CASES,
    ids=[f"{m.name}-eps{e:g}" + ("" if n == 128 else f"-N{n}")
         + ("" if d == 1.0 else f"-decay{d:g}") for m, e, n, _, d in CASES],
)
def test_step_matches_physical_space_reference(manifold, eps, n, dt, decay):
    u0 = random_smooth(manifold, n, seed=5, decay=decay, amplitude=0.2)
    if manifold is CHART_FLAT_TORUS2:
        assert np.array_equal(u0.winding(), [1.0, 0.0])
    cfg = FlowConfig(a=1.0, b=0.5, epsilon=eps, N_g=n, dt=dt, T=dt)
    speed = float(np.max(np.abs(u0.velocity())))
    st = _Stepper(cfg, manifold, mode_cutoff(cfg, manifold, speed),
                  [cfg.epsilon])
    if n == 1024:
        assert st.n == 256
    if decay < 1.0:
        tail = np.fft.rfft(u0.samples - u0.trend(), axis=0)[st.n // 2 + 1:]
        assert np.abs(tail).max() / n > 1e-9
    ref = Reference(cfg, manifold, n, speed, st.n)
    # the step takes the periodic part, its transform and the winding
    trend, winding = lift_trend(u0.samples.T, manifold)
    periodic = u0.samples.T - trend
    coef = np.fft.rfft(periodic, norm="forward")
    got = _rk4_step(periodic, st, coef, winding)
    want = ref.rk4_step(u0, cfg)
    assert np.max(np.abs(got[0].T - (want[0].samples - u0.trend()))) <= 1e-13
    assert abs(got[1] - want[1]) <= 1e-13
