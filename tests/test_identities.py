import numpy as np

from dcl.curves import identity_residuals
from dcl.manifolds import CHART_FLAT_TORUS2, SPHERE2
from dcl.presets import great_circle, random_smooth, torus_geodesic


def test_great_circle_all_residuals_tiny():
    rep = identity_residuals(great_circle(64), l_max=0, seed=0)
    assert rep.third_pairing[0] <= 1e-10
    assert rep.j_pairing[0] <= 1e-10
    assert rep.curvature_symmetry <= 1e-12


def test_pairing_residuals_decay_spectrally():
    reports = {}
    for n in (64, 128):
        c = random_smooth(SPHERE2, n, seed=0, decay=0.25, amplitude=0.4)
        reports[n] = identity_residuals(c, l_max=2, seed=0, n_quadruples=4)
    # l = 0 pairs the raw velocity, whose normal defect is truncation-level:
    # genuine spectral decay, at least four orders of magnitude
    assert reports[64].third_pairing_rel[0] >= 1e4 * reports[128].third_pairing_rel[0]
    for l in range(3):
        assert reports[64].j_pairing_rel[l] >= 1e4 * reports[128].j_pairing_rel[l]
    # l >= 1 towers are pointwise tangent and discrete integration by parts
    # is exact, so those residuals sit at the roundoff floor on both grids
    for l in (1, 2):
        assert reports[64].third_pairing_rel[l] <= 1e-13
        assert reports[128].third_pairing_rel[l] <= 1e-13


def test_curvature_symmetry_exact():
    c = random_smooth(SPHERE2, 64, seed=1, decay=0.5, amplitude=0.4)
    rep = identity_residuals(c, l_max=1, seed=1, n_quadruples=16)
    assert rep.curvature_symmetry <= 1e-12


def test_commutator_second_order_in_fd_step():
    c = random_smooth(SPHERE2, 64, seed=0, decay=1.0, amplitude=0.3)
    residuals = [
        max(identity_residuals(c, l_max=2, seed=0, fd_step=h).commutator.values())
        for h in (2e-3, 1e-3, 5e-4)
    ]
    slopes = [np.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    assert min(slopes) >= 1.8


def test_commutator_on_flat_torus():
    # K = 0 and plain derivatives: both sides of the commutation rule are
    # the same linear operator applied to the same finite difference, so
    # the residual sits at the derivative-amplified roundoff floor for
    # every step size
    c = torus_geodesic(CHART_FLAT_TORUS2, 1, 1, n=64)
    for h in (2e-3, 1e-4):
        rep = identity_residuals(c, l_max=2, seed=3, fd_step=h)
        assert max(rep.commutator.values()) <= 1e-7


def test_kahler_compatibility_along_curve():
    # p(u) d_x (J X) = J p(u) d_x X to spectral accuracy for tangent X
    from dcl import spectral
    from dcl.curves import covariant_derivative

    for m, seed in ((SPHERE2, 4), (CHART_FLAT_TORUS2, 5)):
        if m is CHART_FLAT_TORUS2:
            c = torus_geodesic(m, 1, 0, n=128)
        else:
            c = random_smooth(m, 128, seed=seed, decay=1.0, amplitude=0.3)
        rng = np.random.default_rng(seed)
        raw = spectral.lowpass(rng.standard_normal(c.samples.shape), 10)
        x = m.tangent_project(c.samples, raw)
        jx = m.complex_structure(c.samples, x)
        lhs = covariant_derivative(c, jx)
        cov_x = covariant_derivative(c, x)
        rhs = m.complex_structure(c.samples, cov_x)
        scale = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-8 * scale
