"""Property suites behind ``dcl verify``: each returns a list of checks.

Suites: ``projections`` (algebraic identities of the pointwise geometry),
``identities`` (spectral decay of the integration-by-parts residuals, the
curvature symmetry, the covariant commutator), ``oracles`` (residuals of
the exact solutions), ``maxprinciple`` (decay of the off-manifold
component under the regularized flow), ``smoothing`` (sharpness of the
semigroup derivative-gain bound).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import presets, spectral
from .curves import identity_residuals
from .flow import FlowConfig, dispersive_rhs, evolve
from .invariants import (
    oracle_latitude_circle,
    oracle_latitude_velocity,
    oracle_torus_line,
    smoothing_constant_exact,
    smoothing_constant_numeric,
)
from .manifolds import CHART_FLAT_TORUS2, MANIFOLDS

@dataclass
class Check:
    name: str
    value: float
    limit: float
    kind: str  # "max" (value <= limit) or "min" (value >= limit)

    @property
    def passed(self):
        if not math.isfinite(self.value):
            return False
        return self.value <= self.limit if self.kind == "max" else self.value >= self.limit

    def line(self):
        op = "<=" if self.kind == "max" else ">="
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: value={self.value:.6e} (need {op} {self.limit:g})"


def _tube_samples(manifold, rng, count):
    if manifold is CHART_FLAT_TORUS2:
        return rng.uniform(-1.0, 2.0, size=(count, 2))
    on = manifold.project(rng.standard_normal((count, manifold.ambient_dim)))
    normal = manifold.normal_project(on, rng.standard_normal(on.shape))
    scale = 0.5 * manifold.tubular_radius
    bounded = normal / np.maximum(
        1.0, np.abs(normal).max(axis=-1, keepdims=True)
    )
    return on + scale * bounded


def suite_projections(grids=(64,), seed=0):
    rng = np.random.default_rng(seed)
    checks = []
    for name, m in sorted(MANIFOLDS.items()):
        proj = m.project(_tube_samples(m, rng, max(grids)))
        x, y = rng.standard_normal(proj.shape), rng.standard_normal(proj.shape)
        px, py = m.tangent_project(proj, x), m.tangent_project(proj, y)
        jx = m.complex_structure(proj, px)
        errors = {
            "project_idempotent": m.constraint_residual(proj),
            "project_fixed_point": m.project(proj) - proj,
            "p_plus_n_identity": px + m.normal_project(proj, x) - x,
            "p_idempotent": m.tangent_project(proj, px) - px,
            "p_symmetric": (px * y).sum(-1) - (x * py).sum(-1),
            "j_squared": m.complex_structure(proj, jx) + px,
            "j_antisymmetric": (jx * py).sum(-1)
            + (px * m.complex_structure(proj, py)).sum(-1),
            "j_isometry": np.sqrt((jx * jx).sum(-1)) - np.sqrt((px * px).sum(-1)),
        }
        checks += [
            Check(f"{name}.{key}", float(np.max(np.abs(err))), 1e-12, "max")
            for key, err in errors.items()
        ]
    return checks


# Relative pairing residuals at or below this value are indistinguishable
# from the quadrature roundoff floor; a residual that is *exact* at both
# resolutions satisfies the spectral-decay requirement vacuously.
PAIRING_FLOOR = 1e-13


def _decade_check(name, coarse, fine):
    if coarse <= PAIRING_FLOOR and fine <= PAIRING_FLOOR:
        return Check(name + "_at_floor", max(coarse, fine), PAIRING_FLOOR, "max")
    decades = np.log10(max(coarse, 1e-300) / max(fine, 1e-300))
    return Check(name, float(decades), 4.0, "min")


def suite_identities(grids=(64, 128), seed=0, decay=0.25, amplitude=0.4):
    if len(grids) < 2:
        raise ValueError("identity suite needs at least two grid sizes")
    from .manifolds import SPHERE2

    checks = []
    reports = {}
    for n in grids:
        curve = presets.random_smooth(SPHERE2, n, seed=seed, decay=decay,
                                      amplitude=amplitude)
        reports[n] = identity_residuals(curve, l_max=2, seed=seed)
    coarse, fine = grids[0], grids[-1]
    for l in range(3):
        for label in ("third_pairing", "j_pairing"):
            checks.append(_decade_check(
                f"{label}_decades_l{l}",
                getattr(reports[coarse], f"{label}_rel")[l],
                getattr(reports[fine], f"{label}_rel")[l],
            ))
    checks.append(
        Check("curvature_symmetry", reports[fine].curvature_symmetry, 1e-12, "max")
    )

    # the commutator residual needs data whose alias floor sits far below
    # the O(h^2) finite-difference term
    curve = presets.random_smooth(SPHERE2, coarse, seed=seed, decay=1.0,
                                  amplitude=0.3)
    steps = (2e-3, 1e-3, 5e-4)
    residuals = [
        max(
            identity_residuals(curve, l_max=2, seed=seed, fd_step=h)
            .commutator.values()
        )
        for h in steps
    ]
    slopes = [
        np.log2(residuals[i] / residuals[i + 1]) for i in range(len(steps) - 1)
    ]
    checks.append(Check("commutator_fd_slope", float(min(slopes)), 1.8, "min"))
    return checks


def suite_oracles(grids=(128,), seed=0):
    n = max(grids)
    checks = []
    for label, (theta, a, b) in {
        "equator_schrodinger": (np.pi / 2, 0.0, 0.0),
        "latitude_schrodinger": (np.pi / 3, 0.0, 0.0),
        "latitude_full": (np.pi / 3, 1.0, 0.5),
    }.items():
        state = oracle_latitude_circle(theta, 0.37, a, b, n)
        u_t = oracle_latitude_velocity(theta, 0.37, a, b, n)
        rhs = dispersive_rhs(state, a, b)
        # the analytic residual is supported on a handful of modes; beyond
        # them only FFT roundoff amplified by k^3 remains, so restrict
        residual = spectral.l2_norm(spectral.lowpass(u_t - rhs, 8))
        checks.append(Check(f"{label}_pde_residual", residual, 1e-10, "max"))
    line = oracle_torus_line(0.7, 0.23, (1, 0), 32)
    rhs = dispersive_rhs(line, 1.0, 0.7)
    checks.append(
        Check(
            "torus_line_pde_residual",
            float(np.max(np.abs(rhs - np.array([0.7, 0.0])[None, :]))),
            1e-10,
            "max",
        )
    )
    return checks


def suite_maxprinciple(seed=0):
    from .manifolds import SPHERE2

    n = 64
    base = presets.great_circle(n)
    bump = 1.0 + 1e-4 * np.cos(spectral.TWO_PI * spectral.grid(n))
    start = base.with_samples(base.samples * bump[:, None])
    cfg = FlowConfig(
        a=0.0, b=0.0, epsilon=1e-2, N_g=n, dt=1e-4, T=2.5e-3,
        integrator="DuhamelPicard",
    )
    traj = evolve(start, cfg, stride=1)
    if traj.failure:
        return [Check("maxprinciple_run_completed", np.inf, 0.0, "max")]

    norms = []
    rates = []
    for state in traj.states:
        rho = state.samples - SPHERE2.project(state.samples)
        norms.append(0.5 * spectral.l2_inner(rho, rho))
        rho_xx = spectral.spectral_derivative(rho, 2)
        rates.append(-cfg.epsilon * spectral.l2_inner(rho_xx, rho_xx))
    norms = np.array(norms)
    increase = float(np.max(np.diff(norms)))
    checks = [Check("rho_norm_nonincreasing", increase, 0.0, "max")]
    fd = np.diff(norms) / cfg.dt
    mid = 0.5 * (np.array(rates[:-1]) + np.array(rates[1:]))
    rel = np.max(np.abs(fd - mid) / np.abs(mid))
    checks.append(Check("rho_decay_rate_match", float(rel), 0.10, "max"))
    return checks


def suite_smoothing(seed=0):
    eps_grid = np.logspace(-3, -1, 40)
    t_grid = np.logspace(-3, -1, 40)
    modes = np.arange(1, 4097)
    best = 0.0
    worst_excess = 0.0
    c_num = smoothing_constant_numeric()
    for eps in eps_grid:
        for t in t_grid:
            et = eps * t
            vals = (spectral.TWO_PI * modes) ** 3 * np.exp(
                -et * (spectral.TWO_PI * modes) ** 4
            ) * et**0.75
            top = float(np.max(vals))
            best = max(best, top)
            worst_excess = max(worst_excess, top - c_num)
    checks = [
        Check("bound_never_exceeded", worst_excess, 1e-12, "max"),
        Check("bound_sharpness", abs(best - c_num) / c_num, 0.01, "max"),
        Check(
            "scalar_constant_numeric_vs_exact",
            abs(c_num - smoothing_constant_exact()) / smoothing_constant_exact(),
            1e-9,
            "max",
        ),
    ]
    return checks


# suite name -> suite, called with (grids, seed); listed in this order
SUITES = {
    "identities": suite_identities,
    "projections": suite_projections,
    "oracles": suite_oracles,
    "maxprinciple": lambda grids, seed: suite_maxprinciple(seed),
    "smoothing": lambda grids, seed: suite_smoothing(seed),
}


def run_suite(name, grids=(64, 128), seed=0):
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {tuple(SUITES)}")
    return SUITES[name](grids, seed)
