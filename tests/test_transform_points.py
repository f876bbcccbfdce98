"""Points the benchmark inputs transform per step: rows x length.

A step's figure is the difference of the points transformed by a job of
two steps and one of one step, counted through ``np.fft`` and through
``dcl.spectral``'s direct transforms: an rfft counts its input, an irfft
its output.  The inputs are those of the benchmark workloads at their
default seed 11, and the figures are the bounds the benchmark's transform
count check puts on them.  A stage that transforms more rows, or a stage,
step end or march transform that runs on the curve grid instead of the
stage grid, breaks them.
"""

import json

import numpy as np
import pytest

from dcl import cli, presets, spectral
from dcl.flow import FlowConfig, evolve
from dcl.manifolds import SPHERE2


@pytest.fixture
def fft_points(monkeypatch):
    """A one-item list holding the points transformed since it was reset."""
    total = [0]

    def count(owner, name, size):
        transform = getattr(owner, name)

        def counted(a, *args, **kwargs):
            result = transform(a, *args, **kwargs)
            total[0] += size(a, result)
            return result

        monkeypatch.setattr(owner, name, counted)

    for owner in (np.fft, spectral):
        count(owner, "rfft", lambda a, result: np.asarray(a).size)
        count(owner, "irfft", lambda a, result: result.size)
    return total


def points(fft_points, job):
    fft_points[0] = 0
    result = job()
    return fft_points[0], result


def cli_points(fft_points, tmp_path, config, argv, steps):
    manifest = {"config": dict(config, T=steps * config["dt"]),
                "output_dir": str(tmp_path / f"out{steps}"), "stride": 1,
                "seed": 11}
    path = tmp_path / f"manifest{steps}.json"
    path.write_text(json.dumps(manifest))
    return points(fft_points, lambda: cli.main([argv[0], "--manifest", str(path),
                                                *argv[1:]]))


SIMULATE = {"a": 1.0, "b": 0.5, "epsilon": 0.0, "N_g": 256, "dt": 1e-5,
            "integrator": "ProjectedRK4", "manifold": "Sphere2",
            "initial_condition": "random_smooth:11,1.1,0.18"}
CONVERGE = dict(SIMULATE, epsilon=2e-5, N_g=128,
                initial_condition="random_smooth:11,1.0,0.18")


def test_simulate_dense_points_per_step(fft_points, tmp_path):
    # the step's transforms on the stage grid, its snapshot's share of the
    # one irfft onto the curve grid and the snapshot's energy report
    argv = ["simulate", "--checkpoints", "10"]
    (one, code1), (two, code2) = (
        cli_points(fft_points, tmp_path, SIMULATE, argv, s) for s in (1, 2))
    assert code1 == code2 == 0
    assert two - one == 13056


def test_converge_eps_points_per_member_step(fft_points, tmp_path):
    # the eps = 0 baseline and three levels march as one 4-member stack
    argv = ["converge", "--mode", "epsilon", "--levels", "3"]
    (one, code1), (two, code2) = (
        cli_points(fft_points, tmp_path, CONVERGE, argv, s) for s in (1, 2))
    assert code1 == code2 == 0
    assert two - one == 4 * 6912


def test_rk4_n4096_points_per_step(fft_points):
    n, dt = 4096, 1e-6
    u0 = presets.make_initial("random_smooth:11,1.1,0.18", SPHERE2, n)
    one, two = (points(fft_points, lambda: evolve(
        u0, FlowConfig(a=1.0, b=0.5, N_g=n, dt=dt, T=s * dt), stride=s))[0]
        for s in (1, 2))
    assert two - one == 18432


def test_picard_maxprinciple_points_per_iteration(fft_points):
    # a step transforms the state once (3 x 64 points) and its free term,
    # 9 targets of 3 x 64; an iteration slopes the 8 node states (P, its
    # rfft, [v_x, v_xx, v_xxx], A0, D A0, [A1, rest]) and takes all 9
    # targets back to the grid
    n = 64
    base = presets.make_initial("great_circle", SPHERE2, n)
    bump = 1.0 + 1e-4 * np.cos(2.0 * np.pi * np.arange(n) / n)
    u0 = base.with_samples(base.samples * bump[:, None])
    runs = [points(fft_points, lambda: evolve(u0, FlowConfig(
        epsilon=1e-2, N_g=n, dt=1e-4, T=s * 1e-4, integrator="DuhamelPicard")))
        for s in (1, 2)]
    (one, _), (two, traj) = runs
    per_step, per_iteration = 192 + 1728, 14016
    first, second = traj.picard_iterations
    assert first != second  # so the two steps pin both figures
    assert one == 192 + per_step + per_iteration * first
    assert two - one == per_step + per_iteration * second
