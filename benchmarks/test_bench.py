"""Checks of the benchmark itself: tracing must not change what dcl computes.

    python3 -m pytest -q benchmarks/test_bench.py

Every workload's own job lengths are used; the file runs in well under a
minute.
"""

import pytest

import run
from tracing import Tracer
from workloads import WORKLOADS

@pytest.fixture
def runner_for(tmp_path):
    def make(name):
        return run.Runner(WORKLOADS[name], run.DEFAULT_SEED, tmp_path / name)
    return make


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_job_matches_untraced(runner_for, name):
    runner = runner_for(name)
    steps = WORKLOADS[name].steps
    plain = runner.job(steps)
    traced = runner.job(steps, Tracer())
    assert runner.failed == 0
    assert traced["summary"]["spans"] > 0
    # report.csv and the final curve, byte for byte
    assert plain["digests"] and plain["digests"] == traced["digests"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_exact_counts_repeat(runner_for, name):
    runner = runner_for(name)
    full, short = WORKLOADS[name].steps, WORKLOADS[name].short_steps
    tracer = Tracer()
    rounds = []
    for _ in range(2):
        plain = runner.job(full)
        traced_full = runner.job(full, tracer)
        traced_short = runner.job(short, tracer)
        rounds.append(run.layer_metrics(
            WORKLOADS[name], traced_full, traced_short, plain["job_s"]))
    assert runner.failed == 0
    first, second = ({k: r[k] for k in run.EXACT} for r in rounds)
    assert first == second
    assert first["spectral.fft_calls_per_step"] > 0


def test_tracer_restores_originals():
    import numpy as np

    from dcl import cli, flow, manifolds

    before = (np.fft.rfft, cli.evolve, flow.h1_distance,
              manifolds.Sphere2.project, manifolds.SPHERE2.require_on_manifold)
    with Tracer():
        assert np.fft.rfft is not before[0]
        assert cli.evolve is flow.evolve is not before[1]
        assert flow.h1_distance is not before[2]
    after = (np.fft.rfft, cli.evolve, flow.h1_distance,
             manifolds.Sphere2.project, manifolds.SPHERE2.require_on_manifold)
    assert after[:4] == before[:4]
    assert after[4].__func__ is before[4].__func__
