"""``dcl converge --mode dt`` compares time steps on one band.

The automatic band of ``flow.mode_cutoff`` widens as dt falls (its
stability edge grows like dt^-1/2), so a study whose levels each chose
their own band measured the decay of the curve's spectrum from one band
to the next, not the time error.  With no pinned ``mode_cutoff`` every
level now runs on the coarsest level's band.
"""

import contextlib
import csv
import io
import json
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dcl import cli, flow  # noqa: E402


def dt_study(path, out_dir, levels, **config):
    manifest = {"config": {"manifold": "Sphere2", "N_g": 128, "a": 1.0,
                           "b": 0.5, "epsilon": 0.0, "dt": 1e-5,
                           "integrator": "ProjectedRK4", **config},
                "output_dir": str(out_dir), "stride": 1}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["converge", "--manifest", str(path), "--mode", "dt",
                         "--levels", str(levels)])
    assert code == 0
    with open(os.path.join(out_dir, "converge_dt.csv"), encoding="utf-8") as table:
        return list(csv.DictReader(table))


def test_dt_orders_on_the_acceptance_input_measure_the_step_not_the_band(tmp_path):
    # its automatic bands were 12, 17, 24 and 32, which read orders 3.85 and
    # 4.22; on the coarsest level's band 12 the same levels read these
    rows = dt_study(tmp_path / "m.json", tmp_path / "out", 4, T=1e-3,
                    initial_condition="random_smooth:11,0.7,1.0")
    orders = [float(r["observed_order"]) for r in rows if r["observed_order"]]
    assert orders == pytest.approx([0.10, 0.45], abs=0.05)


@settings(max_examples=12, deadline=None)
@given(manifold=st.sampled_from(["Sphere2", "CliffordTorus2", "ChartFlatTorus2"]),
       seed=st.integers(0, 50), amplitude=st.sampled_from([0.1, 0.3, 0.6]),
       a=st.sampled_from([0.5, 1.0]), levels=st.integers(3, 4))
def test_every_level_of_a_dt_study_runs_on_one_band(manifold, seed, amplitude,
                                                     a, levels):
    bands = []
    cutoff = flow.mode_cutoff

    def recorded(*args):
        bands.append(cutoff(*args))
        return bands[-1]

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "mode_cutoff", recorded)
        dt_study(os.path.join(tmp, "m.json"), os.path.join(tmp, "out"), levels,
                 T=4e-5, manifold=manifold, a=a,
                 initial_condition=f"random_smooth:{seed},0.7,{amplitude}")
    assert len(set(bands)) == 1
    # the study decides the band once, then each level's march reads it
    assert len(bands) == levels + 1
