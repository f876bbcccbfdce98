"""Property: ``dcl.cli.main`` returns 0, 2 or 3 on any manifest, never raises,
and ``dcl verify --suite identities`` passes or refuses its grids, never fails.

Hypothesis starts from a valid manifest (N in 16..64, at most 3 steps)
and drops keys, adds unknown ones and replaces values by values of the
wrong type or at the edges of their range.  The values are chosen so that
no mutation can lengthen a run: a horizon can only become invalid, zero,
overflowing or longer than ``flow.MAX_STEPS`` steps (a config error),
never a longer valid one.
"""

import io
import json
import os
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dcl import cli  # noqa: E402

JUNK = [None, True, False, "x", "", [1], {"k": 1}, -1, 0, -0.0, 1e300, 1e308,
        float("nan"), float("inf"), 5e-324]
COMMANDS = [["simulate"], ["simulate", "--checkpoints", "2"],
            ["converge", "--mode", "epsilon"], ["converge", "--mode", "dt"],
            ["converge", "--mode", "grid"]]


@st.composite
def manifests(draw):
    n = draw(st.sampled_from([16, 32, 64]))
    steps = draw(st.integers(0, 3))
    dt = 1e-4
    config = {
        "a": draw(st.sampled_from([0.0, 0.5, 1.0])),
        "b": draw(st.sampled_from([0.0, 0.5])),
        "epsilon": draw(st.sampled_from([0.0, 1e-2])),
        "N_g": n, "dt": dt, "T": steps * dt,
        "integrator": draw(st.sampled_from(
            ["ProjectedRK4", "DuhamelPicard"])),
        "manifold": draw(st.sampled_from(
            ["Sphere2", "CliffordTorus2", "ChartFlatTorus2"])),
        "initial_condition": draw(st.sampled_from(
            ["random_smooth:3,1.1,0.18", "great_circle",
             "torus_geodesic:1,2", "latitude:1.0"])),
    }
    manifest = {"config": config, "output_dir": "out", "stride": 1,
                "seed": 0}
    for _ in range(draw(st.integers(0, 3))):
        where = draw(st.sampled_from([manifest, config]))
        key = draw(st.sampled_from(sorted(where) + ["unknown", "dealias",
                                                    "mode_cutoff"]))
        action = draw(st.sampled_from(["replace", "drop"]))
        if action == "drop":
            where.pop(key, None)
        else:
            where[key] = draw(st.sampled_from(JUNK))
    return manifest


def run_main(manifest, argv):
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with open("manifest_in.json", "w", encoding="utf-8") as handle:
                json.dump(manifest, handle)
            return cli.main(argv + ["--manifest", "manifest_in.json"])
        finally:
            os.chdir(cwd)


VALID = {"a": 0.0, "b": 0.0, "epsilon": 0.0, "N_g": 32, "dt": 1e-4,
         "T": 2e-4, "integrator": "ProjectedRK4", "manifold": "Sphere2",
         "initial_condition": "great_circle"}


def with_value(section, key, value):
    manifest = {"config": dict(VALID), "output_dir": "out", "stride": 1,
                "seed": 0}
    (manifest["config"] if section == "config" else manifest)[key] = value
    return manifest


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(manifest=manifests(), argv=st.sampled_from(COMMANDS))
@example(manifest=with_value("config", "manifold", [1]), argv=["simulate"])
@example(manifest=with_value("top", "output_dir", 5), argv=["simulate"])
@example(manifest=with_value("top", "output_dir", "manifest_in.json"),
         argv=["simulate"])
@example(manifest=with_value("top", "output_dir", "manifest_in.json/out"),
         argv=["converge", "--mode", "epsilon"])
@example(manifest=with_value("config", "T", 1e308), argv=["simulate"])
@example(manifest=with_value("config", "T", 1e308),
         argv=["converge", "--mode", "epsilon"])
@example(manifest=with_value("config", "T", 1e300), argv=["simulate"])
@example(manifest=with_value("config", "T", 1e300),
         argv=["converge", "--mode", "epsilon"])
@example(manifest=with_value("config", "T", 500.0),
         argv=["converge", "--mode", "dt"])
@example(manifest=with_value("config", "initial_condition",
                             "file:/missing.json"), argv=["simulate"])
@example(manifest=with_value("config", "dealias", "no"), argv=["simulate"])
@example(manifest=with_value("config", "integrator", "IMEX"),
         argv=["simulate"])
@example(manifest=with_value("config", "epsilon", 5e-324),
         argv=["converge", "--mode", "epsilon"])
@example(manifest=with_value("top", "stride", True), argv=["simulate"])
@example(manifest=with_value("config", "N_g", 64.0), argv=["simulate"])
@example(manifest=with_value("config", "N_g", 2**34), argv=["simulate"])
@example(manifest=with_value("config", "quadrature_nodes", 3000),
         argv=["simulate"])
@example(manifest=with_value("config", "picard_tol", float("inf")),
         argv=["simulate"])
@example(manifest=with_value("config", "T", 2e-4),
         argv=["converge", "--mode", "dt", "--levels", "1100"])
@example(manifest=with_value("config", "T", 2e-4),
         argv=["converge", "--mode", "grid", "--levels", "40"])
@example(manifest=with_value("config", "N_g", 8),
         argv=["converge", "--mode", "grid"])
def test_main_returns_a_documented_exit_code(manifest, argv):
    assert run_main(manifest, argv) in (0, 2, 3)


@pytest.mark.parametrize(
    "section,key,value,message",
    [
        ("config", "manifold", [1], "unknown manifold [1]"),
        ("top", "output_dir", 5, "output_dir must be a string"),
        ("top", "output_dir", "manifest_in.json", "cannot create output_dir"),
        ("top", "output_dir", "manifest_in.json/out",
         "cannot create output_dir"),
        ("config", "T", 1e308, "T / dt overflows"),
        ("config", "T", 1e300, "MAX_STEPS"),
        ("config", "T", 1000.0001, "MAX_STEPS"),
        ("config", "initial_condition", "file:/missing.json",
         "bad initial_condition file /missing.json"),
        ("config", "dealias", "no", "unknown config keys"),
        ("top", "stride", True, "stride must be a positive integer"),
        ("top", "seed", False, "seed must be an integer"),
        ("config", "N_g", 64.0, "N_g must be an integer"),
        ("config", "T", True, "T must be a number"),
        ("config", "picard_tol", float("inf"), "picard_tol must be finite"),
        ("config", "picard_tol", True, "picard_tol must be a number"),
        ("config", "N_g", 2**34, "N_g must be at most 65536"),
        ("config", "quadrature_nodes", 3000,
         "quadrature_nodes must be at most 32"),
    ],
)
@pytest.mark.parametrize("command", ["simulate", "converge"])
def test_bad_manifest_value_exits_2_naming_it(capsys, section, key, value,
                                              message, command):
    argv = [command] + (["--mode", "epsilon"] if command == "converge" else [])
    assert run_main(with_value(section, key, value), argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


@pytest.mark.parametrize("n_g", [0, 8, 24])
@pytest.mark.parametrize("argv", [["simulate"]] + [
    ["converge", "--mode", mode] for mode in ("epsilon", "dt", "grid")],
    ids=["simulate", "epsilon", "dt", "grid"])
def test_grid_not_a_power_of_two_exits_2_leaving_no_output(
        capsys, monkeypatch, tmp_path, n_g, argv):
    # a grid study of N_g 8 used to die in resample with a traceback
    monkeypatch.chdir(tmp_path)
    with open("manifest_in.json", "w", encoding="utf-8") as handle:
        json.dump(with_value("config", "N_g", n_g), handle)
    assert cli.main(argv + ["--manifest", "manifest_in.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "N_g must be a power of two >= 16" in err
    assert os.listdir(tmp_path) == ["manifest_in.json"]


def test_converge_dt_level_past_max_steps_exits_2(capsys):
    # 5e6 steps validate; the finest of three dt levels would take 2e7
    argv = ["converge", "--mode", "dt"]
    assert run_main(with_value("config", "T", 500.0), argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "MAX_STEPS" in err


@pytest.mark.parametrize(
    "mode,levels,message",
    # the finest dt underflows to 0; the finest grids would need 128 GiB
    [("dt", "1100", "dt must be positive"),
     ("grid", "40", "N_g must be at most 65536")],
)
def test_converge_level_past_a_bound_exits_2_before_building(
        capsys, monkeypatch, mode, levels, message):
    def no_curve(*args):
        raise AssertionError("the initial curve was built")

    monkeypatch.setattr(cli, "make_initial", no_curve)
    argv = ["converge", "--mode", mode, "--levels", levels]
    assert run_main(with_value("config", "T", 2e-4), argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad flow config: ") and message in err


def test_converge_grid_study_ending_on_max_n_g_passes_validation(monkeypatch):
    # 2^14, 2^15, 2^16: every level is valid, so the study goes on to
    # build its curve on the finest grid (stopped there)
    class Built(Exception):
        pass

    def stop(descriptor, manifold, n, seed):
        raise Built(n)

    monkeypatch.setattr(cli, "make_initial", stop)
    argv = ["converge", "--mode", "grid", "--levels", "3"]
    with pytest.raises(Built) as built:
        run_main(with_value("config", "N_g", 2**14), argv)
    assert built.value.args == (2**16,)


def test_converge_epsilon_levels_are_checked_in_order(capsys):
    # the first level that underflows to 0 ends the study: two million
    # levels allocate nothing of their length before exit 2
    argv = ["converge", "--mode", "epsilon", "--levels", str(2 * 10**6)]
    tracemalloc.start()
    try:
        status = run_main(with_value("config", "epsilon", 1e-3), argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == 2 and peak < 2**20
    assert "epsilon level 1066 underflows to 0" in capsys.readouterr().err


GRIDS = [2**k for k in range(4, 17)]  # every grid --grids takes, 16 to 65536


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(grids=st.lists(st.sampled_from(GRIDS), min_size=2, max_size=3, unique=True),
       seed=st.integers(0, 2))
@example(grids=[16, 32], seed=0)
@example(grids=[1024, 2048], seed=0)
@example(grids=[64, 4096], seed=0)
@example(grids=[4096, 65536], seed=1)
@example(grids=[2048, 64], seed=2)
@example(grids=[512, 2048], seed=1)
def test_identity_suite_passes_or_refuses_its_grids(grids, seed):
    # a coarse grid from 64 to 512 and a fine grid up to 2048 resolve the
    # suite's data and its floor, and it passes there on correct code;
    # other grids exit 2 with one config error line that names the range
    argv = ["verify", "--suite", "identities", "--grids", ",".join(map(str, grids)),
            "--seed", str(seed)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if 64 <= min(grids) <= 512 and max(grids) <= 2048:
        assert code == 0 and "FAIL" not in out.getvalue() and err.getvalue() == ""
    else:
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue() == (
            "config error: --suite identities resolves its data on a coarse grid "
            f"from 64 to 512 and a fine grid up to 2048; got {argv[4]!r}\n")
