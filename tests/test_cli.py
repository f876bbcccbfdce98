import csv
import dataclasses
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import dcl
from dcl import cli
from dcl.cli import main
from dcl.curves import sup_distance
from dcl.errors import NoContraction
from dcl.flow import MAX_N_G
from dcl.invariants import EnergyReport, oracle_latitude_circle
from dcl.manifolds import SPHERE2
from dcl.presets import great_circle, random_smooth


def parse_report_csv(text):
    """Round-trip helper: rows of report.csv as dictionaries of floats."""
    return [
        {k: (float(v) if v != "" else None) for k, v in row.items()}
        for row in csv.DictReader(io.StringIO(text))
    ]


def base_manifest(out_dir, **overrides):
    config = {
        "a": 0.0,
        "b": 0.0,
        "epsilon": 0.0,
        "N_g": 64,
        "dt": 1e-5,
        "T": 1e-3,
        "integrator": "ProjectedRK4",
        "manifold": "Sphere2",
        "initial_condition": "latitude:1.0471975511965976",
    }
    config.update(overrides.pop("config", {}))
    manifest = {
        "config": config,
        "output_dir": str(out_dir),
        "stride": 20,
        "seed": 11,
    }
    manifest.update(overrides)
    return manifest


def write_manifest(tmp_path, manifest, name="manifest_in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(manifest))
    return str(path)


def run_cli(*argv):
    """Run ``python -m dcl.cli`` on this checkout's sources."""
    src = str(pathlib.Path(dcl.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "dcl.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_simulate_happy_path(tmp_path):
    out = tmp_path / "run"
    path = write_manifest(tmp_path, base_manifest(out))
    assert main(["simulate", "--manifest", path]) == 0

    report_bytes = (out / "report.csv").read_bytes()
    assert b"\r\n" in report_bytes  # RFC-4180 line endings
    rows = parse_report_csv(report_bytes.decode())
    assert len(rows) == 6  # t = 0 plus 100/20 snapshots
    assert rows[0]["t"] == 0.0
    assert rows[-1]["t"] == pytest.approx(1e-3)
    for row in rows:
        assert row["nt_quantity"] is not None  # sphere runs fill the column
        # every row reconstructs a valid report object (round-trip)
        rep = EnergyReport(
            t=row["t"], l2_ux=row["l2_ux"], E=row["E"],
            hm_norms=(row["h1"], row["h2"], row["h3"]),
            off_manifold=row["off_manifold"], nt_quantity=row["nt_quantity"],
        )
        assert rep.hm_norms[0] <= rep.hm_norms[1] <= rep.hm_norms[2]

    echo = json.loads((out / "manifest.json").read_text())
    assert echo["exit_status"] == 0
    assert echo["failure"] is None
    import hashlib

    assert echo["report_sha256"] == hashlib.sha256(report_bytes).hexdigest()

    final = json.loads((out / "checkpoint_final.json").read_text())
    assert final["manifold"] == "Sphere2"
    got = np.asarray(final["samples"])
    want = oracle_latitude_circle(np.pi / 3, 1e-3, 0.0, 0.0, 64)
    assert sup_distance(
        want, want.with_samples(got)
    ) <= 1e-8


def test_simulate_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    p1 = write_manifest(tmp_path, base_manifest(out1), "m1.json")
    p2 = write_manifest(tmp_path, base_manifest(out2), "m2.json")
    assert main(["simulate", "--manifest", p1]) == 0
    assert main(["simulate", "--manifest", p2]) == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


def test_simulate_zero_horizon_single_row(tmp_path):
    out = tmp_path / "zero"
    manifest = base_manifest(out)
    manifest["config"]["T"] = 0.0
    manifest["stride"] = 1
    path = write_manifest(tmp_path, manifest)
    assert main(["simulate", "--manifest", path]) == 0
    rows = parse_report_csv((out / "report.csv").read_text())
    assert len(rows) == 1 and rows[0]["t"] == 0.0


def test_simulate_rejects_unknown_keys(tmp_path):
    manifest = base_manifest(tmp_path / "x")
    manifest["surprise"] = 1
    path = write_manifest(tmp_path, manifest)
    assert main(["simulate", "--manifest", path]) == 2

    manifest = base_manifest(tmp_path / "y")
    manifest["config"]["gamma"] = 2.0
    path = write_manifest(tmp_path, manifest, "m2.json")
    assert main(["simulate", "--manifest", path]) == 2


def test_simulate_rejects_bad_stride(tmp_path):
    manifest = base_manifest(tmp_path / "x")
    manifest["stride"] = 33  # does not divide 100 steps
    path = write_manifest(tmp_path, manifest)
    assert main(["simulate", "--manifest", path]) == 2


def test_simulate_solver_failure_keeps_partial_artifact(tmp_path):
    out = tmp_path / "boom"
    manifest = base_manifest(
        out,
        config={
            "initial_condition": "random_smooth:8,0.3,0.5",
            "dt": 5e-4,
            "T": 5e-2,
            "a": 1.0,
            "b": 0.5,
            "mode_cutoff": 32,
        },
    )
    manifest["stride"] = 10
    path = write_manifest(tmp_path, manifest)
    assert main(["simulate", "--manifest", path]) == 3
    echo = json.loads((out / "manifest.json").read_text())
    assert echo["exit_status"] == 3
    assert echo["failure"]
    assert (out / "report.csv").exists()


def test_simulate_picard_without_contraction_exits_3(tmp_path):
    # the Picard iteration of the first step does not contract at this dt:
    # the run writes its one-row artifacts and exits 3 without a traceback
    out = tmp_path / "stall"
    manifest = base_manifest(
        out,
        config={
            "initial_condition": "random_smooth:3,1.0,0.2", "N_g": 64,
            "a": 1.0, "b": 0.5, "epsilon": 1e-2, "dt": 2e-3, "T": 2e-3,
            "integrator": "DuhamelPicard",
        },
    )
    manifest["stride"] = 1
    proc = run_cli("simulate", "--manifest", write_manifest(tmp_path, manifest))
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "NoContraction" in proc.stderr and "reduce dt" in proc.stderr
    echo = json.loads((out / "manifest.json").read_text())
    assert echo["exit_status"] == 3 and echo["snapshots"] == 1
    assert echo["failure"].startswith("NoContraction")
    assert len(parse_report_csv((out / "report.csv").read_text())) == 1
    assert (out / "checkpoint_final.json").exists()


def test_simulate_checkpoints_flag(tmp_path):
    out = tmp_path / "ck"
    path = write_manifest(tmp_path, base_manifest(out))
    assert main(["simulate", "--manifest", path, "--checkpoints", "2"]) == 0
    assert (out / "checkpoint_0.json").exists()
    assert (out / "checkpoint_2.json").exists()
    assert not (out / "checkpoint_1.json").exists()


def test_final_checkpoint_reuses_the_last_snapshot_text(tmp_path, monkeypatch):
    # 6 snapshots (indices 0..5): with --checkpoints 5 the final state is
    # also checkpoint_5, and its JSON is encoded once for both files
    encoded = []
    original = cli._checkpoint_payload

    def counted(state, t):
        encoded.append(t)
        return original(state, t)

    monkeypatch.setattr(cli, "_checkpoint_payload", counted)
    out = tmp_path / "ck"
    path = write_manifest(tmp_path, base_manifest(out))
    assert main(["simulate", "--manifest", path, "--checkpoints", "5"]) == 0
    final = (out / "checkpoint_final.json").read_bytes()
    assert final == (out / "checkpoint_5.json").read_bytes()
    assert len(encoded) == 2
    # a final state that is no checkpoint is still written
    out = tmp_path / "ck3"
    path = write_manifest(tmp_path, base_manifest(out), name="m3.json")
    assert main(["simulate", "--manifest", path, "--checkpoints", "3"]) == 0
    assert not (out / "checkpoint_5.json").exists()
    assert (out / "checkpoint_final.json").read_bytes() == final


def test_main_builds_its_parser_once(monkeypatch):
    built = []
    original = cli.build_parser

    def counted():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    for _ in range(3):
        assert main(["verify", "--suite", "nonsense"]) == 2
    assert len(built) == 1
    cli._parser.cache_clear()


def test_verify_known_and_unknown_suites(capsys):
    assert main(["verify", "--suite", "projections", "--grids", "32"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines)
    assert main(["verify", "--suite", "nonsense"]) == 2


@pytest.mark.parametrize("argv,flag", [
    (["verify", "--suite", "projections", "--grids", "abc"], "--grids"),
    (["verify", "--suite", "projections", "--grids", "48"], "--grids"),
    (["verify", "--suite", "projections", "--grids", "8"], "--grids"),
    (["verify", "--suite", "identities", "--grids", "64,0"], "--grids"),
    (["verify", "--suite", "projections", "--grids", "0"], "--grids"),
    (["verify", "--suite", "projections", "--grids", str(2 * MAX_N_G)],
     "--grids"),
    (["verify", "--suite", "projections", "--seed", "-1"], "--seed"),
    (["verify", "--suite", "identities", "--grids", "64"], "--grids"),
    (["simulate", "--manifest", "never-read.json", "--checkpoints", "-3"],
     "--checkpoints"),
])
def test_bad_flags_exit_2_before_any_work(monkeypatch, tmp_path, capsys,
                                           argv, flag):
    # a bad flag is a config error naming it, raised before a suite runs
    # or a manifest is read
    def no_work(*args):
        raise AssertionError("ran past a bad flag")

    monkeypatch.setattr(cli, "run_suite", no_work)
    monkeypatch.setattr(cli, "load_manifest", no_work)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + flag) and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_identity_suite_does_not_depend_on_grid_order(capsys):
    # the coarse grid is the smallest listed, the fine one the largest
    outs = []
    for grids in ("64,128", "128,64"):
        assert main(["verify", "--suite", "identities", "--grids", grids]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and "FAIL" not in outs[0]


def test_identity_suite_refuses_one_distinct_grid(capsys):
    assert main(["verify", "--suite", "identities", "--grids", "64,64"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: --grids")


def test_verify_smoothing(capsys):
    assert main(["verify", "--suite", "smoothing"]) == 0
    out = capsys.readouterr().out
    assert "bound_sharpness" in out


def test_converge_dt_mode(tmp_path, capsys):
    out = tmp_path / "conv"
    manifest = base_manifest(
        out,
        config={"dt": 4e-5, "T": 8e-4, "a": 1.0, "b": 0.5,
                "initial_condition": "random_smooth:11,1.0,0.2",
                "mode_cutoff": 10},
    )
    manifest["stride"] = 1
    path = write_manifest(tmp_path, manifest)
    assert main(["converge", "--manifest", path, "--mode", "dt",
                 "--levels", "4"]) == 0
    table = (out / "converge_dt.csv").read_text().strip().splitlines()
    assert table[0].startswith("dt,")
    orders = [
        float(line.split(",")[2]) for line in table[1:] if line.split(",")[2]
    ]
    assert orders and min(orders) >= 3.0


def failing_level(monkeypatch, index):
    """Patch ``cli.evolve`` so the ``index``-th level's trajectory fails."""
    levels = []

    def evolve(u0, cfg, stride=1):
        trajectory = dcl.flow.evolve(u0, cfg, stride=stride)
        levels.append(cfg)
        if len(levels) - 1 == index:
            return dataclasses.replace(trajectory,
                                       failure="StepSizeUnstable: injected")
        return trajectory

    monkeypatch.setattr(cli, "evolve", evolve)


def blank_columns(path):
    """For each data row of a converge table, which cells are blank."""
    rows = list(csv.reader(path.read_text().splitlines()))[1:]
    return [[cell == "" for cell in row[1:]] for row in rows]


def test_converge_blanks_every_cell_a_failed_level_touches(tmp_path, monkeypatch):
    # dt: the 4th of 5 levels fails, so diffs exist for levels 0 and 1
    # only, and only level 1 has an observed order: no row repeats the
    # last order it saw
    failing_level(monkeypatch, 3)
    out = tmp_path / "dt"
    manifest = base_manifest(
        out,
        config={"dt": 4e-5, "T": 8e-4, "a": 1.0, "b": 0.5,
                "initial_condition": "random_smooth:11,1.0,0.2",
                "mode_cutoff": 10},
    )
    path = write_manifest(tmp_path, manifest)
    assert main(["converge", "--manifest", path, "--mode", "dt",
                 "--levels", "5"]) == 0
    # columns: h1_diff_to_next, observed_order, failure
    assert blank_columns(out / "converge_dt.csv") == [
        [False, True, True], [False, False, True], [True, True, True],
        [True, True, False], [True, True, True]]
    # grid: the finest level fails, so no level has a diff to it
    failing_level(monkeypatch, 2)
    out = tmp_path / "grid"
    manifest = base_manifest(
        out,
        config={"dt": 2e-5, "T": 4e-4, "N_g": 32,
                "initial_condition": "latitude:0.9"},
    )
    path = write_manifest(tmp_path, manifest, name="grid.json")
    assert main(["converge", "--manifest", path, "--mode", "grid",
                 "--levels", "3"]) == 0
    # columns: sup_diff_to_finest, failure
    assert blank_columns(out / "converge_grid.csv") == [
        [True, True], [True, True], [True, False]]


def test_converge_epsilon_mode(tmp_path):
    out = tmp_path / "conveps"
    manifest = base_manifest(
        out,
        config={"dt": 2e-5, "T": 4e-4, "a": 1.0, "b": 0.5,
                "epsilon": 4e-4,
                "initial_condition": "random_smooth:11,1.0,0.2"},
    )
    manifest["stride"] = 20
    path = write_manifest(tmp_path, manifest)
    assert main(["converge", "--manifest", path, "--mode", "epsilon",
                 "--levels", "3"]) == 0
    table = (out / "converge_epsilon.csv").read_text().strip().splitlines()
    dists = [float(line.split(",")[1]) for line in table[1:]]
    assert all(b < a for a, b in zip(dists, dists[1:]))


def test_converge_grid_mode(tmp_path):
    out = tmp_path / "convgrid"
    manifest = base_manifest(
        out,
        config={"dt": 2e-5, "T": 4e-4, "N_g": 32,
                "initial_condition": "latitude:0.9"},
    )
    manifest["stride"] = 20
    path = write_manifest(tmp_path, manifest)
    assert main(["converge", "--manifest", path, "--mode", "grid",
                 "--levels", "3"]) == 0
    table = (out / "converge_grid.csv").read_text().strip().splitlines()
    # band-limited data: every level matches the finest to near roundoff
    diffs = [float(line.split(",")[1]) for line in table[1:] if line.split(",")[1]]
    assert max(diffs) <= 1e-8


def test_converge_thread_env(tmp_path, monkeypatch):
    # DCL_THREADS is no longer read: the table is the same with or without it
    tables = []
    for name, threads in (("convthreads", "2"), ("convplain", None)):
        if threads is None:
            monkeypatch.delenv("DCL_THREADS", raising=False)
        else:
            monkeypatch.setenv("DCL_THREADS", threads)
        out = tmp_path / name
        manifest = base_manifest(
            out,
            config={"dt": 2e-5, "T": 4e-4, "N_g": 32,
                    "initial_condition": "latitude:0.9"},
        )
        manifest["stride"] = 20
        path = write_manifest(tmp_path, manifest, name=f"{name}.json")
        assert main(["converge", "--manifest", path, "--mode", "grid",
                     "--levels", "3"]) == 0
        tables.append((out / "converge_grid.csv").read_bytes())
    assert tables[0] == tables[1]


@pytest.mark.parametrize(
    "manifold", ["Sphere2", "CliffordTorus2", "ChartFlatTorus2"]
)
def test_converge_grid_levels_share_initial_curve(tmp_path, manifold):
    # random_smooth draws a different curve at each N; a zero-horizon study
    # must still compare one curve, resampled onto each grid
    out = tmp_path / "gridzero"
    manifest = base_manifest(
        out,
        config={"a": 1.0, "b": 0.5, "T": 0.0, "manifold": manifold,
                "initial_condition": "random_smooth:3,1.0,0.18"},
    )
    manifest["stride"] = 1
    path = write_manifest(tmp_path, manifest)
    assert main(["converge", "--manifest", path, "--mode", "grid",
                 "--levels", "3"]) == 0
    table = (out / "converge_grid.csv").read_text().strip().splitlines()
    diffs = [float(line.split(",")[1]) for line in table[1:]]
    assert len(diffs) == 3 and max(diffs) <= 1e-12


def test_converge_epsilon_zero_horizon_exits_0(tmp_path):
    out = tmp_path / "epszero"
    manifest = base_manifest(
        out,
        config={"a": 1.0, "b": 0.5, "T": 0.0,
                "initial_condition": "random_smooth:3,1.0,0.18"},
    )
    manifest["stride"] = 1
    path = write_manifest(tmp_path, manifest)
    proc = run_cli("converge", "--manifest", path, "--mode", "epsilon",
                   "--levels", "3")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    table = (out / "converge_epsilon.csv").read_text().strip().splitlines()
    assert [line.split(",")[1] for line in table[1:]] == ["0", "0", "0"]


@pytest.mark.parametrize("epsilon,levels", [(5e-324, "3"), (1e-3, "1100")],
                         ids=["smallest-epsilon", "1100-levels"])
def test_converge_epsilon_level_underflow_is_config_error(tmp_path, epsilon,
                                                          levels):
    # a level that underflows to 0 used to end in a traceback (exit 1)
    out = tmp_path / "out"
    manifest = base_manifest(out, config={"epsilon": epsilon})
    proc = run_cli("converge", "--manifest", write_manifest(tmp_path, manifest),
                   "--mode", "epsilon", "--levels", levels)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "underflows to 0" in proc.stderr
    assert not out.exists()


def test_horizon_off_the_dt_grid_below_one_exits_2(tmp_path, capsys):
    # 1e-10 is 3.33 steps of 3e-11; the run used to end at 9e-11 and exit 0
    out = tmp_path / "out"
    manifest = base_manifest(
        out, stride=1, config={"dt": 3e-11, "T": 1e-10,
                               "initial_condition": "random_smooth:1"})
    assert main(["simulate", "--manifest", write_manifest(tmp_path, manifest)]) == 2
    assert "T must be an integer multiple of dt" in capsys.readouterr().err
    assert not out.exists()


def test_missing_manifest_is_config_error(tmp_path):
    assert main(["simulate", "--manifest", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("argv, artifact", [
    (["simulate"], "report.csv"),
    (["converge", "--mode", "epsilon"], "converge_epsilon.csv"),
], ids=["simulate", "converge-epsilon"])
def test_unwritable_artifact_exits_config_error(tmp_path, argv, artifact):
    # a directory where the artifact goes: the rename onto it fails
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    manifest = base_manifest(out, config={"T": 2e-4})
    proc = run_cli(argv[0], "--manifest", write_manifest(tmp_path, manifest),
                   *argv[1:])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (
        f"config error: cannot write {out / artifact}: Is a directory\n")
    assert not [p for p in os.listdir(out) if ".tmp-" in p]


def deep_json():
    """JSON nested deeper than the decoder's recursion limit."""
    return b"[" * 100000 + b"]" * 100000


@pytest.mark.parametrize("payload", [b"\xff\xfe{}", deep_json()],
                         ids=["not-utf8", "too-deep"])
@pytest.mark.parametrize("as_curve", [False, True], ids=["manifest", "file-curve"])
def test_undecodable_json_exits_config_error(tmp_path, payload, as_curve):
    bad = tmp_path / "bad.json"
    bad.write_bytes(payload)
    out = tmp_path / "out"
    path = (write_manifest(tmp_path, base_manifest(
        out, config={"initial_condition": f"file:{bad}"}))
        if as_curve else str(bad))
    proc = run_cli("simulate", "--manifest", path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    prefix = "bad initial_condition file" if as_curve else "cannot read manifest"
    assert proc.stderr.startswith(f"config error: {prefix} {bad}: ")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("descriptor", [
    "random_smooth:1,,2", "random_smooth:1,1,1,1", "great_circle:junk",
    "random_smooth:1,1,1e308",
])
def test_bad_descriptor_exits_config_error(tmp_path, capsys, descriptor):
    manifest = base_manifest(tmp_path / "out",
                             config={"initial_condition": descriptor})
    with np.errstate(all="ignore"):
        code = main(["simulate", "--manifest", write_manifest(tmp_path, manifest)])
    assert code == 2
    assert f"config error: bad initial_condition {descriptor!r}" in (
        capsys.readouterr().err)


def test_unresolved_torus_geodesic_exits_2_without_output(tmp_path, capsys):
    # 16 samples cannot carry winding 9: its chart lift would read back 8
    out = tmp_path / "out"
    manifest = base_manifest(
        out, config={"N_g": 16, "manifold": "ChartFlatTorus2",
                     "initial_condition": "torus_geodesic:9,0"})
    assert main(["simulate", "--manifest", write_manifest(tmp_path, manifest)]) == 2
    assert "config error: torus_geodesic winding 9" in capsys.readouterr().err
    assert not out.exists()


def test_converge_grid_refuses_a_level_that_cannot_carry_the_winding(
        tmp_path, capsys):
    # built on 64 samples, winding 9 resamples to winding 8 on 16 samples
    out = tmp_path / "out"
    manifest = base_manifest(
        out, config={"N_g": 16, "manifold": "ChartFlatTorus2",
                     "initial_condition": "torus_geodesic:9,0"})
    path = write_manifest(tmp_path, manifest)
    assert main(["converge", "--manifest", path, "--mode", "grid",
                 "--levels", "3"]) == 2
    assert ("config error: grid N_g = 16 cannot carry the initial curve's "
            "winding [9.0, 0.0]") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("manifold", ["Sphere2", "CliffordTorus2"])
def test_converge_grid_refuses_a_level_too_coarse_on_an_embedded_target(
        tmp_path, capsys, manifold):
    # winding 9 has no mode on 16 samples: the interpolant sits at the
    # sphere's center or on the torus's circle axes, where projecting it
    # used to fail as a solver error (exit 3)
    out = tmp_path / "out"
    descriptor = "torus_geodesic:9,0"
    if manifold == "Sphere2":
        phase = 2.0 * np.pi * 9 * np.arange(64) / 64
        curve = tmp_path / "curve.json"
        curve.write_text(json.dumps({"samples": np.stack(
            [np.cos(phase), np.sin(phase), np.zeros(64)], axis=-1).tolist()}))
        descriptor = f"file:{curve}"
    manifest = base_manifest(
        out, config={"N_g": 16, "manifold": manifold,
                     "initial_condition": descriptor})
    path = write_manifest(tmp_path, manifest)
    assert main(["converge", "--manifest", path, "--mode", "grid",
                 "--levels", "3"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("config error: grid N_g = 16 cannot carry the "
                             "initial curve's shape")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate"], ["converge", "--mode", "epsilon"],
    ["converge", "--mode", "dt"], ["converge", "--mode", "grid"],
], ids=["simulate", "converge-epsilon", "converge-dt", "converge-grid"])
def test_a_dt_below_the_stability_edge_runs_on_the_dealias_band(tmp_path, argv):
    # at dt = T = 4e-323 the float stability edge is inf; the run keeps the
    # dealias band and writes its artifact
    out = tmp_path / "out"
    manifest = base_manifest(out, stride=1, config={
        "a": 1.0, "b": 0.5, "dt": 4e-323, "T": 4e-323,
        "initial_condition": "random_smooth:1"})
    path = write_manifest(tmp_path, manifest)
    assert main([argv[0], "--manifest", path, *argv[1:]]) == 0
    artifact = "report.csv" if argv[0] == "simulate" else f"converge_{argv[2]}.csv"
    assert (out / artifact).is_file()


@pytest.mark.parametrize("argv", [
    ["simulate"], ["converge", "--mode", "epsilon"],
    ["converge", "--mode", "dt"], ["converge", "--mode", "grid"],
], ids=["simulate", "converge-epsilon", "converge-dt", "converge-grid"])
def test_config_error_leaves_no_output_dir(tmp_path, argv):
    out = tmp_path / "out"
    manifest = base_manifest(
        out, config={"initial_condition": "random_smooth:1,,2"})
    path = write_manifest(tmp_path, manifest)
    assert main([argv[0], "--manifest", path, *argv[1:]]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate"], ["converge", "--mode", "epsilon"],
    ["converge", "--mode", "dt"], ["converge", "--mode", "grid"],
], ids=["simulate", "converge-epsilon", "converge-dt", "converge-grid"])
def test_retired_imex_integrator_exits_2_without_output(tmp_path, capsys,
                                                        argv):
    out = tmp_path / "out"
    manifest = base_manifest(out, config={"integrator": "IMEX"})
    path = write_manifest(tmp_path, manifest)
    assert main([argv[0], "--manifest", path, *argv[1:]]) == 2
    assert capsys.readouterr().err == (
        "config error: bad flow config: integrator must be one of "
        "('DuhamelPicard', 'ProjectedRK4'), got 'IMEX'\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "manifold,descriptor,message,command",
    [
        # the squared norms of the perturbed curve overflow
        ("Sphere2", "random_smooth:1,1,1e308", "amplitude 1e+308 overflows",
         ["simulate"]),
        # the curve and its squared norms are finite, its energy is not
        ("ChartFlatTorus2", "random_smooth:1,1,1e150",
         "the initial curve's energy report entries must be finite",
         ["simulate"]),
        ("ChartFlatTorus2", "random_smooth:1,1,1e150",
         "the initial curve's energy report entries must be finite",
         ["converge", "--mode", "epsilon"]),
        ("ChartFlatTorus2", "random_smooth:1,1,1e150",
         "the initial curve's energy report entries must be finite",
         ["converge", "--mode", "dt"]),
    ],
    ids=["sphere-simulate", "chart-simulate", "chart-converge-epsilon",
         "chart-converge-dt"],
)
def test_overflowing_amplitude_prints_only_the_config_error(
        tmp_path, manifold, descriptor, message, command):
    manifest = base_manifest(tmp_path / "out", config={
        "manifold": manifold, "initial_condition": descriptor})
    proc = run_cli(*command, "--manifest", write_manifest(tmp_path, manifest))
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith(
        f"config error: bad initial_condition {descriptor!r}: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "manifold,descriptor,value",
    [
        # each used to warn and then blame the amplitude or the samples
        ("Sphere2", "random_smooth:3,-50", "-50.0"),
        ("Sphere2", "random_smooth:3,nan", "nan"),
        ("Sphere2", "random_smooth:3,inf", "inf"),
        # a growing envelope used to exit 3 here and 0 on the chart torus
        ("Sphere2", "random_smooth:3,-1", "-1.0"),
        ("ChartFlatTorus2", "random_smooth:3,-1", "-1.0"),
    ],
    ids=["sphere-minus-50", "sphere-nan", "sphere-inf", "sphere-minus-1",
         "chart-minus-1"],
)
def test_bad_decay_prints_only_the_config_error(tmp_path, manifold,
                                                descriptor, value):
    manifest = base_manifest(tmp_path / "out", config={
        "manifold": manifold, "initial_condition": descriptor})
    proc = run_cli("simulate", "--manifest", write_manifest(tmp_path, manifest))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        f"config error: bad initial_condition {descriptor!r}: decay must be "
        f"finite and >= 0, got {value}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides",
    [{"dt": float("nan")}, {"a": float("nan")}, {"T": 1.005e-3}],
    ids=["dt-nan", "a-nan", "T-not-multiple-of-dt"],
)
def test_bad_numbers_exit_config_error(tmp_path, overrides):
    manifest = base_manifest(tmp_path / "out", config=overrides)
    manifest["stride"] = 1
    path = write_manifest(tmp_path, manifest)
    proc = run_cli("simulate", "--manifest", path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "config error" in proc.stderr


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"quadrature_nodes": 0}, "quadrature_nodes must be at least 1"),
        ({"picard_max_iter": 0}, "picard_max_iter must be at least 1"),
        ({"mode_cutoff": -1}, "mode_cutoff must be at least 0"),
        ({"picard_tol": 0}, "picard_tol must be positive"),
    ],
    ids=["quadrature-nodes-0", "picard-max-iter-0", "mode-cutoff-negative",
         "picard-tol-0"],
)
def test_bad_counts_exit_config_error(tmp_path, overrides, message):
    # each used to end in a traceback (exit 1) or in a misleading tube exit
    manifest = base_manifest(
        tmp_path / "out",
        config={"integrator": "DuhamelPicard", "epsilon": 1e-2, "dt": 1e-4,
                "T": 1e-3, "initial_condition": "great_circle", **overrides},
    )
    proc = run_cli("simulate", "--manifest", write_manifest(tmp_path, manifest))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"config error: bad flow config: {message}" in proc.stderr


def test_blow_up_to_non_finite_exits_3(tmp_path):
    # the chart torus has no tube, so this run overflows to non-finite
    # samples long before its only H2 check at step 200
    out_dir = tmp_path / "out"
    manifest = base_manifest(
        out_dir,
        config={"a": 1, "b": 5, "epsilon": 0, "N_g": 64, "dt": 1e-3,
                "T": 0.2, "manifold": "ChartFlatTorus2", "mode_cutoff": 16,
                "initial_condition": "random_smooth:3,1.1,0.18"},
    )
    manifest["stride"] = 200
    path = write_manifest(tmp_path, manifest)
    proc = run_cli("simulate", "--manifest", path)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    echo = json.loads((out_dir / "manifest.json").read_text())
    assert echo["exit_status"] == 3
    assert echo["failure"].startswith("StepSizeUnstable")


def test_blow_up_prints_only_the_solver_failure(tmp_path):
    # the overflow on the way to non-finite samples raises no numpy warning
    manifest = base_manifest(
        tmp_path / "out",
        config={"a": 1, "b": 5, "epsilon": 0, "N_g": 64, "dt": 1e-3,
                "T": 0.2, "manifold": "ChartFlatTorus2", "mode_cutoff": 16,
                "initial_condition": "random_smooth:3,1.1,0.18"},
    )
    manifest["stride"] = 200
    proc = run_cli("simulate", "--manifest", write_manifest(tmp_path, manifest))
    assert proc.returncode == 3
    assert proc.stderr == "solver failure: StepSizeUnstable: non-finite state\n"


def file_curve_manifest(tmp_path, n):
    # a file: initial condition keeps the sample count of its file
    curve = tmp_path / "curve.json"
    samples = oracle_latitude_circle(0.9, 0.0, 0.0, 0.0, n).samples
    curve.write_text(json.dumps({"samples": samples.tolist()}))
    manifest = base_manifest(
        tmp_path / "out",
        config={"N_g": 64, "dt": 1e-5, "T": 2e-4,
                "initial_condition": f"file:{curve}"},
    )
    return write_manifest(tmp_path, manifest)


@pytest.mark.parametrize(
    "argv",
    [["simulate"], ["converge", "--mode", "epsilon", "--levels", "3"]],
    ids=["simulate", "converge-epsilon"],
)
def test_file_curve_off_grid_exits_config_error(tmp_path, argv):
    path = file_curve_manifest(tmp_path, 32)
    proc = run_cli(*argv, "--manifest", path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "config error: initial curve has 32 samples" in proc.stderr


@pytest.mark.parametrize("mode", ["grid", "dt"])
def test_file_curve_off_grid_resampled_by_studies(tmp_path, mode):
    path = file_curve_manifest(tmp_path, 32)
    assert main(["converge", "--manifest", path, "--mode", mode,
                 "--levels", "3"]) == 0
    table = (tmp_path / "out" / f"converge_{mode}.csv").read_text()
    assert len(table.strip().splitlines()) == 4


@pytest.mark.parametrize(
    "argv",
    [["simulate"], ["converge", "--mode", "epsilon", "--levels", "3"]],
    ids=["simulate", "converge-epsilon"],
)
def test_file_curve_off_target_exits_config_error(tmp_path, argv):
    # the file's curve sits 1e-3 off the sphere: a config error naming the
    # residual, not a solver error, and no output directory
    curve = tmp_path / "curve.json"
    samples = 1.001 * great_circle(64).samples
    curve.write_text(json.dumps({"samples": samples.tolist()}))
    out = tmp_path / "out"
    manifest = base_manifest(out, config={"initial_condition": f"file:{curve}"})
    proc = run_cli(*argv, "--manifest", write_manifest(tmp_path, manifest))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "config error: bad initial_condition" in proc.stderr
    assert "off the target" in proc.stderr
    assert "constraint residual 2.001e-03" in proc.stderr
    assert not out.exists()


def test_snapshot_off_target_ends_report_and_exits_3(tmp_path):
    # the pinned band contracts in 30 iterations and ends 0.04 off the
    # sphere, inside the tube: the report keeps the snapshots before it
    out = tmp_path / "off"
    manifest = base_manifest(
        out,
        config={
            "initial_condition": "random_smooth:3,1.0,0.2", "N_g": 64,
            "a": 1.0, "b": 0.5, "epsilon": 1e-2, "dt": 2e-3, "T": 2e-3,
            "integrator": "DuhamelPicard", "mode_cutoff": 2,
        },
    )
    manifest["stride"] = 1
    proc = run_cli("simulate", "--manifest", write_manifest(tmp_path, manifest))
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "solver failure: PointOffManifold" in proc.stderr
    echo = json.loads((out / "manifest.json").read_text())
    assert echo["exit_status"] == 3 and echo["snapshots"] == 1
    assert echo["failure"].startswith("PointOffManifold: Sphere2: constraint "
                                      "residual 4.025e-02")
    rows = parse_report_csv((out / "report.csv").read_text())
    assert [r["t"] for r in rows] == [0.0]
    final = json.loads((out / "checkpoint_final.json").read_text())
    u0 = random_smooth(SPHERE2, 64, seed=3, decay=1.0, amplitude=0.2)
    assert final["t"] == 0.0 and final["samples"] == u0.samples.tolist()


def with_config(**entries):
    """A manifest edit that sets config entries, with ``{curve}`` in a string
    replaced by the curve file's path; None drops the key."""
    def edit(manifest, curve):
        config = {**manifest["config"], **entries}
        return {**manifest, "config": {
            k: v.format(curve=curve) if isinstance(v, str) else v
            for k, v in config.items() if v is not None}}
    return edit


@pytest.mark.parametrize(
    "edit,argv,message",
    [
        (lambda m, curve: [], ["simulate"], "manifest must be a JSON object"),
        (lambda m, curve: {"config": m["config"]}, ["simulate"],
         "missing manifest keys: ['output_dir']"),
        (lambda m, curve: {**m, "config": 5}, ["simulate"],
         "manifest config must be a JSON object"),
        (with_config(dt=None), ["simulate"], "config is missing 'dt'"),
        (with_config(), ["converge", "--mode", "epsilon", "--levels", "2"],
         "convergence studies need at least 3 levels"),
        (with_config(epsilon=-1), ["simulate"],
         "bad flow config: epsilon must be nonnegative"),
        (with_config(T=-1), ["simulate"], "bad flow config: T must be nonnegative"),
        (with_config(initial_condition="latitude:4"), ["simulate"],
         "latitude angle must lie strictly between 0 and pi"),
        (with_config(initial_condition="torus_geodesic:1,0"), ["simulate"],
         "torus_geodesic is not defined on Sphere2"),
        (with_config(initial_condition=5), ["simulate"],
         "initial-condition descriptor must be a string"),
        (with_config(initial_condition="file:{curve}"), ["simulate"],
         "bad initial_condition file {curve}: samples must be finite"),
    ],
    ids=["manifest-list", "no-output-dir", "config-not-object",
         "config-without-dt", "two-levels", "epsilon-negative", "T-negative",
         "latitude-past-pi", "geodesic-on-sphere", "descriptor-not-string",
         "file-curve-nan"],
)
def test_config_errors_print_their_message_and_exit_2(tmp_path, capsys, edit,
                                                      argv, message):
    curve = tmp_path / "curve.json"
    samples = great_circle(64).samples.tolist()
    samples[5][1] = float("nan")  # json writes and reads NaN
    curve.write_text(json.dumps({"samples": samples}))
    out = tmp_path / "out"
    path = write_manifest(tmp_path, edit(base_manifest(out), curve))
    assert main([argv[0], "--manifest", path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message.format(curve=curve)}\n"
    assert captured.out == ""
    assert not out.exists()


def test_a_solver_error_that_escapes_a_command_exits_3(tmp_path, monkeypatch,
                                                        capsys):
    # no input is known to raise a DclError past the commands; main still
    # turns one into exit 3 and one line, not a traceback
    def escape(*args, **kwargs):
        raise NoContraction("injected")

    monkeypatch.setattr(cli, "evolve", escape)
    path = write_manifest(tmp_path, base_manifest(tmp_path / "out"))
    assert main(["simulate", "--manifest", path]) == 3
    assert capsys.readouterr().err == "solver error: injected\n"
