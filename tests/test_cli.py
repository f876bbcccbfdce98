import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import dcl
from dcl import cli
from dcl.cli import main, parse_report_csv
from dcl.curves import sup_distance
from dcl.invariants import EnergyReport, oracle_latitude_circle


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
            "dealias": False,
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


def test_simulate_picard_without_contracting_band_exits_3(tmp_path):
    # no Picard band of modes k >= 1 contracts at this dt: the run writes
    # its one-row artifacts and exits 3 without a traceback
    out = tmp_path / "band"
    manifest = base_manifest(
        out,
        config={
            "initial_condition": "great_circle", "N_g": 32, "a": 1.0,
            "b": 0.5, "epsilon": 1e-2, "dt": 3e-2, "T": 3e-2,
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


def test_missing_manifest_is_config_error(tmp_path):
    assert main(["simulate", "--manifest", str(tmp_path / "nope.json")]) == 2


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
