"""Command-line front end: simulate, verify, converge.

Exit codes: 0 success, 2 configuration error (bad manifest, unknown
suite), 3 solver failure (guard tripped; the partial artifact is kept).

Artifacts are written atomically (temp file + rename).  ``report.csv``
has the fixed column schema

    t, l2_ux, E, h1, h2, h3, off_manifold, nt_quantity

with ``nt_quantity`` blank off the sphere, and ``manifest.json`` echoes
the resolved configuration as canonical JSON (sorted keys) together with
the row checksum and exit status.  Identical manifest and seed give a
byte-identical report.
"""

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .curves import h1_distance, resample, sup_distance
from .errors import ConfigError, DclError
from .flow import FlowConfig, epsilon_continuation, evolve
from .invariants import energy_report, trajectory_reports
from .manifolds import by_name
from .presets import make_initial
from .verify import SUITES, run_suite

CSV_COLUMNS = (
    "t", "l2_ux", "E", "h1", "h2", "h3", "off_manifold", "nt_quantity"
)

_CONFIG_KEYS = {
    "a", "b", "epsilon", "N_g", "dt", "T", "integrator",
    "picard_tol", "picard_max_iter", "quadrature_nodes", "dealias",
    "mode_cutoff", "manifold", "initial_condition",
}
_MANIFEST_KEYS = {"config", "output_dir", "stride", "seed"}


@dataclass
class RunManifest:
    config: FlowConfig
    manifold: object
    initial_condition: str
    output_dir: str
    stride: int
    seed: int
    raw: dict


def parse_manifest(payload):
    """Validate a manifest dictionary; unknown keys are rejected."""
    if not isinstance(payload, dict):
        raise ConfigError("manifest must be a JSON object")
    unknown = set(payload) - _MANIFEST_KEYS
    if unknown:
        raise ConfigError(f"unknown manifest keys: {sorted(unknown)}")
    missing = {"config", "output_dir"} - set(payload)
    if missing:
        raise ConfigError(f"missing manifest keys: {sorted(missing)}")
    config = payload["config"]
    if not isinstance(config, dict):
        raise ConfigError("manifest config must be a JSON object")
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("manifold", "initial_condition", "N_g", "dt", "T"):
        if key not in config:
            raise ConfigError(f"config is missing {key!r}")
    try:
        manifold = by_name(config["manifold"])
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    solver_keys = {
        k: v for k, v in config.items()
        if k not in ("manifold", "initial_condition")
    }
    try:
        flow_config = FlowConfig(**solver_keys)
        steps = flow_config.n_steps()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad flow config: {exc}") from exc
    stride = payload.get("stride", 1)
    seed = payload.get("seed", 0)
    if isinstance(stride, bool) or not isinstance(stride, int) or stride < 1:
        raise ConfigError("stride must be a positive integer")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError("seed must be an integer")
    if not isinstance(payload["output_dir"], str):
        raise ConfigError("output_dir must be a string")
    if steps and steps % stride:
        raise ConfigError(
            f"stride {stride} does not divide the step count {steps}"
        )
    return RunManifest(
        config=flow_config,
        manifold=manifold,
        initial_condition=config["initial_condition"],
        output_dir=payload["output_dir"],
        stride=stride,
        seed=seed,
        raw=payload,
    )


def load_manifest(path):
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read manifest {path}: {exc}") from exc
    return parse_manifest(payload)


def _fmt(value):
    return "" if value is None else f"{float(value):.17g}"


def _atomic_write(path, data):
    tmp = f"{path}.tmp-{os.getpid()}"
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(tmp, mode) as handle:
        handle.write(data)
    os.replace(tmp, path)


def report_rows(trajectory):
    """One dict of CSV_COLUMNS strings per snapshot (blank: no nt_quantity)."""
    return [
        dict(zip(CSV_COLUMNS, map(_fmt, (
            r.t, r.l2_ux, r.E, *r.hm_norms, r.off_manifold, r.nt_quantity))))
        for r in trajectory_reports(trajectory)
    ]


def rows_to_csv(rows):
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS, lineterminator="\r\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def parse_report_csv(text):
    """Round-trip helper: rows of report.csv as dictionaries of floats."""
    return [
        {k: (float(v) if v != "" else None) for k, v in row.items()}
        for row in csv.DictReader(io.StringIO(text))
    ]


def _checkpoint_payload(state, t):
    return {
        "t": t,
        "manifold": state.manifold.name,
        "samples": state.output_samples().tolist(),
    }


def _initial_curve(manifest, n):
    """The manifest's initial curve on ``n`` samples; one whose energy report
    overflows (a chart-torus curve of huge amplitude) is a config error."""
    descriptor = manifest.initial_condition
    u0 = make_initial(descriptor, manifest.manifold, n, manifest.seed)
    try:
        with np.errstate(all="ignore"):
            energy_report(u0)
    except ValueError as exc:
        raise ConfigError(f"bad initial_condition {descriptor!r}: the "
                          f"initial curve's {exc}") from exc
    return u0


def _initial_on_grid(manifest):
    """The manifest's initial curve, which must have N_g samples.

    A ``file:`` curve keeps the sample count of its file, which a run on
    the config grid cannot use (grid and dt studies resample instead).
    """
    n = manifest.config.N_g
    u0 = _initial_curve(manifest, n)
    if u0.n != n:
        raise ConfigError(
            f"initial curve has {u0.n} samples, config N_g is {n}"
        )
    return u0


def _make_output_dir(manifest):
    out_dir = manifest.output_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output_dir {out_dir!r}: {exc}") from exc
    return out_dir


def cmd_simulate(manifest, checkpoints_every=0):
    """Run one simulation and write its artifact; returns the exit code."""
    u0 = _initial_on_grid(manifest)
    out_dir = _make_output_dir(manifest)
    trajectory = evolve(u0, manifest.config, stride=manifest.stride)
    rows = report_rows(trajectory)
    csv_text = rows_to_csv(rows)
    _atomic_write(os.path.join(out_dir, "report.csv"), csv_text.encode())

    final_text = None
    if checkpoints_every:
        last = len(trajectory.states) - 1
        for idx, (t, state) in enumerate(
            zip(trajectory.times, trajectory.states)
        ):
            if idx % checkpoints_every == 0:
                text = json.dumps(_checkpoint_payload(state, t), sort_keys=True)
                _atomic_write(
                    os.path.join(out_dir, f"checkpoint_{idx}.json"), text
                )
                if idx == last:
                    final_text = text
    if final_text is None:
        final_text = json.dumps(
            _checkpoint_payload(trajectory.final, trajectory.times[-1]),
            sort_keys=True,
        )
    _atomic_write(os.path.join(out_dir, "checkpoint_final.json"), final_text)

    status = 0 if trajectory.failure is None else 3
    echo = {
        "manifest": manifest.raw,
        "report_sha256": hashlib.sha256(csv_text.encode()).hexdigest(),
        "snapshots": len(rows),
        "exit_status": status,
        "failure": trajectory.failure,
    }
    _atomic_write(
        os.path.join(out_dir, "manifest.json"),
        json.dumps(echo, sort_keys=True, indent=2) + "\n",
    )
    if trajectory.failure:
        print(f"solver failure: {trajectory.failure}", file=sys.stderr)
    return status


def cmd_verify(suite, grids=(64, 128), seed=0):
    try:
        checks = run_suite(suite, tuple(grids), seed)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    for check in checks:
        print(check.line())
    return 0 if all(c.passed for c in checks) else 1


def cmd_converge(manifest, mode, levels=3):
    """Self-refinement study in epsilon, grid size, or time step.

    The output directory is made once the initial curve is built, so a
    study that exits 2 on its configuration leaves nothing behind.
    """
    if levels < 3:
        raise ConfigError("convergence studies need at least 3 levels")
    cfg = manifest.config

    if mode == "epsilon":
        base_eps = cfg.epsilon if cfg.epsilon > 0 else 1e-3
        eps_list = [base_eps * 0.5**i for i in range(levels)]
        u0 = _initial_on_grid(manifest)
        _make_output_dir(manifest)
        rows = epsilon_continuation(u0, cfg, eps_list)
        header = ["epsilon", "h1_to_zero", "h1_to_prev", "failure"]
        table = [
            [
                _fmt(r["epsilon"]),
                _fmt(r["h1_to_zero"]) if np.isfinite(r["h1_to_zero"]) else "",
                _fmt(r["h1_to_prev"]) if np.isfinite(r["h1_to_prev"]) else "",
                r["failure"] or "",
            ]
            for r in rows
        ]
    elif mode == "dt":
        configs = [replace(cfg, dt=cfg.dt * 0.5**i) for i in range(levels)]
        finals = _run_levels(manifest, configs)
        header = ["dt", "h1_diff_to_next", "observed_order", "failure"]
        table, diffs = [], []
        for i, (level_cfg, traj) in enumerate(zip(configs, finals)):
            fail = traj.failure or ""
            diff = ""
            if (
                i + 1 < len(finals)
                and traj.failure is None
                and finals[i + 1].failure is None
            ):
                diffs.append(h1_distance(traj.final, finals[i + 1].final))
                diff = _fmt(diffs[-1])
            order = ""
            if len(diffs) >= 2 and diffs[-1] > 0 and i + 1 < len(finals):
                order = _fmt(np.log2(diffs[-2] / diffs[-1]))
            table.append([_fmt(level_cfg.dt), diff, order, fail])
    elif mode == "grid":
        grids = [cfg.N_g * 2**i for i in range(levels)]
        configs = [replace(cfg, N_g=n) for n in grids]
        finals = _run_levels(manifest, configs)
        header = ["N_g", "sup_diff_to_finest", "failure"]
        finest = finals[-1]
        table = []
        for level_cfg, traj in zip(configs, finals):
            diff = ""
            if traj.failure is None and finest.failure is None:
                coarse_up = resample(traj.final, finest.final.n)
                diff = _fmt(sup_distance(coarse_up, finest.final))
            table.append([str(level_cfg.N_g), diff, traj.failure or ""])
    else:
        raise ConfigError(f"unknown convergence mode {mode!r}")

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(table)
    _atomic_write(os.path.join(manifest.output_dir, f"converge_{mode}.csv"),
                  buffer.getvalue())
    print(buffer.getvalue(), end="")
    return 0


def _run_levels(manifest, configs):
    """One ``evolve`` per level, all from the same initial curve.

    The curve is built once on the finest grid and resampled onto each
    level's grid, so levels differ only in their discretization (a preset
    drawn at each N separately need not be the same curve).  The output
    directory is made once the curve is built.
    """
    try:
        # a finer dt can take a level past MAX_STEPS
        steps = [c.n_steps() for c in configs]
    except ValueError as exc:
        raise ConfigError(f"bad flow config: {exc}") from exc
    u0 = _initial_curve(manifest, max(c.N_g for c in configs))
    _make_output_dir(manifest)
    return [
        evolve(resample(u0, c.N_g), c, stride=n or 1)
        for c, n in zip(configs, steps)
    ]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dcl",
        description="Dispersive closed-curve flow laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one simulation manifest")
    p_sim.add_argument("--manifest", required=True)
    p_sim.add_argument(
        "--checkpoints", type=int, default=0, metavar="K",
        help="also dump every K-th snapshot as a curve checkpoint",
    )

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", required=True)
    p_ver.add_argument("--grids", default="64,128")
    p_ver.add_argument("--seed", type=int, default=0)

    p_con = sub.add_parser("converge", help="run a convergence study")
    p_con.add_argument("--manifest", required=True)
    p_con.add_argument("--mode", required=True, choices=("epsilon", "grid", "dt"))
    p_con.add_argument("--levels", type=int, default=3)
    return parser


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser of ``main``, built once per process."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.command == "simulate":
            manifest = load_manifest(args.manifest)
            return cmd_simulate(manifest, checkpoints_every=args.checkpoints)
        if args.command == "verify":
            if args.suite not in SUITES:
                raise ConfigError(
                    f"unknown suite {args.suite!r}; choose from {tuple(SUITES)}"
                )
            grids = tuple(int(g) for g in args.grids.split(",") if g)
            if not grids:
                raise ConfigError("at least one grid size is required")
            return cmd_verify(args.suite, grids, args.seed)
        if args.command == "converge":
            manifest = load_manifest(args.manifest)
            return cmd_converge(manifest, args.mode, args.levels)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DclError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
