"""Command-line front end: simulate, verify, converge.

Exit codes: 0 success, 2 configuration error (bad manifest, unknown
suite, an initial curve off the target, an artifact that cannot be
written), 3 solver failure (guard tripped or a snapshot off the target;
the partial artifact is kept).

Artifacts are written atomically (temp file + rename).  ``report.csv``
has the fixed column schema

    t, l2_ux, E, h1, h2, h3, off_manifold, nt_quantity

with ``nt_quantity`` blank off the sphere, and ``manifest.json`` echoes
the resolved configuration as canonical JSON (sorted keys) together with
the row checksum and exit status.  Identical manifest and seed give a
byte-identical report.  ``converge`` writes, through the same CSV
writer, one row per level to ``converge_epsilon.csv`` (epsilon,
h1_to_zero, h1_to_prev, failure), ``converge_dt.csv`` (dt,
h1_diff_to_next, observed_order, failure) or ``converge_grid.csv`` (N_g,
sup_diff_to_finest, failure); a blank cell is a value the level lacks.
"""

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import json
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .curves import h1_distance, is_grid_size, resample, sup_distance
from .errors import ConfigError, DclError, PointOffManifold
from .flow import MAX_N_G, FlowConfig, epsilon_continuation, evolve, run_band
from .invariants import energy_report, trajectory_reports
from .manifolds import by_name
from .presets import make_initial, read_json
from .verify import IDENTITY_GRIDS, SUITES, run_suite

CSV_COLUMNS = (
    "t", "l2_ux", "E", "h1", "h2", "h3", "off_manifold", "nt_quantity"
)

_CONFIG_KEYS = {f.name for f in fields(FlowConfig)} | {
    "manifold", "initial_condition"}
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
    stride = payload.get("stride", 1)
    try:
        flow_config = FlowConfig(**solver_keys)
        flow_config.n_steps(stride)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad flow config: {exc}") from exc
    seed = payload.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError("seed must be an integer")
    if not isinstance(payload["output_dir"], str):
        raise ConfigError("output_dir must be a string")
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
    return parse_manifest(read_json(path, "cannot read manifest"))


def _fmt(value):
    return "" if value is None else f"{float(value):.17g}"


def _atomic_write(path, text):
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _reported(trajectory):
    """(report rows as lists of CSV_COLUMNS strings, trajectory), cut
    before the first snapshot off the target, which becomes its failure: a
    DuhamelPicard state may sit off the target inside the tube, where no
    report is defined.  A blank ``nt_quantity`` means none is defined."""
    try:
        reports = trajectory_reports(trajectory)
    except PointOffManifold:
        for i, (t, state) in enumerate(zip(trajectory.times, trajectory.states)):
            try:
                state.require_on_manifold()
            except PointOffManifold as exc:
                trajectory = replace(
                    trajectory, times=trajectory.times[:i],
                    states=trajectory.states[:i],
                    failure=f"PointOffManifold: {exc} at t = {t!r}")
                break
        reports = trajectory_reports(trajectory)
    return [[_fmt(v) for v in (r.t, r.l2_ux, r.E, *r.hm_norms, r.off_manifold,
                               r.nt_quantity)]
            for r in reports], trajectory


def _csv(header, rows):
    """RFC-4180 text (CRLF line ends) of a header row and rows of strings."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerows([header, *rows])
    return buffer.getvalue()


def _checkpoint_payload(state, t):
    return {"t": t, "manifold": state.manifold.name,
            "samples": state.output_samples().tolist()}


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
    except PointOffManifold as exc:
        raise ConfigError(f"bad initial_condition {descriptor!r}: the "
                          f"initial curve is off the target ({exc})") from exc
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
    rows, trajectory = _reported(trajectory)
    csv_text = _csv(CSV_COLUMNS, rows)
    _atomic_write(os.path.join(out_dir, "report.csv"), csv_text)

    last = len(trajectory.states) - 1
    every = range(0, last + 1, checkpoints_every) if checkpoints_every else ()
    for idx in sorted({*every, last}):
        text = json.dumps(_checkpoint_payload(
            trajectory.states[idx], trajectory.times[idx]), sort_keys=True)
        if idx in every:
            _atomic_write(os.path.join(out_dir, f"checkpoint_{idx}.json"), text)
        if idx == last:
            _atomic_write(os.path.join(out_dir, "checkpoint_final.json"), text)

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
    checks = run_suite(suite, tuple(grids), seed)
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
        # levels are checked in order and the first that underflows to 0
        # ends the study, as _run_levels checks the dt and grid levels
        eps_list = []
        for i in range(levels):
            eps_list.append(base_eps * 0.5**i)
            if eps_list[-1] == 0:
                raise ConfigError(f"epsilon level {i} underflows to 0; use "
                                  "fewer levels or a larger epsilon")
        u0 = _initial_on_grid(manifest)
        _make_output_dir(manifest)
        header = ["epsilon", "h1_to_zero", "h1_to_prev", "failure"]
        table = [
            [_fmt(r["epsilon"]), *(_fmt(r[k]) if np.isfinite(r[k]) else ""
                                   for k in ("h1_to_zero", "h1_to_prev")),
             r["failure"] or ""]
            for r in epsilon_continuation(u0, cfg, eps_list)
        ]
    elif mode == "dt":
        configs, finals = _run_levels(
            manifest, "dt", (cfg.dt * 0.5**i for i in range(levels)))
        header = ["dt", "h1_diff_to_next", "observed_order", "failure"]
        # diffs[i]: level i to i+1 where both ran; orders[i]: diffs[i-1]/diffs[i]
        diffs = [
            h1_distance(a.final, b.final)
            if a.failure is None and b.failure is None else None
            for a, b in zip(finals, finals[1:])
        ] + [None]
        orders = [None] + [np.log2(p / q) if p is not None and q else None
                           for p, q in zip(diffs, diffs[1:])]
        table = [[_fmt(c.dt), _fmt(d), _fmt(o), traj.failure or ""]
                 for c, traj, d, o in zip(configs, finals, diffs, orders)]
    else:  # grid: argparse admits no other mode
        configs, finals = _run_levels(
            manifest, "N_g", (cfg.N_g * 2**i for i in range(levels)))
        header = ["N_g", "sup_diff_to_finest", "failure"]
        end = finals[-1]
        table = [[str(c.N_g), "" if traj.failure or end.failure else _fmt(
            sup_distance(resample(traj.final, end.final.n), end.final)),
            traj.failure or ""] for c, traj in zip(configs, finals)]

    text = _csv(header, table)
    _atomic_write(os.path.join(manifest.output_dir, f"converge_{mode}.csv"), text)
    print(text, end="")
    return 0


def _run_levels(manifest, key, values):
    """(configs, trajectories): one ``evolve`` per value of config ``key``.

    ``values`` may be a generator: the levels are validated in order,
    before anything is built, and the first bad one ends the study (a
    finer dt can underflow to 0 or take a level past MAX_STEPS, a finer
    grid can pass MAX_N_G).  The curve is built once on the finest grid
    and resampled onto each level's grid, so levels differ only in their
    discretization (a preset drawn at each N separately need not be the
    same curve); a grid ``resample`` refuses is a config error.  The
    output directory is made once the curve is built.
    """
    try:
        configs = [replace(manifest.config, **{key: v}) for v in values]
        steps = [c.n_steps() for c in configs]
    except ValueError as exc:
        raise ConfigError(f"bad flow config: {exc}") from exc
    u0 = _initial_curve(manifest, max(c.N_g for c in configs))
    starts = []
    for c in configs:
        try:
            starts.append(resample(u0, c.N_g))
        except ValueError as exc:  # names what the grid loses
            raise ConfigError(f"grid N_g = {c.N_g} cannot carry the initial "
                              f"curve's {exc}") from exc
    if key == "dt" and not manifest.config.mode_cutoff:
        # the coarsest level's band for all: the automatic one widens as dt falls
        keep = run_band(configs[0], starts[0])
        configs = [replace(c, mode_cutoff=keep) for c in configs]
    _make_output_dir(manifest)
    return configs, [evolve(start, c, stride=n or 1)
                     for c, start, n in zip(configs, starts, steps)]


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
            if args.checkpoints < 0:
                raise ConfigError("--checkpoints must be nonnegative")
            manifest = load_manifest(args.manifest)
            return cmd_simulate(manifest, checkpoints_every=args.checkpoints)
        if args.command == "verify":
            if args.suite not in SUITES:
                raise ConfigError(
                    f"unknown suite {args.suite!r}; choose from {tuple(SUITES)}"
                )
            try:
                grids = tuple(int(g) for g in args.grids.split(",") if g)
            except ValueError:
                grids = ()
            if (len(set(grids)) < 1 + (args.suite == "identities")
                    or any(not is_grid_size(g) or g > MAX_N_G for g in grids)):
                raise ConfigError(f"--grids must list powers of two from 16 to "
                                  f"{MAX_N_G}, two distinct for 'identities'; got "
                                  f"{args.grids!r}")
            low, high, top = IDENTITY_GRIDS
            if args.suite == "identities" and not (low <= min(grids) <= high
                                                   and max(grids) <= top):
                raise ConfigError(
                    f"--suite identities resolves its data on a coarse grid from {low} to "
                    f"{high} and a fine grid up to {top}; got {args.grids!r}")
            if args.seed < 0:
                raise ConfigError("--seed must be nonnegative")
            return cmd_verify(args.suite, grids, args.seed)
        manifest = load_manifest(args.manifest)  # converge, the last command
        return cmd_converge(manifest, args.mode, args.levels)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DclError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
