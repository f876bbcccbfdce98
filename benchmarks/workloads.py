"""The four benchmark workloads: inputs from a seed, one timed job, checks.

A workload turns ``--seed`` into the program's inputs (a manifest file for
the CLI workloads, an initial curve and a ``FlowConfig`` for the library
workloads), runs one job through ``dcl`` and checks the job's outputs
with code of its own.  ``dcl`` is imported from the ``src`` directory of
the checkout this file sits in, never from an installed copy.
"""

import csv
import hashlib
import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "dcl" / "__init__.py").is_file():
    raise ImportError(f"no dcl sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import dcl  # noqa: E402
from dcl import cli, flow, presets  # noqa: E402
from dcl.manifolds import SPHERE2  # noqa: E402

if Path(dcl.__file__).resolve().parent != SRC / "dcl":
    raise ImportError(f"dcl was imported from {dcl.__file__}, not from {SRC}")


@dataclass
class Job:
    """One prepared job: what set-up built, and where its artifacts go."""

    steps: int
    workdir: Path
    inputs: object = None


@dataclass
class Outcome:
    """What one job returned and how long it took."""

    job_s: float
    core_s: float
    exit_code: int = 0
    trajectory: object = None
    digests: dict = field(default_factory=dict)


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _relative_drift(values):
    values = np.asarray(values, dtype=float)
    return float(np.max(np.abs(values - values[0])) / abs(values[0]))


def _l2_ux(samples):
    """||u_x||^2 of a sampled closed curve, by the benchmark's own FFT."""
    n = samples.shape[0]
    k = np.fft.rfftfreq(n, d=1.0 / n)
    mult = 2j * np.pi * k
    mult[-1] = 0.0
    ux = np.fft.irfft(np.fft.rfft(samples, axis=0) * mult[:, None], n=n, axis=0)
    return float((ux * ux).sum(axis=-1).mean())


def _write_curve(path, t, samples):
    payload = {"t": t, "samples": [[float(x) for x in row] for row in samples]}
    data = json.dumps(payload, sort_keys=True).encode()
    path.write_bytes(data)
    return data


class Workload:
    """Base class; subclasses define set-up, the timed call and the checks."""

    name = ""
    seed_sets = ""
    members = 1
    steps = 0
    short_steps = 0

    def curve_steps(self, job):
        return self.members * job.steps

    def setup(self, seed, workdir, steps=None):
        """Build the inputs of one job of ``steps`` integrator steps."""
        raise NotImplementedError

    def probe_setup(self, seed, workdir):
        """Everything a user does before the first call into ``flow``."""
        self.setup(seed, workdir)

    def run(self, job):
        raise NotImplementedError

    def check(self, job, outcome):
        """List of reasons the job's outputs are wrong; empty when correct."""
        raise NotImplementedError


class _CliWorkload(Workload):
    """A job is one call of ``dcl.cli.main`` on a generated manifest."""

    def manifest(self, seed, out_dir, steps):
        raise NotImplementedError

    def argv(self, manifest_path):
        raise NotImplementedError

    def setup(self, seed, workdir, steps=None):
        steps = steps or self.steps
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "manifest_in.json"
        path.write_text(json.dumps(self.manifest(seed, workdir / "out", steps)))
        return Job(steps, workdir, inputs=path)

    def probe_setup(self, seed, workdir):
        # inside a job the CLI parses the manifest and builds the initial
        # curve itself, before its first call into flow
        job = self.setup(seed, workdir)
        parsed = cli.load_manifest(str(job.inputs))
        presets.make_initial(
            parsed.initial_condition, parsed.manifold, parsed.config.N_g,
            parsed.seed,
        )

    def run(self, job):
        argv = self.argv(job.inputs)
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            start = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - start
        return Outcome(job_s=elapsed, core_s=elapsed, exit_code=code)

    def out_dir(self, job):
        return job.workdir / "out"

    def bytes_written(self, job):
        return sum(p.stat().st_size for p in self.out_dir(job).iterdir())


class SimulateDense(_CliWorkload):
    name = "simulate-dense"
    seed_sets = "the random_smooth draw of the initial curve"
    steps = 30
    short_steps = 15
    dt = 1e-5

    def manifest(self, seed, out_dir, steps):
        return {
            "config": {
                "a": 1.0, "b": 0.5, "epsilon": 0.0, "N_g": 256,
                "dt": self.dt, "T": steps * self.dt,
                "integrator": "ProjectedRK4", "manifold": "Sphere2",
                "initial_condition": f"random_smooth:{seed},1.1,0.18",
            },
            "output_dir": str(out_dir),
            "stride": 1,
            "seed": seed,
        }

    def argv(self, manifest_path):
        return ["simulate", "--manifest", str(manifest_path),
                "--checkpoints", "10"]

    def check(self, job, outcome):
        if outcome.exit_code != 0:
            return [f"exit code {outcome.exit_code}"]
        out = self.out_dir(job)
        report = (out / "report.csv").read_bytes()
        echo = json.loads((out / "manifest.json").read_text())
        final = (out / "checkpoint_final.json").read_bytes()
        outcome.digests = {"report.csv": _sha(report), "final": _sha(final)}
        rows = list(csv.DictReader(io.StringIO(report.decode())))
        bad = []
        if len(rows) != job.steps + 1:
            bad.append(f"{len(rows)} report rows, expected {job.steps + 1}")
        if echo.get("failure"):
            bad.append(f"failure marker {echo['failure']}")
        if echo.get("report_sha256") != _sha(report):
            bad.append("report_sha256 does not match report.csv")
        l2 = _relative_drift([float(r["l2_ux"]) for r in rows])
        energy = _relative_drift([float(r["E"]) for r in rows])
        if not l2 <= 1e-8:
            bad.append(f"l2_ux drift {l2:.3e} > 1e-8")
        if not energy <= 1e-6:
            bad.append(f"E drift {energy:.3e} > 1e-6")
        return bad


class ConvergeEps(_CliWorkload):
    name = "converge-eps"
    seed_sets = ("the random_smooth draw of the initial curve shared by all "
                 "four members")
    members = 4  # the eps = 0 baseline plus three eps levels
    steps = 10
    short_steps = 5
    dt = 1e-5

    def manifest(self, seed, out_dir, steps):
        return {
            "config": {
                "a": 1.0, "b": 0.5, "epsilon": 2e-5, "N_g": 128,
                "dt": self.dt, "T": steps * self.dt,
                "integrator": "ProjectedRK4", "manifold": "Sphere2",
                "initial_condition": f"random_smooth:{seed},1.0,0.18",
            },
            "output_dir": str(out_dir),
            "stride": 1,
            "seed": seed,
        }

    def argv(self, manifest_path):
        return ["converge", "--manifest", str(manifest_path),
                "--mode", "epsilon", "--levels", "3"]

    def check(self, job, outcome):
        if outcome.exit_code != 0:
            return [f"exit code {outcome.exit_code}"]
        table = (self.out_dir(job) / "converge_epsilon.csv").read_bytes()
        outcome.digests = {"converge_epsilon.csv": _sha(table)}
        rows = list(csv.DictReader(io.StringIO(table.decode())))
        bad = [f"failure {r['failure']}" for r in rows if r["failure"]]
        if bad or len(rows) != 3:
            return bad or [f"{len(rows)} table rows, expected 3"]
        dists = [float(r["h1_to_zero"]) for r in rows]
        if not all(b < a for a, b in zip(dists, dists[1:])):
            bad.append(f"h1_to_zero not strictly decreasing: {dists}")
        if not dists[-1] <= 1e-3:
            bad.append(f"last h1_to_zero {dists[-1]:.3e} > 1e-3")
        return bad


class _LibraryWorkload(Workload):
    """A job is one ``flow.evolve`` call plus writing the final curve."""

    stride_all = False

    def config(self, steps):
        raise NotImplementedError

    def initial(self, seed, n):
        raise NotImplementedError

    def setup(self, seed, workdir, steps=None):
        steps = steps or self.steps
        workdir.mkdir(parents=True, exist_ok=True)
        cfg = self.config(steps)
        u0 = self.initial(seed, cfg.N_g)
        return Job(steps, workdir, inputs=(u0, cfg))

    def run(self, job):
        u0, cfg = job.inputs
        stride = job.steps if self.stride_all else 1
        start = time.perf_counter()
        traj = flow.evolve(u0, cfg, stride=stride)
        core = time.perf_counter() - start
        final = traj.final.output_samples()
        data = _write_curve(job.workdir / "final.json", traj.times[-1], final)
        job_s = time.perf_counter() - start
        return Outcome(job_s=job_s, core_s=core, trajectory=traj,
                       digests={"final": _sha(data)})

    def bytes_written(self, job):
        return 0


class PicardMaxPrinciple(_LibraryWorkload):
    name = "picard-maxprinciple"
    seed_sets = "nothing: the input is a fixed great circle with a cosine bump"
    steps = 6
    short_steps = 3
    dt = 1e-4

    def config(self, steps):
        return flow.FlowConfig(
            a=0.0, b=0.0, epsilon=1e-2, N_g=64, dt=self.dt, T=steps * self.dt,
            integrator="DuhamelPicard",
        )

    def initial(self, seed, n):
        base = presets.make_initial("great_circle", SPHERE2, n)
        bump = 1.0 + 1e-4 * np.cos(2.0 * np.pi * np.arange(n) / n)
        return base.with_samples(base.samples * bump[:, None])

    def check(self, job, outcome):
        traj = outcome.trajectory
        if traj.failure:
            return [f"failure {traj.failure}"]
        if len(traj.states) != job.steps + 1:
            return [f"{len(traj.states)} snapshots, expected {job.steps + 1}"]
        norms = []
        for state in traj.states:
            pts = state.samples
            rho = pts - pts / np.sqrt((pts * pts).sum(axis=-1))[:, None]
            norms.append(0.5 * float((rho * rho).sum(axis=-1).mean()))
        rise = float(np.max(np.diff(norms)))
        return [] if rise <= 0.0 else [f"1/2 ||rho||^2 rose by {rise:.3e}"]


class Rk4N4096(_LibraryWorkload):
    name = "rk4-n4096"
    seed_sets = "the random_smooth draw of the initial curve"
    steps = 6
    short_steps = 3
    stride_all = True
    dt = 1e-6

    def config(self, steps):
        return flow.FlowConfig(
            a=1.0, b=0.5, epsilon=0.0, N_g=4096, dt=self.dt,
            T=steps * self.dt, integrator="ProjectedRK4",
        )

    def initial(self, seed, n):
        return presets.make_initial(f"random_smooth:{seed},1.1,0.18", SPHERE2, n)

    def check(self, job, outcome):
        traj = outcome.trajectory
        if traj.failure:
            return [f"failure {traj.failure}"]
        pts = traj.final.samples
        off = float(np.max(np.abs((pts * pts).sum(axis=-1) - 1.0)))
        drift = _relative_drift([_l2_ux(s.samples) for s in traj.states])
        bad = []
        if not off <= 1e-12:
            bad.append(f"off-manifold residual {off:.3e} > 1e-12")
        if not drift <= 1e-8:
            bad.append(f"||u_x||^2 drift {drift:.3e} > 1e-8")
        return bad


WORKLOADS = {
    w.name: w
    for w in (SimulateDense(), ConvergeEps(), PicardMaxPrinciple(), Rk4N4096())
}
