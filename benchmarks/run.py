"""The dcl benchmark: four workloads, run as a closed loop with one client.

    python3 benchmarks/run.py --workload simulate-dense --seed 11 \\
        --seconds 25 --trace 0
    python3 benchmarks/run.py            # every workload, one table

One process, one thread, ``DCL_THREADS`` unset; each job starts when the
previous one has ended.  With ``--trace 0`` the run reports the
end-to-end metrics over its jobs; with ``--trace 1`` it alternates
untraced and traced jobs and reports per-layer counts and self times
from spans recorded around every public ``dcl`` callable.  README.md in
this directory defines every metric and workload.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Artifacts go to
a temporary directory under ``.bench_tmp`` in the checkout, removed at
exit; the spans of the last traced job go to ``.bench_out``.
"""

import os

# pin native thread pools before numpy is imported, here and in children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("DCL_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, summarize, write_spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_tmp"
SPAN_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("simulate-dense", "converge-eps", "picard-maxprinciple",
                  "rk4-n4096")
DEFAULT_SEED = 11
HELD_OUT_SEED = 12
SETUP_PROBES = 15
MIN_JOBS = 3
WARM_UP_S = 1.0
# (N, loops) of the kernel.  job_s, steps_per_s and setup_s are given at
# the speed at which it takes KERNEL_REF_S (10.5-11 ms in quiet stretches
# of a 2-vCPU shared machine, Python 3.11, numpy 2.4, pocketfft)
KERNEL_LOOPS = ((256, 200), (4096, 25))
KERNEL_REF_S = 0.010
CHILD_TIMEOUT_S = 170

E2E_UNITS = {
    "job_s": "s",
    "steps_per_s": "curve-steps/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "1",
}
# per-layer metrics that are exact counts and must repeat across traced jobs
EXACT = (
    "spectral.fft_calls_per_step",
    "spectral.fft_calls_once_per_job",
    "spectral.fft_points_per_step",
    "spectral.deriv_calls_per_step",
    "manifolds.checks_per_step",
    "manifolds.calls_per_step",
    "curves.constructions_per_step",
    "curves.velocity_calls_per_step",
    "flow.evolve_calls_per_job",
    "flow.picard_iters_per_step",
    "cli.bytes_written",
)
LAYER_UNITS = {
    **{name: "count" for name in EXACT},
    "cli.bytes_written": "bytes",
    "spectral.self_frac": "1",
    "manifolds.self_frac": "1",
    "curves.self_frac": "1",
    "flow.self_frac": "1",
    "invariants.self_frac": "1",
    "invariants.energy_report_ms": "ms",
    "cli.self_s": "s",
    "presets.make_initial_s": "s",
    "trace.overhead_s": "s",
}


def environment():
    """Versions and machine facts that a reader needs to compare runs."""
    import numpy as np

    try:
        from numpy.fft import _pocketfft_umath  # noqa: F401
        backend = "pocketfft"
    except ImportError:
        backend = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": backend,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "threads": {k: os.environ[k] for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def kernel_s():
    """Seconds of a fixed numpy kernel that does not touch ``dcl``.

    rfft/irfft pairs and reductions in a Python loop, at a small N where
    call overhead dominates and at a large N where arithmetic does, like
    the inner loop of ``dcl.flow``: how fast the machine runs right now.
    """
    import numpy as np

    start = time.perf_counter()
    for n, loops in KERNEL_LOOPS:
        x = np.linspace(0.0, 1.0, 3 * n).reshape(n, 3)
        for _ in range(loops):
            y = np.fft.irfft(np.fft.rfft(x, axis=0) * 1.5, n=n, axis=0)
            (y * y).sum(axis=-1).mean()
    return time.perf_counter() - start


def probe_setup(name, seed, workdir):
    """Set-up seconds of one fresh process (see setup_probe.py)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
         str(workdir)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(done.stdout.split()[-1])


class Runner:
    """Runs and checks jobs of one workload; a failing job is counted."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.index = 0

    def job(self, steps, tracer=None):
        """One job: set up, run, check.  Returns a record dictionary."""
        self.index += 1
        self.attempted += 1
        jobdir = self.workdir / f"job{self.index:05d}"
        record = {"steps": steps, "failures": []}
        w = self.workload
        try:
            if tracer is not None:
                tracer.reset()
                tracer.install()
            try:
                start = time.perf_counter()
                job = w.setup(self.seed, jobdir, steps)
                outcome = w.run(job)
                record["traced_s"] = time.perf_counter() - start
            finally:
                if tracer is not None:
                    tracer.uninstall()
            record["failures"] = w.check(job, outcome)
            record.update(
                job_s=outcome.job_s,
                steps_per_s=w.curve_steps(job) / outcome.core_s,
                digests=outcome.digests,
                bytes_written=w.bytes_written(job),
            )
            if tracer is not None:
                record["summary"] = summarize(tracer)
        except Exception as exc:  # a failing job must not end the run
            traceback.print_exc(file=sys.stderr)
            record["failures"] = [f"{type(exc).__name__}: {exc}"]
        finally:
            shutil.rmtree(jobdir, ignore_errors=True)
        if record["failures"]:
            self.failed += 1
            print(f"job {self.index} failed: {record['failures']}",
                  file=sys.stderr)
        elif "job_s" in record:
            traced = " traced" if tracer is not None else ""
            print(f"job {self.index}: {steps} steps{traced}, "
                  f"{record['job_s']:.4f} s", file=sys.stderr)
        return record


def measure(runner, seconds):
    """End-to-end metrics over a closed loop of jobs lasting ``seconds``."""
    w = runner.workload

    def setup_once():
        workdir = runner.workdir / f"setup{len(setups)}"
        setups.append(probe_setup(w.name, runner.seed, workdir))

    warm_until = time.perf_counter() + WARM_UP_S
    while time.perf_counter() < warm_until:  # FFT plans, first-touch memory
        runner.job(w.steps)
    start = time.perf_counter()
    jobs, setups, kernels = [], [], []
    while True:
        elapsed = time.perf_counter() - start
        # set-up probes spread over the run sample the machine throughout
        if len(setups) < SETUP_PROBES * elapsed / seconds:
            setup_once()
        jobs.append(runner.job(w.steps))
        kernels.append(kernel_s())
        if len(jobs) >= MIN_JOBS and time.perf_counter() - start > seconds:
            break
    while len(setups) < SETUP_PROBES:
        setup_once()
    timed = [(j, k) for j, k in zip(jobs, kernels) if "job_s" in j]
    if len(timed) < 2:
        return {}, {}
    # Other tenants of the shared machine slow it by up to 2x, for
    # moments or for minutes.  The kernel run right after a job sees
    # nearly the same speed, so each job is rescaled by it to the speed
    # at which the kernel takes KERNEL_REF_S, and the metrics are the
    # medians of the rescaled jobs (see README.md, "Steadiness").
    job = statistics.median(j["job_s"] * KERNEL_REF_S / k for j, k in timed)
    rate = statistics.median(j["steps_per_s"] * k / KERNEL_REF_S
                             for j, k in timed)
    kernel = statistics.median(kernels)
    setup = statistics.median(setups)
    metrics = {
        "job_s": job,
        "steps_per_s": rate,
        "setup_s": setup * KERNEL_REF_S / kernel,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - runner.failed / runner.attempted,
    }
    info = {"jobs": (len(timed), "timed"),
            "median_job_s": (statistics.median(j["job_s"] for j, _ in timed),
                             "s, not rescaled"),
            "median_setup_s": (setup, "s, not rescaled"),
            "median_kernel_s": (kernel, "s")}
    if len(timed) >= 100:  # ten samples beyond the 90th percentile
        info["p90_job_s"] = (statistics.quantiles(
            (j["job_s"] * KERNEL_REF_S / k for j, k in timed), n=10)[-1], "s")
    return metrics, info


def layer_metrics(workload, full, short, plain_s):
    """Per-layer metrics from one traced full job and one traced short job.

    A count per curve-step is the marginal count between the two job
    lengths, so work done once per job (initial curve, first speed, final
    guard) is reported apart as the intercept.  On the Picard path the
    work follows the iteration count, which is not the same in both
    halves of a run, so the split regresses on iterations there.
    """
    fs, ss = full["summary"], short["summary"]
    n_full = workload.members * full["steps"]

    def units(record):
        return (record["summary"]["picard_iterations"]
                or workload.members * record["steps"])

    def split(a, b):
        """(per curve-step, once per job) of a count seen in both jobs."""
        slope = (a - b) / (units(full) - units(short))
        once = a - units(full) * slope
        return (a - once) / n_full, once

    def count(summary, pred):
        return sum(c for name, c in summary["counts"].items() if pred(name))

    def per_step(pred):
        return split(count(fs, pred), count(ss, pred))[0]

    def is_fft(name):
        return name in ("spectral:rfft", "spectral:irfft")

    def is_check(name):
        return name.startswith("manifolds:") and name.endswith(
            (".require_on_manifold", ".require_in_tube"))

    fft_per_step, fft_once = split(count(fs, is_fft), count(ss, is_fft))
    reports = fs["counts"].get("invariants:energy_report", 0)
    wall = full["traced_s"]
    return {
        "spectral.fft_calls_per_step": fft_per_step,
        "spectral.fft_calls_once_per_job": fft_once,
        "spectral.fft_points_per_step":
            split(fs["fft_points"], ss["fft_points"])[0],
        "spectral.deriv_calls_per_step":
            per_step(lambda n: n == "spectral:spectral_derivative"),
        "spectral.self_frac": fs["self_s"]["spectral"] / wall,
        "manifolds.checks_per_step": per_step(is_check),
        "manifolds.calls_per_step":
            per_step(lambda n: n.startswith("manifolds:")),
        "manifolds.self_frac": fs["self_s"]["manifolds"] / wall,
        "curves.constructions_per_step":
            per_step(lambda n: n == "curves:ClosedCurve.__post_init__"),
        "curves.velocity_calls_per_step":
            per_step(lambda n: n == "curves:ClosedCurve.velocity"),
        "curves.self_frac": fs["self_s"]["curves"] / wall,
        "flow.self_frac": fs["self_s"]["flow"] / wall,
        "flow.evolve_calls_per_job": fs["counts"].get("flow:evolve", 0),
        "flow.picard_iters_per_step": fs["picard_iterations"] / n_full,
        "invariants.energy_report_ms": (
            1e3 * fs["total_s"]["invariants:energy_report"] / reports
            if reports else 0.0
        ),
        "invariants.self_frac": fs["self_s"]["invariants"] / wall,
        "cli.self_s": fs["self_s"]["cli"],
        "cli.bytes_written": full["bytes_written"],
        "presets.make_initial_s": fs["total_s"].get("presets:make_initial", 0.0),
        "trace.overhead_s": full["job_s"] - plain_s,
    }


def measure_traced(runner, seconds):
    """Per-layer metrics; traced and untraced jobs must agree exactly."""
    w = runner.workload
    tracer = Tracer()
    runner.job(w.short_steps)  # warm-up
    start = time.perf_counter()
    rounds = []
    correct = True
    while True:
        plain = runner.job(w.steps)
        full = runner.job(w.steps, tracer)
        last_spans = (tracer.names, tracer.spans)
        short = runner.job(w.short_steps, tracer)
        if not all("summary" in j for j in (full, short)) or "job_s" not in plain:
            return {}, False
        if plain["digests"] != full["digests"]:
            print("traced and untraced outputs differ", file=sys.stderr)
            correct = False
        rounds.append(layer_metrics(w, full, short, plain["job_s"]))
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    SPAN_DIR.mkdir(exist_ok=True)
    write_spans(SPAN_DIR / f"spans-{w.name}.csv.gz", *last_spans)
    for later in rounds[1:]:
        moved = [k for k in EXACT if later[k] != rounds[0][k]]
        if moved:
            print(f"counts did not repeat: {moved}", file=sys.stderr)
            correct = False
    metrics = {
        key: (rounds[0][key] if key in EXACT
              else statistics.median(r[key] for r in rounds))
        for key in LAYER_UNITS
    }
    return metrics, correct


def run_one(args):
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name}")
    print(f"seed {args.seed} sets {workload.seed_sets}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=SCRATCH))
    try:
        runner = Runner(workload, args.seed, workdir)
        if args.trace:
            metrics, traced_ok = measure_traced(runner, args.seconds)
            units = LAYER_UNITS
        else:
            (metrics, info), traced_ok = measure(runner, args.seconds), True
            units = E2E_UNITS
            for key, (value, unit) in info.items():
                print(f"  {key:34s} {value:.6g} {unit}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not metrics:
        print("no job completed", file=sys.stderr)
        return 1
    for key, value in metrics.items():
        print(f"  {key:34s} {value:.6g} {units[key]}")
    if not args.trace:
        print(f"  {'fail_frac':34s} {runner.failed / runner.attempted:.6g} 1")
    result = {
        "correct": runner.failed == 0 and traced_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, one after the other, as a table."""
    table = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name} exited with code {done.returncode}", file=sys.stderr)
            return done.returncode
        table[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print("environment " + json.dumps(environment(), sort_keys=True))
    for name, result in table.items():
        print(f"{name}: attempted {result['attempted']}, "
              f"failed {result['failed']} "
              f"(fail_frac {result['failed'] / result['attempted']:.3g})")
        for key, metric in result["metrics"].items():
            print(f"  {key:34s} {metric['value']:.6g} {metric['unit']}")
    combined = {
        "correct": all(r["correct"] for r in table.values()),
        "attempted": sum(r["attempted"] for r in table.values()),
        "failed": sum(r["failed"] for r in table.values()),
        "metrics": {f"{name}/{key}": metric
                    for name, r in table.items()
                    for key, metric in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; "
                             f"{HELD_OUT_SEED} is held out)")
    parser.add_argument("--seconds", type=int, default=25,
                        help="length of the closed loop of jobs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
