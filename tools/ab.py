"""Paired, same-process timing of two trees of ``dcl`` on the benchmark jobs.

    python tools/ab.py --parent REV [--child REV] [--workload NAME]
                       [--pairs 40] [--seed 11]

Extracts the tree of ``--parent`` with ``git archive`` and imports its
package as ``dcl_parent``; the child, the tree of ``--child`` extracted
the same way or else this checkout's ``src``, is imported as ``dcl``.
Both run the jobs of ``benchmarks/workloads.py`` as this checkout defines
them, each bound to its own package.  Every pair runs one job on each side
in one process, the first side swapped from pair to pair, and times the
workload's core call (``cli.main`` or ``flow.evolve``).  Prints, per
workload, the median of the child-to-parent time ratios, their
interquartile range, the pairs the child won, and whether every job's
output digest (the CLI artifacts, or the library trajectory's times,
state bytes, step residuals and Picard counts) is equal on both sides.
"""

import argparse
import hashlib
import importlib.util
import os

# pin native thread pools before numpy is imported, as benchmarks/run.py does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("DCL_THREADS", None)

import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS_PY = ROOT / "benchmarks" / "workloads.py"


def extract(rev, into):
    """The tree of ``rev`` under ``into``, by git archive."""
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def load_side(tree, name):
    """The package of ``tree``/src imported as ``name``, and the benchmark
    workloads bound to it: ``dcl`` and its submodules name the package
    while this checkout's workloads.py runs, and only the package's own
    names stay in ``sys.modules`` afterwards."""
    src = tree / "src" / "dcl"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    aliases = {"dcl": package}
    for sub in sorted(path.stem for path in src.glob("*.py")):
        if sub != "__init__":
            aliases["dcl." + sub] = importlib.import_module(f"{name}.{sub}")
    workloads = types.ModuleType(f"workloads_{name}")
    # workloads.py finds its package under ROOT/src, ROOT two levels up
    workloads.__file__ = str(tree / "benchmarks" / "workloads.py")
    saved_path = list(sys.path)
    sys.modules.update(aliases)
    sys.modules[workloads.__name__] = workloads
    try:
        exec(compile(WORKLOADS_PY.read_text(), str(WORKLOADS_PY), "exec"),
             workloads.__dict__)
    finally:
        sys.path[:] = saved_path
        for alias, module in aliases.items():
            if module.__name__ != alias:
                del sys.modules[alias]
    return workloads.WORKLOADS


def digest(outcome):
    """One sha256 of a job's outputs: its artifact digests and, for a
    library job, its trajectory."""
    h = hashlib.sha256(repr(sorted(outcome.digests.items())).encode())
    traj = outcome.trajectory
    if traj is not None:
        h.update(repr((traj.times, traj.step_residuals,
                       traj.picard_iterations, traj.failure)).encode())
        for state in traj.states:
            h.update(np.ascontiguousarray(state.samples).tobytes())
    return h.hexdigest()


def run_job(workload, seed, workdir):
    """(core seconds, output digest) of one job; its check must pass."""
    job = workload.setup(seed, workdir)
    outcome = workload.run(job)
    failures = workload.check(job, outcome)
    if failures:
        raise SystemExit(f"{workload.name} failed its check: {failures}")
    return outcome.core_s, digest(outcome)


def compare(name, sides, pairs, seed, scratch):
    """Alternate ``pairs`` jobs of workload ``name`` between the two sides."""
    ratios, digests = [], {"parent": set(), "child": set()}
    for label, side in sides.items():  # warm both sides once, untimed
        run_job(side[name], seed, scratch / f"{name}-warm-{label}")
    for i in range(pairs):
        order = ("parent", "child") if i % 2 == 0 else ("child", "parent")
        times = {}
        for label in order:
            times[label], out = run_job(sides[label][name], seed,
                                        scratch / f"{name}-{i}-{label}")
            digests[label].add(out)
        ratios.append(times["child"] / times["parent"])
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    won = sum(r < 1.0 for r in ratios)
    equal = len(digests["parent"]) == 1 and digests["parent"] == digests["child"]
    print(f"{name:<20} {median:6.3f}  [{q1:.3f}-{q3:.3f}]  {won:>3} of {pairs}"
          f"  {'equal' if equal else 'DIFFERENT'}", flush=True)
    return equal


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--child", help="git revision (default: this checkout)")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--pairs", type=int, default=40)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="dcl-ab-") as tmp:
        tmp = Path(tmp)
        child = extract(args.child, tmp / "child") if args.child else ROOT
        sides = {"parent": load_side(extract(args.parent, tmp / "parent"), "dcl_parent"),
                 "child": load_side(child, "dcl")}
        names = list(sides["child"]) if args.workload == "all" else [args.workload]
        print(f"parent {args.parent}, child {args.child or 'checkout'}, "
              f"seed {args.seed}, {args.pairs} pairs; child/parent time ratio")
        print(f"{'workload':<20} {'median':>6}  {'IQR':<13}  {'won':>9}  digests")
        equal = [compare(name, sides, args.pairs, args.seed, tmp / "jobs")
                 for name in names]
    return 0 if all(equal) else 1


if __name__ == "__main__":
    sys.exit(main())
