"""Lines of ``src/dcl`` that the tier-1 suite never runs, with no dependency.

    python tools/linecov.py [--ceiling K] [pytest arguments]

Runs pytest on ``tests/`` in a child interpreter whose PYTHONPATH starts
with a generated ``sitecustomize``.  It line-traces the modules of
``src/dcl`` with ``sys.settrace`` in that interpreter and in every Python
subprocess that inherits the PYTHONPATH, such as the ``python -m dcl.cli``
runs of ``tests/test_cli.py``; each process writes the lines it ran when it
exits.  The executable lines of a module are those its code objects list in
``co_lines``.  Prints each line that never ran as ``path:line: source``,
then the count.  Exits with pytest's status when the suite fails, and 1
when the count exceeds ``--ceiling``.  Line attribution differs between
Python versions; the ceiling in CI is measured on 3.11.
"""

import argparse
import atexit
import os
import pathlib
import subprocess
import sys
import tempfile
import threading
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dcl"

SITECUSTOMIZE = """\
import importlib.util
spec = importlib.util.spec_from_file_location("_linecov", {tool!r})
linecov = importlib.util.module_from_spec(spec)
spec.loader.exec_module(linecov)
linecov.start({out!r})
"""


def start(out_dir):
    """Record the (file, line) pairs of ``src/dcl`` this process runs, and
    write them to ``out_dir/<pid>.txt`` at exit."""
    prefix = str(SRC) + os.sep
    ours, hits = {}, set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = os.path.realpath(name).startswith(prefix)
        return local if ours[name] else None

    def dump():
        sys.settrace(None)
        with open(os.path.join(out_dir, f"{os.getpid()}.txt"), "w") as out:
            out.writelines(f"{os.path.realpath(f)}\t{n}\n" for f, n in hits)

    atexit.register(dump)
    threading.settrace(tracer)
    sys.settrace(tracer)


def executable_lines(path):
    """Line numbers of every code object compiled from ``path``."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ceiling", type=int, default=None,
                        help="fail when more lines than this never run")
    args, pytest_args = parser.parse_known_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "hits")
        os.mkdir(out)
        with open(os.path.join(tmp, "sitecustomize.py"), "w") as handle:
            handle.write(SITECUSTOMIZE.format(tool=str(pathlib.Path(__file__).resolve()),
                                              out=out))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (tmp, str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        status = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             *pytest_args], cwd=ROOT, env=env).returncode
        hits = set()
        for name in os.listdir(out):
            with open(os.path.join(out, name)) as handle:
                hits.update((f, int(n)) for f, n in
                            (line.rstrip("\n").split("\t") for line in handle))
    missed = total = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - {n for f, n in hits if f == str(path)}):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"src/dcl: {missed} of {total} executable lines never ran")
    if status:
        print(f"pytest exited {status}", file=sys.stderr)
        return status
    return int(args.ceiling is not None and missed > args.ceiling)


if __name__ == "__main__":
    sys.exit(main())
