"""``tools/ab.py``: an A/A comparison reads equal digests and exits 0."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def in_git_checkout():
    try:
        subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return False
    return True


@pytest.mark.skipif(not in_git_checkout(), reason="needs the git history")
def test_an_aa_run_reads_equal_digests():
    # both sides are HEAD, imported as dcl_parent and dcl in one process:
    # every output of dcl is deterministic, so the digests match
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "--parent", "HEAD",
         "--child", "HEAD", "--workload", "picard-maxprinciple", "--pairs", "2"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    header, columns, row = done.stdout.splitlines()
    assert header.startswith("parent HEAD, child HEAD, seed 11, 2 pairs")
    fields = row.split()
    assert fields[0] == "picard-maxprinciple" and fields[-1] == "equal"
    assert float(fields[1]) > 0.0 and fields[4:6] == ["of", "2"]
    assert 0 <= int(fields[3]) <= 2
