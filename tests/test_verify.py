from dataclasses import replace

import numpy as np
import pytest

from dcl import curves, verify
from dcl.cli import main
from dcl.curves import identity_residuals
from dcl.flow import evolve
from dcl.verify import SUITES, Check, run_suite, suite_identities


@pytest.mark.parametrize("suite", SUITES)
def test_all_suites_pass(suite):
    checks = run_suite(suite, grids=(64, 128), seed=0)
    failed = [c.line() for c in checks if not c.passed]
    assert not failed, "\n".join(failed)


@pytest.mark.parametrize("n", [2048, 65536])
def test_oracle_suite_holds_on_every_accepted_grid(n):
    # the exact circles' unmasked v_xxx carries a roundoff normal part near
    # eps (pi N)^3, which trips dispersive_rhs's guard from N = 2048 on;
    # the suite checks each exact state once and lowpasses the residual
    checks = run_suite("oracles", grids=(n,), seed=0)
    failed = [c.line() for c in checks if not c.passed]
    assert len(checks) == 4 and not failed, "\n".join(failed)


def test_cli_oracle_suite_exits_0_on_a_fine_grid(capsys):
    assert main(["verify", "--suite", "oracles", "--grids", "2048"]) == 0
    assert capsys.readouterr().out.count("PASS") == 4


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("spectra")


def test_check_lines_have_verdicts():
    for check in run_suite("projections", grids=(32,), seed=1):
        line = check.line()
        assert line.startswith(("PASS", "FAIL"))
        assert "value=" in line


@pytest.mark.parametrize("kind", ["max", "min"])
def test_a_non_finite_check_value_fails(kind):
    check = Check("x", float("nan"), 1, kind)
    assert check.passed is False
    assert check.line().startswith("FAIL x: value=nan")


def test_identity_suite_refuses_one_distinct_grid():
    with pytest.raises(ValueError, match="two distinct grid sizes"):
        suite_identities((64, 64))


def test_identity_suite_reads_the_reports_commutator_bits(monkeypatch):
    # the finite-difference study takes the commutator residuals alone;
    # each equals the full identity report's, bit for bit
    seen = []

    def recorded(curve, l_max, h, seed):
        out = curves._commutator_residuals(curve, l_max, h, seed)
        seen.append((curve, l_max, h, seed, out))
        return out

    monkeypatch.setattr(verify, "_commutator_residuals", recorded)
    suite_identities((64, 128), seed=0)
    assert [entry[2] for entry in seen] == [2e-3, 1e-3, 5e-4]
    for curve, l_max, h, seed, out in seen:
        want = identity_residuals(curve, l_max=l_max, seed=seed,
                                  fd_step=h).commutator
        assert list(out) == list(want) == [1, 2]
        assert (np.array(list(out.values())).tobytes()
                == np.array(list(want.values())).tobytes())


def test_maxprinciple_suite_fails_a_run_that_does_not_complete(monkeypatch):
    # no input makes the suite's fixed Picard run fail; if it did, the suite
    # reports one failed check instead of measuring a partial trajectory
    def failing(u0, cfg, stride=1):
        return replace(evolve(u0, cfg, stride), failure="NoContraction: injected")

    monkeypatch.setattr(verify, "evolve", failing)
    checks = run_suite("maxprinciple")
    assert [c.line() for c in checks] == [
        "FAIL maxprinciple_run_completed: value=inf (need <= 0)"]
