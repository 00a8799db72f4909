"""The verification suites, pinned by the size of their grids."""

import json

import pytest

from scrollcoh import CohomTable, Scroll, omega_cohomology
from scrollcoh import verify
from scrollcoh.cli import SUITE_NAMES, main


def _off_by_one(scroll, p, div):
    vals = list(omega_cohomology(scroll, p, div).values())
    vals[0] += 1
    return CohomTable.exact(vals)


@pytest.mark.parametrize("degrees", [(1, 2), (1, 1, 2), (2, 2, 3, 3)])
def test_chi_oracle_checks_its_whole_grid(monkeypatch, degrees):
    # every grid point compares a chi read from verify.omega_cohomology, so an
    # h^0 that is off by one fails at each of them: n(2n+5)(2c+5) Koszul sums
    # and 7(n+1) fibre twists
    S = Scroll(degrees)
    monkeypatch.setattr(verify, "omega_cohomology", _off_by_one)
    passed, details = verify.SUITES["chi-oracle"](S)
    n, c = S.n, S.c
    assert not passed
    assert len(details["failures"]) == n * (2 * n + 5) * (2 * c + 5) + 7 * (n + 1)


def test_failed_suite_exits_three(monkeypatch, capsys):
    monkeypatch.setattr(verify, "omega_cohomology", _off_by_one)
    assert main(["verify", "--suite", "chi-oracle", "--scroll", "1,2"]) == 3
    assert json.loads(capsys.readouterr().out)["result"]["passed"] is False
    assert main(["verify", "--suite", "chi-oracle", "--scroll", "1,2", "--format", "md"]) == 3
    assert capsys.readouterr().out == "suite chi-oracle: FAIL\n"


def test_cli_suite_names_are_the_suites():
    # the CLI lists the suites without importing them
    assert SUITE_NAMES == tuple(verify.SUITES)
