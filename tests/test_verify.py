"""The verification suites, pinned by the size of their grids."""

import json
import time
from math import comb

import pytest

from scrollcoh import CohomTable, Scroll, SplitBundle, UlrichVerdict, omega_cohomology
from scrollcoh import p1, verify
from scrollcoh.cli import SUITE_NAMES, main
from scrollcoh.p1 import MAX_SUMMANDS, hook_rank
from test_cli import _clear_package_caches


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


@pytest.mark.parametrize("degrees", [(1, 2), (1, 1, 2), (1, 2, 2, 3), (1, 1, 1, 1, 2)])
def test_chi_oracle_checks_the_largest_bundle_it_lists(monkeypatch, degrees):
    # the rank checked before the loop, in closed form, is the largest the
    # loop asks SplitBundle to list, every cache cold
    S = Scroll(degrees)
    ranks = []
    listed = SplitBundle._listed

    def recording(bundle, rank, sums, *args):
        ranks.append(rank)
        return listed(bundle, rank, sums, *args)

    monkeypatch.setattr(SplitBundle, "_listed", recording)
    _clear_package_caches()
    assert verify.chi_oracle(S)[0]
    assert max(ranks) == verify._largest_listed_hook(S)


@pytest.mark.parametrize("degrees", [(1, 2), (1, 1, 2), (1, 2, 2, 3), (1, 1, 1, 1, 2)])
def test_chi_oracle_convolves_no_hook_above_the_largest_it_lists(monkeypatch, degrees):
    # the rank checked before the loop also bounds every hook the loop
    # convolves, listed or not, so the check holds when a hook is read
    # without listing its bundle; every cache cold
    S = Scroll(degrees)
    hooks = set()
    hook_sums = p1._hook_sums

    def recording(degs, m, p):
        hooks.add((degs, m, p))
        return hook_sums(degs, m, p)

    monkeypatch.setattr(p1, "_hook_sums", recording)
    _clear_package_caches()
    hook_sums.cache_clear()
    assert verify.chi_oracle(S)[0]
    assert hooks
    largest = verify._largest_listed_hook(S)
    assert all(hook_rank(len(degs), m, p) <= largest for degs, m, p in hooks)


def test_chi_oracle_admits_n_8_and_refuses_n_9():
    # the rank depends on n alone
    assert verify._largest_listed_hook(Scroll((1,) * 8 + (5,))) == 288288 <= MAX_SUMMANDS
    assert verify._largest_listed_hook(Scroll((1,) * 10)) == 1485120 > MAX_SUMMANDS


@pytest.mark.parametrize("degrees", [(1, 711), (1, 2000)])
def test_chi_oracle_refuses_a_large_grid_before_its_loop(monkeypatch, degrees):
    # the grid limit is the library's: a caller of chi_oracle is refused at
    # once, before any Koszul resolution
    def entered(*args):
        raise AssertionError("chi_oracle entered its grid")

    monkeypatch.setattr(verify, "koszul_resolution", entered)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"above the limit MAX_TWISTS = {verify.MAX_TWISTS}"):
        verify.chi_oracle(Scroll(degrees))
    assert time.perf_counter() - start < 1


def test_failed_suite_exits_three(monkeypatch, capsys):
    monkeypatch.setattr(verify, "omega_cohomology", _off_by_one)
    assert main(["verify", "--suite", "chi-oracle", "--scroll", "1,2"]) == 3
    assert json.loads(capsys.readouterr().out)["result"]["passed"] is False
    assert main(["verify", "--suite", "chi-oracle", "--scroll", "1,2", "--format", "md"]) == 3
    assert capsys.readouterr().out == "suite chi-oracle: FAIL\n"


def test_blocks_suite_reports_every_failing_block(monkeypatch, capsys):
    # a verdict that fails every block, expecting one section more than it found
    real = verify.is_ulrich

    def failing(scroll, sheaf):
        v = real(scroll, sheaf)
        return UlrichVerdict(False, v.rank, v.h0, v.expected_h0 + 1, v.initialized,
                             v.vanishing, ("forced",))

    monkeypatch.setattr(verify, "is_ulrich", failing)
    S = Scroll((1, 1, 2))
    passed, details = verify.SUITES["blocks"](S)
    h0 = [S.c * comb(S.n, i) for i in range(S.n + 1)]
    assert not passed
    assert details == {"failures": [{"i": i, "h0": h, "expected": h + 1, "failures": ["forced"]}
                                    for i, h in enumerate(h0)]}
    assert main(["verify", "--suite", "blocks", "--scroll", "1,1,2"]) == 3
    assert json.loads(capsys.readouterr().out)["result"]["details"] == details


def test_homvanish_suite_reports_every_pair_it_cannot_bound(monkeypatch):
    # an upper bound of one on every Hom: each of the 3n(n+1)/2 pairs fails
    monkeypatch.setattr(verify, "hom_upper_bound",
                        lambda scroll, x, y: CohomTable(((0, 1),) * (scroll.n + 2)))
    S = Scroll((1, 2, 2))
    passed, details = verify.SUITES["homvanish"](S)
    tags = [tag for _, _, tag in verify.required_hom_pairs(S)]
    assert not passed and details["checked"] == len(tags) == 3 * S.n * (S.n + 1) // 2
    assert details["failures"] == [{"pair": tag, "bound": [0, 1]} for tag in tags]


def test_cli_suite_names_are_the_suites():
    # the CLI lists the suites without importing them
    assert SUITE_NAMES == tuple(verify.SUITES)
