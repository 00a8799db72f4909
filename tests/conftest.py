"""Shared test helpers: scroll enumeration, direct enumeration oracles and
the dict-based hook convolution, and a per-test time limit.

The oracles deliberately avoid the library's convolution shortcuts: multisets
and tableaux are enumerated cell by cell so the fast paths have something
independent to agree with.  Where counts grow too large to enumerate, the
dict-based hook convolution, which keeps every count as its own int, checks
the packed one.
"""

import signal
from itertools import combinations, combinations_with_replacement

import pytest

from scrollcoh import Scroll

# the slowest test takes about 2 s on 2 vCPUs; a slow regression fails here
# instead of hanging the run
TIME_LIMIT_S = 60


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Fail a test whose call runs past TIME_LIMIT_S seconds, through SIGALRM;
    where signal.setitimer is missing (Windows) no limit is set."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{item.nodeid} ran past the {TIME_LIMIT_S} s limit", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def nondecreasing_tuples(length, total_max, minimum=1):
    """All nondecreasing tuples of the given length with entries >= minimum
    and sum <= total_max."""

    def rec(prefix, lo, budget):
        if len(prefix) == length:
            yield tuple(prefix)
            return
        slots = length - len(prefix)
        for a in range(lo, budget // slots + 1):
            yield from rec(prefix + [a], a, budget - a)

    yield from rec([], minimum, total_max)


def all_scrolls(n_max, c_max, n_min=1):
    for n in range(n_min, n_max + 1):
        for degs in nondecreasing_tuples(n + 1, c_max):
            yield Scroll(degs)


def brute_sym_degrees(degs, k):
    return tuple(sorted(sum(t) for t in combinations_with_replacement(degs, k)))


def brute_wedge_degrees(degs, k):
    return tuple(sorted(sum(t) for t in combinations(degs, k)))


def brute_hook_degrees(degs, m, p):
    """Hook tableau degrees by direct enumeration: a strictly increasing
    first column of p+1 letters and a weakly increasing first row of m
    letters sharing the corner."""
    degs = tuple(sorted(degs))
    out = []
    for col in combinations(range(len(degs)), p + 1):
        corner = col[0]
        for row in combinations_with_replacement(range(corner, len(degs)), m - 1):
            out.append(sum(degs[t] for t in col) + sum(degs[r] for r in row))
    return tuple(sorted(out))


def dict_hook_sums(degs, m, p):
    """(degree, count) pairs of the hook (m, 1^p), ascending, by the
    convolution over dicts that the packed one replaced: the same pass over
    the letters from the last down, with rows[k] and cols[j] kept as
    {degree: count} and the corner added term by term."""

    def add_scaled(acc, dist, d, scale=1):
        for deg, mult in dist.items():
            acc[deg + d] = acc.get(deg + d, 0) + scale * mult

    if p >= len(degs):
        return ()
    rows = [{0: 1}] + [{} for _ in range(m - 1)]
    cols = [{0: 1}] + [{} for _ in range(p)]
    out = {}
    for d in reversed(degs):
        for k in range(1, m):
            add_scaled(rows[k], rows[k - 1], d)
        for deg, mult in cols[p].items():
            add_scaled(out, rows[m - 1], d + deg, mult)
        for j in range(p, 0, -1):
            add_scaled(cols[j], cols[j - 1], d)
    return tuple(sorted(out.items()))


def _h0(degrees):
    return sum(d + 1 for d in degrees if d >= 0)


def _h1(degrees):
    return sum(-d - 1 for d in degrees if d <= -2)


def line_cohomology_oracle(scroll, div):
    """h^*(S, O(aH + bF)) from the three fibre-degree regimes, with the
    pushforwards Sym^a E(b) enumerated multiset by multiset.

    For a >= 0 all cohomology sits in degrees 0 and 1 and is read off
    Sym^a E(b); for -n-1 < a < 0 everything vanishes; for a <= -n-1 only
    degrees n and n+1 survive, read off Sym^{-a-n-1} E(c-b-2) by relative
    duality.
    """
    a, b, n = div.h, div.f, scroll.n
    vals = [0] * (n + 2)
    if a >= 0:
        push = [d + b for d in brute_sym_degrees(scroll.degrees, a)]
        vals[0], vals[1] = _h0(push), _h1(push)
    elif a <= -n - 1:
        rev = [d + scroll.c - b - 2 for d in brute_sym_degrees(scroll.degrees, -a - n - 1)]
        vals[n], vals[n + 1] = _h1(rev), _h0(rev)
    return tuple(vals)
