"""Property tests beyond the fixed sweeps: Serre duality of the pushforward
engine on generated scrolls, and the Bott dimensions on projective space
against hook tableaux enumerated one by one."""

from hypothesis import given
from hypothesis import strategies as st

from conftest import brute_hook_degrees
from scrollcoh import DivClass, Scroll, omega_cohomology, pn_omega_cohomology

# n <= 4 and splitting degrees <= 4
scrolls = st.lists(st.integers(1, 4), min_size=2, max_size=5).map(Scroll)
twists = st.integers(-8, 8)


@given(scrolls, st.data(), twists, twists)
def test_omega_serre_duality(S, data, a, b):
    # h^i(Omega^p(D)) = h^{n+1-i}(Omega^{n-p}(-D - 2F)) on the scroll
    p = data.draw(st.integers(0, S.n))
    lhs = omega_cohomology(S, p, DivClass(a, b))
    rhs = omega_cohomology(S, S.n - p, DivClass(-a, -b - 2))
    assert lhs.values() == tuple(rhs.h(S.n + 1 - i) for i in range(S.n + 2))


def _tableaux(n, m, r):
    return len(brute_hook_degrees((0,) * (n + 1), m, r))


@given(st.integers(1, 4), st.data(), twists)
def test_pn_bott_counts_hook_tableaux(n, data, k):
    p = data.draw(st.integers(0, n))
    want = [0] * (n + 1)
    if k >= p + 1:
        want[0] = _tableaux(n, k - p, p)
    elif k == 0:
        want[p] = 1
    elif k <= p - n - 1:
        want[n] = _tableaux(n, -k - (n - p), n - p)
    assert pn_omega_cohomology(n, p, k).values() == tuple(want)


@given(st.integers(1, 4), st.data(), twists)
def test_pn_bott_symmetry(n, data, k):
    # h^q(Omega^p(k)) = h^{n-q}(Omega^{n-p}(-k)) on P^n
    p = data.draw(st.integers(0, n))
    lhs = pn_omega_cohomology(n, p, k)
    rhs = pn_omega_cohomology(n, n - p, -k)
    assert lhs.values() == tuple(rhs.h(n - q) for q in range(n + 1))
