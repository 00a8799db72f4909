"""Split bundle calculus checked against direct enumeration."""

import random
import time
from itertools import combinations_with_replacement
from math import comb

import pytest

from conftest import (brute_hook_degrees, brute_sym_degrees, brute_wedge_degrees,
                      dict_hook_sums)
from scrollcoh import H, DivClass, Scroll, SplitBundle, hook_rank, omega_cohomology, p1
from scrollcoh.p1 import MAX_SLOTS, MAX_SUMMANDS, MAX_WORK, _hook_sums, _pairs


def test_cohomology_of_single_summands():
    assert SplitBundle((-1,)).h(0) == 0
    assert SplitBundle((-1,)).h(1) == 0
    # monomial count oracle: h^0(O(d)) is the number of degree-d monomials
    # in two variables
    def monomials(d):
        return len([(i, d - i) for i in range(d + 1)])
    assert SplitBundle((1, 2)).h(0) == monomials(1) + monomials(2) == 5
    # Serre duality oracle on the line: h^1(O(-3)) = h^0(O(1))
    assert SplitBundle((-3,)).h(1) == SplitBundle((1,)).h(0) == 2
    assert SplitBundle((1, 2)).h(2) == 0
    assert SplitBundle((5,)).h(-1) == 0


def test_cohomology_totals():
    B = SplitBundle((-4, -1, 0, 3))
    assert B.chi == B.degree + B.rank == B.h0 - B.h1


def test_serre_duality_summandwise():
    rng = random.Random(11)
    for _ in range(50):
        degs = tuple(rng.randint(-6, 6) for _ in range(rng.randint(0, 5)))
        B = SplitBundle(degs)
        assert B.h1 == sum(SplitBundle((-d - 2,)).h0 for d in degs)
        assert B.h1 == B.dual().twist(-2).h0


def test_sym_power_examples():
    assert SplitBundle((1, 2)).sym(2).degrees == brute_sym_degrees((1, 2), 2) == (2, 3, 4)
    assert SplitBundle((1, 2)).sym(0).degrees == (0,)
    assert SplitBundle(()).sym(0).degrees == (0,)
    assert SplitBundle((1, 1, 1)).sym(2).degrees == (2,) * 6


def test_wedge_power_examples():
    assert SplitBundle((1, 2)).wedge(2).degrees == (3,)
    assert SplitBundle((1, 1, 1)).wedge(2).degrees == brute_wedge_degrees((1, 1, 1), 2) == (2, 2, 2)
    assert SplitBundle((1, 2)).wedge(0).degrees == (0,)
    assert SplitBundle((1, 2)).wedge(3).is_zero
    assert SplitBundle((1, 2)).wedge(-1).is_zero


def test_hook_examples():
    B = SplitBundle((-1, 0, 2))
    assert B.hook(1, 0) == B
    for p in range(3):
        assert B.hook(1, p) == B.wedge(p + 1)
    assert SplitBundle((0, 0, 0)).hook(2, 1).degrees == brute_hook_degrees((0, 0, 0), 2, 1) == (0,) * 8
    assert B.hook(2, 5).is_zero  # column taller than the alphabet


def test_hook_shape_validation():
    B = SplitBundle((1, 2))
    with pytest.raises(ValueError):
        B.hook(0, 1)
    with pytest.raises(ValueError):
        B.hook(-2, 0)
    with pytest.raises(ValueError):
        B.hook(1, -1)


def test_hook_equals_sym_at_zero_column():
    B = SplitBundle((-2, 1, 1, 3))
    for m in range(1, 5):
        assert B.hook(m, 0) == B.sym(m)


def test_against_brute_enumeration():
    rng = random.Random(23)
    for _ in range(40):
        degs = tuple(sorted(rng.randint(-3, 3) for _ in range(rng.randint(1, 4))))
        B = SplitBundle(degs)
        for k in range(0, 4):
            assert B.sym(k).degrees == brute_sym_degrees(degs, k)
            assert B.wedge(k).degrees == brute_wedge_degrees(degs, k)
        for m in range(1, 4):
            for p in range(0, len(degs)):
                assert B.hook(m, p).degrees == brute_hook_degrees(degs, m, p)


def test_rank_formulas():
    B = SplitBundle((-1, 0, 2, 2))
    r = B.rank
    for k in range(0, 6):
        assert B.sym(k).rank == comb(r + k - 1, k)
        assert B.wedge(k).rank == (comb(r, k) if 0 <= k <= r else 0)
    for m in range(1, 4):
        for p in range(0, r):
            assert B.hook(m, p).rank == hook_rank(r, m, p)


def test_hook_rank_is_degree_independent():
    for m in range(1, 4):
        for p in range(0, 3):
            a = SplitBundle((0, 0, 0)).hook(m, p).rank
            b = SplitBundle((-5, 1, 7)).hook(m, p).rank
            assert a == b == hook_rank(3, m, p)


def test_pieri_identity_exhaustive():
    # sym(m) (x) wedge(p) = hook(m, p) (+) hook(m+1, p-1) as multisets
    for degs in combinations_with_replacement(range(-2, 3), 3):
        B = SplitBundle(degs)
        for m in range(1, 6):
            for p in range(1, B.rank):
                left = B.sym(m).tensor(B.wedge(p))
                right = B.hook(m, p) + B.hook(m + 1, p - 1)
                assert left == right, (degs, m, p)


def test_bundle_algebra():
    assert SplitBundle((1, 2)).dual().degrees == (-2, -1)
    assert SplitBundle((1, 2)).twist(-3).degrees == (-2, -1)
    assert SplitBundle((1,)).tensor(SplitBundle((2, 3))).degrees == (3, 4)
    assert (SplitBundle((1,)) + SplitBundle((0, 2))).degrees == (0, 1, 2)


def test_chi_additivity():
    rng = random.Random(5)
    for _ in range(30):
        B = SplitBundle(rng.randint(-4, 4) for _ in range(rng.randint(0, 4)))
        C = SplitBundle(rng.randint(-4, 4) for _ in range(rng.randint(0, 4)))
        assert (B + C).chi == B.chi + C.chi
        b = rng.randint(-3, 3)
        assert B.twist(b).chi == B.chi + b * B.rank


def test_zero_bundle_propagates():
    zero = SplitBundle(())
    assert zero.is_zero and zero.rank == 0 and zero.chi == 0
    assert zero.wedge(1).is_zero
    assert zero.hook(2, 0).is_zero
    assert zero.sym(3).is_zero
    assert zero.tensor(SplitBundle((1, 2))).is_zero
    assert zero.dual() == zero


def test_canonical_sorted_storage():
    assert SplitBundle((2, 1)).degrees == (1, 2)
    assert SplitBundle([3, -1, 3]).degrees == (-1, 3, 3)
    assert SplitBundle((2, 1)) == SplitBundle((1, 2))


# Packed distributions at the byte boundaries of their counts.  A count of
# 255 or 65535 fills its slot; 256 or 65536 needs one more byte per slot.
# Each case sets the slot width through the hook's total, and the lowest
# degree is negative.
@pytest.mark.parametrize("degs,m,p", [
    ((-1,) * 255, 1, 0),             # one count of 255, one byte
    ((-1,) * 256, 1, 0),             # one count of 256, two bytes
    ((-1,) * 255 + (3,), 1, 0),      # a full 255 beside a 1, two bytes
    ((-1,) * 65535, 1, 0),           # 65535 in two bytes
    ((-1,) * 65535 + (2,), 1, 0),    # a full 65535 beside a 1, three bytes
    ((-2, 5), 254, 0),               # Sym^254: 255 summands, one byte
    ((-2, 5), 255, 0),               # Sym^255: 256 summands, two bytes
    ((-3,) * 10 + (0,) * 8, 2, 1),   # counts up to 800 in two-byte slots
    ((-1,) * 6 + (1,) * 6, 1, 11),   # one summand, after column counts of 400
    ((-1,) * 24 + (0,) * 24, 30, 0),   # a count above 2^64
    ((-2,) * 18 + (1,) * 18, 22, 4),   # a count above 2^64, with a column
])
def test_packed_counts_at_byte_boundaries(degs, m, p):
    assert tuple(_pairs(_hook_sums(degs, m, p))) == dict_hook_sums(degs, m, p)


@pytest.mark.parametrize("letters,m,p", [
    (255, 1, 0), (256, 1, 0), (65535, 1, 0), (65536, 1, 0),
    (2, 254, 0), (2, 255, 0), (2, 65534, 0), (2, 65535, 0),
    (40, 30, 0), (36, 24, 4), (24, 30, 6),
])
def test_packed_counts_on_equal_degrees(letters, m, p):
    # all tableaux have degree (m + p) * d, so one slot holds hook_rank of them
    rank = hook_rank(letters, m, p)
    assert rank in (255, 256, 65535, 65536) or rank > 2 ** 64
    for d in (-7, 0, 3):
        assert list(_pairs(_hook_sums((d,) * letters, m, p))) == [((m + p) * d, rank)]


# The packed integer spans (m + p) times the spread of the letters, so a wide
# spread is refused before anything is allocated, by the library as by the CLI.
@pytest.mark.parametrize("call", [
    lambda: Scroll((1, 10 ** 7)).line_cohomology(2 * H),
    lambda: SplitBundle((0, 10 ** 7)).sym(3),
], ids=["line_cohomology", "sym"])
def test_wide_spreads_are_refused_at_once(call):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"above the limit MAX_SLOTS = {MAX_SLOTS}"):
        call()
    assert time.perf_counter() - start < 1


def test_slot_limit_at_its_edge():
    # Sym^2 on two letters holds 4 * (2 * spread + 1) slots
    low, w, packed = _hook_sums((0, 1_249_999), 2, 0)
    assert (low, w) == (0, 1) and packed.bit_length() == 8 * 2 * 1_249_999 + 1
    with pytest.raises(ValueError, match="MAX_SLOTS"):
        _hook_sums((0, 1_250_000), 2, 0)


# The top wedge has one summand, but its columns count up to C(k, k/2) on the
# way: 9.5 s on 8001 letters before the library checked what a convolution
# costs.
@pytest.mark.parametrize("call", [
    lambda: SplitBundle((0,) * 2001).wedge(2001),
    lambda: omega_cohomology(Scroll((1,) * 8001), 8000, DivClass(8001, 0)),
], ids=["wedge", "omega_cohomology"])
def test_costly_convolutions_are_refused_at_once(call):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"above the limit MAX_WORK = {MAX_WORK}"):
        call()
    assert time.perf_counter() - start < 1


def test_work_limit_at_its_edge():
    # 2000 letters * 2000 shift-adds * 250 bytes, C(2000, 1000) having 1996 bits
    assert SplitBundle((0,) * 2000).wedge(2000) == SplitBundle((0,))
    with pytest.raises(ValueError, match="MAX_WORK"):
        SplitBundle((0,) * 2001).wedge(2001)


def test_one_letter_powers_are_read_in_closed_form():
    # one letter has one tableau of shape (k): Sym^k O(d) = O(kd), at once even
    # at the largest k the slot limit admits on one letter, which is still refused
    # one step past it
    for d in (-3, 0, 5):
        for k in (0, 1, 2, 7, MAX_SLOTS - 2):
            start = time.perf_counter()
            assert SplitBundle((d,)).sym(k) == SplitBundle((k * d,))
            assert time.perf_counter() - start < 0.1
    with pytest.raises(ValueError, match="MAX_SLOTS"):
        SplitBundle((0,)).sym(MAX_SLOTS - 1)


def test_summand_limit_at_its_edge():
    # Sym^k on two letters has k + 1 summands; MAX_SUMMANDS is kept where a
    # distribution is expanded
    assert SplitBundle((0, 0)).sym(MAX_SUMMANDS - 1).rank == MAX_SUMMANDS
    with pytest.raises(ValueError, match=f"above the limit MAX_SUMMANDS = {MAX_SUMMANDS}"):
        SplitBundle((0, 0)).sym(MAX_SUMMANDS)


def test_summand_limit_is_refused_before_the_convolution(monkeypatch):
    # the closed-form rank is refused before _hook_sums runs: convolving this
    # hook takes over a second and hundreds of megabytes
    def no_convolution(*args):
        raise AssertionError("_hook_sums ran")
    monkeypatch.setattr(p1, "_hook_sums", no_convolution)
    rank = hook_rank(31, 3000, 0)
    with pytest.raises(ValueError, match=f"rank is at least {rank}, above the limit MAX_SUMMANDS"):
        Scroll((1,) * 15 + (2,) * 16).line_cohomology(3000 * H)


def test_tensor_keeps_the_summand_limit():
    with pytest.raises(ValueError, match="rank is at least 1001000, above the limit MAX_SUMMANDS"):
        SplitBundle((0,) * 1001).tensor(SplitBundle((0,) * 1000))
