import math
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

from thetatrace import involutions
from thetatrace.errors import BoundTooLarge, NTooLarge, ParityMismatch
from thetatrace.involutions import (
    Involution,
    closed_form_fixed_count,
    count_with_fixed,
    decomposition_is_valid,
    enumerate_decompositions,
    exponential_regroup_check,
    list_involutions,
    verify_multinomial_identity,
    verify_sign_lemma,
)

TELEPHONE = [1, 1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496]  # T(0)..T(10)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_involution_counts_match_telephone_numbers():
    for n in range(1, 11):
        assert len(list_involutions(n)) == TELEPHONE[n]


def test_involutions_square_to_identity():
    for sigma in list_involutions(5):
        img = sigma.mapping()
        for i in range(1, 6):
            assert img[img[i - 1] - 1] == i


def test_involutions_are_distinct_and_complete():
    # against a brute-force scan of all permutations of 6 letters
    brute = sum(
        1
        for p in permutations(range(6))
        if all(p[p[i]] == i for i in range(6))
    )
    assert len(list_involutions(6)) == brute


def test_involution_fields():
    sigma = Involution(5, ((1, 4), (2, 5)))
    assert sigma.moved() == (1, 2, 4, 5)
    assert sigma.fixed() == (3,)
    assert not sigma.is_identity
    assert Involution(3, ()).is_identity


def test_involution_validation():
    with pytest.raises(ValueError):
        Involution(4, ((1, 1),))
    with pytest.raises(ValueError):
        Involution(4, ((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        Involution(2, ((1, 5),))


def test_n_cap():
    with pytest.raises(NTooLarge):
        list_involutions(13)
    with pytest.raises(NTooLarge):
        list_involutions(0)


# ---------------------------------------------------------------------------
# fixed-point counting
# ---------------------------------------------------------------------------


def test_count_with_fixed_n6():
    assert count_with_fixed(6, 0) == 15
    assert count_with_fixed(6, 2) == 45
    assert count_with_fixed(6, 4) == 15
    assert count_with_fixed(6, 6) == 1
    with pytest.raises(ParityMismatch):
        count_with_fixed(6, 1)


def test_count_with_fixed_enumerates_once_per_n(monkeypatch):
    involutions._pair_tally.cache_clear()
    seen = []
    enumerate_n = involutions._pairings
    monkeypatch.setattr(
        involutions, "_pairings", lambda n: seen.append(n) or enumerate_n(n)
    )
    counts = [count_with_fixed(10, r) for r in range(0, 11, 2)]
    assert counts == [closed_form_fixed_count((10 - r) // 2, r) for r in range(0, 11, 2)]
    assert seen == [10]


def test_pair_tally_builds_no_involution(monkeypatch):
    built = []

    class CountingInvolution(Involution):
        def __post_init__(self):
            built.append(self.n)
            super().__post_init__()

    monkeypatch.setattr(involutions, "Involution", CountingInvolution)
    involutions._pair_tally.cache_clear()
    want = tuple(closed_form_fixed_count(p, 12 - 2 * p) for p in range(7))
    assert involutions._pair_tally(12) == want
    assert built == []


def test_pairings_follow_involutions_and_tally_matches():
    for n in range(1, 9):
        listed = involutions._all_involutions(n)
        assert list(involutions._pairings(n)) == [s.pairs for s in listed]
        want = Counter(len(s.pairs) for s in listed)
        assert dict(enumerate(involutions._pair_tally(n))) == want


def test_closed_form_fixed_count_formula():
    # (2p+r choose r) (2p)! / (p! 2^p)
    assert closed_form_fixed_count(2, 2) == math.comb(6, 2) * 24 // (2 * 4)
    for n in range(1, 10):
        for r in range(n % 2, n + 1, 2):
            p = (n - r) // 2
            assert count_with_fixed(n, r) == closed_form_fixed_count(p, r)


def test_counts_sum_to_telephone():
    for n in range(1, 11):
        total = sum(count_with_fixed(n, r) for r in range(n % 2, n + 1, 2))
        assert total == TELEPHONE[n]


# ---------------------------------------------------------------------------
# decompositions into smaller involutions
# ---------------------------------------------------------------------------


def _pairs_involution(p, n=None):
    n = 2 * p if n is None else n
    return Involution(n, tuple((2 * i + 1, 2 * i + 2) for i in range(p)))


def test_decomposition_counts_are_fubini():
    # ordered set partitions of the p pairs: 1, 3, 13 for p = 1, 2, 3
    for p, want in [(1, 1), (2, 3), (3, 13)]:
        sigma = _pairs_involution(p)
        assert len(enumerate_decompositions(sigma)) == want


def test_decompositions_are_valid_products():
    sigma = _pairs_involution(2, n=5)
    decs = enumerate_decompositions(sigma)
    for parts in decs:
        assert decomposition_is_valid(sigma, parts)
        # each factor is a fixed-point-free involution on its support
        for part in parts:
            assert not part.is_identity
        # supports are disjoint and cover sigma's moved letters
        moved = sorted(x for part in parts for x in part.moved())
        assert moved == list(sigma.moved())
    # honest product check: compose mappings left to right
    for parts in decs:
        comp = list(range(1, 6))
        for part in reversed(parts):
            img = part.mapping()
            comp = [img[x - 1] for x in comp]
        assert tuple(comp) == sigma.mapping()


def test_decomposition_validity_rejects_wrong_product():
    sigma = _pairs_involution(2)
    other = Involution(4, ((1, 3),))
    assert not decomposition_is_valid(sigma, (other,))


def test_identity_has_no_decomposition():
    with pytest.raises(ValueError):
        enumerate_decompositions(Involution(3, ()))


# ---------------------------------------------------------------------------
# the sign lemma and the regrouping identities
# ---------------------------------------------------------------------------


def test_sign_lemma_exhaustive_small():
    for n in range(2, 7):
        for sigma in list_involutions(n):
            if not sigma.is_identity:
                assert verify_sign_lemma(sigma)


def test_sign_lemma_hand_value_p2():
    # two pairs: one single-factor decomposition and two ordered two-factor
    # ones, so the signed sum is (-1)^1 + 2 (-1)^2 = 1 = (-1)^p
    sigma = _pairs_involution(2)
    signed = sum((-1) ** len(parts) for parts in enumerate_decompositions(sigma))
    assert signed == (-1) ** 2
    assert verify_sign_lemma(sigma)


def test_multinomial_identity_grid():
    for p in range(0, 7):
        for r in range(0, 7):
            if p == r == 0:
                continue
            assert verify_multinomial_identity(p, r)


def test_multinomial_identity_is_nontrivial():
    # the shared value both sides reduce to
    p, r = 2, 1
    assert verify_multinomial_identity(p, r)
    want = Fraction(1, math.factorial(r) * math.factorial(p) * 2 ** p)
    assert want == Fraction(1, 8)


def test_exponential_regroup_small():
    rep = exponential_regroup_check(3, 3)
    assert rep["equal"] is True
    assert rep["terms_checked"] >= 16
    assert rep["enumerated_through"] == 12


def test_exponential_regroup_beyond_enumeration():
    # degrees with 2p + r > 12 lean on the closed form, cross-checked on
    # the enumerable overlap
    rep = exponential_regroup_check(8, 4)
    assert rep["equal"] is True


def test_exponential_regroup_bound():
    with pytest.raises(BoundTooLarge):
        exponential_regroup_check(25, 0)
