import fractions
import gc
import math
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest

from thetatrace import involutions
from thetatrace.errors import BoundTooLarge, NTooLarge, ParityMismatch
from thetatrace.involutions import (
    closed_form_fixed_count,
    count_with_fixed,
    decomposition_is_valid,
    enumerate_decompositions,
    exponential_regroup_check,
    list_involutions,
    verify_multinomial_identity,
    verify_sign_lemma,
)

# T(0)..T(12)
TELEPHONE = [1, 1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496, 35696, 140152]


def _images(pairs, n):
    """(sigma(1), ..., sigma(n)) for the involution with these pairs."""
    img = list(range(1, n + 1))
    for i, j in pairs:
        img[i - 1], img[j - 1] = j, i
    return tuple(img)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _tuple_recursion(n):
    """A reference copy of the nested-generator enumeration the walk
    replaced: fix the lowest free letter, else pair it with each other
    free letter in turn."""

    def rec(avail, pairs):
        if not avail:
            yield pairs
            return
        first, rest = avail[0], avail[1:]
        yield from rec(rest, pairs)
        for k, other in enumerate(rest):
            yield from rec(rest[:k] + rest[k + 1 :], pairs + ((first, other),))

    return list(rec(tuple(range(1, n + 1)), ()))


def test_involution_counts_match_telephone_numbers():
    # the tally walks every involution; its total is T(n) through N_CAP
    assert involutions.N_CAP == len(TELEPHONE) - 1
    for n in range(1, involutions.N_CAP + 1):
        assert sum(involutions._pair_tally(n)) == TELEPHONE[n]


def test_counts_sum_to_telephone():
    for n in range(1, involutions.N_CAP + 1):
        total = sum(count_with_fixed(n, r) for r in range(n % 2, n + 1, 2))
        assert total == TELEPHONE[n]


def test_closed_form_rows_sum_to_the_telephone_recurrence():
    # t(n) = t(n-1) + (n-1) t(n-2): n is fixed, or paired with one of the
    # n-1 others.  fixed-point-counts compares the closed form with the
    # enumerated counts, so this carries the recurrence to them, n <= 12.
    t = [1, 1]
    for n in range(2, 31):
        t.append(t[-1] + (n - 1) * t[-2])
    assert t[: len(TELEPHONE)] == TELEPHONE
    for n in range(31):
        total = sum(closed_form_fixed_count((n - r) // 2, r) for r in range(n % 2, n + 1, 2))
        assert total == t[n], n


def test_involution_order_matches_tuple_recursion():
    for n in range(1, 10):
        assert list_involutions(n) == _tuple_recursion(n)


def test_twelve_letter_walk_restricts_to_each_smaller_n():
    # the involutions of {1..12} that fix 1..12-n are those of {1..n} with
    # every letter shifted up by 12-n, met in the same order
    cap = involutions.N_CAP
    kept = []
    involutions._walk(
        cap, lambda stack: (not stack or stack[0][0] > cap - 9) and kept.append(tuple(stack))
    )
    for n in range(1, 10):
        shift = cap - n
        got = [
            tuple((i - shift, j - shift) for i, j in sigma)
            for sigma in kept
            if not sigma or sigma[0][0] > shift
        ]
        assert got == list_involutions(n)


def test_walk_leaves_no_reference_cycle():
    # the walk's closures and its leaf are freed when it returns, not at a
    # later cyclic collection
    gc.collect()
    gc.disable()
    try:
        involutions._walk(6, lambda stack: None)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_involutions_square_to_identity():
    for sigma in list_involutions(5):
        img = _images(sigma, 5)
        for i in range(1, 6):
            assert img[img[i - 1] - 1] == i


def test_involutions_are_distinct_and_complete():
    # against a brute-force scan of all permutations sigma of {1..n}: every
    # one with sigma o sigma = id is listed exactly once, identity first
    for n in range(1, 9):
        listed = list_involutions(n)
        assert listed[0] == ()
        images = [_images(sigma, n) for sigma in listed]
        assert len(set(images)) == len(images)
        oracle = {
            tuple(x + 1 for x in p)
            for p in permutations(range(n))
            if all(p[p[i]] == i for i in range(n))
        }
        assert set(images) == oracle


def test_listed_involutions_are_canonical():
    for n in range(1, 9):
        for sigma in list_involutions(n):
            assert list(sigma) == sorted(sigma)
            letters = [x for pair in sigma for x in pair]
            assert all(i < j for i, j in sigma)
            assert len(set(letters)) == len(letters)
            assert set(letters) <= set(range(1, n + 1))
    assert list_involutions(3)[0] == ()


def test_smaller_involution_lists_lie_in_the_list_of_eight():
    # so the sign-lemma and decomposition checks walk one list, of {1..8}
    # and of {1..6}, and still check every involution of every smaller n
    for n in range(1, 8):
        assert set(list_involutions(n)) <= set(list_involutions(n + 1))


def test_involution_validation():
    for bad in (((1, 1),), ((1, 2), (2, 3))):
        with pytest.raises(ValueError):
            enumerate_decompositions(bad)
        with pytest.raises(ValueError):
            verify_sign_lemma(bad)
        with pytest.raises(ValueError):
            decomposition_is_valid(bad, (bad,))


@pytest.mark.parametrize(
    "bad", [((1.5, 2), (True, 3.0)), ((1, 2.0),), ((True, 2),), ((1, "2"),), ((Fraction(1), 2),)]
)
def test_involution_validation_refuses_non_int_letters(bad):
    # ((1.5, 2), (True, 3.0)) had three decompositions
    with pytest.raises(ValueError, match="int"):
        enumerate_decompositions(bad)
    with pytest.raises(ValueError, match="int"):
        verify_sign_lemma(bad)
    with pytest.raises(ValueError, match="int"):
        decomposition_is_valid(bad, (bad,))


def test_n_cap():
    with pytest.raises(NTooLarge):
        list_involutions(13)
    with pytest.raises(NTooLarge):
        list_involutions(0)
    for n in (0, 13, -1):
        with pytest.raises(NTooLarge):
            count_with_fixed(n, n % 2)


@pytest.mark.parametrize("n", [2.5, 3.0, "3", True, False, None])
def test_non_int_n_is_refused(n):
    # 3.0 and True compare equal to cached ints: the caches are typed
    list_involutions(3)
    list_involutions(1)
    count_with_fixed(3, 1)
    with pytest.raises(NTooLarge):
        list_involutions(n)
    with pytest.raises(NTooLarge):
        count_with_fixed(n, 1)


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


@pytest.mark.parametrize("r", [2.0, 2.5, "2", True, None])
def test_non_int_r_is_refused(r):
    with pytest.raises(ParityMismatch):
        count_with_fixed(6, r)


def test_count_with_fixed_enumerates_once_per_n(monkeypatch):
    # every count of every n <= 12 is read off one walk over each of
    # 1..N_CAP - 2 letters, the involutions above the lowest moved letter
    # and its partner; no walk covers all N_CAP letters
    involutions._lowest_letter_tally.cache_clear()
    seen = []
    walk = involutions._walk
    monkeypatch.setattr(
        involutions, "_walk", lambda n, leaf: seen.append(n) or walk(n, leaf)
    )
    for n in range(1, involutions.N_CAP + 1):
        counts = [count_with_fixed(n, r) for r in range(n % 2, n + 1, 2)]
        assert counts == [closed_form_fixed_count((n - r) // 2, r) for r in range(n % 2, n + 1, 2)]
    assert sorted(seen) == list(range(1, involutions.N_CAP - 1))


def _single_walk_tally():
    """The tally as one walk over all N_CAP letters, each involution filed
    under its lowest moved letter: the oracle for _lowest_letter_tally."""
    cap = involutions.N_CAP
    rows = [[0] * (cap // 2 + 1) for _ in range(cap + 2)]

    def leaf(stack):
        rows[stack[0][0] if stack else cap + 1][len(stack)] += 1

    involutions._walk(cap, leaf)
    return tuple(map(tuple, rows))


def test_lowest_letter_tally_matches_single_walk():
    involutions._lowest_letter_tally.cache_clear()
    got = involutions._lowest_letter_tally()
    want = _single_walk_tally()
    assert len(got) == len(want) == involutions.N_CAP + 2
    for k, (got_row, want_row) in enumerate(zip(got, want)):
        assert got_row == want_row, k
    assert sum(map(sum, got)) == TELEPHONE[involutions.N_CAP]


@pytest.mark.parametrize("n", range(1, 9))
def test_lowest_letter_bijection(n):
    # (k, j, tau) -> pairs: k's partner j > k, tau an involution of the
    # letters above k other than j, relabelled in order
    built = [()]
    for k in range(1, n):
        for j in range(k + 1, n + 1):
            rest = [x for x in range(k + 1, n + 1) if x != j]
            for tau in involutions._all_involutions(len(rest)) if rest else [()]:
                relabelled = [(rest[a - 1], rest[b - 1]) for a, b in tau]
                built.append(tuple(sorted([(k, j)] + relabelled)))
    assert len(built) == len(set(built)) == TELEPHONE[n]
    assert set(built) == set(list_involutions(n))


def test_lowest_letter_tally_memory_is_bounded():
    # the tally holds no involution list: a cold run stays under 16 KB
    involutions._lowest_letter_tally.cache_clear()
    tracemalloc.start()
    try:
        involutions._lowest_letter_tally()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024


def test_tally_matches_listed_involutions():
    for n in range(1, 9):
        want = Counter(len(s) for s in list_involutions(n))
        assert dict(enumerate(involutions._pair_tally(n))) == want


def test_closed_form_fixed_count_formula():
    # (2p+r choose r) (2p)! / (p! 2^p)
    assert closed_form_fixed_count(2, 2) == math.comb(6, 2) * 24 // (2 * 4)
    for n in range(1, 10):
        for r in range(n % 2, n + 1, 2):
            p = (n - r) // 2
            assert count_with_fixed(n, r) == closed_form_fixed_count(p, r)


# ---------------------------------------------------------------------------
# decompositions into smaller involutions
# ---------------------------------------------------------------------------


def _pairs_involution(p):
    return tuple((2 * i + 1, 2 * i + 2) for i in range(p))


def test_decomposition_counts_are_fubini():
    # ordered set partitions of the p pairs: 1, 3, 13 for p = 1, 2, 3
    for p, want in [(1, 1), (2, 3), (3, 13)]:
        sigma = _pairs_involution(p)
        assert len(enumerate_decompositions(sigma)) == want


def test_decompositions_are_valid_products():
    sigma = _pairs_involution(2)
    decs = enumerate_decompositions(sigma)
    for parts in decs:
        assert decomposition_is_valid(sigma, parts)
        # each factor is a fixed-point-free involution on its support
        for part in parts:
            assert part
        # supports are disjoint and cover sigma's moved letters
        moved = sorted(x for part in parts for pair in part for x in pair)
        assert moved == sorted(x for pair in sigma for x in pair)
    # honest product check: compose mappings left to right
    for parts in decs:
        comp = list(range(1, 6))
        for part in reversed(parts):
            img = _images(part, 5)
            comp = [img[x - 1] for x in comp]
        assert tuple(comp) == _images(sigma, 5)


def test_decomposition_validity_rejects_wrong_product():
    sigma = _pairs_involution(2)
    other = ((1, 3),)
    assert not decomposition_is_valid(sigma, (other,))


def _labelled_decompositions(sigma):
    """Every surjective labelling of sigma's pairs by block index 1..k, for
    every k, read off as the blocks in label order."""
    out = set()
    for k in range(1, len(sigma) + 1):
        for labels in product(range(1, k + 1), repeat=len(sigma)):
            if set(labels) == set(range(1, k + 1)):
                out.add(tuple(
                    tuple(pair for pair, lab in zip(sigma, labels) if lab == b)
                    for b in range(1, k + 1)
                ))
    return out


def test_decompositions_match_labelling_oracle():
    checked = 0
    for n in range(2, 7):
        for sigma in list_involutions(n):
            if not sigma:
                continue
            decs = enumerate_decompositions(sigma)
            assert len(decs) == len(set(decs))
            assert set(decs) == _labelled_decompositions(sigma)
            for parts in decs:
                assert decomposition_is_valid(sigma, parts)
            checked += len(decs)
    assert checked > 0


def test_decomposition_validity_rejects_bad_parts():
    sigma = ((1, 4), (2, 5))  # fixes 3 and 6
    # a part that also moves a letter sigma fixes
    assert not decomposition_is_valid(sigma, (((1, 4), (3, 6)), ((2, 5),)))
    assert not decomposition_is_valid(sigma, (((1, 4), (2, 5), (3, 6)),))
    # two overlapping parts
    assert not decomposition_is_valid(sigma, (((1, 4),), ((1, 4),), ((2, 5),)))
    # (1 2)(3 4) after (1 3)(2 4) is (1 4)(2 3): the right product, from
    # overlapping parts
    assert not decomposition_is_valid(
        ((1, 4), (2, 3)), (((1, 2), (3, 4)), ((1, 3), (2, 4)))
    )
    # an empty part
    assert not decomposition_is_valid(sigma, (((1, 4),), (), ((2, 5),)))
    # a missing pair
    assert not decomposition_is_valid(sigma, (((1, 4),),))
    assert not decomposition_is_valid(sigma, ())
    assert decomposition_is_valid(sigma, (((2, 5),), ((1, 4),)))


def test_identity_has_no_decomposition():
    with pytest.raises(ValueError):
        enumerate_decompositions(())


# ---------------------------------------------------------------------------
# the sign lemma and the regrouping identities
# ---------------------------------------------------------------------------


def test_sign_lemma_exhaustive_small():
    for n in range(2, 7):
        for sigma in list_involutions(n):
            if sigma:
                assert verify_sign_lemma(sigma)


def test_sign_lemma_hand_value_p2():
    # two pairs: one single-factor decomposition and two ordered two-factor
    # ones, so the signed sum is (-1)^1 + 2 (-1)^2 = 1 = (-1)^p
    sigma = _pairs_involution(2)
    signed = sum((-1) ** len(parts) for parts in enumerate_decompositions(sigma))
    assert signed == (-1) ** 2
    assert verify_sign_lemma(sigma)


def _fraction_multinomial(p, r):
    """The identity in Fraction arithmetic: the oracle for the integer
    cross-products."""
    lhs = (
        Fraction(1, math.factorial(r + 2 * p))
        * math.comb(r + 2 * p, r)
        * Fraction(math.factorial(2 * p), math.factorial(p) * 2**p)
    )
    rhs = Fraction(1, math.factorial(r + p)) * math.comb(r + p, r) * Fraction(1, 2**p)
    return lhs == rhs == Fraction(1, math.factorial(r) * math.factorial(p) * 2**p)


def test_multinomial_identity_grid():
    for p in range(31):
        for r in range(31):
            assert verify_multinomial_identity(p, r) is _fraction_multinomial(p, r) is True


def test_multinomial_identity_is_nontrivial():
    # the shared value both sides reduce to
    p, r = 2, 1
    assert verify_multinomial_identity(p, r)
    want = Fraction(1, math.factorial(r) * math.factorial(p) * 2 ** p)
    assert want == Fraction(1, 8)


def test_integer_identities_build_no_fraction():
    built = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            built.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        verify_multinomial_identity(7, 5)
        exponential_regroup_check(12, 12)
    finally:
        sys.setprofile(None)
    assert built == []


def _fraction_regroup(p, r):
    lhs = Fraction(closed_form_fixed_count(p, r), math.factorial(2 * p + r))
    rhs = Fraction(1, math.factorial(p) * 2**p) * Fraction(1, math.factorial(r))
    return lhs == rhs


def test_exponential_regroup_matches_fraction_oracle():
    for p_max, r_max in ((0, 0), (3, 7), (12, 12), (20, 20)):
        want = all(_fraction_regroup(p, r) for p in range(p_max + 1) for r in range(r_max + 1))
        assert exponential_regroup_check(p_max, r_max)["equal"] is want is True


def test_exponential_regroup_small():
    rep = exponential_regroup_check(3, 3)
    assert rep == {"equal": True, "p_max": 3, "r_max": 3, "terms_checked": 16}


def test_exponential_regroup_enumerates_nothing(monkeypatch):
    # the closed form's agreement with enumeration is fixed-point-counts' check
    def refuse(n, r):
        raise AssertionError("count_with_fixed called")

    monkeypatch.setattr(involutions, "count_with_fixed", refuse)
    assert exponential_regroup_check(12, 12)["equal"] is True


def test_exponential_regroup_beyond_enumeration():
    # every degree uses the closed form, also 2p + r > 12, which no
    # enumeration reaches
    rep = exponential_regroup_check(8, 4)
    assert rep["equal"] is True


def test_exponential_regroup_bound():
    with pytest.raises(BoundTooLarge):
        exponential_regroup_check(25, 0)


@pytest.mark.parametrize("bounds", [(2.5, 3), (3, 2.5), (True, 3), (3, False), ("3", 3), (None, 3)])
def test_exponential_regroup_refuses_non_int_bound(bounds):
    with pytest.raises(BoundTooLarge):
        exponential_regroup_check(*bounds)


@pytest.mark.parametrize("args", [(1.5, 2), (2, 1.5), (2.0, 1), (True, 1), ("2", 1)])
def test_multinomial_identity_refuses_non_int(args):
    with pytest.raises(ValueError):
        verify_multinomial_identity(*args)
