"""Exact combinatorics of involutions in the symmetric group.

An involution of {1..n} is its sorted tuple of 2-cycles (i, j) with i < j;
every other letter is fixed, and the empty tuple is the identity.
Everything here is integer arithmetic: enumeration of those pair tuples,
counts by number of fixed points (each involution of {1..12} counted once,
as its lowest moved letter, that letter's partner and an involution of the
letters left above them), ordered decompositions into disjoint
fixed-point-free factors, the alternating-sign sum over those
decompositions, and the regrouping identity that packages the counts into an
exponential, its rational equalities compared as integer cross-products.
No floats enter this module.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations
from typing import Callable, List, Sequence, Tuple

from .errors import BoundTooLarge, NTooLarge, ParityMismatch

N_CAP = 12


def _sorted_pairs(pairs: Sequence) -> tuple:
    """pairs as a sorted tuple, checked to be the 2-cycles of an involution:
    int letters, 1 <= i < j in every pair (i, j), and no letter in two pairs."""
    out = tuple((i, j) for i, j in pairs)
    for x in (x for pair in out for x in pair):
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"letter {x!r} is not an int")
    out = tuple(sorted(out))
    seen = set()
    for i, j in out:
        if not 1 <= i < j:
            raise ValueError(f"pair ({i},{j}) must satisfy 1 <= i < j")
        if i in seen or j in seen:
            raise ValueError("pairs are not disjoint")
        seen.update((i, j))
    return out


def _check_n(n) -> None:
    if isinstance(n, bool) or not isinstance(n, int):
        raise NTooLarge(f"n must be an int, got {n!r}")
    if not (1 <= n <= N_CAP):
        raise NTooLarge(f"need 1 <= n <= {N_CAP}, got {n}")


def _walk(n: int, leaf: Callable[[List[Tuple[int, int]]], None]) -> None:
    """Call leaf once at every involution of {1..n}, identity first.

    leaf receives one reused list holding the involution's 2-cycles (i, j),
    i < j, sorted; it must copy what it keeps.  Bit k-1 of the mask is set
    while letter k is unplaced.  The lowest unplaced letter is fixed first,
    then paired with each higher unplaced letter in turn, each pair pushed
    before the recursive call and popped after it.  A last unplaced letter
    can only be fixed, so it reaches the leaf without a further call.
    """
    _check_n(n)
    stack: List[Tuple[int, int]] = []
    push, pop = stack.append, stack.pop

    def rec(unplaced: int) -> None:
        low = unplaced & -unplaced
        first = low.bit_length()
        rest = unplaced ^ low
        if not rest:
            leaf(stack)  # fix first, the last unplaced letter
            return
        rec(rest)  # fix first
        others = rest
        while others:
            bit = others & -others
            others ^= bit
            push((first, bit.bit_length()))
            if rest ^ bit:
                rec(rest ^ bit)
            else:
                leaf(stack)
            pop()

    try:
        rec((1 << n) - 1)
    finally:
        rec = None  # rec refers to itself: break the cycle so leaf is freed now


# typed: 6.0 or True must reach _walk's type check, not the entry cached
# for 6 or 1
@lru_cache(maxsize=None, typed=True)
def _all_involutions(n: int) -> tuple:
    out: List[tuple] = []
    _walk(n, lambda stack: out.append(tuple(stack)))
    return tuple(out)


def list_involutions(n: int) -> List[tuple]:
    """The pair tuples of all involutions of {1..n}, identity first,
    duplicate-free."""
    return list(_all_involutions(n))


@lru_cache(maxsize=None)
def _lowest_letter_tally() -> tuple:
    """rows[k][p] = number of involutions of {1..N_CAP} with p pairs whose
    lowest moved letter is k (N_CAP + 1 for the identity), building no pair
    tuple.  Such an involution is k's partner j > k and an involution tau of
    the N_CAP - k - 1 other letters above k, with len(tau) + 1 pairs: row k
    is one walk over those letters, each leaf counted once per partner."""
    rows = [[0] * (N_CAP // 2 + 1) for _ in range(N_CAP + 2)]
    rows[N_CAP + 1][0] += 1  # the identity
    rows[N_CAP - 1][1] += 1  # (N_CAP - 1, N_CAP), no letter left for tau

    def leaf(stack: list) -> None:
        p = len(stack) + 1
        for _ in partners:  # one increment per involution
            row[p] += 1

    for k in range(1, N_CAP - 1):
        row, partners = rows[k], range(k + 1, N_CAP + 1)
        _walk(N_CAP - k - 1, leaf)
    return tuple(map(tuple, rows))


def _pair_tally(n: int) -> tuple:
    """counts[p] = number of involutions of {1..n} with p pairs.

    Shifting letters up by N_CAP - n maps them one to one onto the
    involutions of {1..N_CAP} that fix 1..N_CAP - n, which are those whose
    lowest moved letter is above N_CAP - n: their rows of the one tally.
    """
    _check_n(n)
    rows = _lowest_letter_tally()[N_CAP - n + 1 :]
    return tuple(sum(row[p] for row in rows) for p in range(n // 2 + 1))


def count_with_fixed(n: int, r: int) -> int:
    """Number of involutions of {1..n} with exactly r fixed points, counted
    by enumeration."""
    if isinstance(r, bool) or not isinstance(r, int):
        raise ParityMismatch(f"the number of fixed points must be an int, got {r!r}")
    tally = _pair_tally(n)
    if (n - r) % 2 != 0 or not (0 <= r <= n):
        raise ParityMismatch(f"no involutions of {n} elements fix exactly {r}")
    return tally[(n - r) // 2]


def closed_form_fixed_count(p: int, r: int) -> int:
    """C(2p+r, r) * (2p)!/(p! 2^p): choose the fixed set, then pair the rest."""
    return math.comb(2 * p + r, r) * math.factorial(2 * p) // (
        math.factorial(p) * 2**p
    )


def _unordered_partitions(items: Sequence):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _unordered_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1 :]
        yield part + [[first]]


def _ordered_set_partitions(items: Sequence):
    """All ordered sequences of disjoint nonempty blocks covering items.

    Blocks of a partition are pairwise distinct, so ordering them is a plain
    permutation with no duplicate sequences.  Each block keeps the order of
    items.
    """
    for part in _unordered_partitions(items):
        yield from permutations([tuple(b) for b in part])


def enumerate_decompositions(pairs: Sequence) -> List[Tuple[tuple, ...]]:
    """All ordered sequences of disjoint non-identity involutions whose
    product is the involution with these pairs; equivalently the ordered
    set partitions of its pairs, each block a sorted pair tuple."""
    pairs = _sorted_pairs(pairs)
    if not pairs:
        raise ValueError("the identity has no nonempty decompositions")
    if 2 * len(pairs) > N_CAP:
        raise NTooLarge(f"moved set larger than {N_CAP}")
    return list(_ordered_set_partitions(pairs))


def _images(pairs: Sequence) -> dict:
    """letter -> image for every letter the involution with these pairs moves."""
    return {x: y for i, j in pairs for x, y in ((i, j), (j, i))}


def decomposition_is_valid(pairs: Sequence, parts: Sequence) -> bool:
    """Disjointness plus an honest permutation-composition product check:
    the parts, applied last to first, must send every letter that sigma or a
    part moves where sigma does."""
    sigma = _images(_sorted_pairs(pairs))
    letters = [x for part in parts for pair in part for x in pair]
    if len(set(letters)) != len(letters) or not all(parts):
        return False
    factors = [_images(part) for part in reversed(parts)]
    for x in sigma.keys() | set(letters):
        y = x
        for m in factors:
            y = m.get(y, y)
        if y != sigma.get(x, x):
            return False
    return True


def verify_sign_lemma(pairs: Sequence) -> bool:
    """sum over ordered decompositions of (-1)^(number of parts) = (-1)^p,
    where the involution has p pairs.

    The operator products attached to a decomposition coincide for every
    decomposition of the same involution (disjoint factors multiply to the same
    total), so the operator identity reduces to this signed count.  The
    decompositions are the ordered set partitions of the pairs, so the count
    depends on p alone.
    """
    total = sum((-1) ** len(parts) for parts in enumerate_decompositions(pairs))
    return total == (-1) ** len(pairs)


def verify_multinomial_identity(p: int, r: int) -> bool:
    """Exact rational identity behind the regrouping step:

    (1/(r+2p)!) C(r+2p, r) (2p)!/(p! 2^p)  ==  (1/(r+p)!) C(r+p, r) / 2^p,

    both sides being 1/(r! p! 2^p).  Each side is a ratio of positive
    integers, and the ratios are compared as integer cross-products.
    """
    if any(isinstance(x, bool) or not isinstance(x, int) for x in (p, r)):
        raise ValueError(f"p and r must be ints, got {p!r} and {r!r}")
    if min(p, r) < 0:
        raise ValueError("p and r must be nonnegative")
    lhs_num = math.comb(r + 2 * p, r) * math.factorial(2 * p)
    lhs_den = math.factorial(r + 2 * p) * math.factorial(p) * 2**p
    rhs_num = math.comb(r + p, r)
    rhs_den = math.factorial(r + p) * 2**p
    common_den = math.factorial(r) * math.factorial(p) * 2**p
    return lhs_num * rhs_den == rhs_num * lhs_den and rhs_num * common_den == rhs_den


def exponential_regroup_check(p_max: int, r_max: int) -> dict:
    """Check the regrouping of the involution sum into an exponential.

    In commuting formal variables c and X, compare

        sum_n (1/n!) sum_{sigma in I(n)} c^(pairs) X^(fixed)
            ==  exp(c/2 + X),

    exactly on every monomial c^p X^r with p <= p_max and r <= r_max, as
    the integer cross-product count * p! 2^p r! == n!.  The coefficient
    count/n! on the left receives contributions only from n = 2p + r, and
    count is the pairing count C(n,r)(2p)!/(p! 2^p), which cli's
    `fixed-point-counts` check compares with count_with_fixed for n <= 12.
    No `verify` suite runs this: count/n! == 1/(r! p! 2^p) is the statement
    that verify_multinomial_identity(p, r) compares, and cli's
    `multinomial-identity` check runs it for every p, r <= 30.
    """
    if any(isinstance(b, bool) or not isinstance(b, int) for b in (p_max, r_max)):
        raise BoundTooLarge(f"regroup bounds must be ints, got {p_max!r} and {r_max!r}")
    if not (0 <= p_max <= 20 and 0 <= r_max <= 20):
        raise BoundTooLarge("regroup bounds must lie in [0, 20]")
    for p in range(p_max + 1):
        for r in range(r_max + 1):
            count = closed_form_fixed_count(p, r)
            if count * math.factorial(p) * 2**p * math.factorial(r) != math.factorial(2 * p + r):
                return {"equal": False, "first_mismatch": {"p": p, "r": r}}
    checked = (p_max + 1) * (r_max + 1)
    return {"equal": True, "p_max": p_max, "r_max": r_max, "terms_checked": checked}
