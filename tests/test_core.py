"""Exact rational primitives: parsing, dyadic helpers, prime table."""
from __future__ import annotations

import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcolour import core, oracles
from qcolour.core import (
    MAX_DIGITS,
    PRIME_CAP,
    Ordering,
    PrimeTable,
    a_exponent,
    base_index_and_exponent,
    cmp_c5_boundary,
    cmp_pow2_half,
    default_table,
    divide_out_primes,
    in_C3,
    in_C4,
    is_power_of_two,
    iter_primes,
    log2_floor,
    make_rational,
    minimal_base_index,
    nth_prime,
    parse_rational,
    primorial,
)
from qcolour.errors import DomainError, InternalInvariantError, TableExhaustedError, UnsupportedPrimeError

def _pow2(e: int) -> Fraction:
    return Fraction(2) ** e


positive_rationals = st.fractions(min_value=Fraction(1, 10**6), max_value=10**6)


class TestParsing:
    @pytest.mark.parametrize(
        "text, num, den",
        [("3", 3, 1), ("11/4", 11, 4), ("6/4", 3, 2), ("0014/7", 2, 1)],
    )
    def test_parse(self, text, num, den):
        x = parse_rational(text)
        assert (x.numerator, x.denominator) == (num, den)

    @pytest.mark.parametrize("text", ["0", "0/1", "-3", "3/0", "a", "1/2/3", ""])
    def test_parse_rejects(self, text):
        with pytest.raises(DomainError):
            parse_rational(text)

    def test_make_rational_positive_only(self):
        assert make_rational(6, 4) == Fraction(3, 2)
        for num, den in [(0, 1), (-1, 2), (1, 0), (1, -2)]:
            with pytest.raises(DomainError):
                make_rational(num, den)

    @given(st.integers(1, 10**9), st.integers(1, 10**9))
    @settings(deadline=None)
    def test_make_parse_round_trip(self, num, den):
        x = make_rational(num, den)
        assert parse_rational(str(x)) == x


class TestDyadicHelpers:
    @pytest.mark.parametrize(
        "x, a",
        [
            (Fraction(1), 0),
            (Fraction(8), 3),
            (Fraction(11, 4), 1),
            (Fraction(5, 6), -1),
            (Fraction(1, 3), -2),
        ],
    )
    def test_a_exponent_values(self, x, a):
        assert a_exponent(x) == a

    @given(positive_rationals)
    @settings(deadline=None)
    def test_a_exponent_brackets(self, x):
        a = a_exponent(x)
        assert _pow2(a) <= x < _pow2(a + 1)

    def test_log2_floor_on_unreduced_pairs(self):
        rng = random.Random("core:log2_floor")
        for _ in range(3000):
            n, d = rng.randint(1, 2 ** rng.randint(1, 90)), rng.randint(1, 2 ** rng.randint(1, 90))
            m = rng.choice([1, 2, 6, 2**40, 3**30])
            k = log2_floor(m * n, m * d)
            assert 2**k * d <= n < 2 ** (k + 1) * d if k >= 0 else d <= n * 2**-k < 2 * d

    def test_is_power_of_two(self):
        assert is_power_of_two(Fraction(16))
        assert is_power_of_two(Fraction(1, 8))
        assert not is_power_of_two(Fraction(6))
        assert not is_power_of_two(Fraction(3, 2))

    def test_membership_sets(self):
        # two binary digits vs a contiguous run of ones
        assert [m for m in range(1, 21) if in_C3(Fraction(m))] == [3, 5, 6, 9, 10, 12, 17, 18, 20]
        assert [m for m in range(1, 21) if in_C4(Fraction(m))] == [1, 2, 3, 4, 6, 7, 8, 12, 14, 15, 16]
        assert in_C3(Fraction(5, 4)) and in_C4(Fraction(3, 4))
        assert not in_C3(Fraction(5, 6)) and not in_C4(Fraction(5, 6))

    def test_cmp_pow2_half(self):
        assert cmp_pow2_half(Fraction(3, 2), 0) is Ordering.ABOVE
        assert cmp_pow2_half(Fraction(7, 5), 0) is Ordering.BELOW
        assert cmp_pow2_half(Fraction(181, 128), 0) is Ordering.BELOW
        assert cmp_pow2_half(Fraction(3), 1) is Ordering.ABOVE

    @given(positive_rationals, st.integers(-10, 10))
    @settings(deadline=None)
    def test_cmp_pow2_half_matches_square(self, x, k):
        expected = (x * x).__gt__(_pow2(2 * k + 1))
        got = cmp_pow2_half(x, k)
        if x * x == _pow2(2 * k + 1):  # unreachable for rationals: 2^(2k+1) is no square
            pytest.fail("rational hit an irrational boundary")
        assert (got is Ordering.ABOVE) == expected

    def test_cmp_c5_boundary(self):
        assert cmp_c5_boundary(Fraction(7, 2), 2, 0) is Ordering.BELOW
        with pytest.raises(DomainError):
            cmp_c5_boundary(Fraction(7, 2), 2, 2)

    def test_surd_comparisons_match_exact_squares(self):
        # exponents near x's own, up to 3,000 away, and c around -L, where L =
        # d.bit_length() + max(0, -a - 1) is the bound below which c settles x unshifted
        rng = random.Random("core:surd-grid")
        xs = [Fraction(rng.randint(1, 10 ** rng.randint(1, 40)), rng.randint(1, 10 ** rng.randint(1, 40)))
              for _ in range(400)]
        xs += [_pow2(e) for e in range(-20, 21)] + [Fraction(3, 2), Fraction(7, 4), Fraction(255, 128)]
        # 2^e - 1/(d·2^k), k = max(0, -e), of denominator d: d ≡ 1 mod 2^k makes the gap to
        # 2^e the least it can be, 2^(-L), where the bound on c is tight
        for e in range(-20, 21):
            k = max(0, -e)
            xs.append(_pow2(e) - Fraction(1, ((rng.randint(2, 10**20) << k) + 1) << k))
        steps = (0, 1, 2, 3, 5, 17, 64, 300, 3000)
        for x in xs:
            own = log2_floor(x.numerator, x.denominator)
            square = x * x
            for k in {own + t for s in steps for t in (s, -s)}:
                below = square < _pow2(2 * k + 1)
                assert (cmp_pow2_half(x, k) is Ordering.BELOW) == below, (x, k)
            for a in {own + t for s in (0, 1, 2, 3000) for t in (s, -s)}:
                floor = -(x.denominator.bit_length() + max(0, -a - 1))
                cs = {a - 1 - s for s in steps} | {floor + t for t in range(-2, 3) if floor + t < a}
                for c in cs:
                    below = square < _pow2(2 * a + 2) * (1 - _pow2(c - a))
                    assert (cmp_c5_boundary(x, a, c) is Ordering.BELOW) == below, (x, a, c)

    def test_surd_comparisons_far_exponents_bounded(self):
        # a shift by 2^61 bits cannot be allocated, so a call that took one fails at once
        e = 2**61
        for x in (Fraction(1, 3), Fraction(7, 5), Fraction(2**100 + 1, 3)):
            own = log2_floor(x.numerator, x.denominator)
            calls = [
                (cmp_pow2_half, (x, e), Ordering.BELOW),
                (cmp_pow2_half, (x, -e), Ordering.ABOVE),
                (cmp_c5_boundary, (x, e, -e), Ordering.BELOW),
                (cmp_c5_boundary, (x, -e, -e - 1), Ordering.ABOVE),
                (cmp_c5_boundary, (x, own, -e), Ordering.BELOW),
            ]
            tracemalloc.start()
            try:
                for call, args, want in calls:
                    tracemalloc.reset_peak()
                    t0 = time.perf_counter()
                    assert call(*args) is want, args
                    assert time.perf_counter() - t0 < 0.01, args
                    assert tracemalloc.get_traced_memory()[1] < 2**20, args
            finally:
                tracemalloc.stop()


class TestPrimeTable:
    def test_first_primes(self):
        assert [nth_prime(i) for i in range(1, 7)] == [2, 3, 5, 7, 11, 13]
        assert nth_prime(64) == 311

    def test_primorials(self):
        assert [primorial(n) for n in range(1, 5)] == [2, 6, 30, 210]
        with pytest.raises(DomainError):
            primorial(0)

    def test_exhaustion(self):
        # the list holds the first PRIME_CAP primes and no more
        assert nth_prime(PRIME_CAP) == 180_503
        with pytest.raises(TableExhaustedError, match=f"cap of {PRIME_CAP} primes"):
            nth_prime(PRIME_CAP + 1)
        with pytest.raises(TableExhaustedError):
            primorial(PRIME_CAP + 1)

    def test_list_against_trial_division(self):
        primes = list(iter_primes())
        assert primes[:2000] == list(itertools.islice(oracles._prime_gen(), 2000))
        assert len(primes) == PRIME_CAP and primes[-1] == 180_503
        assert all(p < q for p, q in itertools.pairwise(primes))
        for p in primes:
            assert all(p % q for q in itertools.takewhile(lambda q: q * q <= p, primes)), p

    def test_perfbench_shims(self):
        table = PrimeTable(64)
        assert table.count == 64 and table.primes == list(iter_primes())[:64]
        assert default_table().count == PRIME_CAP
        with pytest.raises(TableExhaustedError):
            PrimeTable(PRIME_CAP + 1)

    def test_sieve_checks_its_count(self, monkeypatch):
        monkeypatch.setattr(core, "_PRIME_LIMIT", 180_502)
        with pytest.raises(InternalInvariantError, match=f"found {PRIME_CAP - 1} primes"):
            core._primes.__wrapped__()

    @pytest.mark.parametrize(
        "x, n",
        [
            (Fraction(7), 1),
            (Fraction(3, 8), 1),
            (Fraction(14305, 96), 2),
            (Fraction(1, 3), 2),
            (Fraction(1, 10), 3),
            (Fraction(9, 77), 5),
        ],
    )
    def test_minimal_base_index(self, x, n):
        assert minimal_base_index(x) == n

    def test_minimal_base_unsupported_prime(self):
        # 313 is the 65th prime and 180,503 the last one under the cap
        assert minimal_base_index(Fraction(1, 313)) == 65
        assert minimal_base_index(Fraction(1, 180_503)) == PRIME_CAP
        for den in (180_511, 2 * 180_511):  # the first prime past the cap
            with pytest.raises(UnsupportedPrimeError, match=f"first {PRIME_CAP} primes"):
                minimal_base_index(Fraction(1, den))

    @given(
        num=st.integers(1, 500),
        i=st.integers(0, 5),
        j=st.integers(0, 3),
        k=st.integers(0, 2),
    )
    @settings(deadline=None)
    def test_minimal_base_strips_exactly(self, num, i, j, k):
        # denominator built from the first three primes: index is the largest used
        den = 2**i * 3**j * 5**k
        x = make_rational(num * den + num, den)  # keep it reduced-ish but arbitrary
        n = minimal_base_index(x)
        d = x.denominator
        for p in [2, 3, 5, 7, 11][:n]:
            while d % p == 0:
                d //= p
        assert d == 1
        if n > 1:
            assert x.denominator % nth_prime(n) == 0


def _brute_walk(d: int, count: int) -> tuple[int, int, int]:
    """Factor d by trial division by every integer; split off the first ``count`` primes."""
    residue, index, exponent = 1, 0, 0
    q = 2
    while d > 1:
        e = 0
        while d % q == 0:
            d //= q
            e += 1
        if e:
            i = sum(1 for _ in itertools.takewhile(lambda p: p <= q, oracles._prime_gen()))
            if i <= count:
                index, exponent = max(index, i), max(exponent, e)
            else:
                residue *= q**e
        q += 1
    return residue, index, exponent


class TestPrimeWalk:
    def test_matches_scan_and_brute_force(self):
        rng = random.Random(11)
        primes = list(itertools.islice(oracles._prime_gen(), 200))
        for _ in range(300):
            d = math.prod(rng.choice(primes) ** rng.randint(1, 4) for _ in range(rng.randint(0, 4)))
            count = rng.choice([0, 1, 3, 25, 200, PRIME_CAP])
            assert divide_out_primes(d, count) == _brute_walk(d, count), (d, count)
            x = Fraction(rng.randint(1, d), d)
            assert base_index_and_exponent(x)[0] == oracles._minimal_base_scan(x)

    def test_cap_edges(self):
        # 180,503 is the last prime under the cap and 180,511 the first past it
        assert divide_out_primes(180_503) == (1, PRIME_CAP, 1)
        assert divide_out_primes(2**5 * 3 * 180_503**2) == (1, PRIME_CAP, 5)
        assert divide_out_primes(9 * 180_511) == (180_511, 2, 2)
        assert divide_out_primes(180_511**2) == (180_511**2, 0, 0)
        assert divide_out_primes(1) == (1, 0, 0)
        assert divide_out_primes(12, 1) == (3, 1, 2)

    def test_base_index_and_exponent(self):
        assert base_index_and_exponent(Fraction(7)) == (1, 0)
        assert base_index_and_exponent(Fraction(14305, 96)) == (2, 5)
        assert base_index_and_exponent(Fraction(1, 180_503)) == (PRIME_CAP, 1)
        with pytest.raises(UnsupportedPrimeError, match=r"primes \(residue 180511\)$"):
            base_index_and_exponent(Fraction(1, 4 * 180_511))


class TestDigitLimit:
    def test_parse_refuses_long_terms_before_converting(self):
        assert parse_rational("7" * MAX_DIGITS + "/" + "3" * MAX_DIGITS).denominator > 1
        for text in ("7" * (MAX_DIGITS + 1), "1/" + "3" * (MAX_DIGITS + 1)):
            with pytest.raises(DomainError, match=f"more than {MAX_DIGITS} decimal digits"):
                parse_rational(text)
