"""Binary profiles and primorial-base digit expansions."""
from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcolour
from qcolour import colourings, core, digits, oracles
from qcolour.core import (
    PRIME_CAP,
    Ordering,
    a_exponent,
    cmp_c5_boundary,
    cmp_pow2_half,
    is_power_of_two,
    minimal_base_index,
    nth_prime,
    primorial,
)
from qcolour.digits import (
    DigitExpansion,
    abc_exponents,
    b_exponent,
    binary_profile,
    c_exponent,
    e_frac,
    e_int,
    end2,
    epsilon_exponent,
    expand,
    leading_frac_position,
    right_left_disjoint,
    s_frac,
    start2,
)
from qcolour.errors import DomainError, InternalInvariantError, TableExhaustedError, UnsupportedPrimeError


class TestBinaryProfile:
    def test_worked_profile(self):
        p = binary_profile(138)  # 10001010
        assert (p.start, p.end, p.gap) == (7, 1, 4)

    @pytest.mark.parametrize(
        "m, start, end, gap, nxt",
        [(1, 0, 0, None, 0), (6, 2, 1, 1, 1), (8, 3, 3, None, 0),
         (96, 6, 5, 1, 1), (138, 7, 1, 4, 0), (2**20, 20, 20, None, 0)],
    )
    def test_profiles(self, m, start, end, gap, nxt):
        p = binary_profile(m)
        assert (p.start, p.end, p.gap) == (start, end, gap)
        # the bit left of the end position is read by the pair colouring, not the profile
        assert colourings.big_phi(m, 2 * m).c3 == nxt
        assert p.power_of_two == (gap is None)
        assert (start2(m), end2(m)) == (start, end)

    @given(st.integers(1, 2**64))
    @settings(deadline=None)
    def test_profile_matches_bit_twiddling(self, m):
        p = binary_profile(m)
        assert p.start == m.bit_length() - 1
        assert p.end == (m & -m).bit_length() - 1
        rest = m - (1 << p.start)
        assert p.gap == (None if rest == 0 else p.start - rest.bit_length() + 1)

    def test_right_left_disjoint(self):
        # 0 exactly when the second support sits strictly left of the first
        assert right_left_disjoint(3, 12) == 0
        assert right_left_disjoint(12, 3) == 1
        assert right_left_disjoint(6, 3) == 1  # end2(3)=0 not above start2(6)=2

    def test_rejects_nonpositive(self):
        for bad in (0, -5):
            with pytest.raises(DomainError):
                binary_profile(bad)


class TestIntervalExponents:
    @pytest.mark.parametrize(
        "x, b, c",
        [
            (Fraction(11, 4), -1, 0),
            (Fraction(5, 6), -2, -3),
            (Fraction(1, 3), -4, -3),
        ],
    )
    def test_b_and_c(self, x, b, c):
        assert b_exponent(x) == b and c_exponent(x) == c

    def test_epsilon(self):
        assert epsilon_exponent(Fraction(3, 4)) == -2
        assert epsilon_exponent(Fraction(1, 3)) == 0
        assert epsilon_exponent(Fraction(5, 6)) == -2
        with pytest.raises(DomainError):
            epsilon_exponent(Fraction(11, 4))


def _pow2(e: int) -> Fraction:
    return Fraction(2) ** e


def _below(side: Ordering) -> bool:
    return side is Ordering.BELOW


def _seeded_values(count: int) -> list[Fraction]:
    """Positive rationals that are not powers of two: 8- to 80-bit numerators over
    denominators of up to 24 twos, threes, and one of 5, 7, 11 or 180,511."""
    rng = random.Random("digits:kernel")
    out: list[Fraction] = []
    while len(out) < count:
        den = 2 ** rng.randint(0, 24) * 3 ** rng.randint(0, 4) * rng.choice([1, 5, 7, 11, 180_511])
        x = Fraction(rng.randint(1, 2 ** rng.choice([8, 24, 80])), den)
        if not is_power_of_two(x):
            out.append(x)
    return out


SEEDED = _seeded_values(5000)


class TestIntegerKernel:
    """abc_exponents and the boundary compares against the linear scans in ``oracles``."""

    def test_matches_scan_oracles_on_seeded_values(self):
        for x in SEEDED:
            a, b, c = oracles._a_scan(x), oracles._b_scan(x), oracles._c_scan(x)
            assert abc_exponents(x.numerator, x.denominator) == (a, b, c), x
            assert (a_exponent(x), b_exponent(x), c_exponent(x)) == (a, b, c), x
            f = x - x.numerator // x.denominator
            if f:
                assert epsilon_exponent(f) == oracles._epsilon_scan(f), f
            assert _below(cmp_pow2_half(x, a)) == (x * x < _pow2(2 * a + 1)), x
            below_surd = x * x < _pow2(2 * a + 2) * (1 - _pow2(c - a))
            assert _below(cmp_c5_boundary(x, a, c)) == below_surd, x

    def test_unreduced_pairs(self):
        for x in SEEDED[:500]:
            for m in (3, 4, 2**70 + 1):
                n, d = m * x.numerator, m * x.denominator
                assert abc_exponents(n, d) == abc_exponents(x.numerator, x.denominator)

    def test_half_power_boundary_at_sqrt2_convergents(self):
        # p/q runs through the convergents of √2, alternately below and above it.
        p, q = 1, 1
        for _ in range(30):
            p, q = p + 2 * q, p + q
            for k in range(-40, 41, 5):
                x = Fraction(p, q) * _pow2(k)
                assert _below(cmp_pow2_half(x, k)) == (p * p < 2 * q * q)
                assert colourings.nu(x) == oracles.nu_oracle(x), x

    def test_surd_boundary_one_step_either_side(self):
        for a in range(-6, 7, 3):
            for c in range(a - 12, a):
                bound = _pow2(2 * a + 2) - _pow2(a + c + 2)
                for q in (3, 5, 7, 2**20 + 1, 3**15):
                    p = math.isqrt(math.floor(bound * q * q))  # p/q < √bound < (p+1)/q
                    if p == 0:
                        continue
                    pair = (Fraction(p, q), Fraction(p + 1, q))
                    assert [_below(cmp_c5_boundary(x, a, c)) for x in pair] == [True, False]
                    for x in pair:
                        assert colourings.nu(x) == oracles.nu_oracle(x), x

    def test_gaps_that_are_exact_powers_of_two(self):
        for a in range(-20, 21, 4):
            for j in range(a - 30, a):
                x = _pow2(a + 1) - _pow2(j)  # w = 2^(a+1) - x = 2^j, so c = j - 1
                assert c_exponent(x) == j - 1 == oracles._c_scan(x)
                y = _pow2(a) + _pow2(j)
                assert b_exponent(y) == j == oracles._b_scan(y)
        for j in range(-40, 0):
            f = 1 - _pow2(j)
            assert epsilon_exponent(f) == j == oracles._epsilon_scan(f)

    def test_exponents_near_a_thousand_bits(self):
        rng = random.Random("digits:1000-bit")
        for k in (-1000, -999, 998, 1000):
            for _ in range(4):
                x = Fraction(rng.randint(2**40, 2**41), rng.randint(2**40, 2**41) | 1) * _pow2(k)
                a, b, c = oracles._a_scan(x), oracles._b_scan(x), oracles._c_scan(x)
                assert (a_exponent(x), b_exponent(x), c_exponent(x)) == (a, b, c), x
                assert _below(cmp_pow2_half(x, a)) == (x * x < _pow2(2 * a + 1))
                assert colourings.nu(x) == oracles.nu_oracle(x), x


TUPLE_CLASS = [x for x in SEEDED[:300] if isinstance(colourings.nu(x), colourings.NuTuple)]


class TestKernelSelfChecks:
    """A log2 step that is off by one must end in InternalInvariantError, never in a key."""

    @pytest.mark.parametrize("step", ["a", "b", "c"])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_skewed_log2_step_is_caught(self, monkeypatch, step, delta):
        real, calls = core.log2_floor, []

        def skewed(n: int, d: int) -> int:
            calls.append(None)
            return real(n, d) + (delta if len(calls) == "abc".index(step) + 1 else 0)

        monkeypatch.setattr(digits, "log2_floor", skewed)
        for x in TUPLE_CLASS:
            calls.clear()
            with pytest.raises(InternalInvariantError, match=f"{step}-exponent self-check"):
                colourings.nu(x)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_skewed_log2_fails_a_exponent(self, monkeypatch, delta):
        real = core.log2_floor
        monkeypatch.setattr(core, "log2_floor", lambda n, d: real(n, d) + delta)
        for x in SEEDED[:100]:
            with pytest.raises(InternalInvariantError, match="a-exponent self-check"):
                a_exponent(x)

    def test_self_checks_run_under_python_O(self):
        script = "\n".join([
            "import sys",
            "from fractions import Fraction",
            "from qcolour import colourings, core, digits",
            "from qcolour.errors import InternalInvariantError",
            "real = core.log2_floor",
            "core.log2_floor = digits.log2_floor = lambda n, d: real(n, d) + 1",
            "for fn in (core.a_exponent, digits.b_exponent, colourings.nu, colourings.alpha):",
            "    try:",
            "        fn(Fraction(11, 3))",
            "    except InternalInvariantError:",
            "        continue",
            "    sys.exit(fn.__name__ + ' returned on a skewed log2')",
            "print('caught', sys.flags.optimize)",
        ])
        src = os.path.dirname(os.path.dirname(qcolour.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "caught 1\n", "")


tiny = st.integers(0, 4)


class TestExpansion:
    def test_worked_expansion(self):
        x = Fraction(149) + Fraction(1, 96)
        d = expand(x, 2)
        assert d.leading() == 2 and d.trailing() == -5
        assert d.digits == {2: 4, 0: 5, -3: 2, -4: 1, -5: 3}
        assert d.positional() == "405.00213"
        assert d.value() == x

    def test_binary_base(self):
        d = expand(Fraction(11, 4), 1)  # 10.11
        assert d.digits == {1: 1, -1: 1, -2: 1}
        assert (d.leading(), d.trailing()) == (1, -2)

    def test_non_terminating_rejected(self):
        with pytest.raises(DomainError):
            expand(Fraction(1, 3), 1)

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(-5, 4), Fraction(-3)])
    def test_non_positive_rejected(self, x):
        with pytest.raises(DomainError, match="expected a positive rational"):
            expand(x, 1)

    @given(
        num=st.integers(1, 10**6),
        i=tiny, j=tiny, k=tiny,
        n=st.integers(1, 3),
    )
    @settings(deadline=None)
    def test_round_trip(self, num, i, j, k, n):
        den = 2**i * 3**j * 5**k
        x = Fraction(num, den)
        base_n = max(n, minimal_base_index(x))
        d = expand(x, base_n)
        assert d.value() == x
        base = primorial(base_n)
        assert all(0 < digit < base for digit in d.digits.values())

    def test_value_is_the_sum_of_its_digits(self):
        assert DigitExpansion(2, {}).value() == 0
        rng = random.Random("digit-values")
        for _ in range(500):
            t = rng.randint(1, 3)
            base = primorial(t)
            positions = rng.sample(range(-4, 5), rng.randint(1, 4))
            digits = {pos: rng.randint(1, base - 1) for pos in positions}
            expected = sum((digit * Fraction(base) ** pos for pos, digit in digits.items()), Fraction(0))
            assert DigitExpansion(t, digits).value() == expected, digits


class TestPositionFunctions:
    def test_leading_position_matches_the_digit_expansion(self):
        # leading_frac_position reads k = 1 from bit lengths and builds P_n only past them: on
        # seeded x = num/den, den near num·2^n either side of the test, it equals the expansion's
        rng = random.Random("leading-position")
        for _ in range(400):
            n = rng.randint(1, 6)
            den = math.prod(nth_prime(rng.randint(1, n)) for _ in range(rng.randint(1, 12)))
            num = rng.randint(1, max(1, den >> max(0, n + rng.randint(-2, 4))))
            x = Fraction(num, den)
            if x < 1:
                assert leading_frac_position(x, n) == expand(x, n).leading(), (x, n)

    def test_fractional_positions(self):
        assert s_frac(Fraction(1, 4), 2) == -1
        assert e_frac(Fraction(1, 4), 2) == -2
        assert s_frac(Fraction(5, 6), 2) == -1
        assert e_frac(Fraction(5, 6), 2) == -1

    def test_integer_end(self):
        assert e_int(96, 2) == 5  # in base P_1 = 2
        assert e_int(96, 6) == 1  # in base P_2 = 6
        assert e_int(5, 2) == 0

    def test_whole_inputs_rejected_for_frac(self):
        with pytest.raises(DomainError):
            s_frac(Fraction(3, 2), 2)

    @pytest.mark.parametrize("n, error, message", [
        (0, DomainError, "prime index must be >= 1, got 0"),
        (PRIME_CAP + 1, TableExhaustedError, f"prime index {PRIME_CAP + 1} beyond the cap"),
    ])
    def test_base_index_outside_the_cap_refused(self, n, error, message):
        # e_frac refuses a bad base index as s_frac and expand do, not as a non-terminating x
        with pytest.raises(error, match=message) as caught:
            e_frac(Fraction(1, 2), n)
        assert not isinstance(caught.value, UnsupportedPrimeError)
        for f in (s_frac, expand):
            with pytest.raises(error):
                f(Fraction(1, 2), n)
