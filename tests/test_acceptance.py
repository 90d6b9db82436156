"""Contract-level checks, one per shipped guarantee.

Each test wraps its body in the ``criterion`` fixture so the run ends with a
single PASS/FAIL line per guarantee in the terminal summary. Time limits are
part of the contract and asserted, not just observed.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from qcolour import cli, oracles
from qcolour.colourings import big_phi, colour_key, nu, phi, psi, psi_prime, theta
from qcolour.construct import extend_sum_closed, minimal_digit_fact, openness_radius
from qcolour.core import nth_prime
from qcolour.digits import binary_profile, expand
from qcolour.errors import DomainError
from qcolour.verify import (
    CombinationMode,
    Monochromatic,
    UniverseSpec,
    c3_triple,
    combinations,
    json_text,
    naive_search,
    property_suite,
    search,
    validate,
)

CLI = [sys.executable, "-m", "qcolour"]


def elapsed(t0: float) -> float:
    return time.perf_counter() - t0


def test_criterion_1_worked_values(criterion):
    with criterion(1, "worked binary-profile and base-expansion values, sub-millisecond"):
        binary_profile(2)  # warm-up so timings measure the calls, not imports
        t0 = time.perf_counter()
        profile = binary_profile(138)
        assert elapsed(t0) < 1e-3
        assert (profile.start, profile.end, profile.gap) == (7, 1, 4)

        x = Fraction(149) + Fraction(1, 96)
        expand(x, 2)  # warm-up
        t0 = time.perf_counter()
        d = expand(x, 2)
        assert elapsed(t0) < 1e-3
        assert d.leading() == 2 and d.trailing() == -5


def test_criterion_2_doubling_recurrence(criterion):
    with criterion(2, "phi separates k+1 from 2k and 2k+1 for |k| <= 1e5"):
        t0 = time.perf_counter()
        assert phi(0) != phi(1) and phi(2) != phi(3)
        for k in range(-100_000, 100_001):
            if k in (0, 1):
                continue
            pk = phi(k + 1)
            assert pk != phi(2 * k)
            assert pk != phi(2 * k + 1)
        assert elapsed(t0) < 1.0


def test_criterion_3_pair_compositions(criterion):
    with criterion(3, "shifted/predecessor pair colourings match their definitions to 1000"):
        t0 = time.perf_counter()
        for a in range(1, 1001):
            for b in range(a + 1, 1001):
                assert psi(a, b) == big_phi(a, b + 1)
        ref = big_phi(1, 2)
        for y in (2, 17, 999):
            assert psi_prime(1, y) == ref
        for x in range(2, 1001):
            for y in (x + 1, 2 * x, 3 * x + 1):
                assert psi_prime(x, y) == big_phi(x - 1, y)
        assert elapsed(t0) < 5.0


def test_criterion_4_digit_law_suite(criterion):
    with criterion(4, "digit-arithmetic law suite: 1e4 seeded samples per law, zero failures"):
        t0 = time.perf_counter()
        report = property_suite(seed=1, sample_count=10_000)
        assert elapsed(t0) < 30.0
        failures = [law.to_obj() for law in report.laws if not law.passed]
        assert report.all_passed, failures
        names = {law.name for law in report.laws}
        assert {
            "disjoint-support-sum",
            "binary-product-end",
            "binary-product-start",
            "same-end-carry",
            "primorial-product-end",
            "primorial-product-start",
            "c3-dyadic-closure",
        } <= names
        assert all(law.samples == 10_000 for law in report.laws)


def _random_supported_rational(rng: random.Random, primes: list[int]) -> Fraction:
    den = 1
    for _ in range(rng.randint(0, 4)):
        den *= rng.choice(primes)
        if den > 10**6:
            break
    return Fraction(rng.randint(1, 10**6), den)


def test_criterion_5_oracle_equivalence(criterion):
    with criterion(5, "structured colourings agree with naive oracles on 1e4 inputs each"):
        t0 = time.perf_counter()
        small_primes = [nth_prime(i) for i in range(1, 13)]

        rng = random.Random("acceptance5:phi")
        for _ in range(10_000):
            k = rng.randint(-(10**6), 10**6)
            assert phi(k) == oracles.phi_oracle(k)

        rng = random.Random("acceptance5:bigphi")
        for _ in range(10_000):
            a, b = rng.randint(0, 10**6), rng.randint(0, 10**6)
            assert big_phi(a, b) == oracles.big_phi_oracle(a, b)

        rng = random.Random("acceptance5:theta")
        for _ in range(10_000):
            m = rng.randint(1, 10**9)
            assert theta(m) == oracles.theta_oracle(m)

        rng = random.Random("acceptance5:nu")
        for _ in range(10_000):
            x = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            assert nu(x) == oracles.nu_oracle(x)

        from qcolour.colourings import alpha, mu

        rng = random.Random("acceptance5:mu")
        for _ in range(10_000):
            x = _random_supported_rational(rng, small_primes)
            assert mu(x) == oracles.mu_oracle(x)

        rng = random.Random("acceptance5:alpha")
        for _ in range(10_000):
            x = _random_supported_rational(rng, small_primes)
            assert alpha(x) == oracles.alpha_oracle(x)
        assert elapsed(t0) < 60.0


def test_criterion_6_openness_radii(criterion):
    with criterion(6, "nu constant on 10 points inside (x, x+radius) for 1e3 tuple-class x"):
        t0 = time.perf_counter()
        rng = random.Random("acceptance6")
        seen = 0
        while seen < 1000:
            x = Fraction(rng.randint(1, 10**4), rng.randint(1, 10**3))
            try:
                got = openness_radius(x)
            except DomainError:
                continue  # special-class centre: no radius defined
            seen += 1
            assert got.radius > 0
            for k in range(1, 11):
                probe = x + got.radius * Fraction(k, 11)
                assert colour_key(nu(probe)) == got.key, f"x={x} k={k}"
        assert elapsed(t0) < 30.0


def test_criterion_7_search_vs_oracle(criterion):
    with criterion(7, "pruned search matches the all-subsets oracle on naturals <= 200, any worker count"):
        t0 = time.perf_counter()
        universe = UniverseSpec(numerator_bound=200, integers_only=True)
        pruned = search("theta", universe, CombinationMode.PAIRWISE, target_size=2, budget=10**6)
        naive = naive_search("theta", universe, CombinationMode.PAIRWISE, target_size=2)
        assert pruned.exhausted
        assert pruned.max_size == naive.max_size
        assert [c.to_obj() for c in pruned.certificates] == [c.to_obj() for c in naive.certificates]
        argv = ["search", "--colouring", "theta", "--numerator-bound", "200", "--integers-only",
                "--target", "2", "--budget", str(10**6), "--workers"]
        outputs = []
        for workers in ("1", "2", "8"):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.main([*argv, workers]) == 0
            outputs.append(out.getvalue())
        assert outputs == [json_text(pruned.to_obj()) + "\n"] * 3
        assert elapsed(t0) < 120.0


def test_criterion_8_constructor(criterion):
    with criterion(8, "2- and 3-term sum/product systems certify monochromatic in budget"):
        t0 = time.perf_counter()
        two = extend_sum_closed(2)
        assert elapsed(t0) < 10.0
        t0 = time.perf_counter()
        three = extend_sum_closed(3)
        assert elapsed(t0) < 120.0

        for result, entry_count in ((two, 6), (three, 14)):
            cert = result.certificate
            assert isinstance(cert.verdict, Monochromatic) and not cert.verdict.empty
            assert cert.verdict.key.startswith("mu:f:")
            assert len(cert.combinations) == entry_count
            assert validate(cert)
            for _, value in combinations(list(result.terms), CombinationMode.FINITE_FSFP):
                assert minimal_digit_fact(value)
        # two terms give four distinct combined values: y1, y2, y1+y2, y1*y2
        assert len({entry.value for entry in two.certificate.combinations}) == 4


def test_criterion_9_two_power_triples(criterion):
    with criterion(9, "1e3 seeded two-power triples have positive distinct dyadic half-sums"):
        t0 = time.perf_counter()
        rng = random.Random("acceptance9")
        seen = 0
        attempts = 0
        while seen < 1000:
            attempts += 1
            assert attempts < 100_000
            triple = c3_triple(rng)
            if triple is None:
                continue
            seen += 1
            a, b, g, x, y, z = triple
            assert x + y == a and x + z == b and y + z == g
            assert len({x, y, z}) == 3
            for v in (x, y, z):
                assert v > 0
                assert v.denominator & (v.denominator - 1) == 0, f"non-dyadic {v}"
        assert elapsed(t0) < 10.0


def test_criterion_10_cli_contract(criterion):
    with criterion(10, "CLI examples byte-identical across invocations with documented exit codes"):
        def run(args, stdin=None):
            return subprocess.run(CLI + args, input=stdin, capture_output=True,
                                  text=True, timeout=120)

        colour_runs = [run(["colour", "--colouring", "nu", "11/4"]) for _ in range(2)]
        assert all(p.returncode == 0 for p in colour_runs)
        assert colour_runs[0].stdout == colour_runs[1].stdout
        assert colour_runs[0].stdout == '{"input":"11/4","colour":"nu:t:0,1,2,1,1"}\n'

        check_runs = [
            run(["check", "--colouring", "nu", "--mode", "pairwise"], stdin="2\n4\n")
            for _ in range(2)
        ]
        assert all(p.returncode == 0 for p in check_runs)
        assert check_runs[0].stdout == check_runs[1].stdout
        assert json.loads(check_runs[0].stdout)["verdict"] == {"clash": [0, 1]}

        error_runs = [run(["colour", "--colouring", "nu", "0/1"]) for _ in range(2)]
        assert all(p.returncode == 2 for p in error_runs)
        assert all(p.stdout == "" for p in error_runs)
        assert error_runs[0].stderr == error_runs[1].stderr != ""
