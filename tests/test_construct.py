"""Block systems, openness radii, and the sum/product sequence constructor."""
from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from qcolour import cli, construct, core, digits, oracles
from qcolour.colourings import colour_key, mu, mu_below_one, nu
from qcolour.construct import (
    BlockSystem,
    OpennessRadius,
    extend_sum_closed,
    minimal_digit_fact,
    openness_radius,
    reciprocal_prime_indices,
)
from qcolour.core import PRIME_CAP, nth_prime, prime_walk
from qcolour.digits import abc_exponents
from qcolour.errors import (
    BudgetExhaustedError,
    DomainError,
    InternalInvariantError,
    TableExhaustedError,
)
from qcolour.verify import CombinationMode, Monochromatic, combinations, validate

MU_KEY = "mu:f:nu:t:0,1,2,1,1|phi:z|phi:t:0,1,0,0,0"
Y2 = Fraction(1, 2069271737)  # 1/(13*257*661*937)


class TestReciprocalPrimeIndices:
    def test_frozen_prefix(self):
        assert reciprocal_prime_indices(2) == [2, 6]
        assert reciprocal_prime_indices(10) == [2, 6, 12, 21, 31, 42, 55, 68, 84, 100]

    def test_prefix_stable_and_increasing(self):
        long = reciprocal_prime_indices(24)
        for count in range(1, 24):
            assert reciprocal_prime_indices(count) == long[:count]
        assert all(a < b for a, b in zip(long, long[1:]))

    def test_reciprocal_sum_stays_below_half(self):
        total = sum(
            (Fraction(1, nth_prime(r)) for r in reciprocal_prime_indices(40)), Fraction(0)
        )
        assert total < Fraction(1, 2)

    def test_exhaustion(self):
        # term 174 needs a prime of at least 6·174·173 = 180,612, past the cap
        assert reciprocal_prime_indices(173)[-1] <= PRIME_CAP
        with pytest.raises(TableExhaustedError):
            reciprocal_prime_indices(174)
        with pytest.raises(DomainError):
            reciprocal_prime_indices(0)

    def test_one_walk_matches_the_definition(self):
        # r_1 = 2; r_i is the smallest index after r_{i−1} whose prime is at least 6·i·(i−1)
        defined = [2]
        for i in range(2, 174):
            r = defined[-1] + 1
            while nth_prime(r) < 6 * i * (i - 1):
                r += 1
            defined.append(r)
        for count in range(1, 174):
            expected = defined[:count]
            assert reciprocal_prime_indices(count) == expected


class TestBlockSystem:
    def test_terms(self):
        system = BlockSystem(base_indices=(2, 6, 12), blocks=((1,), (2, 3)))
        assert system.base_terms() == [Fraction(1, 3), Fraction(1, 13), Fraction(1, 37)]
        assert system.terms() == [Fraction(1, 3), Fraction(1, 481)]

    def test_validation(self):
        with pytest.raises(DomainError):
            BlockSystem(base_indices=(2, 6), blocks=((1,), ()))
        with pytest.raises(DomainError):
            BlockSystem(base_indices=(2, 6), blocks=((1, 3),))
        with pytest.raises(DomainError):
            BlockSystem(base_indices=(2, 6), blocks=((2,), (1,)))  # not ordered


class TestOpennessRadius:
    @pytest.mark.parametrize(
        "x, radius",
        [
            (Fraction(1, 3), Fraction(1, 144)),
            (Fraction(11, 4), Fraction(7, 256)),
            (Fraction(5, 6), Fraction(1, 72)),
        ],
    )
    def test_frozen_radii(self, x, radius):
        got = openness_radius(x)
        assert got == OpennessRadius(center=x, radius=radius, key=colour_key(nu(x)))

    @pytest.mark.parametrize("x", [Fraction(8), Fraction(3), Fraction(5), Fraction(1, 2)])
    def test_special_classes_rejected(self, x):
        with pytest.raises(DomainError):
            openness_radius(x)

    def test_colour_constant_on_sampled_interval(self):
        rng = random.Random(11)
        seen = 0
        while seen < 60:
            x = Fraction(rng.randint(1, 400), rng.randint(1, 120))
            try:
                got = openness_radius(x)
            except DomainError:
                continue
            seen += 1
            assert got.radius > 0
            for k in range(1, 11):
                probe = x + got.radius * Fraction(k, 11)
                assert colour_key(nu(probe)) == got.key, f"x={x} probe={probe}"


class TestMinimalDigitFact:
    def test_last_digit_position(self):
        assert minimal_digit_fact(Fraction(1, 3))
        assert minimal_digit_fact(Fraction(5, 6))
        assert minimal_digit_fact(Fraction(1, 2))
        assert not minimal_digit_fact(Fraction(1, 4))
        assert not minimal_digit_fact(Fraction(5, 8))

    def test_domain(self):
        for bad in (Fraction(3, 2), Fraction(1), Fraction(0)):
            with pytest.raises(DomainError):
                minimal_digit_fact(bad)


class TestSumClosedExtension:
    def test_single_term(self):
        res = extend_sum_closed(1, search_budget=1000)
        assert res.system.blocks == ((1,),)
        assert res.terms == (Fraction(1, 3),)
        assert res.key == "nu:t:0,1,2,1,1"
        assert res.certificate.verdict == Monochromatic(key=MU_KEY)
        assert validate(res.certificate)

    def test_two_terms(self):
        res = extend_sum_closed(2, search_budget=250_000)
        assert res.terms == (Fraction(1, 3), Y2)
        cert = res.certificate
        assert cert.mode is CombinationMode.FINITE_FSFP
        assert cert.verdict == Monochromatic(key=MU_KEY)
        assert len(cert.combinations) == 6
        assert validate(cert)
        for _, value in combinations(list(res.terms), CombinationMode.FINITE_FSFP):
            assert minimal_digit_fact(value)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected_before_the_prime_walk(self, monkeypatch, budget):
        def refuse(count):
            raise AssertionError("pool built before the budget was checked")

        monkeypatch.setattr(construct, "reciprocal_prime_indices", refuse)
        with pytest.raises(DomainError, match=f"budget must be >= 1, got {budget}"):
            extend_sum_closed(1, search_budget=budget)

    def test_four_term_sums_and_products_match_the_mu_oracle(self):
        # The full sum and product have 671-bit denominators with primes past the 1,000th.
        res = extend_sum_closed(4)
        values = {e.tag: e.value for e in res.certificate.combinations}
        for tag in ("s:1,2,3,4", "p:1,2,3,4"):
            assert oracles.mu_oracle(values[tag]) == mu(values[tag])

    def test_budget_failure_reports_depth(self):
        with pytest.raises(BudgetExhaustedError) as info:
            extend_sum_closed(3, search_budget=3)
        assert info.value.best_depth >= 1


def _brute_force_blocks(pool, lo, hi):
    """{pool index h: {(block, product)}} over every subset whose max index is h."""
    out = {}
    for h in range(len(pool)):
        for size in range(h + 1):
            for rest in itertools.combinations(range(h), size):
                chosen = rest + (h,)
                product = math.prod(pool[k][1] for k in chosen)
                if lo <= product <= hi:
                    block = tuple(pool[k][0] for k in chosen)
                    out.setdefault(h, set()).add((block, product))
    return out


def _drain(pool, lo, hi, limit):
    budget = construct._Budget(limit)
    return list(construct._blocks_in_window(pool, lo, hi, budget)), limit - budget.left


def _seeded_windows(seed):
    """Small (position, prime) pools with windows around random subset products."""
    rng = random.Random(seed)
    size = rng.randint(1, 14)
    primes = sorted(rng.sample([nth_prime(r) for r in range(2, 200)], size))
    first = rng.randint(1, 40)
    pool = [(first + k, p) for k, p in enumerate(primes)]
    subset = rng.sample(primes, rng.randint(1, size))
    centre = math.prod(subset)
    shape = rng.randrange(3)
    if shape == 0:  # a single point: only the exact product decides
        lo = hi = centre + rng.choice((-1, 0, 0, 1))
    elif shape == 1:
        width = max(1, centre >> rng.randint(3, 12))
        lo, hi = centre - rng.randint(0, width), centre + rng.randint(0, width)
    else:
        lo, hi = centre // rng.randint(2, 50), centre * rng.randint(1, 50)
    return pool, lo, hi


def _reference_blocks(pool, lo, hi, budget):
    """The block enumerator as a plain stack DFS that pushes both children of
    every internal node: the node order and spend the fast one must keep."""
    if lo > hi or not pool:
        return
    logs = [math.log2(p) for _, p in pool]
    t_lo, t_hi = math.log2(lo) - 1e-9, math.log2(hi) + 1e-9
    suffix = [0.0] * (len(pool) + 1)
    for i in range(len(pool) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + logs[i]
    for h in range(len(pool)):
        stack = [(0, logs[h], None)]
        while stack:
            i, cur_log, chosen = stack.pop()
            budget.left -= 1
            if budget.left < 0:
                raise BudgetExhaustedError("block enumeration budget exhausted")
            if t_lo <= cur_log <= t_hi:
                cur, block, node = pool[h][1], [pool[h][0]], chosen
                while node:
                    k, node = node
                    cur *= pool[k][1]
                    block.append(pool[k][0])
                if lo <= cur <= hi:
                    yield tuple(sorted(block)), cur
            if i >= h or cur_log > t_hi or cur_log + (suffix[i] - suffix[h]) < t_lo:
                continue
            stack.append((i + 1, cur_log, chosen))
            stack.append((i + 1, cur_log + logs[i], (i, chosen)))


def _offers(enumerate_blocks, pool, lo, hi, limit):
    """(block, product, budget left after the yield) per block, with the
    consumer spending one unit per block as the constructor does; then
    whether the enumerator raised, and the budget left at the end."""
    budget = construct._Budget(limit)
    seen = []
    try:
        for block, product in enumerate_blocks(pool, lo, hi, budget):
            seen.append((block, product, budget.left))
            budget.left -= 1
    except BudgetExhaustedError:
        return seen, True, budget.left
    return seen, False, budget.left


def _reference_cases():
    """Each seeded window over its sorted pool and over the same primes shuffled."""
    for seed in range(60):
        pool, lo, hi = _seeded_windows(seed)
        shuffled = random.Random(seed).sample([p for _, p in pool], len(pool))
        yield seed, "sorted", pool, lo, hi
        yield seed, "shuffled", [(t, p) for (t, _), p in zip(pool, shuffled)], lo, hi


def _recorder(calls):
    """A stand-in for the block enumerator that appends [lo, hi, nodes spent,
    yields] to ``calls`` for each call. Spends are read around every step of
    the enumerator, the one that raises included, so the consumer's units
    are not counted and no node is missed."""
    inner = construct._blocks_in_window

    def recording(pool, lo, hi, budget):
        record = [lo, hi, 0, []]
        calls.append(record)
        gen = inner(pool, lo, hi, budget)
        while True:
            before = budget.left
            try:
                item = next(gen, None)
            finally:
                record[2] += before - budget.left
            if item is None:
                return
            record[3].append(item)
            yield item

    return recording


@functools.cache
def _construct_windows(m):
    """(pool, lo, hi, units) of each call that extend_sum_closed(m) makes to the
    block enumerator, where ``units`` counts the nodes it spent and one per
    block the constructor took, so a consumer of one unit per block that is
    given ``units`` stops where the constructor stopped."""
    calls, pools = [], []
    record = _recorder(calls)

    def recording(pool, lo, hi, budget):
        pools.append(list(pool))
        return record(pool, lo, hi, budget)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(construct, "_blocks_in_window", recording)
        extend_sum_closed(m)
    return [(pool, lo, hi, spent + len(taken)) for pool, (lo, hi, spent, taken) in zip(pools, calls)]


def _forced_run_ends(pool, lo, hi, limit):
    """The units spent, by the nodes of ``_reference_blocks`` and one per block
    offered, when each forced include run ends, up to ``limit`` units. A node
    heads a forced run when it lies below the float window, its exclude child
    is a dead leaf and its include child is past the window or heads a forced
    run itself; the run ends with that dead child, the last node of the head's
    subtree. Found from the reference's own float tests, not the enumerator's."""
    logs = [math.log2(p) for _, p in pool]
    t_lo, t_hi = math.log2(lo) - 1e-9, math.log2(hi) + 1e-9
    suffix = [0.0] * (len(pool) + 1)
    for i in range(len(pool) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + logs[i]
    ends, units = [], 0

    def visit(h, i, cur_log, product):
        """Spend one node's subtree in pop order; true if the node is past the window or heads a run."""
        nonlocal units
        units += 1
        if units > limit:
            return False
        if cur_log > t_hi:
            return True
        if t_lo <= cur_log and lo <= product <= hi:
            units += 1
        if i >= h or cur_log + (suffix[i] - suffix[h]) < t_lo:
            return False
        forced = visit(h, i + 1, cur_log + logs[i], product * pool[i][1])
        before = units
        visit(h, i + 1, cur_log, product)
        if forced and cur_log < t_lo and units == before + 1 <= limit:
            ends.append(units)
            return True
        return False

    for h in range(len(pool)):
        visit(h, 0, logs[h], pool[h][1])
    return ends


def _least_integer(holds, top):
    """The least x in [1, top] where the monotone test ``holds`` is true, else top."""
    below, above = 1, top
    while below < above:
        mid = (below + above) // 2
        if holds(mid):
            above = mid
        else:
            below = mid + 1
    return below


class TestBlocksInWindow:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_brute_force(self, seed):
        pool, lo, hi = _seeded_windows(seed)
        got, _ = _drain(pool, lo, hi, 10**9)
        index_of = {t: k for k, (t, _) in enumerate(pool)}
        primes = dict(pool)
        maxima = [index_of[block[-1]] for block, _ in got]
        assert maxima == sorted(maxima), "blocks must come grouped by max position"
        by_max = {}
        for block, product in got:
            assert list(block) == sorted(set(block))
            assert product == math.prod(primes[t] for t in block)
            assert lo <= product <= hi
            by_max.setdefault(index_of[block[-1]], set()).add((block, product))
        assert by_max == _brute_force_blocks(pool, lo, hi)

    @pytest.mark.parametrize("seed", range(0, 60, 7))
    def test_budget_is_the_node_count(self, seed):
        pool, lo, hi = _seeded_windows(seed)
        blocks, spent = _drain(pool, lo, hi, 10**9)
        assert spent >= 1
        assert _drain(pool, lo, hi, spent) == (blocks, spent)
        with pytest.raises(BudgetExhaustedError):
            _drain(pool, lo, hi, spent - 1)

    @pytest.mark.parametrize(
        "pool, lo, hi, seed",
        [pytest.param(pool, lo, hi, seed, id=f"{seed}-{order}")
         for seed, order, pool, lo, hi in _reference_cases()],
    )
    def test_node_for_node_as_the_reference(self, pool, lo, hi, seed):
        unlimited = 10**9
        expected = _offers(_reference_blocks, pool, lo, hi, unlimited)
        assert _offers(construct._blocks_in_window, pool, lo, hi, unlimited) == expected
        full = unlimited - expected[2]
        budgets = range(1, full + 1)
        if full > 1000:  # every budget would cost full²/2 nodes; take a seeded sample
            budgets = sorted({1, full - 1, full, *random.Random(seed).sample(budgets, 12)})
        for limit in budgets:
            assert _offers(construct._blocks_in_window, pool, lo, hi, limit) == _offers(
                _reference_blocks, pool, lo, hi, limit
            ), f"budget {limit}"

    @pytest.mark.parametrize("m", [2, 3])
    def test_node_for_node_on_construct_windows(self, m):
        # 43- and 57-prime pools and narrow mantissa windows, where most exclude children
        # are dead: each budget at and around every yield's spend, and a seeded sample
        rng = random.Random(m)
        for pool, lo, hi, units in _construct_windows(m):
            offered, _, _ = _offers(_reference_blocks, pool, lo, hi, units)
            spends = [units - after for _, _, after in offered]
            budgets = {1, units - 1, units, *rng.sample(range(1, units + 1), 12)}
            budgets |= {s + d for s in spends for d in (-1, 0, 1)}
            for limit in sorted(budgets):
                assert _offers(construct._blocks_in_window, pool, lo, hi, limit) == _offers(
                    _reference_blocks, pool, lo, hi, limit
                ), (lo, hi, f"budget {limit}")

    def test_m2_windows_drained(self):
        # past the block the constructor took: the last call offers 233 blocks in 145,962 nodes
        for pool, lo, hi, _ in _construct_windows(2):
            expected = _offers(_reference_blocks, pool, lo, hi, 10**9)
            assert _offers(construct._blocks_in_window, pool, lo, hi, 10**9) == expected, (lo, hi)

    def test_node_for_node_on_the_m4_windows(self):
        # the m = 4 round's seven calls, each at the units the constructor gave it
        for pool, lo, hi, units in _construct_windows(4):
            expected = _offers(_reference_blocks, pool, lo, hi, units)
            assert _offers(construct._blocks_in_window, pool, lo, hi, units) == expected, (lo, hi)

    def test_node_for_node_at_the_m4_forced_run_ends(self):
        # 179,194 of the m = 4 round's 208,507 nodes lie on forced include runs, each
        # charged in one step: each budget at and around every yield's spend and a seeded
        # sample of run ends, and a seeded sample of budgets
        rng = random.Random(4)
        for pool, lo, hi, units in _construct_windows(4):
            offered, _, _ = _offers(_reference_blocks, pool, lo, hi, units)
            ends = _forced_run_ends(pool, lo, hi, units)
            spends = [units - after for _, _, after in offered] + rng.sample(ends, min(len(ends), 10))
            budgets = {1, units - 1, units, *rng.sample(range(1, units + 1), 12)}
            budgets |= {s + d for s in spends for d in (-1, 0, 1)}
            for limit in sorted(budgets):
                assert _offers(construct._blocks_in_window, pool, lo, hi, limit) == _offers(
                    _reference_blocks, pool, lo, hi, limit
                ), (lo, hi, f"budget {limit}")

    @pytest.mark.parametrize(
        "pool, lo, hi",
        [
            # the run from 13's root through 3, 5, 7 and 11 ends at 15015, a point window and
            # a lower edge: the run ends in the window, so its head walks, and the walk yields
            pytest.param([(1, 3), (2, 5), (3, 7), (4, 11), (5, 13)], 15015, 15015, id="point"),
            pytest.param([(1, 3), (2, 5), (3, 7), (4, 11), (5, 13)], 15015, 10**6, id="lower-edge"),
            # the least prime follows the head, so least[i] < logs[i]: from the last prime's root
            # the exclude child of the first is dead, but the one that skips the least yields
            pytest.param([(1, 1009), (2, 3), (3, 1013)], 1013 * 1009, 1013 * 1009, id="least-later"),
            pytest.param([(1, 101), (2, 103), (3, 2), (4, 107)], 1113121, 1113121, id="least-inside"),
        ],
    )
    def test_walked_runs_at_every_budget(self, pool, lo, hi):
        full = 10**9 - _offers(_reference_blocks, pool, lo, hi, 10**9)[2]
        assert _offers(_reference_blocks, pool, lo, hi, full)[0], "the window yields"
        for limit in range(1, full + 2):
            assert _offers(construct._blocks_in_window, pool, lo, hi, limit) == _offers(
                _reference_blocks, pool, lo, hi, limit
            ), f"budget {limit}"

    @pytest.mark.parametrize("edge", ["lo", "hi"])
    @pytest.mark.parametrize("least_at", [1, 2, 3])
    @pytest.mark.parametrize(
        "offset",
        [pytest.param(("ulps", k), id=f"{k:+d}ulp") for k in range(-6, 7)]
        + [pytest.param(("log2", s * 2.0**-e), id=f"{s:+d}*2^-{e}")
           for e in range(36, 45, 2) for s in (-1, 1)],
    )
    def test_window_edge_inside_the_float_error_margin(self, edge, least_at, offset):
        # Twelve primes past 2^17, the least moved to ``least_at``: from the last one's root,
        # the exclude child of the least reaches Q, the product of the rest, and the full
        # run reaches P. A point window whose float lower edge log2(lo) − 1e-9 sits a few
        # ulps or a small ``offset`` from log2(Q) makes that child live or dead by less than
        # the head test's margin; one whose float upper edge sits so near log2(P) does the
        # same for the run's end.
        primes = list(itertools.islice((p for p in core.iter_primes() if p > 2**17), 12))
        primes[0], primes[least_at] = primes[least_at], primes[0]
        pool = list(enumerate(primes, 1))
        full_product = math.prod(primes)
        kind, by = offset
        target = math.log2(full_product // min(primes) if edge == "lo" else full_product)
        if kind == "ulps":
            for _ in range(abs(by)):
                target = math.nextafter(target, math.copysign(math.inf, by))
        else:
            target += by
        if edge == "lo":  # the least lo with log2(lo) − 1e-9 >= target
            lo = hi = _least_integer(lambda x: math.log2(x) - 1e-9 >= target, full_product)
        else:  # the greatest hi with log2(hi) + 1e-9 <= target
            lo = hi = _least_integer(lambda x: math.log2(x) + 1e-9 > target, full_product) - 1
        full = 10**9 - _offers(_reference_blocks, pool, lo, hi, 10**9)[2]
        for limit in (1, full // 2, full - 1, full, 10**9):
            assert _offers(construct._blocks_in_window, pool, lo, hi, limit) == _offers(
                _reference_blocks, pool, lo, hi, limit
            ), f"budget {limit}"

    def test_consumer_overdraws_on_the_final_yield(self):
        # the only node yields; the consumer's unit takes the budget to -1 and no node
        # follows, so nothing raises and the overdraw is left for the consumer to see
        expected = ([((1,), 3, 0)], False, -1)
        assert _offers(_reference_blocks, [(1, 3)], 3, 3, 1) == expected
        assert _offers(construct._blocks_in_window, [(1, 3)], 3, 3, 1) == expected

    def test_overdraw_inside_a_run_of_dead_children(self):
        # Seven nodes: one per h < 2, then 7 → 21 → 105 (the yield) along the include
        # chain, whose two exclude children (21 without 5, 7 without 3) cannot reach 105
        # and are charged together at the chain's end. Six units overdraw on the first.
        pool = [(1, 3), (2, 5), (3, 7)]
        for limit, expected in [
            (5, ([((1, 2, 3), 105, 0)], True, -2)),
            (6, ([((1, 2, 3), 105, 1)], True, -1)),
            (7, ([((1, 2, 3), 105, 2)], True, -1)),
            (8, ([((1, 2, 3), 105, 3)], False, 0)),
        ]:
            assert _offers(_reference_blocks, pool, 105, 105, limit) == expected, limit
            assert _offers(construct._blocks_in_window, pool, 105, 105, limit) == expected, limit

    def test_overdraw_on_a_window_node_with_descendants(self):
        # From 7's root (h = 2) the nodes 7 and 21 lie in the window and still have an
        # include child. Five units overdraw on 7's root and seven on 21: the block is not
        # offered, the walk goes on down to 105, and the raise comes when it backs up.
        pool = [(1, 3), (2, 5), (3, 7)]
        for limit, expected in [
            (5, ([((1, 2), 15, 2)], True, -1)),
            (7, ([((1, 2), 15, 4), ((3,), 7, 1)], True, -1)),
        ]:
            assert _offers(_reference_blocks, pool, 7, 105, limit) == expected, limit
            assert _offers(construct._blocks_in_window, pool, 7, 105, limit) == expected, limit
        full = 10**9 - _offers(_reference_blocks, pool, 7, 105, 10**9)[2]
        for limit in range(1, full + 2):
            assert _offers(construct._blocks_in_window, pool, 7, 105, limit) == _offers(
                _reference_blocks, pool, 7, 105, limit
            ), f"budget {limit}"

    def test_close_after_a_yield_keeps_the_consumer_spend(self):
        pool, lo, hi = _seeded_windows(15)
        budget = construct._Budget(100)
        gen = construct._blocks_in_window(pool, lo, hi, budget)
        next(gen)
        after_yield = budget.left
        budget.left -= 1  # the consumer's unit for the block it was offered
        gen.close()
        assert budget.left == after_yield - 1

    def test_empty_window_or_pool_spends_nothing(self):
        pool = [(1, 3), (2, 5)]
        assert _drain(pool, 16, 15, 0) == ([], 0)
        assert _drain([], 1, 100, 0) == ([], 0)

    def test_trace_of_a_construct_round_is_pinned(self, monkeypatch):
        # (lo, hi, nodes spent, yields) for every call in extend_sum_closed(2..4);
        # any change to the visit order or the node count moves the digest.
        calls = []
        inner = construct._blocks_in_window

        def recording(pool, lo, hi, budget):
            record = [lo, hi, 0, []]
            calls.append(record)
            gen = inner(pool, lo, hi, budget)
            while True:
                before = budget.left
                item = next(gen, None)
                record[2] += before - budget.left
                if item is None:
                    return
                record[3].append(item)
                yield item

        monkeypatch.setattr(construct, "_blocks_in_window", recording)
        for m in (2, 3, 4):
            extend_sum_closed(m)
        assert [c[2] for c in calls] == [
            319, 319, 659, 659, 1825,
            333, 333, 673, 673, 1825, 36735,
            347, 347, 687, 687, 1825, 36735, 167879,
        ]
        digest = hashlib.sha256(repr(calls).encode()).hexdigest()
        assert digest == "611ec4d9f8c7db4ad181d1c52e736c4bd6a6f148573db73cbd53e53287253448"

    def test_trace_of_the_m5_exhaustion_is_pinned(self, monkeypatch):
        # the same record for extend_sum_closed(5, 2_000_000), perfbench's fixed
        # job, which reaches the deep windows of depth 4 before the budget runs
        # out inside the last call
        calls = []
        monkeypatch.setattr(construct, "_blocks_in_window", _recorder(calls))
        with pytest.raises(BudgetExhaustedError) as info:
            extend_sum_closed(5, 2_000_000)
        assert info.value.best_depth == 4
        assert [c[2] for c in calls] == [361, 361, 701, 701, 1825, 36735, 1959300]
        # every unit is on the record: the nodes, one per offered block, and
        # the node that overdrew the budget
        assert sum(c[2] + len(c[3]) for c in calls) == 2_000_001
        digest = hashlib.sha256(repr(calls).encode()).hexdigest()
        assert digest == "39b2335eca54bcaec10ed449f1e24eecf9398a9a2bf0e14b649d0411ea939428"


class TestColourCalls:
    """ν and openness-radius calls per term count, counted through the module
    attributes (as perfbench's tracer counts them); the cumulative figures
    over m = 2..4 are 58 and 11 for the sum-closed round."""

    @staticmethod
    def _counting(monkeypatch):
        calls = {"nu": 0, "openness_radius": 0}
        for name in calls:
            inner = getattr(construct, name)

            def counted(x, name=name, inner=inner):
                calls[name] += 1
                return inner(x)

            monkeypatch.setattr(construct, name, counted)
        return calls

    def test_sum_closed_round(self, monkeypatch):
        calls = self._counting(monkeypatch)
        seen = []
        for m in (2, 3, 4):
            extend_sum_closed(m)
            seen.append((calls["nu"], calls["openness_radius"]))
        assert seen == [(6, 1), (22, 4), (58, 11)]


def _assert_each_term_below_its_bound(terms):
    """y_(t+1) < min(y_t, the openness radius of every nonempty subset sum of y_1..y_t) / 2,
    with the subset sums rebuilt here from the terms, and the sums that hold y_t alone give
    the same bound."""
    for t in range(1, len(terms)):
        sums = {sum(c) for r in range(1, t + 1) for c in itertools.combinations(terms[:t], r)}
        assert len(sums) == 2**t - 1
        radius = {s: openness_radius(s).radius for s in sums}
        bound = min(terms[t - 1], *radius.values()) / 2
        assert terms[t] < bound, (t, terms[t], bound)
        older = {sum(c) for r in range(t) for c in itertools.combinations(terms[: t - 1], r)}
        assert bound == min(terms[t - 1], *(radius[s + terms[t - 1]] for s in older)) / 2


class TestBoundInvariant:
    """The search reads only the radii of the sums that hold the newest term; the bound it
    then applies is the one over every subset sum, which every output must meet. The zone
    rule puts the m = 2..4 terms 22 to 374 bits below it, so a looser bound leaves these
    outputs alone; the pinned traces catch that."""

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_every_term_below_half_of_every_earlier_radius(self, m):
        _assert_each_term_below_its_bound(extend_sum_closed(m).terms)


class TestBoundGuard:
    """n starts at 2 − a(bound), so every block of the mantissa window gives y < bound/2;
    a window that breaks this is an internal fault, not a candidate to skip."""

    def test_a_window_past_the_bound_raises(self, monkeypatch):
        # 13 is the first prime of the level-2 pool, and 1/13 lies far above 1/288
        monkeypatch.setattr(construct, "_mantissa_window", lambda n, j: (13, 13))
        with pytest.raises(InternalInvariantError, match="term 1/13 not below the bound 1/288"):
            extend_sum_closed(2)


class TestColourGuard:
    """The window, j and zones give every new product and sum the first term's ν key, so
    every block a window yields is taken; a value off that key is an internal fault, not a
    candidate to skip. Level 2's first block is Y2: its products are Y2 and Y2/3, its sums
    Y2 and 1/3 + Y2, and ν reads the products first."""

    @pytest.mark.parametrize(
        "value, message",
        [
            (Y2 / 3, "product 1/6207815211 left the target class"),
            (Fraction(1, 3) + Y2, "sum 2069271740/6207815211 left the target class"),
        ],
        ids=["product", "sum"],
    )
    def test_a_value_off_the_key_raises(self, monkeypatch, value, message):
        inner = construct.nu
        monkeypatch.setattr(construct, "nu", lambda x: inner(Fraction(1) if x == value else x))
        with pytest.raises(InternalInvariantError) as info:
            extend_sum_closed(2)
        assert str(info.value) == message


class TestPoolExhausted:
    """A level whose windows offer no block at any n up to the pool's weight ends the
    search with the pool-exhausted error, at the depth it reached."""

    @pytest.fixture
    def no_blocks(self, monkeypatch):
        def none(pool, lo, hi, budget):
            return iter(())

        monkeypatch.setattr(construct, "_blocks_in_window", none)

    def test_error_and_depth(self, no_blocks):
        with pytest.raises(BudgetExhaustedError) as info:
            extend_sum_closed(2)
        assert str(info.value) == "pool of 44 terms exhausted at depth 1"
        assert info.value.best_depth == 1

    def test_cli_exits_3_with_the_payload(self, no_blocks, capsys):
        assert cli.main(["construct", "--terms", "2"]) == 3
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out) == {
            "budget_exhausted": {"message": "pool of 44 terms exhausted at depth 1", "best_depth": 1}
        }


def _phi_by_definition(m: int) -> int:
    """The integer two-colouring by its recursion, not by ``colourings.phi``'s zones."""
    return (0, 1, 0, 1)[m] if 0 <= m < 4 else 1 - _phi_by_definition(m // 2 + 1)


class TestLevelChain:
    """The exponents n of levels 2..5 that φ admits and the bits they need against the m = 5
    pool: a level's n needs φ(−(s + n)) = 1 for every subset sum s of the earlier levels' n."""

    def test_level_two_floor_and_the_cheapest_chain(self):
        y1 = Fraction(1, 3)
        floor = 2 - core.a_exponent(min(y1, openness_radius(y1).radius) / 2)
        assert floor == 11  # extend's least n at level 2
        chain = [2]  # then, greedily, the least n past the last that φ admits, by a brute scan
        for n in itertools.count(floor):
            sums = {sum(sub) for r in range(len(chain) + 1) for sub in itertools.combinations(chain, r)}
            if all(_phi_by_definition(-(s + n)) == 1 for s in sums):
                chain.append(n)
            if len(chain) == 5:
                break
        assert chain == [2, 11, 31, 127, 511]
        # levels 2..5 need about Σ(n − 1) bits, and after block (1,) the m = 5 pool holds more
        pool = reciprocal_prime_indices(16 + 14 * 5)[1:]
        assert (sum(n - 1 for n in chain[1:]), int(sum(math.log2(nth_prime(r)) for r in pool))) == (676, 1079)


class TestForcedBacktrack:
    """A level whose pool holds no block sends the search back a level."""

    @pytest.fixture
    def starved(self, monkeypatch):
        inner = construct._blocks_in_window

        def no_blocks_from_14(pool, lo, hi, budget):
            if pool[0][0] == 14:  # the pool after the first level-2 answer (2, 7, 11, 13)
                return
            yield from inner(pool, lo, hi, budget)

        monkeypatch.setattr(construct, "_blocks_in_window", no_blocks_from_14)

    @staticmethod
    def _digest(obj) -> str:
        return hashlib.sha256(json.dumps(obj.to_obj()).encode()).hexdigest()[:16]

    def test_three_terms_back_up_to_level_two(self, starved):
        res = extend_sum_closed(3)
        assert res.system.blocks == (
            (1,), (2, 8, 9, 14), (15, 17, 19, 22, 23, 24, 25, 26, 27, 28, 30),
        )
        assert validate(res.certificate)
        assert self._digest(res) == "278c25bbb1dcad3c"

    @pytest.mark.parametrize("m", [3, 4])
    def test_every_term_below_half_of_every_earlier_radius(self, starved, m):
        _assert_each_term_below_its_bound(extend_sum_closed(m).terms)

    def test_outputs_pinned(self, starved):
        four = extend_sum_closed(4)
        assert validate(four.certificate)
        assert self._digest(four) == "e87dd2127e30e917"


class TestBudgetContract:
    def test_four_terms_need_exactly_208510_units(self):
        assert len(extend_sum_closed(4, search_budget=208_510).terms) == 4
        with pytest.raises(BudgetExhaustedError) as info:
            extend_sum_closed(4, search_budget=208_509)
        assert info.value.best_depth == 3


def _pow2(e: int) -> Fraction:
    return Fraction(2) ** e


def _fraction_radius(x):
    """The openness radius by the Fraction formula: powers of two, then squares,
    differences and divisions of rationals for each gap."""
    value = nu(x)
    a, b, c = abc_exponents(x.numerator, x.denominator)
    gaps = [_pow2(a + 1) - x, _pow2(a) + _pow2(b + 1) - x, _pow2(a + 1) - _pow2(c) - x]
    if value.w1 == 0:
        gaps.append((_pow2(2 * a + 1) - x * x) / _pow2(a + 2))
    l = c if value.w5 == value.w4 else c - 1
    gaps.append((_pow2(2 * a + 2) - _pow2(a + l + 2) - x * x) / _pow2(a + 2))
    return min(gaps) / 2


class TestIntegerOpennessRadius:
    """The integer gaps give exactly the radius of the Fraction formula, which
    feeds the bound, its a-exponent and so the order of the block search."""

    def test_seeded_tuple_class_values(self):
        rng = random.Random(16)
        seen, w1 = 0, set()
        while seen < 400:
            scale = rng.choice([Fraction(1), Fraction(2**40), Fraction(1, 2**40)])
            x = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) * scale
            try:
                got = openness_radius(x)
            except DomainError:
                continue
            seen += 1
            w1.add(nu(x).w1)
            assert got.radius == _fraction_radius(x), x
        assert w1 == {0, 1}

    def test_every_subset_sum_of_the_construct_rounds(self, monkeypatch):
        met = []
        inner = construct.openness_radius

        def recording(x):
            met.append(inner(x))
            return met[-1]

        monkeypatch.setattr(construct, "openness_radius", recording)
        for m in (2, 3, 4):
            extend_sum_closed(m)
        assert len(met) == 11
        for got in met:
            assert got.radius == _fraction_radius(got.center), got.center


def _derived_base_indices(res):
    """Per certificate entry: the base index of the largest position in its
    highest term's block, read from the tag and the block system."""
    out = []
    for entry in res.certificate.combinations:
        top = max(int(t) for t in entry.tag[2:].split(","))
        block = res.system.blocks[top - 1]
        out.append((entry, res.system.base_indices[max(block) - 1]))
    return out


#: sha256 of json.dumps(extend_sum_closed(m).to_obj()), first 16 hex digits
RESULT_DIGESTS = {
    1: "429b3f9d2285d5fd",
    2: "1f2482a49159d4ef",
    3: "1e794f1842a0032c",
    4: "df98b5f7d07b6801",
}


class TestCertificateKeysFromBlocks:
    """The final μ certificate is keyed from each value's known (k, 1)."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_derived_equals_walked(self, m):
        res = extend_sum_closed(m)
        for entry, k in _derived_base_indices(res):
            assert prime_walk(entry.value, entry.value.denominator) == (k, 1), entry.tag
            assert colour_key(mu_below_one(entry.value, k, 1)) == entry.colour
            assert entry.colour == colour_key(mu(entry.value)), entry.tag

    def test_no_prime_walk(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a value was walked over the primes")

        monkeypatch.setattr(core, "divide_out_primes", refuse)
        monkeypatch.setattr(digits, "divide_out_primes", refuse)
        for m, digest in RESULT_DIGESTS.items():
            res = extend_sum_closed(m)
            assert hashlib.sha256(json.dumps(res.to_obj()).encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("m", [2, 3])
    def test_keys_match_the_mu_oracle(self, m):
        for entry in extend_sum_closed(m).certificate.combinations:
            assert entry.colour == colour_key(oracles.mu_oracle(entry.value)), entry.tag

    # positions 1, 2, 3 of the base sequence hold 3, 13 and 37 (indices 2, 6, 12)
    @pytest.mark.parametrize(
        "v",
        [
            Fraction(1, 13 * 37 * 5),  # 5 is in no block
            Fraction(1, 13 * 37 * 37),  # a block prime squared
            Fraction(1, 3 * 13),  # without p_k = 37
            Fraction(3 * 13 * 37 + 1, 3 * 13 * 37),  # not below 1
        ],
    )
    def test_guard_refuses_before_keying(self, monkeypatch, v):
        def unreachable(*args):
            raise AssertionError("keyed past the guard")

        monkeypatch.setattr(construct, "mu_below_one", unreachable)
        with pytest.raises(InternalInvariantError):
            construct._block_key(v, 3 * 13 * 37, 12)

    def test_guard_passes_a_block_value(self):
        v = Fraction(1, 3 * 37) + Fraction(1, 13 * 37)
        assert construct._block_key(v, 3 * 13 * 37, 12) == colour_key(mu(v))
