"""Build finite sequences in (0,1) whose sums and products are μ-monochromatic.

The recipe: base terms are reciprocals of primes chosen so their sum stays
below 1/2; one search multiplies disjoint blocks of base terms into derived
terms y_n, each below half the openness radius of every subset sum so far,
so the sums keep the first term's ν colour. Everything is exact rational
arithmetic; floats appear only as search heuristics, never in accepted
answers.

The block search targets the "low corner" band: a term y = 2^a·M with
mantissa M ∈ (1, 1.5) and M² < 2 pins three of ν's tuple components, the
dyadic order j of M−1 (kept ≡ 2 mod 3, separated by ≥ 3 between levels)
pins the fourth, and keeping every subset sum of the |a|'s inside the
1-coloured zones of the integer two-colouring pins the last. So every block
a window yields is taken; ν of each new sum and product is an invariant.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from .colourings import NuTuple, colour_key, mu_below_one, nu, phi
from .core import (
    PRIME_CAP,
    Rational,
    Record,
    a_exponent,
    iter_primes,
    nth_prime,
    prime_walk,
)
from .digits import abc_exponents, leading_frac_position
from .errors import BudgetExhaustedError, DomainError, InternalInvariantError, TableExhaustedError
from .verify import (
    Certificate,
    ColourTable,
    CombinationMode,
    Monochromatic,
    check,
)

DEFAULT_SEARCH_BUDGET = 250_000


class OpennessRadius(Record):
    center: Rational
    radius: Rational
    key: str


class BlockSystem(Record):
    """Base indices r_t (terms 1/p_{r_t}) and ordered disjoint blocks H_n.

    Block entries are 1-based positions into the base sequence; y_n is the
    product of the base terms at the positions in H_n.
    """

    base_indices: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if any(not b for b in self.blocks):
            raise DomainError("blocks must be nonempty")
        flat = [t for b in self.blocks for t in b]
        if any(t < 1 or t > len(self.base_indices) for t in flat):
            raise DomainError("block positions out of base-sequence range")
        for earlier, later in zip(self.blocks, self.blocks[1:]):
            if max(earlier) >= min(later):
                raise DomainError("blocks must be strictly ordered")

    def base_terms(self) -> list[Rational]:
        return [Fraction(1, nth_prime(r)) for r in self.base_indices]

    def terms(self) -> list[Rational]:
        base = self.base_terms()
        return [math.prod(base[t - 1] for t in block) for block in self.blocks]  # blocks are nonempty


class ConstructResult(Record):
    system: BlockSystem
    terms: tuple[Rational, ...]
    key: str
    certificate: Certificate


def reciprocal_prime_indices(count: int) -> list[int]:
    """Indices r_1 < ... < r_count with Σ 1/p_{r_i} < 1/2, prefix-stable.

    r_1 = 2 (term 1/3); for i ≥ 2 the smallest unused index whose prime is
    at least 6·i·(i−1), so the tail after 1/3 is bounded by the telescoping
    sum Σ 1/(6·i·(i−1)) = 1/6. An index past ``core.PRIME_CAP`` raises
    ``TableExhaustedError``. One walk over the primes finds them all.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    walk = enumerate(iter_primes(), 1)
    out = []
    for i in range(count):
        # term i + 1 takes the next prime at least 6·(i + 1)·i, and term 1 the prime 3 (r_1 = 2)
        bound = max(3, 6 * i * (i + 1))
        hit = next((r for r, p in walk if p >= bound), None)
        if hit is None:  # the walk stopped at the cap
            raise TableExhaustedError(f"prime index {PRIME_CAP + 1} beyond the cap of {PRIME_CAP} primes")
        out.append(hit)
    return out


def openness_radius(x: Rational) -> OpennessRadius:
    """A radius δ > 0 with ν constant on [x, x+δ], for tuple-class x.

    The nearest colour boundary above x in each family is computed in closed
    form: the next power of two, the next two-digit point 2^a + 2^(b+1), the
    next point 2^(a+1) − 2^c below a power of two, and the next quadratic-surd
    boundary 2^(a+1)·(1 − 2^(l−a))^(1/2), which is 2^(a+1/2) at l = a − 1; its
    gap is under-approximated by (S − x²)/2^(a+2) to stay rational. δ is half
    the smallest gap.
    """
    value = nu(x)
    if not isinstance(value, NuTuple):
        raise DomainError(f"{x} lies in a special class; no open neighbourhood")
    a, b, c = abc_exponents(x.numerator, x.denominator)
    l = c if value.w5 == value.w4 else c - 1  # x below the surd boundary (a, c)
    # Each gap times d²·2^(a+2−e) is an integer; p[k] is 2^k, nd is 2^(a+2)·x and nn is x², so scaled.
    e = min(0, a + b + 3, a + l + 2)
    dd, nd, nn = x.denominator**2, x.numerator * x.denominator << a + 2 - e, x.numerator**2 << -e
    p = {k: dd << k - e for k in (2 * a + 2, 2 * a + 3, a + b + 3, a + c + 2, a + l + 2)}
    gaps = [p[2 * a + 3] - nd, p[2 * a + 2] + p[a + b + 3] - nd, p[2 * a + 3] - p[a + c + 2] - nd]
    gaps.append(p[2 * a + 2] - p[a + l + 2] - nn)
    if min(gaps) <= 0:
        raise InternalInvariantError(f"non-positive boundary gap at {x}")
    return OpennessRadius(x, Fraction(min(gaps), dd << a + 3 - e), colour_key(value))


def minimal_digit_fact(z: Rational) -> bool:
    """True iff z's expansion in its minimal primorial base is the single
    position −1 span: s_k(z) = e_k(z) = −1."""
    if not 0 < z < 1:
        raise DomainError(f"value must be in (0,1), got {z}")
    k, u = prime_walk(z, z.denominator)
    return u == 1 and leading_frac_position(z, k) == -1


def _block_key(v: Rational, blocks: int, k: int) -> str:
    """μ's key of v < 1 from (k, 1), checked: v's denominator divides ``blocks`` and holds p_k."""
    if not (v < 1 and blocks % v.denominator == 0 and v.denominator % nth_prime(k) == 0):
        raise InternalInvariantError(f"{v} has no block denominator of base index {k}")
    return colour_key(mu_below_one(v, k, 1))


class _Budget:
    """Units left; each block-search node and each yielded block costs one."""

    def __init__(self, limit: int):
        self.left = limit


def _blocks_in_window(
    pool: list[tuple[int, int]], lo: int, hi: int, budget: _Budget
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Subsets of pool (position, prime) whose product lies in [lo, hi].

    Yielded in (max position, then include-first DFS) order so early blocks
    leave as much of the pool as possible for later levels; the nodes, their
    order and their spend, one unit each, are those of the plain DFS that
    pushes both children of every internal node. Float logs steer the pruning;
    the exact integer product, built from ``path`` only at nodes inside the
    float window, decides membership. ``path`` holds (k, log before k) for each
    included position k, deepest last. A node descends to its include child or
    backtracks: it pops the deepest entry and visits that entry's exclude
    child. So the nodes come in preorder, and ``spent`` counts each as it is
    met; it is settled into the budget at each yield and at the end. Spending
    more than room = max(budget.left, 0), read at the last yield, is an
    overdraw. It is tested before a yield and at each backtrack, so a node past
    the room offers nothing and the raise comes before the DFS's next yield.

    A node i below the window whose exclude child is dead (outside the window,
    unable to reach it) may head a forced run: every later exclude child dead
    too, so the DFS can only include everything up to h and overshoot. Let
    end = cur_log + gap[i], the log at h, and least[i] = min(logs[i:]). In
    exact arithmetic node k's exclude child reaches end − logs[k] ≤ end −
    least[i], and node k < h lies below that; so end − least[i] < t_lo and
    end > t_hi make the subtree h − i include nodes past the head and h − i
    dead children, none in the window. Such a run is counted in one step with
    no walk. Each float in these tests and in the walk they replace is a sum of
    logs, none above suffix[0], with at most 3n roundings (n = len(pool)) of at
    most suffix[0]·2^−53 each, so the two sides differ by under (5n + 2) such
    units; the tests are shifted by margin = n·suffix[0]·2^−50, which is 8n
    units. Inside the margin, or where the run ends in the window, the head
    descends as any node does.
    """
    if lo > hi or not pool:
        return
    logs = [math.log2(p) for _, p in pool]
    t_lo, t_hi = math.log2(lo) - 1e-9, math.log2(hi) + 1e-9
    suffix, least = [0.0] * (len(pool) + 1), [math.inf] * (len(pool) + 1)
    for i in range(len(pool) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + logs[i]
        least[i] = min(least[i + 1], logs[i])
    margin = len(pool) * suffix[0] * 2.0**-50
    run_lo, run_hi = t_lo - margin, t_hi + margin
    spent, room = 0, max(budget.left, 0)  # the consumer spends between yields
    for h in range(len(pool)):
        gap = [s - suffix[h] for s in suffix[: h + 1]]  # gap[i] = suffix[i] - suffix[h]
        path, i, cur_log = [], 0, logs[h]
        while True:
            spent += 1
            if cur_log < t_lo:
                end = cur_log + gap[i]
                if end >= t_lo:
                    if cur_log + gap[i + 1] < t_lo and end - least[i] < run_lo and end > run_hi:
                        spent += 2 * (h - i)  # a forced run: its include nodes and dead children
                    else:
                        path.append((i, cur_log))
                        cur_log, i = cur_log + logs[i], i + 1
                        continue
            elif cur_log <= t_hi:
                if spent <= room:
                    cur = math.prod([pool[k][1] for k, _ in path], start=pool[h][1])
                    if lo <= cur <= hi:
                        budget.left, spent = budget.left - spent, 0
                        yield tuple(sorted([pool[h][0], *(pool[k][0] for k, _ in path)])), cur
                        room = max(budget.left, 0)
                if i < h:
                    path.append((i, cur_log))
                    cur_log, i = cur_log + logs[i], i + 1
                    continue
            if spent > room:
                budget.left = min(budget.left, 0) - 1
                raise BudgetExhaustedError("block enumeration budget exhausted")
            if not path:
                break
            i, cur_log = path.pop()
            i += 1
    budget.left -= spent


def _mantissa_window(n: int, j: int) -> tuple[int, int]:
    """Integer products P with 2^n/P ∈ [1 + 2^(−j), 1 + 1.25·2^(−j)], for j ≥ 0."""
    lo = -(-(1 << (n + j + 2)) // ((1 << (j + 2)) + 5))
    hi = (1 << (n + j)) // ((1 << j) + 1)
    return lo, hi


class _Level(Record):
    block: tuple[int, ...]
    y: Rational
    n: int
    j: int


def extend_sum_closed(m: int, search_budget: int = DEFAULT_SEARCH_BUDGET) -> ConstructResult:
    """Terms whose finite sums and products are μ-monochromatic, certified.

    One depth-first search over disjoint blocks that takes every block its
    windows yield: n puts the term below half the least openness radius of the
    current subset sums (and below the current terms), so every sum stays in
    the shared ν class, and the window, j and zones give its products the first
    term's ν key. Both are invariants; a level moves on only when φ refuses n,
    a window is empty or a deeper level fails. The final certificate re-checks
    everything under μ.
    """
    if m < 1:
        raise DomainError(f"term count must be >= 1, got {m}")
    if search_budget < 1:
        raise DomainError(f"budget must be >= 1, got {search_budget}")
    pool_size = 16 + 14 * m
    try:
        indices = reciprocal_prime_indices(pool_size)
    except TableExhaustedError as exc:
        raise DomainError(f"term count {m} needs {pool_size} reciprocal primes: {exc}") from exc
    base_primes = [nth_prime(r) for r in indices]

    y1 = Fraction(1, 3)
    target = colour_key(nu(y1))
    budget = _Budget(search_budget)
    best_depth = 1

    def extend(levels: tuple[_Level, ...], sums: list[Rational], products: list[Rational], zone: set[int]):
        """``levels`` holds the accepted terms, ``sums`` and ``products`` their subset sums and products
        by bitmask, the empty one (0 and 1) first, and ``zone`` the subset sums of their |a|-exponents n;
        the first three are returned once all m terms are in, else None. The newest term y_t was accepted
        below half of every older sum's openness radius, so only y_t and the newest half of ``sums``, the
        sums that hold it, can set the next bound. Each product with a candidate is built once."""
        nonlocal best_depth
        if len(levels) == m:
            return levels, sums, products
        last = levels[-1]
        bound = min(last.y, *(openness_radius(s).radius for s in sums[len(sums) // 2 :])) / 2
        first_pos = max(last.block) + 1
        pool = [(t, base_primes[t - 1]) for t in range(first_pos, pool_size + 1)]
        weight = sum(math.log2(p) for _, p in pool)
        for n in range(max(last.n + 1, 2 - a_exponent(bound)), int(weight) + 1):
            if all(phi(-(s + n)) == 1 for s in zone):
                for j in (last.j + 3, last.j + 6):
                    lo, hi = _mantissa_window(n, j)
                    for block, prod in _blocks_in_window(pool, lo, hi, budget):
                        budget.left -= 1
                        if budget.left < 0:
                            raise BudgetExhaustedError("budget exhausted")
                        y = Fraction(1, prod)
                        if y >= bound:  # n ≥ 2 − a(bound), so the window gives y < 2^(1−n) ≤ bound/2
                            raise InternalInvariantError(f"term {y} not below the bound {bound}")
                        new_products, new_sums = [p * y for p in products], [s + y for s in sums]
                        for kind, values in (("product", new_products), ("sum", new_sums)):  # y itself first
                            for v in values:
                                if colour_key(nu(v)) != target:
                                    raise InternalInvariantError(f"{kind} {v} left the target class")
                        best_depth = max(best_depth, len(levels) + 1)
                        new_zone = zone | {s + n for s in zone}
                        deeper = levels + (_Level(block, y, n, j),)
                        if found := extend(deeper, sums + new_sums, products + new_products, new_zone):
                            return found
        return None

    try:
        found = extend((_Level(block=(1,), y=y1, n=2, j=2),), [0, y1], [1, y1], {0, 2})
    except BudgetExhaustedError as exc:
        raise BudgetExhaustedError(
            f"search budget exhausted at depth {best_depth}", best_depth=best_depth
        ) from exc
    if not found:
        raise BudgetExhaustedError(
            f"pool of {pool_size} terms exhausted at depth {best_depth}",
            best_depth=best_depth,
        )
    levels, sums, products = found
    ys = [lv.y for lv in levels]
    max_pos = max(levels[-1].block)
    system = BlockSystem(
        base_indices=tuple(indices[:max_pos]),
        blocks=tuple(lv.block for lv in levels),
    )
    keys, blocks = ColourTable("mu"), 1  # μ without a walk: sums and products [2^t : 2^(t+1)] end in term t
    for t, lv in enumerate(levels):
        blocks *= lv.y.denominator  # D_t: squarefree, its largest prime p_k at the block's last position
        for v in sums[2**t : 2 ** (t + 1)] + products[2**t : 2 ** (t + 1)]:
            keys[v.numerator, v.denominator] = _block_key(v, blocks, indices[max(lv.block) - 1])
    certificate = check("mu", ys, CombinationMode.FINITE_FSFP, keys=keys)
    if not isinstance(certificate.verdict, Monochromatic):
        raise InternalInvariantError(
            f"constructed terms fail the μ check: {certificate.verdict}"
        )
    return ConstructResult(
        system=system, terms=tuple(ys), key=target, certificate=certificate
    )
