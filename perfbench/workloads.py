"""The three closed-loop workloads: seeded inputs, timed ops, gated outputs.

One client issues one ``qcolour.cli.main`` call at a time, and the next only
after the previous one has returned and passed the gate. How much work a run
does is fixed by ``--seconds`` through the per-round estimates below, never
by how fast the program is, so two commits do the same work.
"""

from __future__ import annotations

import math
import random
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import gate
from common import ROOT, WORKERS_CAP, Op, median, run_cli, scaled
from qcolour.core import EXPONENT_LIMIT
from qcolour.verify import UniverseSpec

# --- inputs -------------------------------------------------------------------

CERTIFY_COLOURINGS = ("nu", "mu", "alpha", "theta", "phi")
TERM_COUNTS = (8, 9, 10, 11)
PROPERTIES_ARGV = ["properties", "--seed", "1", "--samples", "200"]
PROPERTIES_EVERY = 10  # check ops between properties runs: two per round


def _rational(rng: random.Random) -> Fraction:
    """A positive rational over the primes 2, 3, 5, 7, dyadic a third of the time.

    Powers of two (class C1) and dyadic values with few binary digits or one
    run of ones (C3, C4) occur among the dyadic draws.
    """
    kind = rng.random()
    if kind < 0.1:
        return Fraction(2) ** rng.randint(-4, 4)
    if kind < 0.35:
        return Fraction(rng.randint(1, 40), 2 ** rng.randint(0, 4))
    den = 1
    for p, top in ((2, 3), (3, 2), (5, 1), (7, 1)):
        den *= p ** rng.randint(0, top)
    return Fraction(rng.randint(1, 40), den)


def _phi_terms(rng: random.Random, k: int) -> list[int]:
    """Distinct naturals whose full product stays inside the 2^62 window."""
    while True:
        xs = rng.sample(range(1, 50), k)
        if math.prod(xs) <= EXPONENT_LIMIT:
            return xs


def certify_terms(rng: random.Random, colouring: str, k: int) -> list[str]:
    if colouring == "phi":
        return [str(x) for x in _phi_terms(rng, k)]
    if colouring == "theta":
        return [str(x) for x in rng.sample(range(1, 41), k)]
    terms: dict[Fraction, None] = {}
    while len(terms) < k:
        terms[_rational(rng)] = None
    return [str(x) for x in terms]


def certify_round(rng: random.Random, counts=TERM_COUNTS) -> list[tuple[str, list[str]]]:
    """One balanced round: every colouring at every term count, shuffled."""
    ops = [(c, certify_terms(rng, c, k)) for c in CERTIFY_COLOURINGS for k in counts]
    rng.shuffle(ops)
    return ops


def check_argv(path: Path, colouring: str, terms: list[str]) -> list[str]:
    """Write the terms file, outside any timed region, and return the op."""
    path.write_text("\n".join(terms) + "\n", encoding="utf-8")
    return ["check", "--colouring", colouring, "--mode", "finite", str(path)]


@dataclass(frozen=True)
class Universe:
    colouring: str
    numerator_bound: int
    denominator_bound: int = 1
    prime_index: int = 1
    integers_only: bool = False

    def args(self) -> list[str]:
        out = ["--colouring", self.colouring, "--numerator-bound", str(self.numerator_bound)]
        if self.integers_only:
            return out + ["--integers-only"]
        return out + ["--denominator-bound", str(self.denominator_bound),
                      "--prime-index", str(self.prime_index)]

    def spec(self) -> UniverseSpec:
        return UniverseSpec(self.numerator_bound, self.denominator_bound,
                            self.prime_index, self.integers_only)


# (colourings, numerator bound, denominator bound, primes): each shape runs
# under each of its colourings. alpha gets its own 2-prime shapes: on 3-prime
# windows its x <= 2 class makes most pairs monochromatic and the search no
# longer finishes in budget. The seed sets only the order: moving a bound by
# one changes a search's cost by up to a fifth, which would swamp the metrics.
SEARCH_SHAPES = (
    (("nu", "mu"), 18, 8, 3),
    (("nu", "mu"), 16, 10, 3),
    (("alpha",), 16, 8, 2),
    (("alpha",), 20, 6, 2),
)
THETA_NATURALS = 150
NAIVE_UNIVERSE = Universe("nu", 10, 4, 2)


def search_list(seed: int) -> list[Universe]:
    out = [Universe(c, n, d, k) for colourings, n, d, k in SEARCH_SHAPES for c in colourings]
    out.append(Universe("theta", THETA_NATURALS, integers_only=True))
    random.Random(f"search:{seed}").shuffle(out)
    return out


def search_argv(u: Universe, workers: int) -> list[str]:
    return ["search", *u.args(), "--mode", "pairwise", "--target", "3",
            "--workers", str(workers)]


CONSTRUCT_MS = (2, 3, 4)
M5 = 5
M5_BUDGET = 2_000_000


def construct_argv(m: int, budget: int | None = None) -> list[str]:
    argv = ["construct", "--terms", str(m)]
    return argv + ["--budget", str(budget)] if budget is not None else argv


# --- sizing -------------------------------------------------------------------

# Seconds of op time per unit of work on a 2-CPU machine at this commit; a run
# of --seconds S does round(S / estimate) units, so the work is set by S alone.
CERTIFY_ROUND_S = 2.9
SEARCH_PASS_S = 5.0  # the list at workers=1, then at workers=2
CONSTRUCT_ROUND_S = 0.18
M5_S = 1.05
M5_RUNS = 6


def units(seconds: float, estimate: float) -> int:
    return max(1, round(seconds / estimate))


# --- runs ---------------------------------------------------------------------


@dataclass
class Tally:
    """What a run measured: op times, the fixed job, gate results, extras.

    ``op_s`` and ``fixed_s`` hold times at reference speed (``scaled``);
    ``raw_op_s`` and ``raw_fixed_s`` hold the wall times they came from.
    """

    op_s: list[float] = field(default_factory=list)
    fixed_s: list[float] = field(default_factory=list)
    raw_op_s: list[float] = field(default_factory=list)
    raw_fixed_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)
    calibrations: list[float] = field(default_factory=list)

    def record(self, op: Op, why: str | None) -> bool:
        self.attempted += 1
        self.calibrations.append(op.calibration)
        if why is not None:
            self.failed += 1
            self.failures.append(f"{' '.join(op.argv[:3])}: {why}")
            return False
        return True

    def add_op(self, *ops: Op) -> None:
        self.op_s.append(sum(scaled(op) for op in ops))
        self.raw_op_s.append(sum(op.seconds for op in ops))

    def add_fixed(self, *ops: Op) -> None:
        self.fixed_s.append(sum(scaled(op) for op in ops))
        self.raw_fixed_s.append(sum(op.seconds for op in ops))


def run_certify(seed: int, rounds: int, counts=TERM_COUNTS) -> Tally:
    tally = Tally()
    rng = random.Random(f"certify:{seed}")
    gate_rng = random.Random(f"certify-gate:{seed}")
    values = 0
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        for r in range(rounds):
            for i, (colouring, terms) in enumerate(certify_round(rng, counts)):
                op = run_cli(check_argv(Path(tmp) / f"terms-{r}-{i}.txt", colouring, terms))
                if tally.record(op, gate.check_op(op, colouring, terms, gate_rng)):
                    tally.add_op(op)
                    values += 2 * (2 ** len(terms) - 1)
                if i % PROPERTIES_EVERY == PROPERTIES_EVERY - 1:
                    op = run_cli(PROPERTIES_ARGV)
                    if tally.record(op, gate.properties_op(op)):
                        tally.add_fixed(op)
    if tally.op_s:
        tally.extra["certify_values_per_s"] = (values / sum(tally.op_s), "1/s")
    return tally


def run_search(seed: int, passes: int, universes: list[Universe] | None = None) -> Tally:
    """An op is one pass over the list at workers=1; the fixed job is the
    same pass at workers=2. Each universe runs at both worker counts in turn,
    in alternating order, so the two outputs are compared right away."""
    tally = Tally()
    universes = universes if universes is not None else search_list(seed)
    w2 = min(2, WORKERS_CAP)
    for p in range(passes):
        pass_ops: dict[int, list[Op]] = {1: [], w2: []}
        for i, u in enumerate(universes):
            order = (1, w2) if (p + i) % 2 == 0 else (w2, 1)
            ops = {w: run_cli(search_argv(u, w)) for w in order}
            tally.calibrations.append(ops[w2].calibration)
            if tally.record(ops[1], gate.search_pair(ops[1], ops[w2])):
                for w in ops:
                    pass_ops[w].append(ops[w])
        if len(pass_ops[1]) == len(universes):
            tally.add_op(*pass_ops[1])
            tally.add_fixed(*pass_ops[w2])
    op = run_cli(search_argv(NAIVE_UNIVERSE, 1))
    tally.record(op, gate.search_vs_naive("nu", NAIVE_UNIVERSE.spec(), 3, op))
    if tally.op_s:
        tally.extra["search_w1_s"] = (median(tally.op_s), "s")
        tally.extra["search_w2_s"] = (median(tally.fixed_s), "s")
    return tally


def run_construct(rounds: int, m5_runs: int, budget: int = M5_BUDGET) -> Tally:
    tally = Tally()
    every = max(1, rounds // max(1, m5_runs))
    max_m, depth = 0, 0
    done_m5 = 0
    for r in range(rounds):
        ops = [run_cli(construct_argv(m)) for m in CONSTRUCT_MS]
        passed = [tally.record(op, gate.construct_op(op, m)) for op, m in zip(ops, CONSTRUCT_MS)]
        max_m = max([max_m] + [m for m, ok in zip(CONSTRUCT_MS, passed) if ok])
        if all(passed):
            tally.add_op(*ops)
        if done_m5 < m5_runs and (r + 1) % every == 0:
            done_m5 += 1
            op = run_cli(construct_argv(M5, budget))
            why, depth, certified = gate.budget_op(op, M5)
            if tally.record(op, why):
                tally.add_fixed(op)
                if certified:
                    max_m = max(max_m, M5)
    tally.extra["construct_max_m"] = (max_m, "count")
    tally.extra["construct.m5_best_depth"] = (depth, "count")
    return tally


def run(workload: str, seed: int, seconds: float) -> Tally:
    """The untraced run of one workload, sized from ``seconds``."""
    if workload == "colour-certify":
        return run_certify(seed, units(seconds, CERTIFY_ROUND_S))
    if workload == "search":
        return run_search(seed, units(seconds, SEARCH_PASS_S))
    if workload == "construct":
        m5_time = M5_RUNS * M5_S
        rounds = units(max(seconds - m5_time, CONSTRUCT_ROUND_S), CONSTRUCT_ROUND_S)
        return run_construct(rounds, M5_RUNS)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOAD_COLOURINGS = {
    "colour-certify": ["nu", "mu", "alpha", "theta", "phi"],
    "search": ["nu", "mu", "alpha", "theta"],
    "construct": ["nu", "mu"],
}
