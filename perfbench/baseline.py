"""Re-measure the ROADMAP baseline table with this benchmark's tools.

    python3 perfbench/baseline.py

Prints one line per row of the table, beside the number the ROADMAP gives.
Each row is measured once, as the table was, in raw wall time; the last row
is the machine's speed factor at the end. The README explains the gaps.
"""

from __future__ import annotations

import random
import sys
import time

from common import calibrate, import_qcolour, run_cli, speed_factor

import_qcolour()

import tracing  # noqa: E402
import workloads as W  # noqa: E402
from qcolour import colourings, core, digits  # noqa: E402
from qcolour.colourings import NuTuple  # noqa: E402
from qcolour.construct import extend_sum_closed  # noqa: E402
from qcolour.verify import CombinationMode, combinations  # noqa: E402

ROADMAP_UNIVERSE = W.Universe("nu", 30, 12, 3)


def workload_values(seed: int = 1, rounds: int = 2) -> list:
    """Combination values of the colour-certify inputs (rational colourings)."""
    rng = random.Random(f"certify:{seed}")
    values = set()
    for _ in range(rounds):
        for colouring, terms in W.certify_round(rng):
            if colouring in ("nu", "mu", "alpha"):
                xs = [core.parse_rational(t) for t in terms]
                values |= {v for _, v in combinations(xs, CombinationMode.FINITE_FSFP)}
    return tracing._sample(sorted(values), seed)


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def main() -> int:
    xs = [(x,) for x in workload_values()]
    tup = [(x,) for (x,) in xs if isinstance(colourings.nu(x), NuTuple)]
    us = tracing.per_call_us
    rows = [
        ("nu per call", f"{us(colourings.nu, xs):.1f} us", "54 us"),
        ("mu per call", f"{us(colourings.mu, xs):.1f} us", "60 us"),
        ("alpha per call", f"{us(colourings.alpha, xs):.1f} us", "65 us"),
        ("theta per call (1..10^6)",
         f"{us(colourings.theta, [(m,) for m in range(1, 10**6, 997)]):.1f} us", "7 us"),
        ("b_exponent per call", f"{us(digits.b_exponent, tup):.1f} us", "21 us"),
        ("c_exponent per call", f"{us(digits.c_exponent, tup):.1f} us", "22 us"),
        ("a_exponent per call", f"{us(core.a_exponent, xs):.1f} us", "2.2 us"),
    ]
    rng = random.Random(1)
    ks = [rng.randint(-(2**60), 2**60) for _ in range(10**4)]
    before = len(getattr(colourings, "_PHI_MEMO", ()))
    spent = timed(lambda: [colourings.phi(k) for k in ks])
    grown = len(getattr(colourings, "_PHI_MEMO", ())) - before
    rows.append(("phi cold, 1e4 random +-2^60", f"{1e6 * spent / len(ks):.1f} us, memo +{grown}",
                 "30 us"))

    run = tracing.TracedRun("search", 1)
    segment = run.segments["search"]
    plain, _ = segment.op(W.search_argv(ROADMAP_UNIVERSE, 1))
    w2 = run_cli(W.search_argv(ROADMAP_UNIVERSE, 2))
    calls = segment.tracer.calls["colourings.colour"]
    distinct = len(segment.probe.values["nu"])
    rows += [
        ("search nu 171 elements, workers=1", f"{plain.seconds:.2f} s", "2.5 s"),
        ("search nu 171 elements, workers=2", f"{w2.seconds:.2f} s", "2.3 s (workers=4)"),
        ("  nu calls / distinct values", f"{calls} / {distinct}", "35064 / 4783"),
    ]
    for m, then in ((2, "0.01 s"), (3, "0.03 s"), (4, "0.21 s")):
        rows.append((f"extend_sum_closed({m})", f"{timed(lambda: extend_sum_closed(m)):.3f} s",
                     then))
    m5 = run_cli(W.construct_argv(W.M5, W.M5_BUDGET))
    rows.append(("construct --terms 5 --budget 2e6", f"{m5.seconds:.2f} s, exit {m5.rc}",
                 "1.4 s, fails at depth 4"))
    rows.append(("speed factor (1 = reference)",
                 f"{speed_factor([calibrate() for _ in range(21)]):.2f}", "not recorded"))
    width = max(len(r[0]) for r in rows)
    print(f"{'row':<{width}}  {'now':<24}  ROADMAP")
    for name, now, then in rows:
        print(f"{name:<{width}}  {now:<24}  {then}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
