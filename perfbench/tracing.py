"""The traced run: spans at layer boundaries, per-call costs, trace overhead.

Spans come from rebinding module attributes to timing wrappers from this
file; nothing inside the program changes. A layer's self time is its span
time minus the spans of the calls it made into other wrapped layers.

Each workload traces its own ops. Layers it never enters (the search DFS on
colour-certify and construct, the block search on colour-certify and
search) are traced on a small fixed probe in the same run, so every run
reports every per-layer metric.
"""

from __future__ import annotations

import json
import random
import tempfile
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

import gate
import workloads as W
from common import ROOT, Op, run_cli

import qcolour.cli
import qcolour.construct
import qcolour.verify
from qcolour import colourings, core, digits
from qcolour.colourings import NuTuple, colour_key
from qcolour.errors import QcolourError
from qcolour.verify import Certificate, combinations, validate

SEARCH_PROBE = W.Universe("nu", 18, 8, 3)
SAMPLE_VALUES = 300
MIN_PROBE_S = 0.05


class Tracer:
    """Spans with self time, plus hooks that see arguments and results."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args)
            child = [0.0]
            self._stack.append(child)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - t0
                self._stack.pop()
                self.total[name] += spent
                self.self_s[name] += spent - child[0]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][0] += spent
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def replace(self, module, attr: str, value) -> None:
        """Rebind ``module.attr`` until ``restore``."""
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def patch(self, module, attr: str, name: str, **hooks) -> None:
        self.replace(module, attr, self.wrap(name, getattr(module, attr), **hooks))

    def restore(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)


class Probe:
    """What the traced ops coloured, assembled and printed."""

    def __init__(self) -> None:
        self.values: dict[str, set] = defaultdict(set)  # colouring id -> values
        self.nu_values: set[Fraction] = set()
        self.check_values = 0

    def all_values(self) -> set[Fraction]:
        return self.nu_values.union(*self.values.values())

    def install(self, tracer: Tracer) -> None:
        probe = self
        real_colouring_fn = qcolour.verify.colouring_fn

        def colouring_fn(colouring_id, table=None):
            seen = probe.values[colouring_id]
            return tracer.wrap("colourings.colour", real_colouring_fn(colouring_id, table),
                               on_call=seen.add)

        tracer.replace(qcolour.verify, "colouring_fn", colouring_fn)

        def count(cert):
            probe.check_values += len(cert.combinations)

        tracer.patch(qcolour.cli, "main", "cli.main")
        tracer.patch(qcolour.cli, "check", "verify.check", on_result=count)
        tracer.patch(qcolour.verify, "check", "verify.check", on_result=count)
        tracer.patch(qcolour.cli, "search", "verify.search")
        tracer.patch(qcolour.cli, "property_suite", "verify.property_suite")
        tracer.patch(qcolour.cli, "extend_sum_closed", "construct.extend_sum_closed")
        tracer.patch(qcolour.construct, "nu", "construct.nu", on_call=self.nu_values.add)
        tracer.patch(qcolour.construct, "openness_radius", "construct.openness_radius")
        tracer.patch(qcolour.construct, "check", "construct.final_check", on_result=count)


class Segment:
    """The ops of one workload kind, traced with their own spans."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.probe = Probe()

    def op(self, argv: list[str]) -> tuple[Op, Op]:
        """The same op untraced, then traced."""
        plain = run_cli(argv)
        self.probe.install(self.tracer)
        try:
            traced = run_cli(argv)
        finally:
            self.tracer.restore()
        return plain, traced


class TracedRun:
    def __init__(self, workload: str, seed: int) -> None:
        if workload not in W.WORKLOAD_COLOURINGS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.tally = W.Tally()
        self.segments = {name: Segment() for name in W.WORKLOAD_COLOURINGS}
        self.plain_s = 0.0  # own ops, untraced
        self.traced_s = 0.0  # own ops, traced
        self.stdout_bytes: list[int] = []
        self.certificates: list[Certificate] = []
        self.construct_outputs: list[dict] = []
        self.search_nodes = 0
        self.search_w1_s = 0.0
        self.search_w2_s = 0.0
        self.m5_s = 0.0
        self.m5_depth = 0
        self.max_m = 0

    def _op(self, segment: str, argv: list[str]) -> tuple[Op, Op]:
        plain, traced = self.segments[segment].op(argv)
        if segment == self.workload:
            self.plain_s += plain.seconds
            self.traced_s += traced.seconds
            self.stdout_bytes.append(len(traced.stdout))
        return plain, traced

    def certify_segment(self) -> None:
        rng = random.Random(f"certify:{self.seed}")
        gate_rng = random.Random(f"certify-gate:{self.seed}")
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
            for i, (colouring, terms) in enumerate(W.certify_round(rng)):
                argv = W.check_argv(Path(tmp) / f"terms-{i}.txt", colouring, terms)
                ops = self._op("colour-certify", argv)
                if all([self.tally.record(op, gate.check_op(op, colouring, terms, gate_rng))
                        for op in ops]):
                    self.certificates.append(Certificate.from_json(ops[1].stdout))
        for op in self._op("colour-certify", W.PROPERTIES_ARGV):
            self.tally.record(op, gate.properties_op(op))

    def search_segment(self, universes: list[W.Universe]) -> None:
        own = self.workload == "search"
        for u in universes:
            plain, traced = self._op("search", W.search_argv(u, 1))
            w2 = run_cli(W.search_argv(u, min(2, W.WORKERS_CAP)))
            ok = [self.tally.record(op, gate.search_pair(op, w2)) for op in (plain, traced)]
            if not all(ok):
                continue
            result = json.loads(plain.stdout)
            self.search_nodes += result["nodes"]
            self.search_w1_s += plain.seconds
            self.search_w2_s += w2.seconds
            if own:
                self.certificates += [Certificate.from_obj(c) for c in result["certificates"]]

    def construct_segment(self) -> None:
        own = self.workload == "construct"
        for m in W.CONSTRUCT_MS:
            ops = self._op("construct", W.construct_argv(m))
            if not all([self.tally.record(op, gate.construct_op(op, m)) for op in ops]):
                continue
            self.max_m = max(self.max_m, m)
            result = json.loads(ops[1].stdout)
            self.construct_outputs.append(result)
            if own:
                self.certificates.append(Certificate.from_obj(result["certificate"]))
        plain, traced = self._op("construct", W.construct_argv(W.M5, W.M5_BUDGET))
        for op in (plain, traced):
            why, self.m5_depth, certified = gate.budget_op(op, W.M5)
            if self.tally.record(op, why) and certified:
                self.max_m = max(self.max_m, W.M5)
        self.m5_s = plain.seconds

    def run(self) -> None:
        """The workload's own ops first, then probes of the layers it skips."""
        if self.workload == "colour-certify":
            self.certify_segment()
        if self.workload != "construct":
            self.construct_segment()
        self.search_segment(W.search_list(self.seed) if self.workload == "search"
                            else [SEARCH_PROBE])
        if self.workload == "construct":
            self.construct_segment()

    # --- metrics ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        own = self.segments[self.workload]
        t, s, n = own.tracer.total, own.tracer.self_s, own.tracer.calls
        ct = self.segments["construct"].tracer
        colour_calls = n["colourings.colour"]
        distinct = sum(len(v) for v in own.probe.values.values())
        table = self._table()
        out = {
            "verify.colour_calls": colour_calls,
            "verify.distinct_values": distinct,
            "verify.colour_cache_useful_ratio": distinct / max(1, colour_calls),
            "verify.colour_s": t["colourings.colour"],
            "verify.self_s": s["construct.final_check"]
            + sum(v for k, v in s.items() if k.startswith("verify.")),
            "verify.check_assembly_us_per_value": 1e6
            * (s["verify.check"] + s["construct.final_check"]) / max(1, own.probe.check_values),
            "verify.search_nodes": self.search_nodes,
            "verify.search_nodes_per_s": self.search_nodes / self.search_w1_s,
            "verify.w2_scaling_efficiency": self.search_w1_s / (2 * self.search_w2_s),
            "cli.self_us_per_op": 1e6 * s["cli.main"] / max(1, n["cli.main"]),
            "cli.emit_bytes_per_op": sum(self.stdout_bytes) / max(1, len(self.stdout_bytes)),
            "construct.block_nodes_per_s": W.M5_BUDGET / self.m5_s,
            "construct.block_enum_self_s": ct.self_s["construct.extend_sum_closed"],
            "construct.nu_calls": ct.calls["construct.nu"],
            "construct.nu_s": ct.total["construct.nu"],
            "construct.openness_radius_s": ct.total["construct.openness_radius"],
            "construct.final_check_s": ct.total["construct.final_check"],
            "construct.m5_best_depth": self.m5_depth,
            "construct.max_m": self.max_m,
            "construct.default_table_rejects": sum(
                gate.default_table_rejects(r) for r in self.construct_outputs),
            "colourings.phi_memo_entries": len(getattr(colourings, "_PHI_MEMO", ())),
            "trace_overhead_ratio": self.traced_s / self.plain_s,
        }
        values = own.probe.all_values()
        out.update(per_call_costs(_sample(sorted(values), self.seed), _naturals(values, self.seed), table))
        out.update(per_value_costs(self.certificates, table))
        return out

    def _table(self):
        if self.workload == "construct" and self.construct_outputs:
            return max((gate.sized_table(r) for r in self.construct_outputs),
                       key=lambda tb: tb.count)
        return core.default_table()


def _naturals(values: set[Fraction], seed: int) -> list[int]:
    """The integer values; denominators too when there are few of them."""
    ints = {v.numerator for v in values if v.denominator == 1}
    if len(ints) < SAMPLE_VALUES // 3:
        ints |= {v.denominator for v in values}
    return _sample(sorted(m for m in ints if 1 <= m <= W.EXPONENT_LIMIT), seed)


def _sample(xs: list, seed: int) -> list:
    if len(xs) <= SAMPLE_VALUES:
        return xs
    return random.Random(f"trace-sample:{seed}").sample(xs, SAMPLE_VALUES)


def per_call_us(fn, arg_lists: list[tuple]) -> float:
    """Mean microseconds per call over the arguments that ``fn`` accepts."""
    ok = []
    for args in arg_lists:
        try:
            fn(*args)
        except QcolourError:
            continue
        ok.append(args)
    if not ok:
        raise ValueError(f"no workload value is in the domain of {fn!r}")
    calls, t0 = 0, time.perf_counter()
    while True:
        for args in ok:
            fn(*args)
        calls += len(ok)
        spent = time.perf_counter() - t0
        if spent >= MIN_PROBE_S:
            return 1e6 * spent / calls


def per_call_costs(rationals: list[Fraction], naturals: list[int], table) -> dict[str, float]:
    tuple_class = []
    for x in rationals:
        if isinstance(colourings.nu(x), NuTuple):
            tuple_class.append((x, core.a_exponent(x), digits.c_exponent(x)))
    below_one = []
    for x in rationals:
        if x < 1:
            try:
                below_one.append((x, core.minimal_base_index(x, table), table))
            except QcolourError:
                pass
    xs = [(x,) for x in rationals]
    ms = [(m,) for m in naturals if m >= 1]
    keys = [(colourings.nu(x),) for x in rationals] + [(colourings.theta(m),) for (m,) in ms]
    return {
        "core.a_exponent_us": per_call_us(core.a_exponent, xs),
        "core.cmp_boundary_us": per_call_us(
            lambda x, a, c: (core.cmp_pow2_half(x, a), core.cmp_c5_boundary(x, a, c)),
            tuple_class),
        "core.minimal_base_index_us": per_call_us(
            lambda x: core.minimal_base_index(x, table), xs),
        "digits.b_exponent_us": per_call_us(digits.b_exponent, [a[:1] for a in tuple_class]),
        "digits.c_exponent_us": per_call_us(digits.c_exponent, [a[:1] for a in tuple_class]),
        "digits.s_frac_us": per_call_us(digits.s_frac, below_one),
        "digits.e_frac_us": per_call_us(digits.e_frac, below_one),
        "digits.expand_us": per_call_us(digits.expand, below_one),
        "colourings.nu_us": per_call_us(colourings.nu, xs),
        "colourings.mu_us": per_call_us(lambda x: colourings.mu(x, table), xs),
        "colourings.alpha_us": per_call_us(lambda x: colourings.alpha(x, table), xs),
        "colourings.theta_us": per_call_us(colourings.theta, ms),
        "colourings.phi_us": per_call_us(colourings.phi, ms),
        "colourings.colour_key_us": per_call_us(colour_key, keys),
    }


def per_value_costs(certs: list[Certificate], table) -> dict[str, float]:
    values = sum(len(c.combinations) for c in certs)
    texts = [c.to_json() for c in certs]

    def timed(fn, items) -> float:
        t0 = time.perf_counter()
        for item in items:
            fn(item)
        return 1e6 * (time.perf_counter() - t0) / max(1, values)

    return {
        "verify.combinations_us_per_value": timed(
            lambda c: combinations(list(c.sequence), c.mode), certs),
        "verify.from_json_us_per_value": timed(Certificate.from_json, texts),
        "verify.validate_us_per_value": timed(lambda c: validate(c, None, table), certs),
        "cli.emit_us_per_value": timed(
            lambda c: json.dumps(c.to_obj(), separators=(",", ":")), certs),
    }
