"""Shared pieces: locating the package, running one CLI op, statistics."""

from __future__ import annotations

import contextlib
import io
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKERS_CAP = min(2, os.cpu_count() or 1)


class BenchError(Exception):
    """The benchmark cannot run here (no package, bad arguments)."""


def import_qcolour():
    """Import qcolour from this checkout's ``src`` and nowhere else."""
    if not (SRC / "qcolour" / "__init__.py").is_file():
        raise BenchError(f"no qcolour package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qcolour

    if Path(qcolour.__file__).resolve().parent != (SRC / "qcolour").resolve():
        raise BenchError(f"qcolour imported from {qcolour.__file__}, not {SRC}")
    return qcolour


# Median seconds of ``calibrate()`` on an idle 2-CPU x86-64 VM with Python 3.11.
CALIBRATION_REF_S = 0.0032


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop that uses no qcolour code.

    A shared machine's speed drifts by up to a third within seconds when
    other tenants load it. Timing this loop just before every op tracks that
    drift; ``scaled`` divides it out of the op's time.
    """
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(i, i * i + 1)
    seen = {}
    for i in range(8000):
        seen[i * 7 % 1013] = i
    return time.perf_counter() - t0


def speed_factor(calibrations: list[float]) -> float:
    """How much slower than the reference this run's machine was (1 = as fast)."""
    return statistics.median(calibrations) / CALIBRATION_REF_S


def scaled(op: "Op") -> float:
    """The op's seconds at reference speed, by the calibration taken just before it."""
    return op.seconds * CALIBRATION_REF_S / op.calibration


@dataclass
class Op:
    """One closed-loop call of ``qcolour.cli.main``."""

    argv: list[str]
    rc: int | None
    stdout: str
    seconds: float
    error: str | None = None
    calibration: float = 0.0


def run_cli(argv: list[str]) -> Op:
    """Time ``cli.main(argv)`` with stdout and stderr captured.

    ``calibrate()`` runs just before the op. A raised exception is recorded,
    not timed: the op counts as failed.
    """
    from qcolour import cli

    calibration = calibrate()
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - any escape is a failure
        return Op(argv, None, out.getvalue(), 0.0, f"{type(exc).__name__}: {exc}",
                  calibration)
    seconds = time.perf_counter() - t0
    return Op(argv, rc, out.getvalue(), seconds, err.getvalue().strip() or None, calibration)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with >= 10 samples beyond it.

    With fewer than 11 samples no percentile qualifies; the maximum is
    returned with percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def median(xs: list[float]) -> float:
    return statistics.median(xs)


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest waited-for child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


SETUP_CODE = """
import sys
from fractions import Fraction
sys.path.insert(0, {src!r})
import qcolour, qcolour.cli
from qcolour.colourings import colouring_fn
from qcolour.core import default_table
default_table()
for cid, v in {calls!r}:
    colouring_fn(cid)(Fraction(v))
"""

FIRST_CALLS = {
    "nu": ("nu", "5/7"),
    "mu": ("mu", "5/7"),
    "alpha": ("alpha", "37/12"),
    "theta": ("theta", "12"),
    "phi": ("phi", "12"),
}


def measure_setup(colourings: list[str], repeats: int) -> tuple[list[float], list[float]]:
    """Wall times of ``repeats`` fresh interpreters doing the package set-up,
    and the calibrations taken before each."""
    code = SETUP_CODE.format(src=str(SRC), calls=[FIRST_CALLS[c] for c in colourings])
    times, calibrations = [], []
    for _ in range(repeats):
        calibrations.append(calibrate())
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times, calibrations


def commit() -> str:
    """The checkout's commit from ``.git`` if there is one, else ``unknown``."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(workload: str, seed: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workers_cap": WORKERS_CAP,
        "commit": commit(),
    }
