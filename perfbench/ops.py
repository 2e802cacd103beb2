"""Workload inputs, the operation each workload repeats, and output checks.

Every input comes from numpy generators seeded by the workload seed, so the
same seed gives the same inputs.  Cold workloads give each operation a
fresh engine; `suites-warm` keeps the module-level engines of one process
warm across operations, as inside one `seqnorm verify` call.
"""
from __future__ import annotations

import gzip
import json
import math
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from seqnorm import cli, io, witness
from seqnorm.constructions import build_average, feasible_average_sizes
from seqnorm.core import EQ_TOL, FiniteVector
from seqnorm.family_engine import Exhaustive, FamilyEngine, SegmentDP, get_engine
from seqnorm.qsum_engine import QSumConfig, QSumEngine
from seqnorm.suites import SUITES

WORKLOADS = ("x2-segment-cold", "x1-small-cold", "suites-warm")
DEFAULT_SEED = 1
HELDOUT_SEED = 9308205
REF_DIR = Path(__file__).resolve().parent / "refs"

SUITE_CYCLE = ("avgbounds", "offpeak", "stackbound")
SUITE_POOL = 2400  # instances per seed; a run that exhausts them starts over
COLD_POOL_CYCLES = 4  # each cycle visits every support size once
CLI_REPEATS = 3
CLI_VERIFY_COUNT = 3
TIME_LIMIT_S = 1.0  # for max_support_1s
MIN_FIT_S = 0.02  # shorter probes are too noisy to place the crossing
KERNEL_REF_MS = 1.5  # reference CPU speed: a SpeedGauge sample takes 1.5 ms
# The engines slow by about this power of the gauge's slowdown: over runs of
# all three workloads on the host README.md describes, 0.75 gave the
# smallest run-to-run spread (1 over-corrects, 0.5 under-corrects).
GAUGE_EXPONENT = 0.75


class OutputMismatch(Exception):
    """An operation returned a wrong or inconsistent result."""


# A fixed input for the calibration kernel: 22 values in (0.1, 3).
_KERNEL_INPUT = tuple(0.1 + 2.9 * ((i * 0.6180339887) % 1.0) for i in range(22))


def _partition_kernel() -> float:
    """A memoized best-partition search in plain Python, independent of
    seqnorm: tuple slicing, dict probes and float maxima, like the engines."""
    memo: dict = {}

    def bps(p: tuple, m: int) -> float:
        if m >= len(p):
            return sum(p)
        if m == 1:
            return max(p)
        hit = memo.get((p, m))
        if hit is not None:
            return hit
        best = max(max(p[:t]) + bps(p[t:], m - 1) for t in range(1, len(p)))
        memo[(p, m)] = best
        return best

    return bps(_KERNEL_INPUT, 5)


class SpeedGauge:
    """Measures how fast the CPU runs engine-like Python code right now.

    Shared virtual CPUs change speed by up to 2x for minutes at a time, and
    not every kind of code slows alike.  A sample times a memoized
    partition search plus 1000 random probes into a dict of 100,000 tuple
    keys (large memos miss the caches as the engines' do).  Timings are
    scaled by `speed_factor`, so they read as if the CPU ran at the speed
    where a sample takes KERNEL_REF_MS.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        keys = [tuple(row) for row in rng.random((100_000, 3)).tolist()]
        self.table = dict(zip(keys, range(len(keys))))
        self.probes = [keys[i] for i in rng.choice(len(keys), 1000, replace=False)]

    def _once(self) -> float:
        t0 = time.perf_counter()
        _partition_kernel()
        table = self.table
        acc = 0
        for k in self.probes:
            acc += table[k]
        return (time.perf_counter() - t0) * 1e3

    def sample(self) -> float:
        """Milliseconds of one calibration sample (median of three)."""
        return sorted(self._once() for _ in range(3))[1]


def speed_factor(before: float, after: float) -> float:
    """Turns a wall time measured between gauge samples `before` and `after`
    (ms) into time at the reference CPU speed."""
    return (KERNEL_REF_MS / ((before + after) / 2)) ** GAUGE_EXPONENT


def _tag(workload: str) -> int:
    return WORKLOADS.index(workload) + 1


def random_vector(rng, n: int) -> FiniteVector:
    """n points, random gaps in {1, 2, 3}, coefficients U(0.1, 3) with random signs."""
    idx = np.cumsum(rng.integers(1, 4, size=n))
    coef = rng.uniform(0.1, 3.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    return FiniteVector(zip(idx.tolist(), coef.tolist()))


def close(got: float, want: float) -> bool:
    return abs(got - want) <= EQ_TOL * max(1.0, abs(want))


def same_report(got, want) -> bool:
    """Equal JSON trees; numbers within EQ_TOL relative."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(same_report(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(same_report(g, w) for g, w in zip(got, want)))
    if isinstance(want, float) and not isinstance(got, bool):
        if isinstance(got, (int, float)):
            return got == want or close(float(got), want)
        return False
    return got == want


def witness_nodes(w) -> int:
    children = getattr(w, "children", None) or ()
    pieces = [c for _, c in getattr(w, "pieces", ())]
    head = [c for _, c in getattr(w, "head", ())]
    return 1 + sum(witness_nodes(c) for c in (*children, *pieces, *head))


# ----------------------------------------------------------------------
# cold workloads: one fresh engine per operation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ColdSpec:
    lo: int
    hi: int
    space: str  # "x2" or "x1"

    def engine(self):
        if self.space == "x2":
            return FamilyEngine(SegmentDP())
        return QSumEngine(QSumConfig.small())

    def cli_args(self, path: str) -> list[str]:
        if self.space == "x2":
            return ["norm", "x2", path, "--mode", "segment"]
        return ["norm", "x1", path, "--config", "small"]


COLD = {
    "x2-segment-cold": ColdSpec(16, 32, "x2"),
    "x1-small-cold": ColdSpec(30, 50, "x1"),
}


def cold_inputs(workload: str, seed: int) -> list[FiniteVector]:
    """COLD_POOL_CYCLES cycles; each holds every size in [lo, hi] once, in
    a seeded order, so every whole cycle carries the same size mix."""
    spec = COLD[workload]
    rng = np.random.default_rng([seed, _tag(workload)])
    out = []
    for _ in range(COLD_POOL_CYCLES):
        for n in rng.permutation(np.arange(spec.lo, spec.hi + 1)).tolist():
            out.append(random_vector(rng, n))
    return out


def cold_op(spec: ColdSpec, x: FiniteVector, rec, stats: dict | None = None) -> float:
    """Norm on a fresh engine, witness on the now warm engine, validation
    and a witness JSON round trip.  Returns the value; raises on a bad output."""
    engine = spec.engine()
    value = engine.norm(x)
    value2, w = engine.norm(x, with_witness=True)
    witness.validate_witness(w, x)
    with rec.span("io.witness_roundtrip"):
        text = io.canonical_json(witness.witness_to_json(w))
        back = witness.witness_from_json(json.loads(text))
    if value2 != value or not close(w.value, value):
        raise OutputMismatch(f"norm {value}, witnessed norm {value2}, witness {w.value}")
    if back != w:
        raise OutputMismatch("witness changed in the JSON round trip")
    if stats is not None:
        stats.setdefault("nodes", []).append(witness_nodes(w))
        stats.setdefault("bytes", []).append(len(text))
    return value


# ----------------------------------------------------------------------
# suites-warm: seeded suite instances on warm module-level engines
# ----------------------------------------------------------------------


def suite_inputs(seed: int) -> list[tuple[str, int]]:
    rng = np.random.default_rng([seed, _tag("suites-warm")])
    seeds = rng.integers(0, 2**31, size=SUITE_POOL).tolist()
    return [(SUITE_CYCLE[i % len(SUITE_CYCLE)], s) for i, s in enumerate(seeds)]


def warm_up() -> None:
    """Build every certified average the three suites can draw.

    The averages' coefficient patterns do not depend on the seed (gaps do
    not enter a pattern and the equivalence sampler has a fixed seed), so
    afterwards every run's engines hold the same memo, whatever the seed.
    Without this the first run of a 10-12 point average costs seconds and
    lands on a seed-dependent instance.
    """
    engine = get_engine(Exhaustive())
    for p in (1.0, 2.0):
        for k in range(1, feasible_average_sizes(p) + 1):
            for length in (1, 2, 3, 4):
                if k * length <= 12:
                    build_average(p, k, engine, lengths=[length])


def suite_op(item: tuple[str, int], rec) -> dict:
    name, s = item
    with rec.span(f"suites.{name}"):
        report = SUITES[name](1, s)
    if not report.ok:
        raise OutputMismatch(f"suite {name} seed {s} is not ok")
    return report.to_json()


# ----------------------------------------------------------------------
# frozen references
# ----------------------------------------------------------------------


def ref_path(workload: str, seed: int) -> Path:
    return REF_DIR / f"{workload}.{seed}.json.gz"


def load_refs(workload: str, seed: int) -> list | None:
    """Frozen outputs for the pool of this seed, or None if none were frozen."""
    path = ref_path(workload, seed)
    if not path.exists():
        return None
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def save_refs(workload: str, seed: int, refs: list) -> None:
    REF_DIR.mkdir(exist_ok=True)
    with gzip.open(ref_path(workload, seed), "wt") as fh:
        json.dump(refs, fh, separators=(",", ":"))


def check_against(refs: list | None, i: int, out) -> None:
    if refs is None:
        return
    want = refs[i % len(refs)]
    ok = close(out, want) if isinstance(want, float) else same_report(out, want)
    if not ok:
        raise OutputMismatch(f"output {i} differs from the frozen reference")


# ----------------------------------------------------------------------
# max_support_1s: largest support a cold operation finishes within 1 s
# ----------------------------------------------------------------------


class _ProbeTimeout(BaseException):
    """Raised by the interval timer to abandon a probe past the limit."""


def _probe(gauge: SpeedGauge, make_engine, x: FiniteVector, limit: float) -> float | None:
    """Seconds, at the reference CPU speed, a fresh engine takes for norm,
    witness and validation; None past `limit`.  Raises on a bad witness."""
    armed = [True]

    def on_alarm(signum, frame):
        if armed[0]:
            raise _ProbeTimeout

    before = gauge.sample()
    previous = signal.signal(signal.SIGALRM, on_alarm)
    try:
        # abandon well past the limit only, so speed scaling decides near it
        signal.setitimer(signal.ITIMER_REAL, 1.1 * limit / speed_factor(before, before))
        t0 = time.perf_counter()
        try:
            engine = make_engine()
            value = engine.norm(x)
            _, w = engine.norm(x, with_witness=True)
            witness.validate_witness(w, x)
            elapsed = time.perf_counter() - t0
            armed[0] = False
        except _ProbeTimeout:
            return None
    finally:
        armed[0] = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if not close(w.value, value):
        raise OutputMismatch(f"probe witness {w.value} for norm {value}")
    elapsed *= speed_factor(before, gauge.sample())
    return elapsed if elapsed <= limit else None


def max_support(gauge: SpeedGauge, make_engine, vector_for, limit: float = TIME_LIMIT_S,
                start: int = 8, cap: int = 4096) -> tuple[float, int]:
    """Support size at which a cold operation takes `limit` seconds.

    Doubling, then bisection, brackets the largest size `lo` whose probe
    finishes within the limit.  A least-squares fit of log-time on log-size
    over the finished probes that took at least MIN_FIT_S then places the
    crossing, so the figure moves continuously with speed and one slow
    probe does not decide it.  Returns (size, probes made).
    """
    times: dict[int, float | None] = {}

    def fits(n: int) -> bool:
        times[n] = _probe(gauge, make_engine, vector_for(n), limit)
        return times[n] is not None

    lo, n = 0, start
    while n <= cap and fits(n):
        lo, n = n, 2 * n
    if lo == 0 or n > cap:
        return float(lo), len(times)
    hi = n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    pts = [(math.log(k), math.log(t)) for k, t in times.items() if t and t >= MIN_FIT_S]
    if len(pts) < 2:
        return float(lo), len(times)
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    slope = sum((x - mx) * (y - my) for x, y in pts) / sxx
    if slope <= 0:
        return float(lo), len(times)
    return math.exp(mx + (math.log(limit) - my) / slope), len(times)


def probe_setup(workload: str, seed: int):
    """(engine factory, seeded vector of size n) for the max_support search."""
    if workload in COLD:
        make_engine = COLD[workload].engine
    else:  # the exhaustive mode every suite instance uses, without its limit
        def make_engine():
            return FamilyEngine(Exhaustive(max_support=1 << 20))

    def vector_for(n: int) -> FiniteVector:
        return random_vector(np.random.default_rng([seed, _tag(workload), 7, n]), n)

    return make_engine, vector_for


# ----------------------------------------------------------------------
# CLI layer guard
# ----------------------------------------------------------------------


def _strip_timings(text: str) -> str:
    obj = json.loads(text)
    obj.pop("timings", None)
    return io.canonical_json(obj)


def cli_calls(workload: str, x: FiniteVector | None, expected, verify_seed: int | None,
              tmpdir: str, rec) -> list[tuple[float, Exception | None]]:
    """Runs `seqnorm.cli.main` CLI_REPEATS times on one workload input.

    Each call must exit 0, report the library's value (for `verify`, the
    library's report) and, timings aside, repeat the first call's JSON
    byte for byte.  Returns (milliseconds, error or None) per call.
    """
    if workload in COLD:
        path = os.path.join(tmpdir, "vector.json")
        io.save_vector(x, path)
        argv = COLD[workload].cli_args(path)
    else:
        argv = ["verify", "offpeak", "--seed", str(verify_seed),
                "--count", str(CLI_VERIFY_COUNT)]
    results = []
    first = None
    for k in range(CLI_REPEATS):
        out = os.path.join(tmpdir, f"report{k}.json")
        rec.begin_op("cli")
        t0 = time.perf_counter()
        with rec.span("cli.call"):
            code = cli.main([*argv, "--out", out])
        ms = (time.perf_counter() - t0) * 1e3
        try:
            if code != 0:
                raise OutputMismatch(f"seqnorm {' '.join(argv)} exited {code}")
            text = _strip_timings(Path(out).read_text())
            report = json.loads(text)
            if workload in COLD:
                if report["value"] != expected:
                    raise OutputMismatch(f"CLI value {report['value']}, library {expected}")
            else:
                got = {k: v for k, v in report.items() if k not in ("command", "suite", "seed")}
                want = {k: v for k, v in expected.items() if k not in ("suite", "seed")}
                if got != want:
                    raise OutputMismatch("CLI verify report differs from the library's")
            if first is None:
                first = text
            elif text != first:
                raise OutputMismatch("repeated CLI call gave different JSON")
            results.append((ms, None))
        except (OutputMismatch, OSError, ValueError, KeyError) as exc:
            results.append((ms, exc))
    return results


def library_verify_report(verify_seed: int) -> dict:
    return json.loads(io.canonical_json(
        SUITES["offpeak"](CLI_VERIFY_COUNT, verify_seed).to_json()))

