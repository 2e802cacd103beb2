"""Seeded benchmark of the seqnorm engines, run from the repository root.

    python3 perfbench/run.py --workload x2-segment-cold --seed 1 --seconds 10 --trace 0

One client, one operation at a time, no threads: a closed loop pinned to
one CPU.  The timed phase runs whole cycles of the workload's inputs until
`--seconds` have passed and a minimum number of operations ran.  Every
output is checked; the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  README.md has the details.

--trace 0   end-to-end metrics: ops_per_s, latency_p50_ms, latency_tail_ms,
            max_support_1s, setup_s, peak_rss_mb.
--trace 1   per-layer metrics from spans recorded around the calls into the
            `seqnorm` modules (see spans.py); half the time runs untraced to
            give trace.overhead_ratio.

The program is imported from `src/` of the checkout the benchmark sits in;
without it the benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import time

T_LAUNCH = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5
CAL_INTERVAL_S = 0.1
# Per workload: the fewest operations a timed phase runs, and the tail
# percentile, fixed so that at least ten of those operations lie beyond it.
MIN_OPS = {"x2-segment-cold": 3 * 17, "x1-small-cold": 3 * 21, "suites-warm": 900}
TAIL_Q = {"x2-segment-cold": 75.0, "x1-small-cold": 75.0, "suites-warm": 90.0}
# suites-warm instances run untimed after the warm-up, before peak RSS is
# read, so that the memo growth of a long-running process shows in it
SUITE_FIXED_OPS = 600

E2E_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "max_support_1s": "points",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import seqnorm from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import seqnorm
    except ImportError as exc:
        print(f"perfbench: cannot import seqnorm from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(seqnorm.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: seqnorm was imported from {seqnorm.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print 'ready' and exit (used to time set-up)")
    return ap.parse_args(argv)


def pin_cpu() -> int:
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def percentile(latencies: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(latencies)
    return xs[max(0, math.ceil(q / 100.0 * len(xs)) - 1)]


def setup_seconds(workload: str, seed: int, gauge) -> tuple[float, float]:
    """Launch a fresh interpreter, pinned to this process's CPU, that sets up
    this workload; time until it reports ready.  Returns (seconds at the
    reference CPU speed, raw seconds)."""
    before = gauge.sample()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed * ops.speed_factor(before, gauge.sample()), elapsed


class Run:
    """One workload's inputs, references and per-operation function."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.refs = ops.load_refs(workload, seed)
        if workload in ops.COLD:
            self.spec = ops.COLD[workload]
            self.inputs = ops.cold_inputs(workload, seed)
            self.cycle = self.spec.hi - self.spec.lo + 1
        else:
            self.spec = None
            self.inputs = ops.suite_inputs(seed)
            self.cycle = len(ops.SUITE_CYCLE)
        self.stats: dict = {}
        self.gauge: ops.SpeedGauge | None = None  # set up after peak RSS is read
        self.attempted = 0
        self.errors: list[str] = []

    def op(self, i: int, rec):
        item = self.inputs[i % len(self.inputs)]
        if self.spec is not None:
            stats = self.stats if rec.traced else None
            return ops.cold_op(self.spec, item, rec, stats)
        return ops.suite_op(item, rec)

    def fail(self, what: str, exc: BaseException) -> None:
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def run_op(self, i: int, rec) -> float:
        """Operation i with its output checks; returns its wall seconds."""
        rec.begin_op("timed")
        t0 = time.perf_counter()
        try:
            out, error = self.op(i, rec), None
        except Exception as exc:  # counted; the run goes on
            out, error = None, exc
        elapsed = time.perf_counter() - t0
        if error is None:
            try:
                ops.check_against(self.refs, i, out)
            except ops.OutputMismatch as exc:
                error = exc
        if error is not None:
            self.fail(f"operation {i}", error)
        self.attempted += 1
        return elapsed

    def fixed(self) -> tuple[float, int]:
        """The untimed fixed-size phase: the largest first input of a cold
        workload, which grows the process heap as any first use does, or the
        first SUITE_FIXED_OPS instances of `suites-warm`, on the engines the
        warm-up filled.  Reads peak RSS in MB, then sets up the speed gauge.
        Returns (peak RSS, index of the first input of the timed phase)."""
        rec = spans.NullRecorder()
        if self.spec is not None:
            first = self.inputs[: self.cycle]
            self.run_op(first.index(max(first, key=len)), rec)
            nxt = 0
        else:
            for i in range(SUITE_FIXED_OPS):
                self.run_op(i, rec)
            nxt = SUITE_FIXED_OPS
        rss = peak_rss_mb()
        self.gauge = ops.SpeedGauge()
        return rss, nxt

    def timed(self, seconds: float, start: int, rec, min_ops: int):
        """Whole cycles until `seconds` pass and `min_ops` operations ran.

        Returns (latencies in seconds at the reference CPU speed, kernel
        samples in ms, next index).  A calibration sample is taken between
        operations once CAL_INTERVAL_S has passed since the last; each
        latency is scaled by `ops.speed_factor` of the samples before and after it.
        """
        raw, cal_at = [], []
        cal = [self.gauge.sample()]
        t_cal = time.perf_counter()
        i = start
        t0 = time.perf_counter()
        while ((i - start) % self.cycle or i - start < min_ops
               or time.perf_counter() - t0 < seconds):
            if time.perf_counter() - t_cal >= CAL_INTERVAL_S:
                cal.append(self.gauge.sample())
                t_cal = time.perf_counter()
            raw.append(self.run_op(i, rec))
            cal_at.append(len(cal) - 1)
            i += 1
        cal.append(self.gauge.sample())
        scaled = [t * ops.speed_factor(cal[k], cal[k + 1]) for t, k in zip(raw, cal_at)]
        return scaled, cal, i

    def max_support(self) -> float:
        make_engine, vector_for = ops.probe_setup(self.workload, self.seed)
        try:
            n_star, probes = ops.max_support(self.gauge, make_engine, vector_for)
        except Exception as exc:
            self.attempted += 1
            self.fail("max_support probe", exc)
            return 0.0
        self.attempted += probes
        return n_star

    def cli_guard(self, rec) -> list[float]:
        """In-process CLI calls on a workload input; returns their times."""
        x = verify_seed = None
        if self.spec is not None:
            x = min(self.inputs[: self.cycle], key=len)
            expected = self.spec.engine().norm(x)
        else:
            verify_seed = self.inputs[0][1]
            expected = ops.library_verify_report(verify_seed)
        with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
            results = ops.cli_calls(self.workload, x, expected, verify_seed, tmp, rec)
        for ms, err in results:
            self.attempted += 1
            if err is not None:
                self.fail("cli", err)
        return [ms for ms, _ in results]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in ops.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(ops.WORKLOADS)}")
    cpu = pin_cpu()
    run = Run(args.workload, args.seed)
    setup_main_s = time.perf_counter() - T_LAUNCH
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    import numpy
    import scipy
    print(
        f"env: python={platform.python_version()} numpy={numpy.__version__} "
        f"scipy={scipy.__version__} nproc={os.cpu_count()} cpu={cpu_model()!r} "
        f"pinned_cpu={cpu} workload={args.workload} seed={args.seed} "
        f"memo={'warm' if run.spec is None else 'cold'} "
        f"refs={'frozen' if run.refs is not None else 'none'} "
        f"setup_main_s={setup_main_s:.3f}",
        flush=True,
    )

    warmup_s = 0.0
    if run.spec is None:
        t0 = time.perf_counter()
        ops.warm_up()
        warmup_s = time.perf_counter() - t0
        print(f"warm-up: {warmup_s:.1f} s", flush=True)

    if args.trace == 0:
        metrics = end_to_end(run, args)
    else:
        metrics = per_layer(run, args, warmup_s)

    for err in run.errors[:20]:
        print(f"failed: {err}", file=sys.stderr)
    failed = len(run.errors)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


def end_to_end(run: Run, args) -> dict:
    rec = spans.NullRecorder()
    wl = run.workload
    t0 = time.perf_counter()
    rss, start = run.fixed()
    t1 = time.perf_counter()
    latencies, cal, _ = run.timed(args.seconds, start, rec, MIN_OPS[wl])
    t2 = time.perf_counter()
    n_star = run.max_support()
    t3 = time.perf_counter()
    run.cli_guard(rec)
    setups, setups_raw = zip(*(setup_seconds(wl, run.seed, run.gauge)
                               for _ in range(SETUP_SAMPLES)))
    q = TAIL_Q[wl]
    values = {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": percentile(latencies, q) * 1e3,
        "max_support_1s": n_star,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    failed_ratio = len(run.errors) / max(run.attempted, 1)
    print(
        "e2e: " + "; ".join(f"{k}={v:.6g} {E2E_UNITS[k]}" for k, v in values.items())
        + f"; tail=p{q:g} of {len(latencies)} ops"
        + f"; failed_ratio={failed_ratio:.6g} ({len(run.errors)}/{run.attempted})"
        + f"; phases fixed {t1 - t0:.1f} s, timed {t2 - t1:.1f} s, "
        f"max_support {t3 - t2:.1f} s"
        + f"; kernel_ms median {statistics.median(cal):.3f} min {min(cal):.3f} "
        f"max {max(cal):.3f} (reference {ops.KERNEL_REF_MS})"
        + f"; setup_s raw median {statistics.median(setups_raw):.3f}",
        flush=True,
    )
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def per_layer(run: Run, args, warmup_s: float) -> dict:
    half = args.seconds / 2.0
    min_ops = MIN_OPS[run.workload] // 3  # per half; layer figures have no bound
    _, start = run.fixed()
    lat_plain, cal, nxt = run.timed(half, start, spans.NullRecorder(), min_ops)
    rec = spans.Recorder()
    saved = spans.install(rec)
    try:
        lat_traced, cal_traced, _ = run.timed(half, nxt, rec, min_ops)
        cli_ms = run.cli_guard(rec)
    finally:
        spans.uninstall(saved)

    values = spans.summarize(rec, "timed", len(lat_traced))
    values["witness.nodes"] = (statistics.median(run.stats.get("nodes", [0])), "nodes")
    values["io.witness_bytes"] = (statistics.median(run.stats.get("bytes", [0])), "bytes")
    values["cli.call_ms"] = (statistics.median(cli_ms), "ms")
    values["suites.warmup_s"] = (warmup_s, "s")
    values["machine.spin_ms"] = (statistics.median(cal + cal_traced), "ms")
    values["trace.overhead_ratio"] = (
        (len(lat_traced) / sum(lat_traced)) / (len(lat_plain) / sum(lat_plain)), "ratio")

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{run.workload}-{run.seed}.jsonl.gz"
    rec.write(span_file)
    idle = sorted(k for k, (v, _) in values.items() if v == 0)
    print(f"trace: {len(rec.names)} spans in {span_file.relative_to(ROOT)}; "
          f"{len(lat_plain)} untraced and {len(lat_traced)} traced operations; "
          f"zero because this workload does not enter the layer: "
          f"{', '.join(idle) or 'none'}", flush=True)
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(values.items())}


if __name__ == "__main__":
    import_program()
    import ops  # noqa: E402  (needs seqnorm on the path)
    import spans  # noqa: E402
    sys.exit(main())
