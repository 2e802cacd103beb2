"""Freeze the reference outputs the benchmark checks every operation against.

    python3 perfbench/freeze.py

Writes perfbench/refs/<workload>.<seed>.json.gz for the default and the
held-out seed: for the cold workloads the norm of every pool input, for
suites-warm the JSON report of every pool instance.  Run it only on a
commit whose outputs are trusted: the benchmark then fails each operation
that departs from them by more than EQ_TOL relative.  Seeds without frozen references are still checked for witness
validity, internal consistency and suite status.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ops  # noqa: E402
import spans  # noqa: E402


def main() -> int:
    rec = spans.NullRecorder()
    for seed in (ops.DEFAULT_SEED, ops.HELDOUT_SEED):
        for workload in ops.WORKLOADS:
            t0 = time.perf_counter()
            if workload in ops.COLD:
                spec = ops.COLD[workload]
                refs = [ops.cold_op(spec, x, rec) for x in ops.cold_inputs(workload, seed)]
            else:
                ops.warm_up()
                refs = [ops.suite_op(item, rec) for item in ops.suite_inputs(seed)]
            ops.save_refs(workload, seed, refs)
            print(f"{workload} seed {seed}: {len(refs)} outputs "
                  f"({time.perf_counter() - t0:.1f} s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
