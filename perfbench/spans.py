"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: `install` wraps the public
callables of the `seqnorm` modules (methods on their classes, functions in
the namespace that looks them up) and `uninstall` restores the originals.
Untraced runs use `NullRecorder` and install nothing.

A span is (name, start, end, parent, operation id, witness flag).  Spans
stay in memory; `write` saves them when the run ends.  A span's self time
is its duration minus the time covered by its direct children, which never
overlap because the benchmark runs one operation at a time on one thread.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import json
import statistics
import time

_NULL = contextlib.nullcontext()


class NullRecorder:
    """Recorder of the untraced run: spans cost one attribute lookup."""

    traced = False

    def begin_op(self, kind: str) -> None:
        pass

    def span(self, name: str, witness: bool = False):
        return _NULL


class Recorder:
    traced = True

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.witness: list[bool] = []
        self.op_kinds: list[str] = []
        self.patterns: list[tuple[int, tuple]] = []  # (operation id, engine argument pattern)
        self._stack: list[int] = []

    def begin_op(self, kind: str) -> None:
        """Start a new operation; later spans carry its id."""
        self.op_kinds.append(kind)

    @property
    def op(self) -> int:
        """Id of the current operation (-1 before the first)."""
        return len(self.op_kinds) - 1

    @contextlib.contextmanager
    def span(self, name: str, witness: bool = False):
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.witness.append(witness)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[sid] = time.perf_counter()
            self._stack.pop()

    # -- analysis ------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[sid] - self.starts[sid]
        return out

    def is_kind(self, op: int, kind: str) -> bool:
        return op >= 0 and self.op_kinds[op] == kind

    def select(self, kind: str) -> list[int]:
        """Ids of the spans recorded inside operations of this kind."""
        return [sid for sid, op in enumerate(self.ops) if self.is_kind(op, kind)]

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for sid, name in enumerate(self.names):
                fh.write(json.dumps([
                    name, self.starts[sid], self.ends[sid], self.parents[sid],
                    self.ops[sid], self.witness[sid],
                ]) + "\n")


def summarize(rec: Recorder, kind: str, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures, as (value, unit), over the spans of `kind` operations.

    Figures in "ms/op" and "calls/op" are sums per operation; figures in
    "ms" are medians per call.  A layer the workload never enters reads 0.
    """
    ids = rec.select(kind)
    selft = rec.self_times()
    dur = {sid: (rec.ends[sid] - rec.starts[sid]) * 1e3 for sid in ids}
    per_op = 1.0 / max(n_ops, 1)

    def matching(pred):
        return [sid for sid in ids if pred(rec.names[sid], rec.witness[sid])]

    def named(name):
        return matching(lambda n, w: n == name)

    def p50(sids):
        return statistics.median(dur[s] for s in sids) if sids else 0.0, "ms"

    def total(sids):
        return sum(dur[s] for s in sids) * per_op, "ms/op"

    def self_total(sids):
        return sum(selft[s] for s in sids) * 1e3 * per_op, "ms/op"

    def calls(sids):
        return len(sids) * per_op, "calls/op"

    m = {}
    m["family_engine.segment.norm_ms"] = p50(matching(
        lambda n, w: n == "family_engine.segment.norm" and not w))
    m["family_engine.segment.witness_ms"] = p50(matching(
        lambda n, w: n == "family_engine.segment.norm" and w))
    for mode in ("exhaustive", "segment"):
        sids = matching(lambda n, w: n.startswith(f"family_engine.{mode}."))
        m[f"family_engine.{mode}.self_ms"] = self_total(sids)
        m[f"family_engine.{mode}.calls"] = calls(sids)
    m["qsum_engine.norm_ms"] = p50(matching(lambda n, w: n == "qsum_engine.norm" and not w))
    m["qsum_engine.witness_ms"] = p50(matching(lambda n, w: n == "qsum_engine.norm" and w))
    m["witness.validate_ms"] = p50(named("witness.validate_witness"))
    m["io.witness_roundtrip_ms"] = p50(named("io.witness_roundtrip"))
    m["admissible.validate_ms"] = total(named("admissible.validate"))
    m["admissible.validate_calls"] = calls(named("admissible.validate"))
    m["core.add_ms"] = total(named("core.add"))
    m["core.add_calls"] = calls(named("core.add"))
    m["blocks.equivalence_constant.self_ms"] = self_total(named("blocks.equivalence_constant"))
    m["blocks.combine_calls"] = calls(named("blocks.combine"))
    m["constructions.build_average.self_ms"] = self_total(named("constructions.build_average"))
    m["inequalities.self_ms"] = self_total(matching(lambda n, w: n.startswith("inequalities.")))
    for suite in ("avgbounds", "offpeak", "stackbound"):
        m[f"suites.{suite}_ms"] = p50(named(f"suites.{suite}"))
    # distinct argument patterns over family-engine calls (0 without calls)
    patterns = [pat for op, pat in rec.patterns if rec.is_kind(op, kind)]
    m["family_engine.distinct_root_ratio"] = (
        len(set(patterns)) / len(patterns) if patterns else 0.0, "ratio")
    return m


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------


def _wrap(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _wrap_family(rec: Recorder, method: str, fn):
    """FamilyEngine methods: tag by search mode, keep the argument pattern."""
    @functools.wraps(fn)
    def wrapper(self, x, *args, **kwargs):
        with rec.span(f"family_engine.{self.mode.kind}.{method}",
                      witness=bool(kwargs.get("with_witness"))):
            out = fn(self, x, *args, **kwargs)
        rec.patterns.append((rec.op, x.pattern()))
        return out
    return wrapper


def _wrap_qsum(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(self, x, with_witness=False):
        with rec.span("qsum_engine.norm", witness=bool(with_witness)):
            return fn(self, x, with_witness=with_witness)
    return wrapper


def install(rec: Recorder) -> list[tuple[object, str, object]]:
    """Wrap the layer boundaries; returns what `uninstall` needs."""
    from seqnorm import blocks, suites, witness
    from seqnorm.admissible import AdmissibleFamily
    from seqnorm.blocks import BlockBasis
    from seqnorm.core import FiniteVector
    from seqnorm.family_engine import FamilyEngine
    from seqnorm.qsum_engine import QSumEngine

    targets = []
    for method in ("norm", "triple_norm", "norm_ell", "norm_ell_m0", "evaluate_family"):
        targets.append((FamilyEngine, method,
                        _wrap_family(rec, method, getattr(FamilyEngine, method))))
    targets.append((QSumEngine, "norm", _wrap_qsum(rec, QSumEngine.norm)))
    plain = [
        (AdmissibleFamily, "validate", "admissible.validate"),
        (FiniteVector, "__add__", "core.add"),
        (BlockBasis, "combine", "blocks.combine"),
        # looked up in blocks by assemble_lp_average
        (blocks, "equivalence_constant", "blocks.equivalence_constant"),
        # the suites import these by name, so patch them there
        (suites, "build_average", "constructions.build_average"),
        (suites, "verify_average_bounds", "inequalities.verify_average_bounds"),
        (suites, "verify_offpeak_sum", "inequalities.verify_offpeak_sum"),
        (suites, "verify_stack_seminorm", "inequalities.verify_stack_seminorm"),
        (suites, "strict_drop_check", "inequalities.strict_drop_check"),
        # the benchmark calls validate_witness through the module
        (witness, "validate_witness", "witness.validate_witness"),
    ]
    for owner, attr, name in plain:
        targets.append((owner, attr, _wrap(rec, name, getattr(owner, attr))))

    saved = []
    for owner, attr, wrapper in targets:
        saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                      else getattr(owner, attr)))
        setattr(owner, attr, wrapper)
    return saved


def uninstall(saved) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
