"""Seeded verification suites behind the CLI and the acceptance tests.

Every suite is deterministic given its seed, emits one item per checked
instance in the shape {instance, premise_status, lhs, rhs, margin}, and is
"ok" exactly when no asserted margin drops below -1e-9 (exactness suites use
their own tighter tolerance).  Unasserted margins (unmet-premise diagnostics)
never fail a suite.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .admissible import AdmissibleFamily
from .blocks import embed_unconditional, matrix_basis_norm, operator_norm_oracle
from .constructions import build_average, equal_split_check, feasible_average_sizes
from .core import EQ_TOL, FiniteVector, IndexSet, INEQ_TOL, min_m_for_budget
from .family_engine import Exhaustive, FamilyEngine, SegmentDP, get_engine
from .inequalities import (
    verify_average_bounds,
    verify_chain_stacks,
    verify_offpeak_sum,
    verify_rapid_averages,
    verify_stack_seminorm,
    strict_drop_check,
)
from .qsum_engine import QSumConfig, get_qsum_engine


@dataclass(frozen=True)
class SuiteItem:
    instance: str
    premise_status: str
    lhs: float
    rhs: float
    margin: float
    asserted: bool = True
    tol: float = INEQ_TOL
    note: str = ""

    @property
    def ok(self) -> bool:
        return (not self.asserted) or self.margin >= -self.tol

    def to_json(self) -> dict:
        return {
            "instance": self.instance,
            "premise_status": self.premise_status,
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "margin": float(self.margin),
            "asserted": bool(self.asserted),
            "ok": bool(self.ok),
            "note": self.note,
        }


@dataclass
class SuiteReport:
    suite: str
    seed: int
    items: list[SuiteItem] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "checked": len(self.items),
            "ok": self.ok,
            "notes": self.notes,
            "items": [item.to_json() for item in self.items],
        }


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------


def random_vector(rng, max_support: int, span: int = 4, scale: float = 3.0) -> FiniteVector:
    n = int(rng.integers(1, max_support + 1))
    indices = 1 + np.sort(rng.choice(span * max_support, size=n, replace=False))
    coeffs = rng.uniform(0.1, scale, size=n) * rng.choice([-1.0, 1.0], size=n)
    return FiniteVector(zip((int(i) for i in indices), coeffs))


def random_sigma(rng, x: FiniteVector):
    gaps = rng.integers(1, 4, size=x.support_size)
    images = np.cumsum(gaps) + int(rng.integers(0, 5))
    return dict(zip(x.indices, (int(j) for j in images)))


def random_signs(rng, n: int):
    return [int(s) for s in rng.choice([-1, 1], size=n)]


def random_family(rng, x: FiniteVector, max_sets: int = 4) -> AdmissibleFamily:
    """A random admissible family of consecutive chunks of the support."""
    idx = x.indices
    pairs = []
    pos = 0
    consumed = 0
    while pos < len(idx) and len(pairs) < max_sets:
        size = int(rng.integers(1, min(4, len(idx) - pos) + 1))
        pts = idx[pos : pos + size]
        floor = min_m_for_budget(consumed)
        m = floor + int(rng.integers(0, 3))
        pairs.append((m, IndexSet.of(pts)))
        consumed += size
        pos += size + int(rng.integers(0, 2))
        if consumed > 6:
            break
    if not pairs:
        pairs = [(2, IndexSet.of(idx[:1]))]
    return AdmissibleFamily.of(pairs)


def random_average(rng, engine, start: int = 1):
    p = float(rng.choice([1.0, 2.0]))
    k = int(rng.integers(1, feasible_average_sizes(p) + 1))
    # keep k blocks within the exhaustive support limit used to certify them
    length = min(int(rng.choice([1, 1, 2, 3, 4])), 12 // k)
    return build_average(p, k, engine, start=start, lengths=[length], gap_rng=rng)


def random_l1_average(rng, engine, start: int = 1):
    k = int(rng.integers(1, 3))
    length = min(int(rng.choice([1, 1, 2, 3, 4])), 12 // k)
    return build_average(1.0, k, engine, start=start, lengths=[length], gap_rng=rng)


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------


def suite_fixedpoint(count: int, seed: int) -> SuiteReport:
    """Fixed-point residuals: family norm (exhaustive, support <= 10) and
    scale norm (small preset, support <= 30)."""
    rng = np.random.default_rng(seed)
    report = SuiteReport("fixedpoint", seed)
    fam_engine = get_engine(Exhaustive())
    qs_engine = get_qsum_engine(QSumConfig.small())
    for t in range(count):
        x = random_vector(rng, 10)
        res = fam_engine.fixed_point_residual(x)
        report.items.append(
            SuiteItem(f"x2[{t}]", "met", res, 0.0, -res, tol=INEQ_TOL)
        )
    for t in range(count):
        x = random_vector(rng, 30)
        res = qs_engine.fixed_point_residual(x)
        report.items.append(
            SuiteItem(f"x1[{t}]", "met", res, 0.0, -res, tol=INEQ_TOL)
        )
    return report


def suite_unconditional(count: int, seed: int) -> SuiteReport:
    """Exact norm invariance under sign flips and spreads (same memo key)."""
    rng = np.random.default_rng(seed)
    report = SuiteReport("unconditional", seed)
    fam_engine = get_engine(Exhaustive())
    qs_engine = get_qsum_engine(QSumConfig.small())
    for t in range(count):
        x = random_vector(rng, 8)
        y = x.flip_signs(random_signs(rng, x.support_size)).spread(random_sigma(rng, x))
        same_key = x.pattern() == y.pattern()
        a, b = fam_engine.norm(x), fam_engine.norm(y)
        report.items.append(
            SuiteItem(
                f"x2[{t}]",
                "met" if same_key else "KEY MISMATCH",
                a,
                b,
                -abs(a - b),
                tol=0.0,
                note="exact equality required",
            )
        )
    for t in range(count):
        x = random_vector(rng, 20)
        y = x.flip_signs(random_signs(rng, x.support_size)).spread(random_sigma(rng, x))
        same_key = x.pattern() == y.pattern()
        a, b = qs_engine.norm(x), qs_engine.norm(y)
        report.items.append(
            SuiteItem(
                f"x1[{t}]",
                "met" if same_key else "KEY MISMATCH",
                a,
                b,
                -abs(a - b),
                tol=0.0,
            )
        )
    return report


def _suite_engine(max_support: int) -> FamilyEngine:
    """Exhaustive wherever feasible, segment beyond (a certified lower bound
    for the left sides of the inequality suites; noted in the report)."""
    if max_support <= 12:
        return get_engine(Exhaustive())
    return get_engine(SegmentDP())


def suite_avgbounds(count: int, seed: int) -> SuiteReport:
    """Both average seminorm bounds on random certified instances."""
    rng = np.random.default_rng(seed)
    report = SuiteReport("avgbounds", seed)
    for t in range(count):
        engine = get_engine(Exhaustive())
        avg = random_average(rng, engine)
        if avg.vector.support_size > 12:
            engine = get_engine(SegmentDP())
        m = int(rng.integers(2, 9))
        ell = int(rng.integers(1, 9))
        rep = verify_average_bounds(avg, m, ell, engine)
        for b in rep.bounds:
            report.items.append(
                SuiteItem(
                    f"[{t}] p={avg.p} k={avg.n} m={m} ell={ell} {b.name}",
                    "met",
                    b.lhs,
                    b.rhs,
                    b.margin,
                )
            )
    return report


def suite_offpeak(count: int, seed: int) -> SuiteReport:
    """The off-peak family-sum bound on random combinations."""
    rng = np.random.default_rng(seed)
    report = SuiteReport("offpeak", seed)
    for t in range(count):
        n = int(rng.integers(1, 4))
        p = float(rng.choice([1.0, 2.0]))
        averages = []
        start = 1
        for _ in range(n):
            k = int(rng.integers(1, feasible_average_sizes(p) + 1))
            avg = build_average(p, k, get_engine(Exhaustive()), start=start,
                                lengths=[int(rng.choice([1, 2, 3]))], gap_rng=rng)
            averages.append(avg)
            start = avg.vector.indices[-1] + 1 + int(rng.integers(0, 3))
        coeffs = rng.uniform(-1.0, 1.0, size=n)
        combined = FiniteVector.sum((avg.vector for avg in averages), [float(c) for c in coeffs])
        if combined.support_size == 0:
            continue
        engine = _suite_engine(combined.support_size)
        fam = random_family(rng, combined)
        margin, rep = verify_offpeak_sum(averages, [float(c) for c in coeffs], fam, engine)
        b = rep.bounds[0]
        report.items.append(
            SuiteItem(
                f"[{t}] n={n} p={p} l={fam.length}",
                "met",
                b.lhs,
                b.rhs,
                b.margin,
                note=rep.notes[0],
            )
        )
    return report


def suite_stackbound(count: int, seed: int) -> SuiteReport:
    """The stack seminorm bound plus the literal strict-drop implication."""
    rng = np.random.default_rng(seed)
    report = SuiteReport("stackbound", seed)
    for t in range(count):
        n = int(rng.integers(1, 4))
        averages = []
        start = 1
        for _ in range(n):
            avg = random_l1_average(rng, get_engine(Exhaustive()), start=start)
            averages.append(avg)
            start = avg.vector.indices[-1] + 1 + int(rng.integers(0, 3))
        coeffs = [float(c) for c in rng.uniform(-1.0, 1.0, size=n)]
        total_support = sum(a.vector.support_size for a in averages)
        engine = _suite_engine(total_support)
        ell = int(rng.integers(1, 9))
        margin, rep = verify_stack_seminorm(averages, coeffs, ell, engine)
        b = rep.bounds[0]
        drop = strict_drop_check(averages, coeffs, ell, engine)
        report.items.append(
            SuiteItem(
                f"[{t}] n={n} ell={ell}",
                "met",
                b.lhs,
                b.rhs,
                b.margin,
                note=f"strict-drop premise={drop.premise_holds} ok={drop.ok}",
            )
        )
        if not drop.ok:
            report.items.append(
                SuiteItem(f"[{t}] strict-drop", "met", 1.0, 0.0, -1.0, tol=0.0)
            )
    return report


def _flatten_report(report: SuiteReport, tag: str, rep) -> None:
    for p in rep.premises:
        report.items.append(
            SuiteItem(
                f"{tag} premise {p.name}",
                "met" if p.holds else "UNMET",
                p.lhs,
                p.rhs,
                0.0,
                asserted=False,
                note=p.note,
            )
        )
    for b in rep.bounds:
        report.items.append(
            SuiteItem(
                f"{tag} {b.name}",
                "met" if rep.all_premises_hold else "UNMET",
                b.lhs,
                b.rhs,
                b.margin,
                asserted=b.asserted,
            )
        )


def suite_rapidavg(count: int, seed: int, relaxed: bool = False) -> SuiteReport:
    """Conditional rapid-average bounds on desk instances.

    With faithful premises the growth conditions are necessarily UNMET at
    desk sizes (the first average would need ~2**100 blocks); the suite then
    reports diagnostics only and still exits clean.
    """
    rng = np.random.default_rng(seed)
    report = SuiteReport("rapidavg", seed, notes=["eps=0.25, n=2 desk instances"])
    for t in range(count):
        p = float(rng.choice([1.0, 2.0]))
        a1 = build_average(p, int(rng.integers(1, feasible_average_sizes(p) + 1)),
                           get_engine(Exhaustive()), start=1, gap_rng=rng)
        a2 = build_average(p, int(rng.integers(1, feasible_average_sizes(p) + 1)),
                           get_engine(Exhaustive()),
                           start=a1.vector.indices[-1] + 1, gap_rng=rng)
        support = a1.vector.support_size + a2.vector.support_size
        rep = verify_rapid_averages([a1, a2], 0.25, [1, 2, 4],
                                    _suite_engine(support), relaxed=relaxed)
        _flatten_report(report, f"[{t}] p={p}", rep)
    return report


def suite_chainstacks(count: int, seed: int, relaxed: bool = False) -> SuiteReport:
    """Conditional chain-stack bounds on desk instances (m = 1 and 2)."""
    rng = np.random.default_rng(seed)
    report = SuiteReport("chainstacks", seed, notes=["eps=0.5, delta=0.2 desk instances"])
    for t in range(count):
        m = 1 + (t % 2)
        stacks = []
        start = 1
        for _ in range(m):
            stack = []
            for _ in range(int(rng.integers(1, 3))):
                avg = random_l1_average(rng, get_engine(Exhaustive()), start=start)
                stack.append(avg)
                start = avg.vector.indices[-1] + 1
            stacks.append(stack)
        support = sum(a.vector.support_size for st in stacks for a in st)
        rep = verify_chain_stacks(stacks, eps=0.5, delta=0.2, ells=[1, 2, 3],
                                  engine=_suite_engine(support), relaxed=relaxed)
        _flatten_report(report, f"[{t}] m={m}", rep)
    return report


def suite_gmax(resolution: int, seed: int) -> SuiteReport:
    """Equal-split maximization margins over the stated parameter grid."""
    report = SuiteReport("gmax", seed)
    for ell in (2, 3, 4):
        for m in range(ell, 21):
            margin = equal_split_check(ell, float(m), resolution=resolution, seed=seed)
            report.items.append(
                SuiteItem(
                    f"ell={ell} m={m}",
                    "met",
                    margin,
                    INEQ_TOL,
                    INEQ_TOL - margin,
                    tol=0.0,
                    note="scan max minus center value",
                )
            )
    return report


def suite_matrix(count: int, seed: int) -> SuiteReport:
    """Matrix basis norm closed form against the sign-vector oracle, exactly."""
    rng = np.random.default_rng(seed)
    report = SuiteReport("matrix", seed)
    for t in range(count):
        n = int(rng.integers(1, 8))
        a = rng.integers(-9, 10, size=(n, n)).astype(float)
        lhs = matrix_basis_norm(a)
        rhs = operator_norm_oracle(a)
        report.items.append(
            SuiteItem(f"[{t}] n={n}", "met", lhs, rhs, -abs(lhs - rhs), tol=0.0)
        )
    return report


def random_unconditional_matrix(rng) -> np.ndarray:
    """A random matrix (up to 6x6) whose rows are 1-unconditional in l_inf^n.

    Two shapes: columns with a single nonzero entry (always unconditional),
    and sign-completed matrices whose column set contains every half sign
    pattern of a nonnegative base column, which makes the combination norm
    max_j |sum_k b_k a_kj| manifestly equal to max over base columns of
    sum_k |b_k B_kj|.
    """
    if rng.integers(0, 2) == 0:
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        a = np.zeros((m, n))
        for j in range(n):
            a[int(rng.integers(0, m)), j] = rng.normal() * 2.0
        return a
    m = int(rng.integers(1, 4))
    half = 1 << max(0, m - 1)
    r = int(rng.integers(1, 6 // half + 1))
    base = np.abs(rng.normal(size=(m, r))) + 0.1
    cols = []
    for j in range(r):
        for mask in range(half):
            eps = np.array([1.0] + [1.0 if mask >> i & 1 else -1.0 for i in range(m - 1)])
            cols.append(eps * base[:, j])
    return np.stack(cols, axis=1)


def suite_embed(count: int, seed: int) -> SuiteReport:
    """Embedding identity ||sum b_k x_k|| = max_j sum_k |b_k a_kj|, 1e-12."""
    rng = np.random.default_rng(seed)
    report = SuiteReport("embed", seed)
    for t in range(count):
        a = random_unconditional_matrix(rng)
        emb = embed_unconditional(a, seed=int(rng.integers(0, 2**31)))
        b = rng.normal(size=a.shape[0])
        lhs = emb.combination_norm(b)
        rhs = emb.reference_norm(b)
        report.items.append(
            SuiteItem(
                f"[{t}] {a.shape[0]}x{a.shape[1]}",
                "met",
                lhs,
                rhs,
                -abs(lhs - rhs),
                tol=EQ_TOL,
            )
        )
    return report


SUITES = {
    "fixedpoint": suite_fixedpoint,
    "unconditional": suite_unconditional,
    "avgbounds": suite_avgbounds,
    "offpeak": suite_offpeak,
    "stackbound": suite_stackbound,
    "rapidavg": suite_rapidavg,
    "chainstacks": suite_chainstacks,
    "gmax": suite_gmax,
    "matrix": suite_matrix,
    "embed": suite_embed,
}
