"""Seeded verification suites behind the CLI and the acceptance tests.

Every suite is deterministic given its seed and returns a `Report` of
`Check` records (see `inequalities`), one item per checked quantity in the
shape {instance, premise_status, lhs, rhs, margin, asserted, ok, note},
tagged with the suite's name and seed.  A report is "ok" exactly when no
asserted margin drops below -1e-9 (exactness suites use their own tighter
tolerance).  The verifiers' items are taken over as they are, with an
instance tag in front; unasserted margins (unmet-premise diagnostics)
never fail a suite.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .admissible import AdmissibleFamily
from .blocks import embed_unconditional, matrix_basis_norm, operator_norm_oracle
from .constructions import build_average, equal_split_check, feasible_average_sizes
from .core import EQ_TOL, FiniteVector, IndexSet, INEQ_TOL, min_m_for_budget
from .family_engine import MAX_EXHAUSTIVE_SUPPORT, Exhaustive, FamilyEngine, SegmentDP, get_engine
from .inequalities import (
    Report,
    bound,
    equal,
    verify_average_bounds,
    verify_chain_stacks,
    verify_offpeak_sum,
    verify_rapid_averages,
    verify_stack_seminorm,
    strict_drop_check,
)
from .qsum_engine import QSumConfig, get_qsum_engine


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------


def random_vector(rng, max_support: int, span: int = 4) -> FiniteVector:
    """1 to max_support points among the first span * max_support indices, with
    coefficients of magnitude U(0.1, 3) and random signs."""
    n = int(rng.integers(1, max_support + 1))
    indices = 1 + np.sort(rng.choice(span * max_support, size=n, replace=False))
    coeffs = rng.uniform(0.1, 3.0, size=n) * rng.choice([-1.0, 1.0], size=n)
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
    return AdmissibleFamily.of(pairs)


def random_average(rng, p: float, engine, start: int = 1):
    k = int(rng.integers(1, feasible_average_sizes(p) + 1))
    # keep k blocks within the exhaustive support limit used to certify them
    length = min(int(rng.choice([1, 1, 2, 3, 4])), MAX_EXHAUSTIVE_SUPPORT // k)
    return build_average(p, k, engine, start=start, lengths=[length], gap_rng=rng)


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------


def suite_fixedpoint(count: int, seed: int) -> Report:
    """Fixed-point residuals: family norm (exhaustive, support <= 10) and
    scale norm (small preset, support <= 30).  Each re-runs the engine's map
    on its own norms (`Engine.fixed_point_residual`), so it reads 0.0 for a
    deterministic search; the levels iteration is what checks convergence."""
    rng = np.random.default_rng(seed)
    report = Report(suite="fixedpoint", seed=seed)
    for space, engine, support in (("x2", get_engine(Exhaustive()), 10),
                                   ("x1", get_qsum_engine(QSumConfig.small()), 30)):
        for t in range(count):
            res = engine.fixed_point_residual(random_vector(rng, support))
            report.items.append(equal(f"{space}[{t}]", res, 0.0))
    return report


def suite_unconditional(count: int, seed: int) -> Report:
    """Exact norm invariance under sign flips and spreads (same memo key)."""
    rng = np.random.default_rng(seed)
    report = Report(suite="unconditional", seed=seed)
    for space, engine, support, note in (
        ("x2", get_engine(Exhaustive()), 8, "exact equality required"),
        ("x1", get_qsum_engine(QSumConfig.small()), 20, ""),
    ):
        for t in range(count):
            x = random_vector(rng, support)
            y = x.flip_signs(random_signs(rng, x.support_size)).spread(random_sigma(rng, x))
            status = "met" if x.pattern() == y.pattern() else "KEY MISMATCH"
            a, b = engine.norm(x), engine.norm(y)
            report.items.append(equal(f"{space}[{t}]", a, b, 0.0, status, note))
    return report


def _suite_engine(max_support: int) -> FamilyEngine:
    """Exhaustive up to MAX_EXHAUSTIVE_SUPPORT points, segment beyond: there the
    left sides of the inequality suites are certified lower bounds, and the
    report does not name the engine."""
    if max_support <= MAX_EXHAUSTIVE_SUPPORT:
        return get_engine(Exhaustive())
    return get_engine(SegmentDP())


def _extend_tagged(report: Report, tag: str, rep: Report) -> None:
    report.items.extend(replace(c, instance=f"{tag} {c.instance}") for c in rep.items)


def suite_avgbounds(count: int, seed: int) -> Report:
    """Both average seminorm bounds on random certified instances."""
    rng = np.random.default_rng(seed)
    report = Report(suite="avgbounds", seed=seed)
    for t in range(count):
        p = float(rng.choice([1.0, 2.0]))
        avg = random_average(rng, p, get_engine(Exhaustive()))
        engine = _suite_engine(avg.vector.support_size)
        m = int(rng.integers(2, 9))
        ell = int(rng.integers(1, 9))
        rep = verify_average_bounds(avg, m, ell, engine)
        _extend_tagged(report, f"[{t}] p={avg.p} k={avg.n} m={m} ell={ell}", rep)
    return report


def suite_offpeak(count: int, seed: int) -> Report:
    """The off-peak family-sum bound on random combinations."""
    rng = np.random.default_rng(seed)
    report = Report(suite="offpeak", seed=seed)
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
        engine = _suite_engine(combined.support_size)
        fam = random_family(rng, combined)
        rep = verify_offpeak_sum(averages, [float(c) for c in coeffs], fam, engine)
        report.items.append(replace(rep.items[0], instance=f"[{t}] n={n} p={p} l={fam.length}"))
    return report


def suite_stackbound(count: int, seed: int) -> Report:
    """The stack seminorm bound plus the literal strict-drop implication."""
    rng = np.random.default_rng(seed)
    report = Report(suite="stackbound", seed=seed)
    for t in range(count):
        n = int(rng.integers(1, 4))
        averages = []
        start = 1
        for _ in range(n):
            avg = random_average(rng, 1.0, get_engine(Exhaustive()), start=start)
            averages.append(avg)
            start = avg.vector.indices[-1] + 1 + int(rng.integers(0, 3))
        coeffs = [float(c) for c in rng.uniform(-1.0, 1.0, size=n)]
        total_support = sum(a.vector.support_size for a in averages)
        engine = _suite_engine(total_support)
        ell = int(rng.integers(1, 9))
        rep = verify_stack_seminorm(averages, coeffs, ell, engine)
        drop = strict_drop_check(averages, coeffs, ell, engine)
        report.items.append(
            replace(
                rep.items[0],
                instance=f"[{t}] n={n} ell={ell}",
                note=f"strict-drop premise={drop.premise_holds} ok={drop.ok}",
            )
        )
        if not drop.ok:
            report.items.append(bound(f"[{t}] strict-drop", 1.0, 0.0, tol=0.0))
    return report


def suite_rapidavg(count: int, seed: int, relaxed: bool = False) -> Report:
    """Conditional rapid-average bounds on desk instances.

    With faithful premises the growth conditions are necessarily UNMET at
    desk sizes (the first average would need ~2**100 blocks); the suite then
    reports diagnostics only and still exits clean.
    """
    rng = np.random.default_rng(seed)
    report = Report(notes=["eps=0.25, n=2 desk instances"], suite="rapidavg", seed=seed)
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
        _extend_tagged(report, f"[{t}] p={p}", rep)
    return report


def suite_chainstacks(count: int, seed: int, relaxed: bool = False) -> Report:
    """Conditional chain-stack bounds on desk instances (m = 1 and 2)."""
    rng = np.random.default_rng(seed)
    report = Report(notes=["eps=0.5, delta=0.2 desk instances"], suite="chainstacks",
                    seed=seed)
    for t in range(count):
        m = 1 + (t % 2)
        stacks = []
        start = 1
        for _ in range(m):
            stack = []
            for _ in range(int(rng.integers(1, 3))):
                avg = random_average(rng, 1.0, get_engine(Exhaustive()), start=start)
                stack.append(avg)
                start = avg.vector.indices[-1] + 1
            stacks.append(stack)
        support = sum(a.vector.support_size for st in stacks for a in st)
        rep = verify_chain_stacks(stacks, eps=0.5, delta=0.2, ells=[1, 2, 3],
                                  engine=_suite_engine(support), relaxed=relaxed)
        _extend_tagged(report, f"[{t}] m={m}", rep)
    return report


def suite_gmax(count: int, seed: int) -> Report:
    """Equal-split maximization margins over the stated parameter grid;
    `count` is the scan resolution."""
    report = Report(suite="gmax", seed=seed)
    for ell in (2, 3, 4):
        for m in range(ell, 21):
            margin = equal_split_check(ell, float(m), resolution=count, seed=seed)
            report.items.append(
                bound(f"ell={ell} m={m}", margin, INEQ_TOL, tol=0.0,
                      note="scan max minus center value")
            )
    return report


def suite_matrix(count: int, seed: int) -> Report:
    """Matrix basis norm closed form against the sign-vector oracle, exactly."""
    rng = np.random.default_rng(seed)
    report = Report(suite="matrix", seed=seed)
    for t in range(count):
        n = int(rng.integers(1, 8))
        a = rng.integers(-9, 10, size=(n, n)).astype(float)
        lhs = matrix_basis_norm(a)
        rhs = operator_norm_oracle(a)
        report.items.append(equal(f"[{t}] n={n}", lhs, rhs, 0.0))
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


def suite_embed(count: int, seed: int) -> Report:
    """Embedding identity ||sum b_k x_k|| = max_j |sum_k b_k a_kj|, to EQ_TOL."""
    rng = np.random.default_rng(seed)
    report = Report(suite="embed", seed=seed)
    for t in range(count):
        a = random_unconditional_matrix(rng)
        emb = embed_unconditional(a, seed=int(rng.integers(0, 2**31)))
        b = rng.normal(size=a.shape[0])
        lhs = emb.combination_norm(b)
        rhs = emb.reference_norm(b)
        report.items.append(equal(f"[{t}] {a.shape[0]}x{a.shape[1]}", lhs, rhs, EQ_TOL))
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
