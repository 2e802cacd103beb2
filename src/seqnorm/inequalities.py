"""Numerical verifiers for the quantitative bounds satisfied by l_p averages.

Two kinds of checks live here.  The unconditional ones (average seminorm
bounds, the off-peak family sum, the stack seminorm bound) hold for every
valid input and are asserted at tolerance -1e-9.  The conditional ones (the
rapid-averages and chain-stack bounds) come with largeness premises that are
astronomically infeasible at desk scale; those verifiers evaluate every
premise, report the required magnitudes, and only assert conclusions whose
premises actually hold.  In relaxed mode (logged in a note) every conclusion
is reported unasserted, as a diagnostic margin, even where its premises hold;
the premises are still evaluated, and nothing is waived.

Every verifier returns a `Report` of `Check` records, the one result shape
the suites and the constructions share.  A premise is an unasserted check
named "premise <name>" whose status reads met or UNMET.  `_rapid_premises`
writes the premises of a rapidly increasing run of averages (a chain stack
is one), and `Report.verdict` is the one rule for the conclusions: UNMET when
a premise fails, asserted only when all hold outside relaxed mode.  The rule
that decides a failure lives in `Check.ok`, with one exception: `DropCheck`,
whose strict inequality is evaluated literally, with no tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

from .admissible import AdmissibleFamily
from .blocks import AssembledAverage
from .core import FiniteVector, INEQ_TOL, f


def dilution_constant(p: float) -> float:
    """C_p = 4 / (1 - 2^(-1/p)); C_1 = 8."""
    if p < 1:
        raise ValueError("need p >= 1")
    return 4.0 / (1.0 - 2.0 ** (-1.0 / p))


class AverageConstantError(ValueError):
    """An input average's certified constant exceeds what the bound assumes."""


@dataclass(frozen=True)
class Check:
    """One checked quantity: `lhs` against `rhs`, with its signed margin.

    Verifiers, suites and constructions all report in this one shape.  A
    check fails only when it is asserted and its margin is below -tol;
    unasserted checks (premises, and conclusions whose premises are UNMET)
    are diagnostics and never fail a report.  An unbounded requirement
    (rhs = inf) is written to JSON as null.
    """

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
            "rhs": None if self.rhs == math.inf else float(self.rhs),
            "margin": float(self.margin),
            "asserted": bool(self.asserted),
            "ok": bool(self.ok),
            "note": self.note,
        }


def bound(
    name: str,
    lhs: float,
    rhs: float,
    asserted: bool = True,
    status: str = "met",
    note: str = "",
    tol: float = INEQ_TOL,
) -> Check:
    """The inequality lhs <= rhs, with margin rhs - lhs."""
    return Check(name, status, lhs, rhs, rhs - lhs, asserted, tol, note)


def equal(name: str, lhs: float, rhs: float, tol: float = INEQ_TOL, status: str = "met",
          note: str = "") -> Check:
    """The equality lhs = rhs, with margin -|lhs - rhs|."""
    return Check(name, status, lhs, rhs, -abs(lhs - rhs), True, tol, note)


def premise(name: str, lhs: float, rhs: float, holds: bool, note: str = "") -> Check:
    """A premise of a conditional bound: reported as met/UNMET, never asserted."""
    return Check(
        f"premise {name}", "met" if holds else "UNMET", lhs, rhs, 0.0,
        asserted=False, note=note,
    )


@dataclass
class Report:
    """Checks plus free-form notes; a suite's report also names its suite
    and seed."""

    items: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    suite: str | None = None
    seed: int | None = None

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    @property
    def premises_hold(self) -> bool:
        return all(item.premise_status == "met" for item in self.items)

    def verdict(self, relaxed: bool = False) -> tuple[str, bool]:
        """(status, asserted) of a conclusion resting on the premises so far:
        UNMET when one fails, asserted only when all hold and `relaxed` is off."""
        holds = self.premises_hold
        return ("met" if holds else "UNMET"), holds and not relaxed

    def to_json(self) -> dict:
        head = {} if self.suite is None else {"suite": self.suite, "seed": self.seed}
        return {
            **head,
            "checked": len(self.items),
            "ok": self.ok,
            "notes": self.notes,
            "items": [item.to_json() for item in self.items],
        }


def _require_constant(avg: AssembledAverage, cap: float) -> None:
    if avg.constant > cap + INEQ_TOL:
        raise AverageConstantError(
            f"average constant {avg.constant} exceeds the assumed {cap}"
        )


def _nonempty(averages: list[AssembledAverage]) -> list[AssembledAverage]:
    if not averages:
        raise ValueError("the run of averages is empty")
    return averages


def _common_p(averages: list[AssembledAverage]) -> float:
    ps = {avg.p for avg in _nonempty(averages)}
    if len(ps) != 1:
        raise ValueError("all averages must share one p")
    return ps.pop()


def _combination(averages: list[AssembledAverage], coeffs) -> tuple[FiniteVector, int, int]:
    """x = sum a_i x_i for |a_i| <= 1, the number n of averages, and the
    smallest block count k0."""
    if any(abs(a) > 1.0 + 1e-15 for a in coeffs):
        raise ValueError("coefficients must lie in [-1, 1]")
    x = FiniteVector.sum([avg.vector for avg in _nonempty(averages)], coeffs)
    return x, len(averages), min(avg.n for avg in averages)


# ----------------------------------------------------------------------
# unconditional bounds
# ----------------------------------------------------------------------


def verify_average_bounds(
    avg: AssembledAverage, m: int, ell: int, engine
) -> Report:
    """Both seminorm bounds for a single l_p^k average with constant <= 2:

    * triple norm:  |||x|||_m <= 4 m^(-1/p) + k^(-1/p)
    * level norm:   ||x||_ell <= (C_p + 2 ell k^(-1/p)) / f(ell)
    """
    _require_constant(avg, 2.0)
    p, k = avg.p, avg.n
    lhs_a = engine.triple_norm(avg.vector, m)
    rhs_a = 4.0 * m ** (-1.0 / p) + k ** (-1.0 / p)
    lhs_b = engine.norm_ell(avg.vector, ell)
    rhs_b = (dilution_constant(p) + 2.0 * ell * k ** (-1.0 / p)) / f(ell)
    return Report([
        bound("triple_norm_bound", lhs_a, rhs_a),
        bound("level_norm_bound", lhs_b, rhs_b),
    ])


def peak_index(fam: AdmissibleFamily, k0: int, p: float) -> int:
    """Largest j <= l with |E_1| + ... + |E_{j-1}| <= k0^(1/2p), 1 for an empty family.
    The sums never decrease, so j is 1 plus how many of the first l - 1 are at most the cap."""
    cap = k0 ** (1.0 / (2.0 * p))
    return 1 + sum(total <= cap for total in fam.cumulative_cardinalities()[:-1])


def verify_offpeak_sum(
    averages: list[AssembledAverage],
    coeffs,
    fam: AdmissibleFamily,
    engine,
) -> Report:
    """Off-peak triple-norm sum bound for combinations of l_p averages.

    With x = sum a_i x_i (|a_i| <= 1, constants <= 2, common p) and any
    admissible family, every term except the peak one is small:

        sum_{j != j0} |||E_j x|||_{m_j}  <=  6 n l k0^(-1/2p).
    """
    fam.validate()
    p = _common_p(averages)
    for avg in averages:
        _require_constant(avg, 2.0)
    x, n, k0 = _combination(averages, coeffs)
    j0 = peak_index(fam, k0, p)
    lhs = 0.0
    for j, (m, E) in enumerate(fam.pairs, start=1):
        if j == j0:
            continue
        piece = x.restrict(E)
        if piece.support_size:
            lhs += engine.triple_norm(piece, m)
    rhs = 6.0 * n * fam.length * k0 ** (-1.0 / (2.0 * p))
    note = f"peak index j0 = {j0}, k0 = {k0}"
    return Report([bound("offpeak_sum_bound", lhs, rhs, note=note)])


def verify_stack_seminorm(
    averages: list[AssembledAverage], coeffs, ell: int, engine
) -> Report:
    """Level-norm bound for combinations of l_1 averages with constant 2:

        ||sum a_i x_i||_ell <= ( ||sum a_i x_i|| + 6 ell n k0^(-1/2) ) / f(ell)
    """
    for avg in averages:
        if avg.p != 1:
            raise ValueError("stack bound is about l_1 averages")
        _require_constant(avg, 2.0)
    x, n, k0 = _combination(averages, coeffs)
    lhs = engine.norm_ell(x, ell) if x.support_size else 0.0
    rhs = (engine.norm(x) + 6.0 * ell * n * k0 ** -0.5) / f(ell)
    return Report([bound("stack_seminorm_bound", lhs, rhs)])


@dataclass(frozen=True)
class DropCheck:
    premise_holds: bool
    conclusion_holds: bool

    @property
    def ok(self) -> bool:
        return (not self.premise_holds) or self.conclusion_holds


def strict_drop_check(
    averages: list[AssembledAverage], coeffs, ell: int, engine
) -> DropCheck:
    """If (f(ell)-1)/ell > 12 n k0^(-1/2) the level norm of sum a_i x_i
    (|a_i| <= 1) drops strictly below its norm.  Evaluated literally as an
    implication (scale invariant)."""
    x, n, k0 = _combination(averages, coeffs)
    premise_holds = (f(ell) - 1.0) / ell > 12.0 * n * k0 ** -0.5
    if x.support_size == 0:
        return DropCheck(premise_holds=premise_holds, conclusion_holds=True)
    conclusion = engine.norm_ell(x, ell) < engine.norm(x)
    return DropCheck(premise_holds=premise_holds, conclusion_holds=conclusion)


# ----------------------------------------------------------------------
# conditional bounds (largeness premises reported, never silently assumed)
# ----------------------------------------------------------------------


def _growth_premises(report: Report, name: str, tag: str, counts, supports, factor=1.0):
    """Premises name[tag j]: f(counts[j]) > factor * sum_{s<j} supports[s], j >= 2."""
    for j, (count, before) in enumerate(zip(counts[1:], accumulate(supports)), start=2):
        lhs, rhs = f(count), factor * before
        report.items.append(premise(f"{name}[{tag}{j}]", lhs, rhs, holds=lhs > rhs))


def _rapid_premises(report: Report, averages: list[AssembledAverage], eps: float, p: float,
                    stack: str = "") -> float:
    """Append the premises of a rapidly increasing run y_1..y_n of l_p averages
    of constant 1 + eps (named after `stack` if given): the constants, the
    growth threshold f(eps k_1^(1/2p) / 6n) >= n (C_p + 2) / eps and the support
    growth f(k_j) > (p/eps) * sum_{s<j} |supp y_s|.  Returns eps k_1^(1/2p) / 6n."""
    n, k1 = len(averages), _nonempty(averages)[0].n
    tag, k1_name = (f"{stack},", f"k({stack},1)") if stack else ("", "k1")
    for j, avg in enumerate(averages, start=1):
        report.items.append(premise(f"constant[{tag}{j}]", avg.constant, 1.0 + eps,
                                    holds=avg.constant <= 1.0 + eps + INEQ_TOL))
    threshold = eps * k1 ** (1.0 / (2.0 * p)) / (6.0 * n)
    lhs, rhs = f(threshold), n * (dilution_constant(p) + 2.0) / eps
    # f(threshold) >= rhs  <=>  k1 >= ((6n/eps) * (2^rhs - 1))^(2p)
    log2_k1 = 2.0 * p * (math.log2(6.0 * n / eps) + rhs + math.log2(1.0 - 2.0 ** -rhs))
    report.items.append(premise(
        f"growth_threshold[{stack}]" if stack else "growth_threshold", lhs, rhs, lhs >= rhs,
        note=f"requires log2({k1_name}) >= {log2_k1:.1f}"
        f" ({k1_name} = {k1} gives log2 = {math.log2(k1):.1f})",
    ))
    _growth_premises(report, "support_growth", tag, [avg.n for avg in averages],
                     [avg.vector.support_size for avg in averages], p / eps)
    return threshold


def verify_rapid_averages(
    averages: list[AssembledAverage],
    eps: float,
    ells,
    engine,
    relaxed: bool = False,
) -> Report:
    """Conditional seminorm bounds for a rapidly growing run of l_p averages.

    y = y_1 + ... + y_n with y_i an l_p^{k_i} average of constant 1 + eps.
    Premises: eps in (0, (f(2) - 1)/2) and those of `_rapid_premises`.
    Conclusions, per level ell:

    * ell <= eps k_1^(1/2p) / 6n:  ||y||_ell <= (||y|| + eps) / f(ell)
    * larger ell:                  ||y||_ell <= 2 eps + max_i ||y_i||_ell
    * in particular ||y|| <= 2 eps + max_i ||y_i||.

    Conclusions follow `Report.verdict`; relaxed mode reports them all
    unasserted, with their margins.
    """
    p = _common_p(averages)
    report = Report()
    eps_cap = (f(2) - 1.0) / 2.0
    report.items.append(premise("eps_range", eps, eps_cap, holds=0.0 < eps < eps_cap))
    threshold = _rapid_premises(report, averages, eps, p)
    status, asserted = report.verdict(relaxed)
    if relaxed:
        report.notes.append("relaxed mode: conclusions unasserted, margins diagnostic")

    y = FiniteVector.sum([avg.vector for avg in averages])
    norm_y = engine.norm(y)
    for ell in ells:
        lhs = engine.norm_ell(y, ell)
        if ell <= threshold:
            rhs = (norm_y + eps) / f(ell)
            name = f"small_level_bound[ell={ell}]"
        else:
            rhs = 2.0 * eps + max(engine.norm_ell(avg.vector, ell) for avg in averages)
            name = f"large_level_bound[ell={ell}]"
        report.items.append(bound(name, lhs, rhs, asserted, status))
    rhs_total = 2.0 * eps + max(engine.norm(avg.vector) for avg in averages)
    report.items.append(bound("norm_bound", norm_y, rhs_total, asserted, status))
    return report


def verify_chain_stacks(
    stacks: list[list[AssembledAverage]],
    eps: float,
    delta: float,
    ells,
    engine,
    relaxed: bool = False,
) -> Report:
    """Conditional bounds for sums of stacked l_1-average runs.

    z_i = sum_j z(i,j) with z(i,j) an l_1^{k(i,j)} average of constant
    1 + delta; n_i blocks in stack i, m stacks.  Premises: each stack's, by
    `_rapid_premises` at eps = delta and p = 1; n_1 > m/delta; and the
    cross-stack growth f(n_i) > sum_{j<i} |supp z_j|.  Conclusion per level ell:

        || sum z_i ||_ell <= (1+eps) max{ 1, m / (f(ell) f(m/min(ell,m))) }

    and consequently <= (1+eps) m / f(m) (by submultiplicativity of f).
    Conclusions follow `Report.verdict`; a single stack also needs delta <
    eps/2.  delta is an input: no closed form is available for how small it
    must be, so instances report pass/fail rather than synthesizing it.
    """
    m = len(stacks)
    report = Report()
    if _common_p([avg for stack in stacks for avg in stack]) != 1:
        raise ValueError("chain stacks are built from l_1 averages")
    for i, stack in enumerate(stacks, start=1):
        _rapid_premises(report, stack, delta, 1.0, stack=str(i))

    z_vectors = [FiniteVector.sum([avg.vector for avg in stack]) for stack in stacks]
    n1 = len(stacks[0])
    report.items.append(
        premise("first_stack_size", float(n1), m / delta, holds=n1 > m / delta)
    )
    _growth_premises(report, "stack_scale_growth", "", [len(stack) for stack in stacks],
                     [z.support_size for z in z_vectors])

    status, asserted = report.verdict(relaxed)
    asserted = asserted and (m > 1 or delta < eps / 2.0)
    if relaxed:
        report.notes.append("relaxed mode: conclusions unasserted, margins diagnostic")
    if m == 1:
        report.notes.append(
            f"single-stack base case: asserted only when delta < eps/2 "
            f"({delta} vs {eps / 2.0})"
        )

    z = FiniteVector.sum(z_vectors)
    for ell in ells:
        lhs = engine.norm_ell(z, ell)
        rhs = (1.0 + eps) * max(1.0, m / (f(ell) * f(m / min(ell, m))))
        report.items.append(bound(f"level_bound[ell={ell}]", lhs, rhs, asserted, status))
        report.items.append(
            bound(
                f"level_bound_weak[ell={ell}]",
                lhs,
                (1.0 + eps) * m / f(m) if m > 1 else 1.0 + eps,
                asserted,
                status,
            )
        )
    return report
