"""Witness certificates for supremum-defined norms.

A witness is a tree recording which rule achieved a computed norm value:
the sup-norm base case, an admissible family (one child per (m_i, E_i)
pair), or a partition into at most m successively ordered pieces.  A witness
re-evaluates bottom-up against the original vector, so every reported value is
a machine-checkable lower bound for the norm it certifies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .admissible import AdmissibleFamily
from .core import EQ_TOL, FiniteVector, IndexSet, f, json_int, json_number


@dataclass(frozen=True)
class SupWitness:
    value: float
    index: int | None = None  # attaining coordinate, None for the zero vector

    rule = "sup"


@dataclass(frozen=True)
class PartitionWitness:
    """Certifies a partition value: (sum of piece norms) / divisor.

    `m` is the piece budget; the divisor is m for triple norms and f(n_k)
    for the scale-sequence seminorms.
    """

    value: float
    m: int
    divisor: float
    pieces: tuple[tuple[IndexSet, "Witness"], ...]

    rule = "partition"


@dataclass(frozen=True)
class FamilyWitness:
    """Certifies a family value (1/f(l)) * sum of triple norms."""

    value: float
    pairs: tuple[tuple[int, IndexSet], ...]
    children: tuple[PartitionWitness, ...]

    rule = "family"


@dataclass(frozen=True)
class QuadraticWitness:
    """Certifies the square-sum branch of the scale-sequence norm.

    `head` holds one partition certificate per scale that genuinely splits
    the vector; beyond `tail_start` every scale exceeds the support size and
    contributes l1/f(n_k) exactly, aggregated analytically into `tail_l2`.
    """

    value: float
    head: tuple[tuple[int, PartitionWitness], ...]  # (n_k, certificate)
    tail_start: int  # first scale index covered by the analytic tail
    tail_l2: float

    rule = "l2sum"


Witness = Union[SupWitness, PartitionWitness, FamilyWitness, QuadraticWitness]


def evaluate_witness(w: Witness, x: FiniteVector) -> float:
    """Recompute the witness value bottom-up against x, checking the tree on
    the way: at most m ordered partition pieces, admissible families with one
    child per pair, each a partition whose m and divisor are its pair's scale,
    and square sums whose head scales n increase, end before the tail and
    are each 2**k - 1, with a partition child of m = n and divisor f(n).
    A malformed tree raises ValueError.

    Each child is evaluated against x restricted to its set, read by index
    lookups into x: a sup index counts only if every enclosing set holds it.
    Each term is divided before the terms are summed, so a value near the
    top of the double range re-evaluates without overflowing."""
    return _evaluate(w, dict(zip(x.indices, x.coefficients)), ())


def _evaluate(w: Witness, coef: dict[int, float], within: tuple[IndexSet, ...]) -> float:
    if isinstance(w, SupWitness):
        if w.index is None or not all(w.index in E for E in within):
            return 0.0
        return abs(coef.get(w.index, 0.0))
    if isinstance(w, PartitionWitness):
        nonempty = [E for E, _ in w.pieces if not E.is_empty]
        if len(nonempty) > w.m:
            raise ValueError(f"partition has {len(nonempty)} pieces, allows {w.m}")
        if not all(a.precedes(b) for a, b in zip(nonempty, nonempty[1:])):
            raise ValueError("partition pieces are not in increasing order")
        return sum(_evaluate(child, coef, (*within, E)) / w.divisor for E, child in w.pieces)
    if isinstance(w, FamilyWitness):
        AdmissibleFamily(w.pairs).validate()
        if len(w.children) != len(w.pairs):
            raise ValueError("family witness needs one child per pair")
        for (m, _), child in zip(w.pairs, w.children):
            if not (isinstance(child, PartitionWitness) and child.m == m and child.divisor == m):
                raise ValueError(f"family child of scale {m} is not a partition divided by {m}")
        div = f(len(w.pairs))
        return sum(
            _evaluate(child, coef, (*within, E)) / div
            for (_, E), child in zip(w.pairs, w.children)
        )
    if isinstance(w, QuadraticWitness):
        keys = [n for n, _ in w.head]
        if not (all(a < b for a, b in zip(keys, keys[1:])) and w.tail_start > len(keys)):
            raise ValueError("l2sum head scales must increase and end before its tail")
        for n, child in w.head:
            if not (n > 0 and n & (n + 1) == 0 and isinstance(child, PartitionWitness)
                    and child.m == n and child.divisor == f(n)):
                raise ValueError(f"head child of scale {n} is not a partition divided by f({n})")
        return math.hypot(*(_evaluate(child, coef, within) for _, child in w.head), w.tail_l2)
    raise TypeError(f"not a witness: {w!r}")


def validate_witness(w: Witness, x: FiniteVector) -> None:
    """Check structural soundness and that re-evaluation reproduces a finite value to EQ_TOL."""
    got = evaluate_witness(w, x)
    if not (math.isfinite(w.value) and abs(got - w.value) <= EQ_TOL * max(1.0, abs(w.value))):
        raise ValueError(f"witness re-evaluates to {got}, claims {w.value}")


def witness_to_json(w: Witness) -> dict:
    if isinstance(w, SupWitness):
        return {"rule": "sup", "value": w.value, "index": w.index}
    if isinstance(w, PartitionWitness):
        return {
            "rule": "partition",
            "value": w.value,
            "m": w.m,
            "divisor": w.divisor,
            "pieces": [[E.to_json(), witness_to_json(c)] for E, c in w.pieces],
        }
    if isinstance(w, FamilyWitness):
        return {
            "rule": "family",
            "value": w.value,
            "pairs": [[m, E.to_json()] for m, E in w.pairs],
            "children": [witness_to_json(c) for c in w.children],
        }
    if isinstance(w, QuadraticWitness):
        return {
            "rule": "l2sum",
            "value": w.value,
            "head": [[k, witness_to_json(c)] for k, c in w.head],
            "tail_start": w.tail_start,
            "tail_l2": w.tail_l2,
        }
    raise TypeError(f"not a witness: {w!r}")


def _finite(v) -> float:
    """A witness number read from JSON: finite, as NaN or an infinity certifies nothing."""
    if not math.isfinite(v := json_number(v)):
        raise ValueError(f"{v} is not a finite number")
    return v


def witness_from_json(obj: dict) -> Witness:
    """The witness of a JSON tree: JSON integers for indices and scales, finite values."""
    rule = obj.get("rule") if isinstance(obj, dict) else None
    if rule == "sup":
        index = obj.get("index")
        return SupWitness(_finite(obj["value"]), None if index is None else json_int(index))
    if rule == "partition":
        return PartitionWitness(
            value=_finite(obj["value"]),
            m=json_int(obj["m"]),
            divisor=_finite(obj.get("divisor", obj["m"])),
            pieces=tuple(
                (IndexSet.from_json(e), witness_from_json(c)) for e, c in obj["pieces"]
            ),
        )
    if rule == "family":
        return FamilyWitness(
            value=_finite(obj["value"]),
            pairs=tuple((json_int(m), IndexSet.from_json(e)) for m, e in obj["pairs"]),
            children=tuple(witness_from_json(c) for c in obj["children"]),
        )
    if rule == "l2sum":
        return QuadraticWitness(
            value=_finite(obj["value"]),
            head=tuple((json_int(k), witness_from_json(c)) for k, c in obj["head"]),
            tail_start=json_int(obj["tail_start"]),
            tail_l2=_finite(obj["tail_l2"]),
        )
    raise ValueError(f"unknown witness rule {rule!r}")
