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
    the way: admissible families with one child per pair, each a partition
    whose m and divisor are its pair's scale, and square sums whose head
    scales n increase, end before the tail and are each 2**k - 1, each head a
    partition of m = n and divisor f(n); a partition holds at most m ordered
    pieces, and a bare partition root is checked by its own m and divisor.
    A piece is certified by a `sup`, `family` or `l2sum` node.  A tree holds
    one space: `family` nodes (x2) or `l2sum` nodes (x1), never both.  A
    malformed tree raises ValueError.

    Each child is evaluated against x restricted to its set, read by index
    lookups into x: a sup index counts only if every enclosing set holds it.
    Each term is divided before the terms are summed, so a value near the
    top of the double range re-evaluates without overflowing."""
    coef = dict(zip(x.indices, x.coefficients))
    if isinstance(w, PartitionWitness):
        return _partition(w, w.m, w.divisor, coef, (), None)
    return _evaluate(w, coef, ())


def _partition(w: Witness, m: int, divisor: float, coef: dict[int, float],
               within: tuple[IndexSet, ...], space: str | None) -> float:
    """The value of w, a partition whose m and divisor the node above it fixes
    (a bare root's are its own)."""
    if not (isinstance(w, PartitionWitness) and w.m == m and w.divisor == divisor):
        raise ValueError(f"child of scale {m} is not a partition divided by {divisor}")
    nonempty = [E for E, _ in w.pieces if not E.is_empty]
    if len(nonempty) > m:
        raise ValueError(f"partition has {len(nonempty)} pieces, allows {m}")
    if not all(a.precedes(b) for a, b in zip(nonempty, nonempty[1:])):
        raise ValueError("partition pieces are not in increasing order")
    return sum(_evaluate(child, coef, (*within, E), space) / divisor for E, child in w.pieces)


def _evaluate(w: Witness, coef: dict[int, float], within: tuple[IndexSet, ...],
              space: str | None = None) -> float:
    """`space` is the rule of the first `family` or `l2sum` node above w, if any."""
    if isinstance(w, (FamilyWitness, QuadraticWitness)):
        if space not in (None, w.rule):
            raise ValueError(f"{w.rule} node under a {space} node: a tree holds one space")
        space = w.rule
    if isinstance(w, SupWitness):
        if w.index is None or not all(w.index in E for E in within):
            return 0.0
        return abs(coef.get(w.index, 0.0))
    if isinstance(w, FamilyWitness):
        AdmissibleFamily(w.pairs).validate()
        if len(w.children) != len(w.pairs):
            raise ValueError("family witness needs one child per pair")
        div = f(len(w.pairs))
        return sum(_partition(child, m, m, coef, (*within, E), space) / div
                   for (m, E), child in zip(w.pairs, w.children))
    if isinstance(w, QuadraticWitness):
        keys = [n for n, _ in w.head]
        if not (all(n > 0 and n & (n + 1) == 0 for n in keys)
                and all(a < b for a, b in zip(keys, keys[1:])) and w.tail_start > len(keys)):
            raise ValueError("l2sum head scales must be 2**k - 1, increase and end before its tail")
        return math.hypot(*(_partition(child, n, f(n), coef, within, space)
                            for n, child in w.head), w.tail_l2)
    if isinstance(w, PartitionWitness):
        raise ValueError("a partition certifies a family pair or an l2sum head, not a piece")
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
