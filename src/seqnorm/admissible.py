"""Admissible families of (m, E) pairs: the constraint class of the family norm.

A family ((m_1, E_1), ..., (m_l, E_l)) is admissible when the E_i are
successively ordered finite index sets, m_1 >= 2, and each later scale obeys
the cardinality budget f(m_{i+1}) > |E_1| + ... + |E_i|.  The budget test is
done in exact integer arithmetic (f(m) > b  <=>  m >= 2**b) so families right
at the boundary are classified correctly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import IndexSet, f_exceeds


class FamilyValidationError(ValueError):
    """Raised with a description of the first violated admissibility constraint."""


@dataclass(frozen=True)
class AdmissibleFamily:
    pairs: tuple[tuple[int, IndexSet], ...]

    @staticmethod
    def of(pairs: Iterable[tuple[int, IndexSet]]) -> "AdmissibleFamily":
        fam = AdmissibleFamily(tuple((int(m), E) for m, E in pairs))
        fam.validate()
        return fam

    @property
    def length(self) -> int:
        return len(self.pairs)

    def validate(self) -> None:
        """Raise FamilyValidationError on the first violated constraint."""
        if not self.pairs:
            raise FamilyValidationError("family must contain at least one pair")
        for pos, (m, E) in enumerate(self.pairs, start=1):
            if m < 2:
                raise FamilyValidationError(f"pair {pos}: m = {m} < 2")
            if E.is_empty:
                raise FamilyValidationError(f"pair {pos}: empty index set")
        for pa, ((_, Ea), (_, Eb)) in enumerate(zip(self.pairs, self.pairs[1:]), start=1):
            if not Ea.precedes(Eb):
                raise FamilyValidationError(
                    f"pairs {pa} and {pa + 1}: sets are not successively ordered "
                    f"(max {Ea.max} >= min {Eb.min})"
                )
        budget = 0
        for pos, (m, E) in enumerate(self.pairs, start=1):
            if pos > 1 and not f_exceeds(m, budget):
                raise FamilyValidationError(
                    f"pair {pos}: f({m}) <= cumulative cardinality {budget}"
                )
            budget += E.cardinality

    def cumulative_cardinalities(self) -> tuple[int, ...]:
        out = []
        total = 0
        for _, E in self.pairs:
            total += E.cardinality
            out.append(total)
        return tuple(out)

    def to_json(self) -> dict:
        return {"pairs": [[m, E.to_json()] for m, E in self.pairs]}

    @staticmethod
    def from_json(obj: dict) -> "AdmissibleFamily":
        if not isinstance(obj, dict) or "pairs" not in obj:
            raise ValueError("family JSON must be an object with a 'pairs' key")
        pairs = [(int(m), IndexSet.from_json(e)) for m, e in obj["pairs"]]
        return AdmissibleFamily.of(pairs)
