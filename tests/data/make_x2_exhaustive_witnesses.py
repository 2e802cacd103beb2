"""Writes x2_exhaustive_witnesses.json: exhaustive-mode `x2` witnesses and values
of a reference checkout, so the test that reads it compares with == and the
whole file byte for byte.

Run from the root of a checkout, with the reference version of seqnorm first
on the path.  The file was frozen from f798a9b, the last commit whose
exhaustive search memoised its states by float pattern:

    mkdir ref && git archive f798a9b | tar -x -C ref
    PYTHONPATH=ref/src python3 tests/data/make_x2_exhaustive_witnesses.py

The roots are seeded U(0.1, 3) roots of 1-12 points; roots whose equal values
sit in separated runs, such as (a, b, a, b, a); and combinations of l_1 and
l_2 averages drawn as `suite_stackbound` and `suite_offpeak` draw them, those of
at most 12 points.  Each entry holds the root's coordinates, its witness as
`canonical_json(witness_to_json(w))`, and `float.hex` of `norm`, `norm_ell` and
`norm_ell_m0` (m0 in M0S) at every ell in ELLS, and `triple_norm` at m = 2 .. n.
"""
import json
import sys
from pathlib import Path

import numpy as np

from seqnorm.constructions import build_average, feasible_average_sizes
from seqnorm.core import FiniteVector
from seqnorm.family_engine import MAX_EXHAUSTIVE_SUPPORT, Exhaustive, FamilyEngine, get_engine
from seqnorm.io import canonical_json, witness_to_json
from seqnorm.suites import random_average

HERE = Path(__file__).resolve().parent
ELLS = range(1, 7)
M0S = (3, 4, 8)


def separated_runs(rng, n: int, values: int) -> FiniteVector:
    """n points cycling through `values` distinct coefficients, or drawn from them."""
    v = rng.uniform(0.1, 3.0, size=values)
    if n % 2:
        return FiniteVector.from_dense([float(v[i % values]) for i in range(n)])
    return FiniteVector.from_dense([float(c) for c in rng.choice(v, size=n)])


def suite_combination(seed: int, stackbound: bool) -> FiniteVector:
    """The combined vector of one `suite_stackbound` or `suite_offpeak` instance."""
    rng, engine = np.random.default_rng(seed), get_engine(Exhaustive())
    n = int(rng.integers(1, 4))
    p = 1.0 if stackbound else float(rng.choice([1.0, 2.0]))
    averages, start = [], 1
    for _ in range(n):
        if stackbound:
            avg = random_average(rng, 1.0, engine, start=start)
        else:
            k = int(rng.integers(1, feasible_average_sizes(p) + 1))
            avg = build_average(p, k, engine, start=start,
                                lengths=[int(rng.choice([1, 2, 3]))], gap_rng=rng)
        averages.append(avg)
        start = avg.vector.indices[-1] + 1 + int(rng.integers(0, 3))
    coeffs = [float(c) for c in rng.uniform(-1.0, 1.0, size=n)]
    return FiniteVector.sum((avg.vector for avg in averages), coeffs)


def roots() -> list[FiniteVector]:
    rng = np.random.default_rng(29)
    out = [FiniteVector.from_dense(rng.uniform(0.1, 3.0, size=n).tolist())
           for n in range(1, 13) for _ in range(3 if n <= 9 else 1)]
    out += [separated_runs(rng, n, values) for n in range(3, 13) for values in (2, 3)]
    for seed in range(40):
        out += [suite_combination(seed, stackbound) for stackbound in (True, False)]
    return [x for x in out if x.support_size <= MAX_EXHAUSTIVE_SUPPORT]


def entry(engine: FamilyEngine, x: FiniteVector) -> dict:
    value, w = engine.norm(x, with_witness=True)
    return {
        "coords": [[i, c] for i, c in zip(x.indices, x.coefficients)],
        "witness": canonical_json(witness_to_json(w)),
        "norm": value.hex(),
        "ell": [engine.norm_ell(x, ell).hex() for ell in ELLS],
        "ell_m0": {str(m0): [engine.norm_ell_m0(x, ell, m0).hex() for ell in ELLS]
                   for m0 in M0S},
        "triple": [engine.triple_norm(x, m).hex() for m in range(2, x.support_size + 1)],
    }


def text(entries: list[dict]) -> str:
    return json.dumps({"ells": list(ELLS), "m0s": list(M0S), "entries": entries},
                      separators=(",", ":")) + "\n"


def main() -> int:
    out = HERE / (sys.argv[1] if len(sys.argv) > 1 else "x2_exhaustive_witnesses.json")
    engine = FamilyEngine(Exhaustive())
    entries = [entry(engine, x) for x in roots()]
    out.write_text(text(entries))
    print(f"{len(entries)} roots", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
