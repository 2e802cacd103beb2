"""Writes x2_exhaustive_corpus.json: exhaustive-mode `x2` values of a reference
checkout, as `float.hex` strings, so the test that reads it compares with ==.

Run from the root of a checkout, with the reference version of seqnorm first
on the path.  The corpus was frozen from 6a04324, the last commit whose
exhaustive search enumerated every first set of every state:

    mkdir ref && git archive 6a04324 | tar -x -C ref
    PYTHONPATH=ref/src python3 tests/data/make_x2_exhaustive_corpus.py

Values depend only on the coefficient pattern, so each entry is keyed by its
pattern.  The patterns cover seeded random roots (n <= 11), roots drawn from
three values, ones(n) for n <= 12, piecewise-constant roots, extreme-range
roots (coefficients e**U(-30, 30) and 10**U(-300, 300)) and every pattern of
test_c04's 1,224 vectors (its 0/1 vectors are the ones(r), r <= 10).  Each
entry holds `norm`, `norm_ell` and `norm_ell_m0` at every ell in ELLS,
`triple_norm` at m = 2 .. n and, for roots of n <= 9 outside test_c04's
random vectors and for every ones(n), the length and last value of
`iterate_levels`.
"""
import json
import sys
from pathlib import Path

import numpy as np

from seqnorm.core import FiniteVector
from seqnorm.family_engine import Exhaustive, FamilyEngine
from seqnorm.suites import random_vector as random_test_vector

HERE = Path(__file__).resolve().parent
C04_SEED = 20240817 + 1  # test_acceptance.SEED + 1
ELLS = range(1, 7)
M0S = (3, 8)  # m0 = 2 is norm_ell itself
LEVELS_MAX_N = 9


def c04_random_patterns():
    rng = np.random.default_rng(C04_SEED)
    return [random_test_vector(rng, 10).pattern() for _ in range(200)]


def pattern(values):
    return FiniteVector.from_dense([float(v) for v in values]).pattern()


def piecewise_constant(rng, runs, max_len):
    values = rng.uniform(0.1, 3.0, size=runs)
    lengths = rng.integers(1, max_len + 1, size=runs)
    return pattern(v for v, n in zip(values, lengths) for _ in range(n))


def corpus_patterns():
    """(pattern, with_levels) in a fixed order, first occurrence kept."""
    rng = np.random.default_rng(16)
    out = [(p, False) for p in c04_random_patterns()]
    seeded = [pattern(rng.uniform(0.1, 3.0, size=n)) for n in range(1, 12)
              for _ in range(3 if n <= 9 else 1)]
    seeded += [pattern(rng.choice([0.5, 1.0, 2.0], size=n)) for n in range(2, 12)]
    seeded += [piecewise_constant(rng, runs, 3) for runs in (2, 3, 4) for _ in range(3)]
    seeded += [pattern(np.exp(rng.uniform(-30.0, 30.0, size=n))) for n in range(2, 11)]
    seeded += [pattern(10.0 ** rng.uniform(-300.0, 300.0, size=n)) for n in range(2, 9)]
    out += [(p, len(p) <= LEVELS_MAX_N) for p in seeded]
    out += [((1.0,) * n, True) for n in range(13)]
    seen, unique = set(), []
    for p, lv in out:
        if p not in seen:
            seen.add(p)
            unique.append((p, lv))
    return unique


def entry(engine, p, with_levels):
    x = FiniteVector.from_dense(list(p))
    rec = {
        "pattern": list(p),
        "norm": engine.norm(x).hex(),
        "ell": [engine.norm_ell(x, ell).hex() for ell in ELLS],
        "ell_m0": {str(m0): [engine.norm_ell_m0(x, ell, m0).hex() for ell in ELLS]
                   for m0 in M0S},
        "triple": [engine.triple_norm(x, m).hex() for m in range(2, len(p) + 1)],
    }
    if with_levels:
        levels = engine.iterate_levels(x)
        rec["levels"] = [len(levels), levels[-1].hex()]
    return rec


def main() -> int:
    engine = FamilyEngine(Exhaustive())
    entries = [entry(engine, p, lv) for p, lv in corpus_patterns()]
    text = json.dumps({"ells": list(ELLS), "m0s": list(M0S), "entries": entries},
                      separators=(",", ":"))
    (HERE / "x2_exhaustive_corpus.json").write_text(text + "\n")
    print(f"{len(entries)} patterns", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
