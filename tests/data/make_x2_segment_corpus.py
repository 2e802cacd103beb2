"""Writes x2_segment_corpus.json: segment-mode values of a reference checkout.

Run from the root of a checkout, with the reference version of seqnorm first
on the path, for instance the commit before the interval-table segment search:

    mkdir ref && git archive 188da34 | tar -x -C ref
    PYTHONPATH=ref/src python3 tests/data/make_x2_segment_corpus.py

With the argument `witnesses` it writes x2_witness_corpus.json instead: the
canonical witness JSON of segment `x2` and `x1` `small` norms of ones(n) for
n in {5, 17, 40, 70}, piecewise-constant roots and seeded random roots with
random signs and gaps.  It was frozen from 0f691a5, the last commit whose
tables stored the splits, so the test that reads it guards the tie rules of
the splits a witness walk re-derives:

    mkdir ref && git archive 0f691a5 | tar -x -C ref
    PYTHONPATH=ref/src python3 tests/data/make_x2_segment_corpus.py witnesses

Values depend only on the coefficient pattern, so each entry is keyed by its
pattern.  The patterns cover seeded random roots (n <= 40), ones(n) for
n <= 70, piecewise-constant roots and every pattern of test_c04's 1,224
vectors (its 0/1 vectors are the ones(r), r <= 10).  `levels` (the length and
last value of `iterate_levels`) is recorded for random roots of n <= 24 and
for ones(n) only, which keeps the test that reads the corpus short.

With the argument `large` it writes x2_segment_large_corpus.json: 40 roots of
64 to 300 points (U(0.1, 3), e**U(-30, 30), a head of 1e-200 * U(0.1, 3)
before U(0.1, 3), constant, four constant runs), each with float.hex of the
segment norm, of `norm_ell_m0` for ell in LARGE_ELLS and m0 in LARGE_M0S and of
`triple_norm` for m in LARGE_MS, and the sha256 of the canonical witness JSON,
for a bit-for-bit comparison.  It was frozen from 1695844, the last commit
whose fill evaluated every merged-rest candidate:

    mkdir ref && git archive 1695844 | tar -x -C ref
    PYTHONPATH=ref/src python3 tests/data/make_x2_segment_corpus.py large
"""
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from seqnorm.core import FiniteVector
from seqnorm.family_engine import FamilyEngine, SegmentDP
from seqnorm.io import canonical_json
from seqnorm.qsum_engine import QSumConfig, QSumEngine
from seqnorm.suites import random_vector as random_test_vector
from seqnorm.witness import witness_to_json

HERE = Path(__file__).resolve().parent
C04_SEED = 20240817 + 1  # test_acceptance.SEED + 1
ELLS = range(1, 9)
M0S = (4, 8)  # m0 = 2 is norm_ell itself


def c04_random_patterns():
    rng = np.random.default_rng(C04_SEED)
    return [random_test_vector(rng, 10).pattern() for _ in range(200)]


def random_root(rng, n):
    return FiniteVector.from_dense(rng.uniform(0.1, 3.0, size=n).tolist())


def piecewise_constant(rng, runs, max_len):
    values = rng.uniform(0.1, 3.0, size=runs)
    lengths = rng.integers(1, max_len + 1, size=runs)
    return FiniteVector.from_dense([v for v, n in zip(values, lengths) for _ in range(n)])


def corpus_patterns():
    """(pattern, with_levels) in a fixed order, first occurrence kept."""
    rng = np.random.default_rng(7)
    out = [(p, False) for p in c04_random_patterns()]
    out += [(random_root(rng, n).pattern(), n <= 24) for n in range(1, 41) for _ in range(2)]
    out += [((1.0,) * n, True) for n in range(71)]
    out += [(piecewise_constant(rng, runs, 8).pattern(), False)
            for runs in (2, 3, 4, 5) for _ in range(5)]
    seen, unique = set(), []
    for p, lv in out:
        if p not in seen:
            seen.add(p)
            unique.append((p, lv))
    return unique


def entry(p, with_levels):
    engine = FamilyEngine(SegmentDP())
    x = FiniteVector.from_dense(list(p))
    rec = {
        "pattern": list(p),
        "norm": engine.norm(x),
        "ell": [engine.norm_ell(x, ell) for ell in ELLS],
        "ell_m0": {str(m0): [engine.norm_ell_m0(x, ell, m0) for ell in ELLS] for m0 in M0S},
        "triple": [engine.triple_norm(x, m) for m in range(2, len(p) + 1)],
    }
    if with_levels:
        levels = engine.iterate_levels(x)
        rec["levels"] = [len(levels), levels[-1]]
    return rec


def signed_root(rng, n):
    """n points, gaps of 1 to 3, coefficients U(0.1, 3) with random signs."""
    idx = np.cumsum(rng.integers(1, 4, size=n))
    coef = rng.uniform(0.1, 3.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    return FiniteVector(zip(idx.tolist(), coef.tolist()))


def witness_vectors():
    rng = np.random.default_rng(9)
    out = [FiniteVector.ones(n) for n in (5, 17, 40, 70)]
    out += [piecewise_constant(rng, runs, 8) for runs in (2, 3, 5, 8) for _ in range(2)]
    return out + [signed_root(rng, n) for n in (3, 8, 12, 16, 20, 24, 32, 40, 50)]


def witness_entry(x):
    x2 = FamilyEngine(SegmentDP()).norm(x, with_witness=True)[1]
    x1 = QSumEngine(QSumConfig.small()).norm(x, with_witness=True)[1]
    return {"vector": x.to_json(), "x2": canonical_json(witness_to_json(x2)),
            "x1": canonical_json(witness_to_json(x1))}


LARGE_ELLS, LARGE_M0S, LARGE_MS = (1, 2, 3, 5), (2, 4, 16), (2, 3, 8)


def large_roots():
    """(kind, pattern) of 40 roots of 64 to 300 points, eight of each kind."""
    rng = np.random.default_rng(22)
    sizes = [64, 300, 97, 150, 200, 128, 251, 80]

    def head(n):
        h = int(rng.integers(1, 17))  # longer than nc + 1 points in some roots
        return np.concatenate([1e-200 * rng.uniform(0.1, 3.0, size=h),
                               rng.uniform(0.1, 3.0, size=n - h)])

    def runs(n):
        cuts = np.sort(rng.choice(np.arange(1, n), size=3, replace=False))
        return np.repeat(rng.uniform(0.1, 3.0, size=4), np.diff([0, *cuts, n]))

    kinds = {
        "uniform": lambda n: rng.uniform(0.1, 3.0, size=n),
        "e30": lambda n: np.exp(rng.uniform(-30.0, 30.0, size=n)),
        "tiny-head": head,
        "constant": lambda n: np.full(n, rng.uniform(0.1, 3.0)),
        "four-runs": runs,
    }
    return [(kind, tuple(make(n).tolist())) for kind, make in kinds.items() for n in sizes]


def large_entry(kind, p):
    engine = FamilyEngine(SegmentDP())
    x = FiniteVector.from_dense(list(p))
    value, w = engine.norm(x, with_witness=True)
    return {
        "kind": kind,
        "pattern": [v.hex() for v in p],
        "norm": value.hex(),
        "ell_m0": {str(m0): [engine.norm_ell_m0(x, ell, m0).hex() for ell in LARGE_ELLS]
                   for m0 in LARGE_M0S},
        "triple": [engine.triple_norm(x, m).hex() for m in LARGE_MS],
        "witness_sha256": hashlib.sha256(canonical_json(witness_to_json(w)).encode()).hexdigest(),
    }


def main() -> int:
    if sys.argv[1:] == ["large"]:
        entries = [large_entry(kind, p) for kind, p in large_roots()]
        text = json.dumps({"ells": LARGE_ELLS, "m0s": LARGE_M0S, "ms": LARGE_MS,
                           "entries": entries}, separators=(",", ":"))
        (HERE / "x2_segment_large_corpus.json").write_text(text + "\n")
        print(f"{len(entries)} roots", file=sys.stderr)
        return 0
    if sys.argv[1:] == ["witnesses"]:
        entries = [witness_entry(x) for x in witness_vectors()]
        text = json.dumps({"entries": entries}, separators=(",", ":"))
        (HERE / "x2_witness_corpus.json").write_text(text + "\n")
        print(f"{len(entries)} vectors", file=sys.stderr)
        return 0
    entries = [entry(p, lv) for p, lv in corpus_patterns()]
    text = json.dumps({"ells": list(ELLS), "m0s": list(M0S), "entries": entries},
                      separators=(",", ":"))
    (HERE / "x2_segment_corpus.json").write_text(text + "\n")
    print(f"{len(entries)} patterns", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
