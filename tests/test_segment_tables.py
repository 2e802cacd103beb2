"""Segment mode on interval tables: values frozen from the pattern-memo
search it replaced, witnesses frozen from the tables that stored their
splits, the strided views of the fill, and the state an engine keeps."""
import json
import tracemalloc
import weakref
from itertools import combinations
from pathlib import Path

import numpy as np
from numpy.lib.array_utils import byte_bounds

from conftest import random_test_vector
from seqnorm import family_engine, run_tables
from seqnorm.core import EQ_TOL, FiniteVector
from seqnorm.family_engine import FamilyEngine, SegmentDP, _Segment
from seqnorm.io import canonical_json
from seqnorm.qsum_engine import QSumConfig, QSumEngine
from seqnorm.witness import validate_witness, witness_to_json

CORPUS = Path(__file__).parent / "data" / "x2_segment_corpus.json"
WITNESSES = Path(__file__).parent / "data" / "x2_witness_corpus.json"
C04_SEED = 20240817 + 1  # test_acceptance.SEED + 1


def close(got: float, want: float) -> bool:
    return abs(got - want) <= EQ_TOL * max(1.0, abs(want))


def c04_vectors():
    """The 1,224 vectors of test_c04, in its order."""
    out = [FiniteVector((i, 1.0) for i in S)
           for r in range(0, 11) for S in combinations(range(1, 11), r)]
    rng = np.random.default_rng(C04_SEED)
    return out + [random_test_vector(rng, 10) for _ in range(200)]


def test_frozen_corpus():
    # generated by tests/data/make_x2_segment_corpus.py from the pattern-memo
    # search; values depend on the pattern only
    data = json.loads(CORPUS.read_text())
    entries = {tuple(e["pattern"]): e for e in data["entries"]}
    vectors = c04_vectors() + [FiniteVector.from_dense(p) for p in entries]
    assert {x.pattern() for x in vectors} == set(entries)
    engine = FamilyEngine(SegmentDP())
    checked = set()
    for x in vectors:
        e = entries[x.pattern()]
        value, w = engine.norm(x, with_witness=True)
        validate_witness(w, x)
        assert close(value, e["norm"]) and close(w.value, value)
        if x.pattern() in checked:
            continue
        checked.add(x.pattern())
        for i, ell in enumerate(data["ells"]):
            assert close(engine.norm_ell(x, ell), e["ell"][i])
            assert close(engine.norm_ell_m0(x, ell, 2), e["ell"][i])
            for m0 in data["m0s"]:
                assert close(engine.norm_ell_m0(x, ell, m0), e["ell_m0"][str(m0)][i])
        for m, want in enumerate(e["triple"], start=2):
            assert close(engine.triple_norm(x, m), want)
        if "levels" in e:
            levels = engine.iterate_levels(x)
            assert len(levels) == e["levels"][0] and close(levels[-1], e["levels"][1])
    assert len(checked) == len(entries)


def test_segment_state_bounded_by_one_root():
    rng = np.random.default_rng(11)
    roots = {random_test_vector(rng, 8).pattern() for _ in range(1100)}
    roots = [FiniteVector.from_dense(p) for p in sorted(roots)[:1000]]
    assert len(roots) == 1000
    tracemalloc.start()
    try:
        FamilyEngine(SegmentDP()).norm(roots[0])  # one-time allocations outside the engine
        base = tracemalloc.get_traced_memory()[0]
        engine = FamilyEngine(SegmentDP())
        for x in roots:
            engine.norm(x)
        held = tracemalloc.get_traced_memory()[0] - base
        tables = engine._pieces
        # one root's tables, no pattern memo
        assert tables.p == roots[-1].pattern()
        assert not any(isinstance(v, dict) and v for v in vars(engine).values())
        table_bytes = sum(v.nbytes for v in vars(tables).values() if isinstance(v, np.ndarray))
        ref = weakref.ref(tables)
        del engine, tables
        assert ref() is None  # reference counting alone frees them
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    # what stays after the engine is gone is the allocators' free lists
    assert held < 1_000_000
    assert held - left >= table_bytes


def test_witnesses_match_frozen_corpus():
    # written by tests/data/make_x2_segment_corpus.py from a checkout whose
    # tables stored the splits: the splits re-derived on the walk keep its ties
    entries = json.loads(WITNESSES.read_text())["entries"]
    assert len(entries) == 21
    for e in entries:
        x = FiniteVector.from_json(e["vector"])
        for space, engine in (("x2", FamilyEngine(SegmentDP())),
                              ("x1", QSumEngine(QSumConfig.small()))):
            w = engine.norm(x, with_witness=True)[1]
            assert canonical_json(witness_to_json(w)) == e[space]


def test_strided_views_inside_base(monkeypatch):
    views = []  # (view, kind, base) of every view the fills and walks build

    def recorded(build, kind):
        def wrapper(*args):  # rests(a) or _Segment._views(self, F)
            out = build(*args)
            views.append((out, kind, args[0]) if kind == "rests" else (out[0], kind, args[1]))
            return out
        return wrapper

    monkeypatch.setattr(run_tables, "rests", recorded(run_tables.rests, "rests"))
    monkeypatch.setattr(family_engine, "rests", recorded(family_engine.rests, "rests"))
    monkeypatch.setattr(_Segment, "_views", recorded(_Segment._views, "family"))
    rng = np.random.default_rng(5)
    for n in range(41):
        x = FiniteVector.from_dense(rng.uniform(0.1, 3.0, size=n).tolist())
        for engine in (FamilyEngine(SegmentDP()), QSumEngine(QSumConfig.small())):
            engine.norm(x, with_witness=True)
        assert bool(views) == (n > 2)
        for view, kind, base in views:
            lo, hi = byte_bounds(view)
            base_lo, base_hi = byte_bounds(base)
            assert view.base is base and base_lo <= lo and hi <= base_hi
            for _ in range(50):
                L = int(rng.integers(1, n + 1))
                s = int(rng.integers(0, n - L + 1))
                if kind == "rests":  # r[..., L, u, s] = a[..., u, s+L-u], a rest of u >= 1
                    i = tuple(int(rng.integers(0, d)) for d in base.shape[:-2])
                    u = int(rng.integers(1, L + 1))
                    assert view[i + (L, u, s)] == base[i + (u, s + L - u)]
                else:  # V[c, L, t-1, s] = F[c+t, L-t, s+t]
                    c = int(rng.integers(0, view.shape[0]))
                    t = int(rng.integers(1, min(L, view.shape[2]) + 1))
                    assert np.array_equal(view[c, L, t - 1, s], base[c + t, L - t, s + t])
        views.clear()
