"""Segment mode on interval tables: values frozen from the pattern-memo
search it replaced, witnesses frozen from the tables that stored their
splits, large roots frozen from the fill that evaluated every merged rest, the
strided views of the fill, and the state an engine keeps."""
import hashlib
import json
import math
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.array_utils import byte_bounds

from conftest import random_test_vector
from oracles import BruteFamilyNorm
from seqnorm import family_engine, run_tables
from seqnorm.core import EQ_TOL, FiniteVector
from seqnorm.family_engine import FamilyEngine, SegmentDP, _Segment
from seqnorm.io import canonical_json
from seqnorm.qsum_engine import QSumConfig, QSumEngine
from seqnorm.witness import validate_witness, witness_to_json

CORPUS = Path(__file__).parent / "data" / "x2_segment_corpus.json"
WITNESSES = Path(__file__).parent / "data" / "x2_witness_corpus.json"
LARGE = Path(__file__).parent / "data" / "x2_segment_large_corpus.json"
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
        tables = engine._last
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


def large_roots():
    """(kind, pattern) of the large-root corpus: 40 roots of 64 to 300 points."""
    data = json.loads(LARGE.read_text())
    return data, [(e["kind"], tuple(map(float.fromhex, e["pattern"]))) for e in data["entries"]]


def test_large_root_corpus():
    # written by tests/data/make_x2_segment_corpus.py large from a checkout whose fill
    # evaluated every merged-rest candidate: values and witnesses equal bit for bit
    data, roots = large_roots()
    assert len(roots) == 40 and {len(p) for _, p in roots} <= set(range(64, 301))
    for e, (_, p) in zip(data["entries"], roots):
        engine, x = FamilyEngine(SegmentDP()), FiniteVector.from_dense(p)
        value, w = engine.norm(x, with_witness=True)
        validate_witness(w, x)
        assert value.hex() == e["norm"]
        assert hashlib.sha256(canonical_json(witness_to_json(w)).encode()).hexdigest() \
            == e["witness_sha256"]
        for m0 in data["m0s"]:
            got = [engine.norm_ell_m0(x, ell, m0).hex() for ell in data["ells"]]
            assert got == e["ell_m0"][str(m0)]
        assert [engine.triple_norm(x, m).hex() for m in data["ms"]] == e["triple"]


def test_merged_rests_round_away_past_t0():
    # the lemma behind the fill's cut (family_engine docstring): from t0 on, a first run
    # of t points and one merged rest sum to the run's tn, for every state it serves
    engaged = 0
    for _, p in large_roots()[1]:
        if len(p) < 100:
            continue
        T = _Segment(p)
        T.fill()
        n, t0, nc = len(p), T.t0, T.nc
        lo = T.sup[nc + 1, : n - nc - 1] / T.floors[:nc, None]  # t0 as a max over c and s
        k, eW = np.frexp(np.spacing(lo))[1] - 1, math.frexp(2 * T.l1[n, 0])[1]
        assert t0 == max(nc + 1, int((eW - np.arange(nc)[:, None] - k + 2).max()))
        for L in range(t0 + 1, n + 1):
            t, s = np.arange(t0, L), slice(0, n - L + 1)
            tn = T.tn[:, t, s]
            assert np.array_equal(T.pow2[:, t, None] * T.W[L, L - t, s] + tn, tn)
        engaged += t0 < n - 1
    assert engaged >= 20  # the tiny heads longer than nc + 1 points keep t0 > n
    rng = np.random.default_rng(59)
    for n in (100, 160, 250, 400, 600):  # a fallback to t0 = n fails here
        assert _Segment(tuple(rng.uniform(0.1, 3.0, size=n).tolist())).t0 <= 80


def test_strided_views_inside_base(monkeypatch):
    views = []  # (view, base, step) of every view the fills, passes and walks build

    def recorded(build):
        def wrapper(a, *args):  # rests(a) (step None) or _diagonal(a, step, shape)
            out = build(a, *args)
            views.append((out, a, args[0] if args else None))
            return out
        return wrapper

    monkeypatch.setattr(run_tables, "rests", recorded(run_tables.rests))
    monkeypatch.setattr(family_engine, "rests", recorded(family_engine.rests))
    monkeypatch.setattr(family_engine, "_diagonal", recorded(family_engine._diagonal))
    rng = np.random.default_rng(5)
    for n in range(41):
        x = FiniteVector.from_dense(rng.uniform(0.1, 3.0, size=n).tolist())
        for engine in (FamilyEngine(SegmentDP()), QSumEngine(QSumConfig.small())):
            engine.norm(x, with_witness=True)
        assert bool(views) == (n > 2)  # no window and no states below 3 points
        x2 = FamilyEngine(SegmentDP())
        x2.norm_ell_m0(x, 2, 3)
        x2.fixed_point_residual(x)  # a window that is not kept
        x2._last._end = (-1, 0, None)  # drop the fill's right end n: `ending` passes again
        x2.norm_ell_m0(x, 2, 5)
        assert any(step == (1, -1, 0, 1) for _, _, step in views) == (n > 2)  # the window
        for view, base, step in views:
            lo, hi = byte_bounds(view)
            base_lo, base_hi = byte_bounds(base)
            assert view.base is base and base_lo <= lo and hi <= base_hi
            for _ in range(50 if view.size else 0):
                if step is None:  # r[..., L, u, s] = a[..., u, s+L-u], a rest of u >= 1
                    cols = base.shape[-1]  # the root's points, at least 1
                    L = int(rng.integers(1, cols + 1))
                    s = int(rng.integers(0, cols - L + 1))
                    i = tuple(int(rng.integers(0, d)) for d in base.shape[:-2])
                    u = int(rng.integers(1, L + 1))
                    assert view[i + (L, u, s)] == base[i + (u, s + L - u)]
                    continue
                # v[c, t-1, *i] = a[(c, *i) + t * step], where that index is inside a
                at = tuple(int(rng.integers(0, d)) for d in view.shape)
                to = np.add((at[0], *at[2:]), np.multiply(at[1] + 1, step))
                if all(0 <= v < d for v, d in zip(to, base.shape)):
                    assert np.array_equal(view[at], base[tuple(to)], equal_nan=True)
        views.clear()


def test_triple_norm_never_grows_with_m():
    # the floor rule, on the brute-force reference, which scans every m
    rng = np.random.default_rng(23)
    for _ in range(12):
        x = random_test_vector(rng, int(rng.integers(1, 7)))
        brute = BruteFamilyNorm(x)
        values = [brute.triple_norm(m) for m in range(2, x.support_size + 3)]
        assert all(b <= a + EQ_TOL * max(1.0, a) for a, b in zip(values, values[1:]))


def test_floor_rule_on_segment_tables():
    rng = np.random.default_rng(29)
    for n in (1, 2, 3, 5, 8, 9, 17, 26):
        T = _Segment(tuple(rng.uniform(0.1, 3.0, size=n).tolist()))
        T.fill()
        for m in range(2, n):  # every row, so that max_{m >= fl} C_m / m can be read
            T.table(m)
        assert set(range(1, n)) <= set(T.ms)

        def ratio(m, L, s):  # max over m' >= m of C_m' / m'; C_m' = l1 once m' >= L
            return max(T.bps(k, L, s) / k for k in range(m, max(m, L) + 1))

        for L in range(1, n + 1):
            for s in range(n - L + 1):
                for c in range(T.nc):
                    assert close(T.tn[c, L, s], ratio(max(2, 1 << c), L, s))
        S = T.ending(n, n)  # the family states of right end n, S[c, k, s]
        for m0 in (3, 5, 6):  # a first run p[a:a+t], then the family states after it
            want = [0.0] + [float("-inf")] * (T.K - 1)
            for a in range(n):
                for t in range(1, n - a + 1):
                    head, u = ratio(m0, t, a), n - a - t
                    if t < len(S):
                        rest = S[t, :, a + t]
                    else:  # past the merged-tail rows: one merged tail
                        rest = [0.0, T.l1[u, a + t] / 2 ** t if u else float("-inf")]
                    for k in range(1, T.K):
                        if k - 1 < len(rest):
                            want[k] = max(want[k], head + rest[k - 1])
            got = T.root_best(m0)
            assert all(close(g, w) if w > float("-inf") else g == w for g, w in zip(got, want))


def test_counts_added_on_demand():
    rng = np.random.default_rng(31)
    x = FiniteVector.from_dense(rng.uniform(0.1, 3.0, size=30).tolist())
    engine = FamilyEngine(SegmentDP())
    engine.norm(x)
    tables = engine._last
    tn, states, rows = tables.tn, tables.ending(30, 30), len(tables.ms)
    assert tables.ms == [1, 2, 4, 8, 16]
    values = [engine.triple_norm(x, m) for m in range(2, 32)]
    assert engine._last is tables and tables.tn is tn and tables.ending(30, 30) is states
    assert rows < len(tables.ms) <= 30
    # the rows added one count at a time equal those of a fill over every count
    full = _Segment(x.pattern())
    full.row = full._index(range(1, 30))
    full.fill()
    assert np.array_equal(tables.tn, full.tn)
    assert np.array_equal(tables.ending(30, 30), full.ending(30, 30))
    assert all(np.array_equal(tables.table(m), full.table(m)) for m in range(1, 30))
    assert values == [FamilyEngine(SegmentDP()).triple_norm(x, m) for m in range(2, 32)]
    x1 = QSumEngine(QSumConfig.small())
    x1.norm(x)
    kept = x1._last
    got = [x1.norm_k(x, k) for k in (2, 3, 5, 7, 29, 40)]
    assert x1._last is kept
    assert got == [QSumEngine(QSumConfig.small()).norm_k(x, k) for k in (2, 3, 5, 7, 29, 40)]


def family_states(T):
    """state(c, L, s)[k], the family states of `run_tables` transcribed into plain Python
    on T's tables: merged tails, the skip of p[s], a first run p[s:s+t] and the rest."""
    memo, neg = {}, float("-inf")

    def fl(c):
        return max(2, 1 << c)

    def state(c, L, s):
        if (c, L, s) not in memo:
            if L == 0:
                out = [0.0] + [neg] * (T.K - 1)
            elif fl(c) >= L:  # a merged tail
                out = [0.0, T.l1[L, s] / fl(c)] + [neg] * (T.K - 2)
            else:
                out = list(state(c, L - 1, s + 1))
                for t in range(1, L + 1):
                    head, rest = T.bps(fl(c), t, s) / fl(c), state(c + t, L - t, s + t)
                    for k in range(1, T.K):
                        if rest[k - 1] > neg:
                            out[k] = max(out[k], head + rest[k - 1])
            memo[c, L, s] = out
        return memo[c, L, s]
    return state


def test_right_end_states_follow_the_recurrence():
    rng = np.random.default_rng(47)
    roots = [tuple(rng.uniform(0.1, 3.0, size=n).tolist()) for n in (0, 1, 2, 3, 4, 7, 12, 19, 30)]
    roots += [(1.0,) * n for n in (5, 17, 30)]
    roots += [((1.0,) * 5 + (3.0,) * 5 + (0.5,) * 7)[:n] for n in (9, 17)]
    roots += [(2.0,) * 8 + (0.25,) * 8 + (2.0,) * 8]
    for p in roots:
        n, T = len(p), _Segment(p)
        T.fill()
        state = family_states(T)
        for e in range(n, -1, -1):  # e = n: the fill's states of the root, then a pass each
            Lm = e if e == n or e % 3 else int(rng.integers(0, e + 1))
            S = T.ending(e, Lm)
            assert S.shape[:2] == (2 * T.nc, T.K)
            for c in range(2 * T.nc):
                for s in range(e - Lm, e + 1):
                    assert S[c, :, s].tolist() == state(c, e - s, s)
            T._end = (-1, 0, None)
        for m0 in (2, 3, 5, 6):
            want = list(state(0, n, 0))
            if m0 > 2:  # a first run p[a:a+t] valued C_m0 / m0, then the states after it
                want = [0.0] + [float("-inf")] * (T.K - 1)
                for a in range(n):
                    for t in range(1, n - a + 1):
                        head, rest = T.table(m0)[t, a] / m0, state(t, n - a - t, a + t)
                        for k in range(1, T.K):
                            want[k] = max(want[k], head + rest[k - 1])
            assert T.root_best(m0).tolist() == want


def test_cold_norm_memory_bounded():
    # no fill builds an n x n array per state row: a cold 160-point norm holds the
    # tables of O(n^2 log n) numbers and a window of the family states
    x = FiniteVector.from_dense(np.random.default_rng(53).uniform(0.1, 3.0, size=160).tolist())
    FamilyEngine(SegmentDP()).norm(FiniteVector.from_dense([1.0, 2.0, 3.0, 4.0]))  # imports, caches
    tracemalloc.start()
    try:
        FamilyEngine(SegmentDP()).norm(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000


@pytest.mark.parametrize("budget", [16, 1000])
def test_tiled_split_reduction_equals_one_expression(monkeypatch, budget):
    # a budget of 16 bytes sends every length that splits row by row, one split point
    # per block; 1,000 bytes mixes both forms, with blocks of a few split points and a
    # ragged last block; tables, values and witnesses stay bit-identical
    rng = np.random.default_rng(59)
    x = FiniteVector.from_dense(rng.uniform(0.1, 3.0, size=40).tolist())
    small = FiniteVector.from_dense(rng.uniform(0.1, 3.0, size=20).tolist())

    def run():
        x1, x2 = QSumEngine(QSumConfig.small()), FamilyEngine(SegmentDP())
        w1, w2 = x1.norm(x, with_witness=True)[1], x2.norm(x, with_witness=True)[1]
        T1, T2 = x1._last, x2._last
        out = [T1.C.copy(), T1.N.copy(), T2.C.copy(), T2.tn.copy(), T2.ending(40, 40).copy()]
        out += [canonical_json(witness_to_json(w)) for w in (w1, w2)]
        out += [x1.norm(x), x2.norm(x), [x2.triple_norm(x, m) for m in (3, 6, 40)]]
        out += [[x1.norm_k(x, k) for k in (29, 5, 12, 3, 7)], x1._last.C.copy()]  # rows out of order
        full = _Segment(x.pattern())
        full.row = full._index(range(1, 30))
        full.fill()
        out += [full.C, full.ending(40, 40)]
        for engine in (QSumEngine(QSumConfig.small()), FamilyEngine(SegmentDP())):
            out += [engine.fixed_point_residual(x), engine.iterate_levels(small)]
        return out

    want = run()
    monkeypatch.setattr(run_tables, "SPLIT_BYTES", budget)
    got = run()
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


def test_cold_x1_norm_transient_memory_bounded():
    # a 320-point x1 fill reduces the splits of a long run in blocks, not in one
    # (rows, L - 1, n - L + 1) temporary: beside its tables it holds about a megabyte
    x = FiniteVector.from_dense(np.random.default_rng(61).uniform(0.1, 3.0, size=320).tolist())
    QSumEngine(QSumConfig.small()).norm(FiniteVector.from_dense([1.0, 2.0, 3.0, 4.0]))
    engine = QSumEngine(QSumConfig.small())
    tracemalloc.start()
    try:
        engine.norm(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    T = engine._last
    assert peak - (T.C.nbytes + T.l1.nbytes + T.sup.nbytes) < 2_500_000


def test_run_sums_accumulate_in_sequence():
    rng = np.random.default_rng(37)
    for n in (0, 1, 2, 7, 30):
        p = tuple(rng.uniform(0.1, 3.0, size=n).tolist())
        T = _Segment(p)
        z = [math.ldexp(v, -T.exp) for v in p]
        assert T.l1[0, 0] == 0.0 and T.sup[0, 0] == 0.0
        for L in range(1, n + 1):
            for s in range(n - L + 1):
                total = 0.0
                for v in z[s : s + L]:
                    total += v
                assert T.l1[L, s] == total and T.sup[L, s] == max(z[s : s + L])


def test_residual_while_threads_add_counts():
    # residuals, each mapped on a fresh root, run beside threads that add counts to
    # the tables of a kept root and read the states of its right end: every
    # answer as on a fresh engine
    x = FiniteVector.from_dense(np.random.default_rng(41).uniform(0.1, 3.0, 40).tolist())
    jobs = [("w", 0)] * 2 + [("r", 0)] * 6 + [("e", m) for m in (3, 5, 7, 9)]
    np.random.default_rng(1).shuffle(jobs)

    def run(engine, job):
        kind, m = job
        if kind == "w":
            return canonical_json(witness_to_json(engine.norm(x, with_witness=True)[1]))
        return engine.fixed_point_residual(x) if kind == "r" else engine.norm_ell_m0(x, 3, m)

    fresh = [run(FamilyEngine(SegmentDP()), j) for j in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside operations
    try:
        for _ in range(30):
            shared = FamilyEngine(SegmentDP())
            shared.norm(x)
            with ThreadPoolExecutor(max_workers=4) as pool:
                assert list(pool.map(lambda j: run(shared, j), jobs, timeout=60)) == fresh
    finally:
        sys.setswitchinterval(interval)


def test_counts_added_while_threads_read():
    # one engine per space shared by four threads on one root: counts are
    # added to the tables, and witnesses replace the kept states of a right
    # end, while other threads read them
    rng = np.random.default_rng(41)
    x = FiniteVector.from_dense(rng.uniform(0.1, 3.0, size=40).tolist())
    jobs = [("tn", m) for m in range(2, 42)] + [("ellm0", m0) for m0 in (3, 5, 6, 7, 9, 11)]
    jobs += [("k", k) for k in range(2, 42)] + [("w", 0)] * 6
    rng.shuffle(jobs)

    def run(engines, job):
        x2, x1 = engines
        kind, m = job
        if kind == "w":
            return canonical_json(witness_to_json(x2.norm(x, with_witness=True)[1]))
        if kind == "tn":
            return x2.triple_norm(x, m)
        return x2.norm_ell_m0(x, 3, m) if kind == "ellm0" else x1.norm_k(x, m)

    fresh = [run((FamilyEngine(SegmentDP()), QSumEngine(QSumConfig.small())), j) for j in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside operations
    try:
        for _ in range(3):
            shared = (FamilyEngine(SegmentDP()), QSumEngine(QSumConfig.small()))
            shared[0].norm(x), shared[1].norm(x)
            with ThreadPoolExecutor(max_workers=4) as pool:
                assert list(pool.map(lambda j: run(shared, j), jobs, timeout=60)) == fresh
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("n", [3, 9, 40])
@pytest.mark.parametrize("space", ["x2", "x1"])
def test_published_root_is_read_only_after_its_fill(space, n):
    # a kept root's arrays are written by its own fill only: the residual, the levels,
    # a witness and counts asked later all run with every array of the root read-only
    x = FiniteVector.from_dense(np.random.default_rng(n).uniform(0.1, 3.0, n).tolist())
    engine = FamilyEngine(SegmentDP()) if space == "x2" else QSumEngine(QSumConfig.small())
    engine.norm(x)
    T = engine._last
    for v in vars(T).values():
        for a in v if isinstance(v, tuple) else (v,):  # `_end` holds the states of right end n
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
    engine.fixed_point_residual(x)
    engine.iterate_levels(x)
    validate_witness(engine.norm(x, with_witness=True)[1], x)
    if space == "x2":
        engine.triple_norm(x, 7), engine.norm_ell_m0(x, 2, 5)
    else:
        engine.norm_k(x, 7)
    assert engine._last is T
