import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from conftest import random_test_vector
from seqnorm.core import EQ_TOL
from seqnorm.family_engine import Exhaustive, FamilyEngine
from seqnorm.suites import (
    SUITES,
    suite_fixedpoint,
    suite_gmax,
    suite_rapidavg,
    suite_unconditional,
)


def test_all_suites_registered():
    assert set(SUITES) == {
        "fixedpoint", "unconditional", "avgbounds", "offpeak", "stackbound",
        "rapidavg", "chainstacks", "gmax", "matrix", "embed",
    }


def test_report_shape_and_json():
    rep = suite_fixedpoint(count=3, seed=5)
    obj = rep.to_json()
    assert obj["suite"] == "fixedpoint" and obj["seed"] == 5
    assert obj["checked"] == 6  # both engines
    for item in obj["items"]:
        assert {"instance", "premise_status", "lhs", "rhs", "margin"} <= set(item)
    json.dumps(obj)  # serializable


def test_suites_deterministic():
    a = suite_unconditional(count=10, seed=42).to_json()
    b = suite_unconditional(count=10, seed=42).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_unmet_premises_do_not_fail():
    rep = suite_rapidavg(count=2, seed=1)
    assert any(i.premise_status == "UNMET" for i in rep.items)
    assert rep.ok


def test_gmax_suite_counts():
    rep = suite_gmax(count=500, seed=0)
    assert len(rep.items) == sum(21 - ell for ell in (2, 3, 4))
    assert rep.ok


def test_engine_is_thread_safe_for_reads(rng):
    # idempotent memo inserts: concurrent evaluation of overlapping vectors
    # agrees with sequential evaluation
    engine = FamilyEngine(Exhaustive())
    vectors = [random_test_vector(rng, 8) for _ in range(24)]
    sequential = [FamilyEngine(Exhaustive()).norm(v) for v in vectors]
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(engine.norm, vectors))
    assert concurrent == sequential
    # and a second pass out of the warm cache is identical
    assert [engine.norm(v) for v in vectors] == sequential


REPORTS = Path(__file__).parent / "data" / "verify_reports.json"


def same_json(got, want) -> bool:
    """Equal JSON trees: keys, strings, ints and bools exactly, floats within
    EQ_TOL relative."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(same_json(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(same_json(g, w) for g, w in zip(got, want)))
    if isinstance(want, float):
        return (isinstance(got, float)
                and (got == want or abs(got - want) <= EQ_TOL * max(1.0, abs(want))))
    return type(got) is type(want) and got == want


def test_verify_reports_match_frozen():
    # written by tests/data/make_verify_reports.py: every suite at seeds 3
    # and 7, count 2, and the two conditional suites relaxed as well
    entries = json.loads(REPORTS.read_text())["entries"]
    assert len(entries) == 24
    for e in entries:
        kwargs = {"relaxed": True} if e["relaxed"] else {}
        got = SUITES[e["suite"]](count=e["count"], seed=e["seed"], **kwargs).to_json()
        got = json.loads(json.dumps(got))
        assert same_json(got, e["report"]), (e["suite"], e["seed"], e["relaxed"])
