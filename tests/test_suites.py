import json
from concurrent.futures import ThreadPoolExecutor

from conftest import random_test_vector
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
