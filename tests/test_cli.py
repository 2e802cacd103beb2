import argparse
import json
import math

import pytest

from seqnorm.blocks import _samples
from seqnorm import cli
from seqnorm.cli import _emit, main
from seqnorm.core import FiniteVector
from seqnorm.qsum_engine import QSumConfig, get_qsum_engine
from seqnorm.io import (
    InputError, config_hash, load_family, load_vector, load_witness, save_vector,
)
from seqnorm.witness import evaluate_witness, validate_witness, witness_from_json, witness_to_json


def _non_json_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def strict_loads(text):
    """json.loads that refuses Infinity and NaN, as a strict JSON reader does."""
    return json.loads(text, parse_constant=_non_json_constant)


def run_cli(capsys, *args):
    code = main([str(a) for a in args])
    out = capsys.readouterr().out
    return code, (strict_loads(out) if out.strip() else None)


@pytest.fixture()
def vec_file(tmp_path):
    p = tmp_path / "v.json"
    p.write_text(json.dumps({"coords": [[1, 1.0], [2, 1.0]]}))
    return p


def test_norm_x2(capsys, vec_file):
    code, out = run_cli(capsys, "norm", "x2", vec_file)
    assert code == 0
    assert out["value"] == 1.0
    assert out["witness_rule"] == "sup"


def test_norm_x1_small(capsys, tmp_path):
    p = tmp_path / "v15.json"
    p.write_text(json.dumps({"coords": [[i, 1.0] for i in range(1, 16)]}))
    code, out = run_cli(capsys, "norm", "x1", p, "--config", "small")
    assert code == 0
    assert out["value"] == pytest.approx(7.9913, abs=1e-3)
    assert "config_hash" in out


def test_norm_empty_vector(capsys, tmp_path):
    p = tmp_path / "zero.json"
    p.write_text(json.dumps({"coords": []}))
    code, out = run_cli(capsys, "norm", "x2", p)
    assert code == 0 and out["value"] == 0.0


def test_norm_witness_file_roundtrip(capsys, tmp_path):
    p = tmp_path / "v70.json"
    x = FiniteVector.ones(70)
    save_vector(x, str(p))
    wpath = tmp_path / "w.json"
    code, out = run_cli(capsys, "norm", "x2", p, "--mode", "segment", "--witness", wpath)
    assert code == 0
    assert out["value"] >= 1.5 - 1e-12
    w = load_witness(str(wpath))
    validate_witness(w, x)
    assert evaluate_witness(w, x) == pytest.approx(out["value"], abs=1e-12)
    assert witness_from_json(witness_to_json(w)) == w


def test_seminorm_commands(capsys, vec_file):
    code, out = run_cli(capsys, "seminorm", "triple", vec_file, "-m", "2")
    assert code == 0 and out["value"] == pytest.approx(1.0, abs=1e-12)
    code, out = run_cli(capsys, "seminorm", "ell", vec_file, "-l", "2")
    assert code == 0 and out["value"] == pytest.approx(0.63093, abs=1e-5)
    code, out = run_cli(capsys, "seminorm", "ellm0", vec_file, "-l", "1", "--m0", "4")
    assert code == 0 and out["value"] == pytest.approx(0.5, abs=1e-12)
    code, out = run_cli(capsys, "seminorm", "ell", vec_file, "--space", "x1", "-l", "5")
    assert code == 0 and out["value"] == pytest.approx(2 / math.log2(6), abs=1e-12)


def test_exit_codes(capsys, tmp_path, vec_file):
    code, _ = run_cli(capsys, "norm", "x2", tmp_path / "missing.json")
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _ = run_cli(capsys, "norm", "x2", bad)
    assert code == 2
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"coords": [[i, 1.0] for i in range(1, 20)]}))
    code, _ = run_cli(capsys, "norm", "x2", big)  # exhaustive limit
    assert code == 2
    code, out = run_cli(capsys, "norm", "x2", big, "--mode", "segment")
    assert code == 0


@pytest.mark.parametrize("obj", [
    {"coords": [[1.5, 2.0], [3, 1.0]]},
    {"coords": [["2", 1.0]]},
    {"coords": [[True, 1.0]]},
    {"coords": [[float("inf"), 1.0]]},
    {"coords": [[1, "2.0"]]},
    [],
], ids=["float-index", "string-index", "bool-index", "infinite-index", "string-coefficient",
        "not-an-object"])
def test_vector_file_needs_integer_indices_and_numbers(capsys, tmp_path, obj):
    p = tmp_path / "v.json"
    p.write_text(json.dumps(obj))
    assert main(["norm", "x2", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{p}: not a vector file" in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("obj", [
    {"preset": {"custom": {"f_of_nk": []}}},
    {"preset": 3},
    [],
    "small",
], ids=["no-exponents", "unparseable-preset", "list", "string"])
def test_config_file_needs_a_preset_with_exponents(capsys, tmp_path, vec_file, obj):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(obj))
    assert main(["norm", "x1", str(vec_file), "--config", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{p}: not a config file" in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("args, bad", [
    (["norm", "x2", "{dir}"], "dir"),
    (["norm", "x1", "{vec}", "--config", "{dir}"], "dir"),
    (["construct", "lp-average", "--blocks", "{dir}", "--out-dir", "{dir}/avg"], "dir"),
    (["norm", "x2", "{vec}", "--witness", "{dir}"], "dir"),
    (["norm", "x2", "{vec}", "--out", "{dir}"], "dir"),
    (["construct", "chain", "--out-dir", "{vec}"], "vec"),
], ids=["vector", "config", "block", "witness", "out", "out-dir"])
def test_unreadable_or_unwritable_path_exits_2(capsys, tmp_path, vec_file, args, bad):
    paths = {"dir": str(tmp_path), "vec": str(vec_file)}
    assert main([a.format(**paths) for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and paths[bad] in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("pairs", [
    [[2, [1.5, 3.7]]],
    [[2, {"set": [1.2, 2]}]],
    [[2, {"set": [3, 1, 1]}]],
    [[2.7, [1, 3]]],
], ids=["float-interval", "float-in-set", "unsorted-set", "float-scale"])
def test_family_file_needs_integers_and_sorted_sets(tmp_path, pairs):
    p = tmp_path / "fam.json"
    p.write_text(json.dumps({"pairs": pairs}))
    with pytest.raises(InputError, match=f"{p}: not a family file"):
        load_family(str(p))


LEAF = {"rule": "sup", "value": 1.0, "index": 1}
PARTITION = {"rule": "partition", "value": 1.0, "m": 2, "divisor": 2.0,
             "pieces": [[[1, 1], LEAF], [[2, 2], {**LEAF, "index": 2}]]}
L2SUM = {"rule": "l2sum", "value": 1.0, "head": [[15, PARTITION]], "tail_start": 2,
         "tail_l2": 0.5}


@pytest.mark.parametrize("tree", [
    {**PARTITION, "m": 2.7},
    {"rule": "family", "value": 1.0, "pairs": [[2.9, [1, 2]]], "children": [PARTITION]},
    {**L2SUM, "head": [[15.5, PARTITION]]},
    {**L2SUM, "tail_start": "2"},
    {**LEAF, "value": "1.5"},
    {**LEAF, "index": 2.5},
    {**LEAF, "index": True},
    {**PARTITION, "pieces": [[[1, 2], []]]},
    {**LEAF, "value": math.nan},  # NaN and Infinity, which Python's json reads back
    {**PARTITION, "divisor": math.inf},
    {**L2SUM, "tail_l2": math.inf},
], ids=["float-m", "float-pair-scale", "float-head-scale", "string-tail-start",
        "string-value", "float-index", "bool-index", "list-child", "nan-value",
        "infinite-divisor", "infinite-tail"])
def test_witness_file_needs_integers_and_numbers(tmp_path, tree):
    p = tmp_path / "w.json"
    p.write_text(json.dumps(tree))
    with pytest.raises(InputError, match=f"{p}: not a witness file"):
        load_witness(str(p))


@pytest.mark.parametrize("space", ["x1", "x2"])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_norm_of_non_finite_coefficient_exits_2(capsys, tmp_path, space, bad):
    p = tmp_path / "v.json"
    p.write_text(json.dumps({"coords": [[1, 1.0], [2, bad]]}))
    assert main(["norm", space, str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.count("\n") == 1 and "coefficient at 2 is not finite" in captured.err


def test_norm_x1_extreme_magnitudes(capsys, tmp_path):
    p = tmp_path / "huge.json"
    p.write_text(json.dumps({"coords": [[i, 1e300] for i in range(1, 18)]}))
    code, out = run_cli(capsys, "norm", "x1", p, "--config", "small")
    assert code == 0
    assert math.isfinite(out["value"]) and out["value"] > 1e300
    p.write_text(json.dumps({"coords": [[i, 1.7e308] for i in range(1, 21)]}))
    assert main(["norm", "x1", str(p), "--config", "small"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the double range" in captured.err and captured.err.count("\n") == 1


def test_norm_x2_extreme_magnitudes(capsys, tmp_path):
    p = tmp_path / "huge.json"
    p.write_text(json.dumps({"coords": [[i, 1e308] for i in range(1, 6)]}))
    code, out = run_cli(capsys, "norm", "x2", p, "--mode", "segment")
    assert code == 0
    assert math.isfinite(out["value"]) and out["value"] == pytest.approx(1.1041e308, rel=1e-4)
    p.write_text(json.dumps({"coords": [[i, 1.7e308] for i in range(1, 21)]}))
    assert main(["norm", "x2", str(p), "--mode", "segment"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the double range" in captured.err and captured.err.count("\n") == 1
    p.write_text(json.dumps({"coords": [[i, 1.7e308] for i in range(1, 11)]}))
    assert main(["norm", "x2", str(p), "--mode", "exhaustive"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the double range" in captured.err and captured.err.count("\n") == 1


def test_verify_exit_status_and_report_shape(capsys):
    code, out = run_cli(capsys, "verify", "matrix", "--seed", "11", "--count", "25")
    assert code == 0 and out["ok"]
    item = out["items"][0]
    assert {"instance", "premise_status", "lhs", "rhs", "margin"} <= set(item)


def test_verify_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "matrix"])
    assert exc.value.code == 2


def test_verify_exit_one_on_asserted_failure(capsys, monkeypatch):
    from seqnorm import suites as suites_mod
    from seqnorm.inequalities import Check, Report

    def failing(count, seed):
        rep = Report(suite="matrix", seed=seed)
        rep.items.append(Check("forced", "met", 1.0, 0.0, -1.0, tol=0.0))
        return rep

    monkeypatch.setitem(suites_mod.SUITES, "matrix", failing)
    # the CLI module binds SUITES by reference, so the patch is visible
    code, out = run_cli(capsys, "verify", "matrix", "--seed", "0", "--count", "1")
    assert code == 1 and not out["ok"]


def test_verify_determinism(capsys):
    code1, out1 = run_cli(capsys, "verify", "embed", "--seed", "4", "--count", "10")
    code2, out2 = run_cli(capsys, "verify", "embed", "--seed", "4", "--count", "10")
    out1.pop("timings")
    out2.pop("timings")
    assert json.dumps(out1, sort_keys=True) == json.dumps(out2, sort_keys=True)


def test_construct_chain_artifacts(capsys, tmp_path):
    code, out = run_cli(
        capsys, "construct", "chain", "--l", "2", "--out-dir", tmp_path / "art"
    )
    assert code == 0 and out["status"] == "ok"
    assert out["certificate"] == pytest.approx(1.2619, abs=1e-4)
    b1 = load_vector(str(tmp_path / "art" / "chain_block_1.json"))
    assert b1 == FiniteVector.ones(2)
    fam = load_family(str(tmp_path / "art" / "chain_family.json"))
    assert fam.length == 2


def test_construct_chain_budget_report(capsys, tmp_path):
    code, out = run_cli(
        capsys, "construct", "chain", "--l", "5", "--budget", "100",
        "--out-dir", tmp_path / "art",
    )
    assert code == 0
    assert out["status"] == "budget-exceeded"
    assert "2**" in out["min_support"]


def test_construct_lp_average(capsys, tmp_path):
    b1 = tmp_path / "b1.json"
    b2 = tmp_path / "b2.json"
    save_vector(FiniteVector.basis(1), str(b1))
    save_vector(FiniteVector.basis(2), str(b2))
    code, out = run_cli(
        capsys, "construct", "lp-average", "--p", "1", "--blocks", b1, b2,
        "--out-dir", tmp_path / "art",
    )
    assert code == 0 and out["constant"] == 2.0 and out["exact"]
    avg = load_vector(str(tmp_path / "art" / "average.json"))
    assert avg == 0.5 * FiniteVector.ones(2)


@pytest.mark.parametrize("mode", ["exhaustive", "segment"])
def test_construct_lp_average_p_inf(capsys, tmp_path, mode):
    # strict JSON has no inf: the report names it, and a finite p stays a number
    files = [tmp_path / "b1.json", tmp_path / "b2.json"]
    for i, f in enumerate(files, start=1):
        save_vector(FiniteVector.basis(i), str(f))
    for p, shown in (("inf", "inf"), ("2", 2.0)):
        code, out = run_cli(capsys, "construct", "lp-average", "--p", p, "--mode", mode,
                            "--blocks", *files, "--out-dir", tmp_path / p)
        assert code == 0 and out["status"] == "ok" and out["p"] == shown
        assert load_vector(str(tmp_path / p / "average.json")) == (
            FiniteVector.ones(2) if p == "inf" else 2 ** -0.5 * FiniteVector.ones(2))


@pytest.mark.parametrize(
    "args, usage",
    [(["construct", "localized", "--faithful"], "usage: seqnorm construct localized"),
     (["construct", "lp-average", "--budget", "3"], "usage: seqnorm construct lp-average"),
     (["norm", "x2", "v.json", "--bogus"], "usage: seqnorm norm"),
     (["verify", "gmax", "--seed", "1", "--faithful"], "usage: seqnorm verify"),
     (["verify", "rapidavg", "--seed", "1", "--relaxed"], "usage: seqnorm verify")],
)
def test_unknown_flag_shows_the_chosen_usage(capsys, args, usage):
    with pytest.raises(SystemExit) as exc:
        main(args)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith(usage) and "Traceback" not in captured.err
    assert "unrecognized arguments" in captured.err


@pytest.mark.parametrize(
    "args, message",
    [(["verify", "gmax", "--seed", "1", "--count", "two"], "not an integer: 'two'")],
)
def test_option_type_checks_exit_2(capsys, args, message):
    with pytest.raises(SystemExit) as exc:
        main(args)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err


def test_construct_lp_average_beyond_six_blocks(capsys, tmp_path):
    # past 6 blocks the ratios are read on the unit vectors, the all-ones vector
    # and 64 normals, so the certified constant is the l1/l_inf sandwich
    files = []
    for i in range(1, 8):
        files.append(tmp_path / f"b{i}.json")
        save_vector(FiniteVector.basis(i), str(files[-1]))
    code, out = run_cli(capsys, "construct", "lp-average", "--p", "1", "--blocks", *files,
                        "--out-dir", tmp_path / "art")
    assert code == 0 and out["n"] == 7 and not out["exact"]
    assert out["constant"] == 7.0 and 1.0 < out["sampled_lower"] < 7.0
    units = [tuple(float(i == j) for j in range(7)) for i in range(7)]
    samples = _samples(7)
    assert len(samples) == 72 and list(samples[:8]) == [*units, (1.0,) * 7]


def test_construct_lp_average_takes_no_budget(capsys, tmp_path):
    b1 = tmp_path / "b1.json"
    b2 = tmp_path / "b2.json"
    save_vector(FiniteVector.basis(1), str(b1))
    save_vector(FiniteVector.basis(2), str(b2))
    with pytest.raises(SystemExit) as exc:
        main(["construct", "lp-average", "--p", "1", "--blocks", str(b1), str(b2),
              "--budget", "10", "--out-dir", str(tmp_path / "art")])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "--budget" in captured.err and "Traceback" not in captured.err
    assert not (tmp_path / "art").exists()


def test_out_writes_the_report_to_a_file(capsys, tmp_path):
    args = ["construct", "chain", "--l", "2", "--out-dir", tmp_path / "art"]
    code, printed = run_cli(capsys, *args)
    assert code == 0
    code, out = run_cli(capsys, *args, "--out", tmp_path / "report.json")
    assert code == 0 and out is None  # nothing on stdout
    written = strict_loads((tmp_path / "report.json").read_text())
    printed.pop("timings")
    written.pop("timings")
    assert written == printed


ITEM_KEYS = {"instance", "premise_status", "lhs", "rhs", "margin", "asserted", "ok", "note"}
SUITE_NAMES = ("fixedpoint", "unconditional", "avgbounds", "offpeak", "stackbound",
               "rapidavg", "chainstacks", "gmax", "matrix", "embed")


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_verify_contract_every_suite(capsys, suite):
    texts = []
    for _ in range(2):
        code = main(["verify", suite, "--seed", "3", "--count", "2"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        out = strict_loads(captured.out)
        out.pop("timings")
        assert out["checked"] == len(out["items"])
        assert all(set(item) == ITEM_KEYS for item in out["items"])
        texts.append(json.dumps(out, sort_keys=True))
    assert texts[0] == texts[1]


@pytest.mark.parametrize(
    "args, names",
    [
        (["verify", "matrix", "--seed", "1", "--count", "-3"], "--count"),
        (["verify", "gmax", "--seed", "1", "--count", "0"], "--count"),
        (["construct", "lp-average", "--p", "1"], "block"),
        (["construct", "grid", "--n", "0"], "grid side n"),
        (["construct", "grid", "--k0", "0"], "k0"),
        (["construct", "grid", "--eps", "0"], "eps"),
        (["construct", "localized", "--l0", "0"], "L0"),
        (["construct", "localized", "--eps", "-1"], "eps"),
        (["construct", "grid", "--samples", "-1"], "samples"),
        (["construct", "lp-average", "--p", "0.5"], "p >= 1"),
        (["construct", "localized", "--l1-prime", "0"], "L1_prime"),
        (["construct", "localized", "--m0", "1"], "m0"),
        (["construct", "localized", "--eps", "5"], "eps"),
        (["verify", "offpeak", "--seed", "-7"], "--seed"),
        (["construct", "grid", "--seed", "-1"], "--seed"),
        (["norm", "x2", "v.json", "--max-support", "-3"], "--max-support"),
        (["norm", "x2", "v.json", "--mode", "segment", "--max-support", "0"], "--max-support"),
        (["construct", "localized", "--l1", "1"], "L1"),
        (["construct", "chain", "--budget", "-1"], "--budget"),
        (["construct", "localized", "--budget", "-5"], "--budget"),
        (["construct", "grid", "--budget", "-3"], "--budget"),
        (["construct", "chain", "--l", "0"], "argument --l:"),
        (["seminorm", "ell", "v.json", "-l", "0"], "argument -l:"),
        (["seminorm", "triple", "v.json", "-m", "1"], "argument -m:"),
        (["seminorm", "ellm0", "v.json", "--m0", "1"], "argument --m0:"),
    ],
)
def test_out_of_range_numbers_rejected(capsys, tmp_path, args, names):
    if args[0] == "construct":
        args = [*args, "--out-dir", str(tmp_path / "art")]
    try:
        code = main(args)
    except SystemExit as exc:  # argparse rejects at parse time
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert names in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "args",
    [["grid", "--n", "0"], ["grid", "--samples", "-1"], ["localized", "--l0", "0"],
     ["lp-average", "--p", "1"], ["lp-average", "--p", "0.5"],
     ["localized", "--l1-prime", "0"], ["localized", "--m0", "1"],
     ["localized", "--eps", "5"], ["chain", "--budget", "-1"],
     ["localized", "--budget", "-5"], ["grid", "--budget", "-3"],
     # each target takes only the flags it reads
     ["localized", "--faithful"], ["chain", "--mode", "exhaustive"],
     ["localized", "--k0", "2"], ["grid", "--p", "2"]],
)
def test_rejected_construct_leaves_no_directory(capsys, tmp_path, args):
    try:
        code = main(["construct", *args, "--out-dir", str(tmp_path / "art")])
    except SystemExit as exc:  # argparse rejects at parse time
        code = exc.code
    capsys.readouterr()
    assert code == 2 and not (tmp_path / "art").exists()


@pytest.mark.parametrize(
    "args, status",
    [(["localized", "--budget", "4"], "infeasible"),
     (["grid", "--budget", "10"], "budget-exceeded")],
)
def test_construct_over_budget_status(capsys, tmp_path, args, status):
    code, out = run_cli(capsys, "construct", *args, "--out-dir", tmp_path / "art")
    assert code == 0 and out["status"] == status
    assert not (tmp_path / "art").exists()


def test_construct_localized_reports_a_failing_build_as_an_error(capsys, monkeypatch, tmp_path):
    # only a budget overrun is an infeasible build; any other ValueError is an error
    def broken(params, engine):
        raise ValueError("broken build")

    monkeypatch.setattr(cli, "build_localized_vector", broken)
    assert main(["construct", "localized", "--out-dir", str(tmp_path / "art")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: broken build\n"


@pytest.mark.parametrize(
    "args, unmet",
    [
        (["localized", "--l0", "2", "--l1", "3", "--l1-prime", "16"], "premise faithful_L1"),
        (["grid", "--n", "2", "--k0", "2", "--samples", "0"], "premise faithful_scale_chain"),
        # 1 - (1 + eps)**-0.5 cancels to 0 in floats here; delta must stay positive
        (["grid", "--eps", "1e-16"], "premise faithful_scale_chain"),
    ],
)
def test_construct_report_has_verify_shape(capsys, tmp_path, args, unmet):
    code, out = run_cli(capsys, "construct", *args, "--out-dir", tmp_path / "art")
    assert code == 0 and out["status"] == "ok"
    report = out["report"]
    assert set(report) == {"checked", "ok", "notes", "items"}
    assert report["checked"] == len(report["items"]) and report["ok"]
    assert all(set(item) == ITEM_KEYS for item in report["items"])
    items = {item["instance"]: item for item in report["items"]}
    assert items[unmet]["premise_status"] == "UNMET"
    # every conclusion rests on the faithful premises except the witness value,
    # which never exceeds the seminorm it certifies
    bounds = [item for name, item in items.items()
              if not name.startswith("premise ") and name != "mid_level_witness"]
    assert bounds
    assert all(b["premise_status"] == "UNMET" and not b["asserted"] for b in bounds)


@pytest.mark.parametrize(
    "args, unbounded",
    [
        (["localized", "--l0", "2", "--l1", "3", "--l1-prime", "16", "--eps", "0.9"],
         ["premise faithful_L1_prime"]),
        (["localized", "--l0", "2", "--l1", "3", "--l1-prime", "16", "--eps", "1e-300"],
         ["premise faithful_L1", "premise faithful_L1_prime"]),
        (["grid", "--n", "2", "--eps", "1e-300"], ["premise faithful_scale_chain"]),
    ],
)
def test_unbounded_requirement_reads_null(capsys, tmp_path, args, unbounded):
    code, out = run_cli(capsys, "construct", *args, "--out-dir", tmp_path / "art")
    assert code == 0 and out["status"] == "ok"
    items = out["report"]["items"]
    assert [item["instance"] for item in items if item["rhs"] is None] == unbounded


def test_grid_rejects_infinite_eps(capsys, tmp_path):
    code = main(["construct", "grid", "--n", "2", "--eps", "inf",
                 "--out-dir", str(tmp_path / "art")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "eps" in captured.err and "Traceback" not in captured.err
    assert not (tmp_path / "art").exists()


def test_emit_refuses_non_finite_numbers(capsys):
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            _emit({"value": bad}, argparse.Namespace(out=None), 0.0)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "args",
    [["chain", "--l", "4", "--budget", str(10**30)],
     ["localized", "--l1", "4", "--budget", "100000"],
     ["grid", "--n", "60", "--k0", "2", "--budget", "100000"]],
    ids=["chain", "localized", "grid"],
)
def test_budget_above_ceiling_rejected(capsys, tmp_path, no_large_builds, args):
    try:
        code = main(["construct", *args, "--out-dir", str(tmp_path / "art")])
    except SystemExit as exc:  # argparse rejects at parse time
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "argument --budget:" in captured.err
    assert not (tmp_path / "art").exists()


@pytest.mark.parametrize("space", ["x2", "x1"])
def test_seminorm_level_beyond_the_double_range(capsys, vec_file, space):
    code, out = run_cli(capsys, "seminorm", "ell", vec_file, "--space", space,
                        "-l", 10**309)
    assert code == 0 and out["l"] == 10**309
    assert 0.0 < out["value"] < 1e-2


def test_localized_upper_scale_beyond_the_double_range(capsys, tmp_path):
    code, out = run_cli(capsys, "construct", "localized", "--l0", "2", "--l1", "3",
                        "--l1-prime", 10**309, "--out-dir", tmp_path / "art")
    assert code == 0 and out["status"] == "ok"


def test_x1_config_file(capsys, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"preset": {"custom": {"f_of_nk": [3, 5], "tail": "geometric"}}}))
    x = FiniteVector(zip(range(1, 21), [0.5 + (i % 7) / 3 for i in range(20)]))
    vec = tmp_path / "v.json"
    save_vector(x, str(vec))
    cfg = QSumConfig.custom([3, 5], "geometric")
    code, out = run_cli(capsys, "norm", "x1", vec, "--config", cfg_file)
    assert code == 0
    assert out["config"] == cfg.to_json() and out["config_hash"] == config_hash(cfg.to_json())
    assert out["value"] == get_qsum_engine(cfg).norm(x)
    code, out = run_cli(capsys, "seminorm", "ell", vec, "--space", "x1", "-l", "3",
                        "--config", cfg_file)
    assert code == 0
    assert out["config"] == cfg.to_json() and out["value"] == get_qsum_engine(cfg).norm_k(x, 3)


@pytest.mark.parametrize("kind", ["triple", "ellm0"])
def test_x1_seminorm_other_than_ell_rejected(capsys, vec_file, kind):
    assert main(["seminorm", kind, str(vec_file), "--space", "x1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "only the 'ell' seminorm" in captured.err
