"""Command-line surface: norms, seminorms, verification suites, constructions.

Exit codes: 0 all asserted checks pass, 1 an asserted check failed (or a
certificate failed self-evaluation), 2 usage or input error, a path that
cannot be read or written, or an arithmetic error such as a result beyond the
double range.  Reports are strict JSON, never Infinity or NaN, on stdout (or
--out); all randomness is seeded and the seed is echoed, so identical inputs
produce byte-identical reports apart from the "timings" field.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from .blocks import BlockBasis, assemble_lp_average
from .constructions import (
    MAX_BUDGET,
    BudgetExceededError,
    GridParams,
    LocalizedParams,
    build_chain,
    build_localized_vector,
    build_matrix_grid,
    plan_chain,
)
from .family_engine import MAX_EXHAUSTIVE_SUPPORT, Exhaustive, SegmentDP, get_engine
from .io import (
    InputError,
    canonical_json,
    config_hash,
    load_config,
    load_vector,
    save_vector,
    save_witness,
)
from .qsum_engine import get_qsum_engine
from .suites import SUITES


def _int_at_least(low: int):
    """The argparse type of an integer option that must be >= low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _budget(text: str) -> int:
    """The argparse type of `construct --budget`: 1 to MAX_BUDGET points."""
    value = _int_at_least(1)(text)
    if value > MAX_BUDGET:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_BUDGET}, got {value}")
    return value


def _mode(args) -> object:
    if args.mode == "segment":
        return SegmentDP()
    return Exhaustive(args.max_support)


def _emit(report: dict, args, t0: float) -> None:
    report["timings"] = {"wall_s": round(time.monotonic() - t0, 6)}
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


def cmd_norm(args) -> int:
    t0 = time.monotonic()
    x = load_vector(args.vector)
    report = {
        "command": "norm",
        "space": args.space,
        "vector": args.vector,
    }
    if args.space == "x2":
        engine = get_engine(_mode(args))
        report["mode"] = args.mode
        value, witness = engine.norm(x, with_witness=True)
    else:
        cfg = load_config(args.config)
        report["config"] = cfg.to_json()
        report["config_hash"] = config_hash(cfg.to_json())
        value, witness = get_qsum_engine(cfg).norm(x, with_witness=True)
    report["value"] = value
    if args.witness:
        save_witness(witness, args.witness)
        report["witness_file"] = args.witness
    else:
        report["witness_rule"] = witness.rule
    _emit(report, args, t0)
    return 0


def cmd_seminorm(args) -> int:
    t0 = time.monotonic()
    x = load_vector(args.vector)
    report = {"command": "seminorm", "kind": args.kind, "space": args.space}
    if args.space == "x1":
        cfg = load_config(args.config)
        report["config"] = cfg.to_json()
        engine = get_qsum_engine(cfg)
        if args.kind != "ell":
            raise InputError("space x1 exposes only the 'ell' seminorm (the k-partition norm)")
        report["l"] = args.l
        report["value"] = engine.norm_k(x, args.l)
    else:
        engine = get_engine(_mode(args))
        report["mode"] = args.mode
        if args.kind == "triple":
            report["m"] = args.m
            report["value"] = engine.triple_norm(x, args.m)
        elif args.kind == "ell":
            report["l"] = args.l
            report["value"] = engine.norm_ell(x, args.l)
        else:
            report["l"], report["m0"] = args.l, args.m0
            report["value"] = engine.norm_ell_m0(x, args.l, args.m0)
    _emit(report, args, t0)
    return 0


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    report = SUITES[args.suite](count=args.count, seed=args.seed)
    out = {"command": "verify", "suite": args.suite, "seed": args.seed}
    out.update(report.to_json())
    _emit(out, args, t0)
    return 0 if report.ok else 1


def cmd_construct(args) -> int:
    t0 = time.monotonic()
    outdir = Path(args.out_dir)

    def out(name: str) -> Path:
        """Path of an artifact; the directory is made at the first write, so a
        rejected call leaves none behind."""
        outdir.mkdir(parents=True, exist_ok=True)
        return outdir / name

    report = {"command": "construct", "what": args.what, "out_dir": str(outdir)}
    code = 0
    if args.what == "chain":
        plan = plan_chain(args.l)
        report["planned_sizes"] = [str(s) for s in plan.sizes]
        report["min_support"] = plan.min_support_desc
        try:
            cert = build_chain(args.l, args.budget, get_engine(SegmentDP()))
        except BudgetExceededError:
            report.update(status="budget-exceeded", budget=args.budget)
        else:
            for i, block in enumerate(cert.blocks.vectors, start=1):
                save_vector(block, str(out(f"chain_block_{i}.json")))
            out("chain_family.json").write_text(
                canonical_json(cert.family.to_json()) + "\n"
            )
            code = 0 if cert.ok else 1
            report.update(status="ok" if cert.ok else "certificate-failed",
                          certificate=cert.value, bound=cert.bound,
                          block_norms=list(cert.block_norms))
    elif args.what == "localized":
        params = LocalizedParams(L0=args.l0, eps=args.eps, L1=args.l1,
                                 L1_prime=args.l1_prime, m0=args.m0, budget=args.budget)
        try:
            res = build_localized_vector(params, get_engine(SegmentDP()))
        except BudgetExceededError as exc:
            report.update(status="infeasible", detail=str(exc))
        else:
            save_vector(res.x, str(out("localized_vector.json")))
            out("localized_family.json").write_text(
                canonical_json(res.witness_family.to_json()) + "\n"
            )
            code = 0 if res.ok else 1
            report.update(status="ok" if res.ok else "asserted-check-failed",
                          witness_value=res.witness_value,
                          stack_sizes=list(res.stack_sizes), report=res.report.to_json())
    elif args.what == "grid":
        params = GridParams(
            n=args.n, eps=args.eps, k0=args.k0, budget=args.budget,
            seed=args.seed, samples=args.samples,
        )
        try:
            res = build_matrix_grid(params, get_engine(SegmentDP()))
        except BudgetExceededError as exc:
            report.update(status="budget-exceeded", detail=str(exc))
        else:
            for (i, j), cell in sorted(res.cells.items()):
                save_vector(cell, str(out(f"grid_cell_{i}_{j}.json")))
            code = 0 if res.ok else 1
            report.update(status="ok" if res.ok else "asserted-check-failed",
                          worst_lower_ratio=res.worst_lower_ratio,
                          worst_upper_ratio=res.worst_upper_ratio,
                          target=res.target, report=res.report.to_json())
    else:  # lp-average
        blocks = BlockBasis(tuple(load_vector(p) for p in args.blocks))
        avg = assemble_lp_average(blocks, args.p, get_engine(_mode(args)))
        save_vector(avg.vector, str(out("average.json")))
        report.update(status="ok", p=args.p if args.p < math.inf else "inf", n=avg.n,
                      constant=avg.constant, sampled_lower=avg.sampled_lower, exact=avg.exact)
    _emit(report, args, t0)
    return code


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="seqnorm",
        description="Norm engines and verification harness for two implicitly "
        "defined sequence-space norms.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_mode(p):
        p.add_argument("--mode", choices=("exhaustive", "segment"), default="exhaustive")
        p.add_argument("--max-support", type=_int_at_least(1), default=MAX_EXHAUSTIVE_SUPPORT)

    p = sub.add_parser("norm", help="norm of a vector file")
    p.add_argument("space", choices=("x1", "x2"))
    p.add_argument("vector", help="vector JSON file")
    add_mode(p)
    p.add_argument("--config", help="x1 config: file path, 'small' or 'paper'")
    p.add_argument("--witness", help="write the witness JSON here")
    p.add_argument("--out")
    p.set_defaults(func=cmd_norm, parser=p)

    p = sub.add_parser("seminorm", help="triple / level seminorms")
    p.add_argument("kind", choices=("triple", "ell", "ellm0"))
    p.add_argument("vector")
    p.add_argument("--space", choices=("x1", "x2"), default="x2")
    add_mode(p)
    p.add_argument("--config")
    p.add_argument("-m", type=_int_at_least(2), default=2, help="scale for 'triple'")
    p.add_argument("-l", type=_int_at_least(1), default=1, help="level for 'ell'/'ellm0'")
    p.add_argument("--m0", type=_int_at_least(2), default=2, help="first-scale floor for 'ellm0'")
    p.add_argument("--out")
    p.set_defaults(func=cmd_seminorm, parser=p)

    p = sub.add_parser("verify", help="run a seeded verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--count", type=_int_at_least(1), default=50,
                   help="instances (gmax: scan resolution)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify, parser=p)

    p = sub.add_parser("construct", help="build certified special vectors")
    targets = p.add_subparsers(dest="what", required=True)

    def target(name: str, about: str):
        """The parser of one construct target; each takes only the flags it reads."""
        t = targets.add_parser(name, help=about)
        t.add_argument("--out-dir", default="seqnorm_artifacts")
        t.add_argument("--out")
        if name != "lp-average":
            t.add_argument("--budget", type=_budget, default=200)
        t.set_defaults(func=cmd_construct, parser=t)
        return t

    t = target("chain", "sup-norm chain with one certifying family")
    t.add_argument("--l", type=_int_at_least(1), default=2, help="chain length")
    t = target("localized", "scale-localized vector at relaxed scales")
    t.add_argument("--l0", type=int, default=2)
    t.add_argument("--l1", type=int, default=3)
    t.add_argument("--l1-prime", type=int, default=16)
    t.add_argument("--m0", type=int, default=2)
    t.add_argument("--eps", type=float, default=0.25)
    t = target("grid", "relaxed matrix grid")
    t.add_argument("--n", type=int, default=2, help="grid side")
    t.add_argument("--k0", type=int, default=1, help="grid averaging count")
    t.add_argument("--eps", type=float, default=0.25)
    t.add_argument("--seed", type=_int_at_least(0), default=0)
    t.add_argument("--samples", type=int, default=4)
    t = target("lp-average", "l_p average of normalized block files")
    t.add_argument("--p", type=float, default=1.0)
    t.add_argument("--blocks", nargs="*", default=(), help="block vector files")
    add_mode(t)
    return ap


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:  # reported with the usage of the subcommand or target chosen
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:  # OSError: an output path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
