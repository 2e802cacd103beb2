"""Writes verify_reports.json: the JSON reports of every verification suite.

Each of the ten suites runs at seeds 3 and 7 with count 2, and `rapidavg` and
`chainstacks` also run relaxed: 24 reports.  The test that reads the file
guards every report against drift: keys, strings, ints and bools must match
exactly, floats within EQ_TOL relative.

Run from the root of a checkout, with the version of seqnorm to freeze first
on the path:

    PYTHONPATH=src python3 tests/data/make_verify_reports.py

To compare another version, freeze it into a scratch directory instead, for
instance the commit before a refactor:

    mkdir ref && git archive <commit> | tar -x -C ref
    PYTHONPATH=ref/src python3 tests/data/make_verify_reports.py ref.json
"""
import json
import sys
from pathlib import Path

from seqnorm.suites import SUITES

HERE = Path(__file__).resolve().parent
SEEDS = (3, 7)
COUNT = 2
RELAXABLE = ("rapidavg", "chainstacks")


def cases():
    """(suite, seed, relaxed) in a fixed order."""
    return [(suite, seed, relaxed) for suite in sorted(SUITES) for seed in SEEDS
            for relaxed in ((False, True) if suite in RELAXABLE else (False,))]


def entry(suite, seed, relaxed):
    kwargs = {"relaxed": True} if relaxed else {}
    report = SUITES[suite](count=COUNT, seed=seed, **kwargs)
    return {"suite": suite, "seed": seed, "count": COUNT, "relaxed": relaxed,
            "report": report.to_json()}


def main() -> int:
    out = Path(sys.argv[1]) if sys.argv[1:] else HERE / "verify_reports.json"
    entries = [entry(*case) for case in cases()]
    text = json.dumps({"entries": entries}, sort_keys=True, separators=(",", ":"))
    out.write_text(text + "\n")
    items = sum(len(e["report"]["items"]) for e in entries)
    print(f"{len(entries)} reports, {items} items", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
