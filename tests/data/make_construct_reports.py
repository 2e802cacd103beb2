"""Writes construct_reports.json: the `seqnorm construct` reports and artifacts.

Each case is one CLI call: `chain` at lengths 1-4 and five budgets,
`localized` at its defaults and two other parameter sets, and `grid` over
n 1-3, k0 1-3, samples {0, 3} and seeds {0, 5}: 59 calls.  Each entry holds
the arguments, the exit code, the report without `timings` and `out_dir`,
and the sha256 of every artifact file by name.  The test that reads the file
asks for the same exit codes, keys, strings, ints and bools, floats equal to
the bit (float.hex), and the same artifact bytes.

Run from the root of a checkout, with the version of seqnorm to freeze first
on the path:

    PYTHONPATH=src python3 tests/data/make_construct_reports.py

To compare another version, freeze it into another file instead, for
instance the commit before a refactor:

    mkdir ref && git archive <commit> | tar -x -C ref
    PYTHONPATH=ref/src python3 tests/data/make_construct_reports.py ref.json
"""
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from seqnorm.cli import main as cli_main

HERE = Path(__file__).resolve().parent
LOCALIZED = (
    [],  # the CLI defaults: --l0 2 --l1 3 --l1-prime 16 --m0 2 --eps 0.25 --budget 200
    ["--l0", "1", "--l1", "3", "--l1-prime", "32", "--m0", "3", "--eps", "0.1",
     "--budget", "400"],
    ["--l0", "3", "--l1", "4", "--l1-prime", "8", "--eps", "0.5", "--budget", "300"],
)


def cases() -> list[list[str]]:
    """The construct arguments of every entry, in a fixed order."""
    chain = [["chain", "--l", str(ell), "--budget", str(budget)]
             for ell in range(1, 5) for budget in (2, 6, 70, 200, 1000)]
    localized = [["localized", *args] for args in LOCALIZED]
    grid = [["grid", "--n", str(n), "--k0", str(k0), "--samples", str(samples),
             "--seed", str(seed)]
            for n in (1, 2, 3) for k0 in (1, 2, 3) for samples in (0, 3) for seed in (0, 5)]
    return chain + localized + grid


def run(args: list[str]) -> dict:
    """One construct call in a fresh directory: its exit code, report and artifacts."""
    with tempfile.TemporaryDirectory() as tmp:
        out, report_file = Path(tmp) / "out", Path(tmp) / "report.json"
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(["construct", *args, "--out-dir", str(out),
                             "--out", str(report_file)])
        report = json.loads(report_file.read_text())
        for key in ("timings", "out_dir"):
            report.pop(key)
        artifacts = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in sorted(out.iterdir())} if out.exists() else {}
    return {"args": args, "exit": code, "report": report, "artifacts": artifacts}


def main() -> int:
    out = Path(sys.argv[1]) if sys.argv[1:] else HERE / "construct_reports.json"
    entries = [run(args) for args in cases()]
    text = json.dumps({"entries": entries}, sort_keys=True, separators=(",", ":"))
    out.write_text(text + "\n")
    files = sum(len(e["artifacts"]) for e in entries)
    print(f"{len(entries)} reports, {files} artifacts", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
