"""File formats and canonical JSON for the CLI.

Vector files:   {"coords": [[index, value], ...]}, indices strictly increasing.
Family files:   {"pairs": [[m, E], ...]} with E either [lo, hi] (a closed
                interval) or {"set": [i1, i2, ...]} (an explicit list).
Config files:   {"preset": "small" | "paper" | {"custom": {...}}}.
Witness files:  the JSON tree mirroring the witness dataclasses.

Reports are serialized with sorted keys and a fixed separator so identical
inputs produce byte-identical output; wall-clock timings live under a single
"timings" key that comparisons are expected to strip.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .admissible import AdmissibleFamily
from .core import FiniteVector
from .qsum_engine import QSumConfig
from .witness import Witness, witness_from_json, witness_to_json


class InputError(ValueError):
    """Malformed input file or option (CLI exit code 2)."""


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]


def _load(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:  # missing, a directory, unreadable
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc


def _decode(path: str, kind: str, decode):
    try:
        return decode(_load(path))
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise InputError(f"{path}: not a {kind} file ({exc})") from exc


def load_vector(path: str) -> FiniteVector:
    return _decode(path, "vector", FiniteVector.from_json)


def save_vector(x: FiniteVector, path: str) -> None:
    Path(path).write_text(canonical_json(x.to_json()) + "\n")


def load_family(path: str) -> AdmissibleFamily:
    return _decode(path, "family", AdmissibleFamily.from_json)


def load_config(path: str | None) -> QSumConfig:
    if path is None:
        return QSumConfig.small()
    if path in ("small", "paper"):
        return QSumConfig.from_json({"preset": path})
    return _decode(path, "config", QSumConfig.from_json)


def save_witness(w: Witness, path: str) -> None:
    Path(path).write_text(canonical_json(witness_to_json(w)) + "\n")


def load_witness(path: str) -> Witness:
    return _decode(path, "witness", witness_from_json)
