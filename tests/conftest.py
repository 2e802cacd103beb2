import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from seqnorm import family_engine
from seqnorm.core import FiniteVector
from seqnorm.family_engine import Exhaustive, SegmentDP, get_engine
from seqnorm.qsum_engine import QSumConfig, get_qsum_engine
from seqnorm.suites import random_vector as random_test_vector  # noqa: F401


@pytest.fixture(scope="session")
def ex_engine():
    return get_engine(Exhaustive())


@pytest.fixture(scope="session")
def seg_engine():
    return get_engine(SegmentDP())


@pytest.fixture(scope="session")
def small_engine():
    return get_qsum_engine(QSumConfig.small())


@pytest.fixture(scope="session")
def paper_engine():
    return get_qsum_engine(QSumConfig.paper_faithful())


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def no_large_builds(monkeypatch):
    """Fail at once, instead of allocating, when a ones vector or segment tables
    of more than 10**4 points are about to be built."""
    limit = 10**4
    ones, init = FiniteVector.ones, family_engine._Segment.__init__

    def guarded_ones(n, start=1):
        if n > limit:
            raise AssertionError(f"about to build a {n}-point ones vector")
        return ones(n, start)

    def guarded_init(self, p):
        if len(p) > limit:
            raise AssertionError(f"about to build {len(p)}-point segment tables")
        init(self, p)

    monkeypatch.setattr(FiniteVector, "ones", staticmethod(guarded_ones))
    monkeypatch.setattr(family_engine._Segment, "__init__", guarded_init)
