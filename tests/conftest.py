import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

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
