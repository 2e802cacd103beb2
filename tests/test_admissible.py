import pytest

from seqnorm.admissible import AdmissibleFamily, FamilyValidationError
from seqnorm.core import IndexSet
from seqnorm.io import InputError, load_family


def fam(*pairs):
    return AdmissibleFamily.of([(m, IndexSet.of(pts)) for m, pts in pairs])


def test_valid_families():
    fam((2, [1, 2]))
    fam((2, [1]), (2, [2]))  # budget 1 allows m = 2 again
    fam((2, [1, 2]), (4, [3, 4, 5, 6]), (64, range(7, 71)))


def test_scale_too_small():
    with pytest.raises(FamilyValidationError, match="m = 1 < 2"):
        fam((1, [1]))


def test_budget_violation_reports_first_offender():
    # after |E_1| = 2 the next scale needs f(m) > 2, i.e. m >= 4
    with pytest.raises(FamilyValidationError, match="pair 2"):
        fam((2, [1, 2]), (3, [5, 6]))
    fam((2, [1, 2]), (4, [5, 6]))  # boundary is admissible


def test_tight_boundary_is_exact():
    # f(64) > 6 holds strictly; f(63) > 6 does not
    fam((2, [1, 2]), (4, [3, 4, 5, 6]), (64, [10, 11]))
    with pytest.raises(FamilyValidationError):
        fam((2, [1, 2]), (4, [3, 4, 5, 6]), (63, [10, 11]))


def test_ordering_violation():
    with pytest.raises(FamilyValidationError, match="successively ordered"):
        fam((2, [1, 5]), (4, [3]))


def test_empty_set_rejected_by_default():
    with pytest.raises(FamilyValidationError, match="empty"):
        AdmissibleFamily.of([(2, IndexSet.empty())])


def test_json_roundtrip_preserves_flavour():
    f1 = AdmissibleFamily.of(
        [(2, IndexSet.interval(1, 2)), (4, IndexSet.of([3, 5, 6, 9]))]
    )
    j = f1.to_json()
    assert j["pairs"][0][1] == [1, 2]
    assert j["pairs"][1][1] == {"set": [3, 5, 6, 9]}
    assert AdmissibleFamily.from_json(j) == f1


def test_cumulative_cardinalities():
    f1 = fam((2, [1, 2]), (4, [3, 4, 5, 6]))
    assert f1.cumulative_cardinalities() == (2, 6)


def test_huge_interval_family_rejected_without_building_two_to_the_budget():
    # the cumulative cardinality 2**70 would make 2**budget far too large to build
    with pytest.raises(FamilyValidationError, match="pair 2"):
        AdmissibleFamily.of([(2, IndexSet.interval(1, 2**70)),
                             (4, IndexSet.interval(2**70 + 1, 2**70 + 3))])


def _load_family_text(tmp_path, text):
    path = tmp_path / "family.json"
    path.write_text(text)
    return load_family(str(path))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda tmp_path: AdmissibleFamily(()).validate(), FamilyValidationError),
        (lambda tmp_path: _load_family_text(tmp_path, "[]"), InputError),
    ],
    ids=["no-pairs", "family-json-list"],
)
def test_input_checks_raise(tmp_path, call, error):
    with pytest.raises(error):
        call(tmp_path)
