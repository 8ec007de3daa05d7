"""The contract of the package's record types: repr, value equality and
hash, keyword construction, immutability, and the typed error each one
raises on invalid fields."""

import math
import pickle

import pytest

from besselq import (
    DomainError,
    InconsistencyError,
    ModelOrder,
    OverflowRangeError,
    QEvaluation,
)
from besselq.checks import CheckResult
from besselq.cli import FrequencyGrid, SweepRecord

SWEEP_FIELDS = dict(omega=2.0, nu=1.0, q_inverse=0.5, route="direct_ratio",
                    est_rel_error=1e-15, q_asymp_low=8.0, q_asymp_high=0.4)

#: (record, its fields in order, its repr)
RECORDS = [
    (ModelOrder(1.0), {"nu": 1.0}, "ModelOrder(nu=1.0)"),
    (
        QEvaluation(10.0, 0.25, "direct_ratio", 1e-15),
        {"omega": 10.0, "q_inverse": 0.25, "route": "direct_ratio", "est_rel_error": 1e-15},
        "QEvaluation(omega=10.0, q_inverse=0.25, route='direct_ratio', est_rel_error=1e-15)",
    ),
    (
        FrequencyGrid("log", 1.0, 10.0, 5),
        {"scale": "log", "min": 1.0, "max": 10.0, "count": 5},
        "FrequencyGrid(scale='log', min=1.0, max=10.0, count=5)",
    ),
    (
        SweepRecord(*SWEEP_FIELDS.values()),
        SWEEP_FIELDS,
        "SweepRecord(omega=2.0, nu=1.0, q_inverse=0.5, route='direct_ratio', "
        "est_rel_error=1e-15, q_asymp_low=8.0, q_asymp_high=0.4)",
    ),
    (
        CheckResult("monotonicity", -0.5, 0.0, True),
        {"name": "monotonicity", "max_discrepancy": -0.5, "bound": 0.0, "passed": True,
         "detail": ""},
        "CheckResult(name='monotonicity', max_discrepancy=-0.5, bound=0.0, passed=True, "
        "detail='')",
    ),
]
IDS = [type(record).__name__ for record, _, _ in RECORDS]


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_repr(record, fields, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_keyword_construction_equality_and_hash(record, fields, text):
    cls = type(record)
    again = cls(**fields)
    assert again == record and not again != record
    assert hash(again) == hash(record) == hash(tuple(fields.values()))
    for name, value in fields.items():
        assert getattr(again, name) == value
    assert pickle.loads(pickle.dumps(record)) == record


def test_records_with_other_values_differ():
    assert ModelOrder(1.0) != ModelOrder(2.0)
    assert ModelOrder(1) == ModelOrder(1.0)
    assert len({ModelOrder(1.0), ModelOrder(1.0), ModelOrder(2.0)}) == 2
    assert CheckResult("a", 0.0, 1.0, True) != CheckResult("a", 0.0, 1.0, True, "x")
    assert FrequencyGrid("log", 1.0, 10.0, 5) != FrequencyGrid("linear", 1.0, 10.0, 5)


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_records_are_immutable(record, fields, text):
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, fields[name])
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == fields[name]


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: ModelOrder(-1.0), DomainError),
        (lambda: ModelOrder(nu=math.nan), DomainError),
        (lambda: ModelOrder(math.inf), DomainError),
        (lambda: QEvaluation(0.0, 0.25, "kelvin", 1e-15), DomainError),
        (lambda: QEvaluation(1.0, math.inf, "kelvin", 1e-15), OverflowRangeError),
        (lambda: QEvaluation(1.0, -0.25, "kelvin", 1e-15), InconsistencyError),
        (lambda: QEvaluation(1.0, math.nan, "kelvin", 1e-15), InconsistencyError),
        (lambda: QEvaluation(1.0, 0.25, "kelvin", math.nan), InconsistencyError),
        (lambda: QEvaluation(1.0, 0.25, "kelvin", -1e-15), InconsistencyError),
        (lambda: QEvaluation(omega=1.0, q_inverse=0.25, route="kelvin", est_rel_error=1e-3),
         InconsistencyError),
        (lambda: QEvaluation(1.0, 0.25, "kelvin", math.inf), InconsistencyError),
        (lambda: FrequencyGrid("cubic", 1.0, 10.0, 5), DomainError),
        (lambda: FrequencyGrid("log", 10.0, 1.0, 5), DomainError),
        (lambda: FrequencyGrid(scale="log", min=0.0, max=1.0, count=5), DomainError),
        (lambda: FrequencyGrid("linear", 1.0, 2.0, 1), DomainError),
        (lambda: SweepRecord(1.0, 2.0), TypeError),
        (lambda: CheckResult("x", 0.0, 1.0), TypeError),
        (lambda: CheckResult("x", 0.0, 1.0, True, "", "extra"), TypeError),
    ],
)
def test_invalid_fields_raise_typed_errors(build, error):
    with pytest.raises(error):
        build()


def test_replace_checks_like_construction():
    assert ModelOrder(1.0)._replace(nu=2.0) == ModelOrder(2.0)
    with pytest.raises(DomainError):
        ModelOrder(1.0)._replace(nu=-2.0)
    with pytest.raises(InconsistencyError):
        QEvaluation(10.0, 0.25, "direct_ratio", 1e-15)._replace(q_inverse=-0.25)
    with pytest.raises(DomainError):
        FrequencyGrid("log", 1.0, 10.0, 5)._replace(count=1)
    with pytest.raises(DomainError):
        ModelOrder._make([math.nan])
