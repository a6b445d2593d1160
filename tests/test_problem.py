import math
from fractions import Fraction

import pytest

from diophlab.errors import ValidationError
from diophlab.problem import (
    ApproximationProblem,
    Norm,
    WeightedBoxFunction,
    domain_volume,
    omega_n,
    unit_ball_volume,
    validate,
)


def test_validate_accepts_balanced_weights():
    p = ApproximationProblem(m=2, n=1, weights=(Fraction(1, 2), Fraction(1, 2)), thetas=(1, 1))
    assert validate(p) is p


def test_validate_rejects_weight_sum():
    p = ApproximationProblem(m=2, n=1, weights=(1, 1), thetas=(1, 1))
    with pytest.raises(ValidationError, match="weight sum"):
        validate(p)


def test_validate_accepts_single_heavy_weight():
    p = ApproximationProblem(m=1, n=2, weights=(2,), thetas=(0.5,))
    assert validate(p) is p


@pytest.mark.parametrize(
    "bad,match",
    [
        (dict(m=0, n=1, weights=(), thetas=()), "m must be"),
        (dict(m=1, n=0, weights=(1,), thetas=(1,)), "n must be"),
        (dict(m=1, n=1, weights=(-1,), thetas=(1,)), "weights must be > 0"),
        (dict(m=1, n=1, weights=(1,), thetas=(0,)), "thetas must be > 0"),
        (dict(m=2, n=1, weights=(1,), thetas=(1, 1)), "expected 2 weights"),
        (dict(m=1, n=1, weights=(1,), thetas=(math.nan,)), "thetas must be > 0 and finite"),
        (dict(m=1, n=1, weights=(1,), thetas=(math.inf,)), "thetas must be > 0 and finite"),
    ],
)
def test_validate_rejects(bad, match):
    with pytest.raises(ValidationError, match=match):
        validate(ApproximationProblem(**bad))


def test_omega_closed_forms():
    assert omega_n(Norm.SUP, 1) == 2
    assert omega_n(Norm.SUP, 2) == 8
    assert omega_n(Norm.EUCLIDEAN, 2) == pytest.approx(2 * math.pi, rel=1e-15)
    assert omega_n(Norm.EUCLIDEAN, 1) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("norm", [Norm.SUP, Norm.EUCLIDEAN])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_omega_quadrature_agrees(norm, n):
    closed = omega_n(norm, n)
    quad = n * unit_ball_volume(norm, n)
    assert abs(quad - closed) <= 1e-8 * closed


def test_domain_volume_examples():
    p = validate(ApproximationProblem(m=1, n=1, weights=(1,), thetas=(0.5,)))
    assert domain_volume(p, math.e) == pytest.approx(2.0, rel=1e-14)
    assert domain_volume(p, 1.0) == 0.0
    p2 = validate(ApproximationProblem(m=2, n=1, weights=(Fraction(1, 2), Fraction(1, 2)), thetas=(1, 1)))
    assert domain_volume(p2, math.e) == pytest.approx(8.0, rel=1e-14)


def test_box_function_validation():
    with pytest.raises(ValidationError):
        WeightedBoxFunction(upsilon1=2.0, upsilon2=1.0, thetas=(1,), weights=(1,))
    cell = WeightedBoxFunction.counting_cell(
        validate(ApproximationProblem(m=1, n=1, weights=(1,), thetas=(0.5,)))
    )
    assert cell.lower_closed and not cell.upper_closed
    assert cell.upsilon1 == 1.0 and cell.upsilon2 == math.e
