from fractions import Fraction

import numpy as np
import pytest

from diophlab.cumulants import (
    FiniteDistribution,
    LadderParams,
    SetPartition,
    bell_number,
    classify_tuple,
    conditional_cumulant,
    joint_cumulant,
    piece_contains,
    rho_inf,
    rho_sup,
    set_partitions,
)
from diophlab.errors import ValidationError


def random_rational_distribution(rng, n_points=3, n_obs=5):
    weights = [int(rng.integers(1, 7)) for _ in range(n_points)]
    denom = sum(weights)
    probs = tuple(Fraction(w, denom) for w in weights)
    values = tuple(
        tuple(Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5))) for _ in range(n_obs))
        for _ in range(n_points)
    )
    return FiniteDistribution(probs, values)


def test_set_partitions_counts():
    assert len(set_partitions(1)) == 1
    assert len(set_partitions(3)) == 5
    assert len(set_partitions(4)) == 15
    assert bell_number(5) == 52
    assert len(set_partitions(5)) == 52
    with pytest.raises(ValidationError):
        set_partitions(11)
    # deterministic order
    assert [p.blocks for p in set_partitions(3)] == [p.blocks for p in set_partitions(3)]


def test_set_partition_validation():
    with pytest.raises(ValidationError):
        SetPartition(((1, 2), (2, 3)))
    with pytest.raises(ValidationError):
        SetPartition(((1,), ()))


def test_joint_cumulant_order2_is_covariance():
    rng = np.random.default_rng(0)
    for _ in range(10):
        dist = random_rational_distribution(rng)
        cov = dist.moment([0, 1]) - dist.moment([0]) * dist.moment([1])
        assert joint_cumulant(dist, [0, 1]) == cov


def test_cumulants_kill_constants():
    dist = FiniteDistribution(
        (Fraction(1, 2), Fraction(1, 2)),
        ((Fraction(3), Fraction(3), Fraction(3)), (Fraction(3), Fraction(3), Fraction(3))),
    )
    for r in (2, 3):
        assert joint_cumulant(dist, list(range(r))) == 0


def test_bernoulli_third_cumulant_zero():
    # X in {0,1} with p = 1/2: E X^3 - 3 E X^2 E X + 2 (E X)^3 = 0
    dist = FiniteDistribution(
        (Fraction(1, 2), Fraction(1, 2)),
        ((Fraction(0), Fraction(0), Fraction(0)), (Fraction(1), Fraction(1), Fraction(1))),
    )
    moments = {r: dist.moment([0] * r) for r in (1, 2, 3)}
    brute = moments[3] - 3 * moments[2] * moments[1] + 2 * moments[1] ** 3
    assert brute == 0
    assert joint_cumulant(dist, [0, 1, 2]) == 0


def test_moment_reconstruction_from_cumulants():
    # E[prod phi_i] = sum over partitions of products of block cumulants
    rng = np.random.default_rng(42)
    for r in (2, 3, 4, 5):
        dist = random_rational_distribution(rng, n_obs=r)
        total = Fraction(0)
        from diophlab.cumulants import _partitions_of

        for part in _partitions_of(tuple(range(r))):
            term = Fraction(1)
            for block in part:
                term *= joint_cumulant(dist, list(block))
            total += term
        assert total == dist.moment(range(r))


def test_independence_kills_mixed_cumulants():
    rng = np.random.default_rng(7)
    for r in (2, 3, 4):
        left = random_rational_distribution(rng, n_points=2, n_obs=1)
        right = random_rational_distribution(rng, n_points=2, n_obs=r - 1)
        probs = []
        values = []
        for pl, vl in zip(left.probabilities, left.values):
            for pr, vr in zip(right.probabilities, right.values):
                probs.append(pl * pr)
                values.append(vl + vr)
        joint = FiniteDistribution(tuple(probs), tuple(values))
        # any cumulant mixing the independent halves vanishes exactly
        assert joint_cumulant(joint, list(range(r))) == 0


def test_conditional_cumulant_vanishes_exactly():
    rng = np.random.default_rng(11)
    for _ in range(20):
        dist = random_rational_distribution(rng)
        for r in (2, 3, 4, 5):
            obs = list(range(r))
            for Q in set_partitions(r):
                if len(Q) < 2:
                    continue
                assert conditional_cumulant(dist, obs, Q) == 0


def test_conditional_cumulant_trivial_partition_is_joint():
    rng = np.random.default_rng(13)
    for r in (2, 3, 4):
        dist = random_rational_distribution(rng, n_obs=r)
        obs = list(range(r))
        Q = SetPartition((tuple(range(1, r + 1)),))
        assert conditional_cumulant(dist, obs, Q) == joint_cumulant(dist, obs)


def test_ladder_chain():
    lad = LadderParams(gamma=2.0, r=3)
    chain = [lad.alpha(0)]
    for j in range(1, lad.r + 2):
        chain.extend([lad.beta(j), lad.alpha(j)])
    assert chain[0] == 0.0
    assert all(a < b for a, b in zip(chain, chain[1:]))
    assert lad.alpha(1) == (3 + lad.r) * lad.beta(1)
    assert lad.beta(2) == (3 + lad.r) * lad.beta(1) + lad.gamma
    with pytest.raises(ValidationError):
        LadderParams(gamma=-1.0, r=2)


def test_classify_small_tuples_bulk():
    lad = LadderParams(gamma=2.0, r=3)
    label = classify_tuple((1.0, 0.5, 2.0), lad)
    assert label.kind == "bulk"


def test_classify_split_tuple():
    lad = LadderParams(gamma=1.0, r=2)
    N = 40
    label = classify_tuple((0, N - 1), lad)
    assert label.kind == "clustered"
    blocks = label.partition.blocks
    assert any(0 in b and 1 in b for b in blocks)  # embedded 0 clusters with s_1 = 0
    assert any(2 in b and 0 not in b for b in blocks)


def test_classify_rho_metrics():
    part = SetPartition(((0, 1), (2,)))
    pts = (0.0, 1.0, 9.0)
    assert rho_sup(pts, part) == 1.0
    assert rho_inf(pts, part) == 8.0


def test_covering_exhaustive_r2():
    for gamma in (1.0, 2.0):
        lad = LadderParams(gamma=gamma, r=2)
        for s1 in range(40):
            for s2 in range(40):
                label = classify_tuple((s1, s2), lad)
                assert piece_contains((0.0, float(s1), float(s2)), label, lad)
