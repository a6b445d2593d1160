"""Problem definition: weighted approximation systems, norms, geometric constants.

Conventions fixed here and relied on everywhere else:

* weights are exact rationals and must sum to n exactly;
* thresholds theta_i and radial bounds are dyadic reals (IEEE doubles read
  as exact dyadic rationals), so boundary comparisons can be escalated to
  exact arithmetic;
* ``omega_n`` integrates ||z||^{-n} over the *Euclidean* unit sphere with
  surface measure (for n = 1 the sphere is {-1, +1} with counting measure),
  which makes the volume of the counting domain below T equal C * log(T)
  for any of the supported norms;
* counting domains are radially half-open [1, T), and the x-side inequality
  is always strict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from diophlab.errors import ValidationError


class Norm(Enum):
    SUP = "sup"
    EUCLIDEAN = "euclidean"


def _as_fraction(w) -> Fraction:
    if isinstance(w, Fraction):
        return w
    if isinstance(w, int):
        return Fraction(w)
    if isinstance(w, str):
        try:
            return Fraction(w)
        except ZeroDivisionError as exc:
            raise ValidationError(f"weight {w!r} has a zero denominator") from exc
    if isinstance(w, float):
        # doubles are exact dyadic rationals
        return Fraction(w)
    raise ValidationError(f"cannot interpret weight {w!r} as an exact rational")


@dataclass(frozen=True)
class ApproximationProblem:
    """Parameters of the system |p_i + <u_i, q>| < theta_i ||q||^{-w_i}.

    m forms in n variables; weights w_i > 0 with sum w_i = n (checked in
    exact rational arithmetic); thresholds theta_i > 0; ``norm`` is the norm
    applied to the denominator vector q.
    """

    m: int
    n: int
    weights: tuple
    thetas: tuple
    norm: Norm = Norm.SUP

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(_as_fraction(w) for w in self.weights))
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        if not isinstance(self.norm, Norm):
            object.__setattr__(self, "norm", Norm(self.norm))

    @property
    def dimension(self) -> int:
        return self.m + self.n

    def weights_float(self):
        return tuple(float(w) for w in self.weights)


def validate(problem: ApproximationProblem) -> ApproximationProblem:
    """Return ``problem`` unchanged iff every invariant holds.

    Raises ValidationError naming the violated invariant.
    """
    if problem.m < 1:
        raise ValidationError("m must be a positive integer")
    if problem.n < 1:
        raise ValidationError("n must be a positive integer")
    if len(problem.weights) != problem.m:
        raise ValidationError(f"expected {problem.m} weights, got {len(problem.weights)}")
    if len(problem.thetas) != problem.m:
        raise ValidationError(f"expected {problem.m} thetas, got {len(problem.thetas)}")
    if any(w <= 0 for w in problem.weights):
        raise ValidationError("all weights must be > 0")
    if not all(0 < t < math.inf for t in problem.thetas):
        raise ValidationError("all thetas must be > 0 and finite")
    total = sum(problem.weights, Fraction(0))
    if total != problem.n:
        raise ValidationError(
            f"weight sum {total} != n = {problem.n} (checked in exact rational arithmetic)"
        )
    return problem


def unit_ball_volume(norm: Norm, n: int) -> float:
    """Volume of {||y|| <= 1} by recursive one-dimensional slice quadrature.

    Used only as the independent cross-check path for ``omega_n``.
    """
    from scipy.integrate import quad

    if n == 0:
        return 1.0

    if norm is Norm.SUP:
        # slice at y_n = t is the full (n-1)-dimensional unit ball
        inner = unit_ball_volume(norm, n - 1)
        val, _ = quad(lambda t: inner, -1.0, 1.0, epsabs=1e-12, epsrel=1e-12)
        return val
    if norm is Norm.EUCLIDEAN:
        inner = unit_ball_volume(norm, n - 1)
        val, _ = quad(
            lambda t: inner * (1.0 - t * t) ** ((n - 1) / 2.0),
            -1.0,
            1.0,
            epsabs=1e-12,
            epsrel=1e-12,
        )
        return val
    raise ValidationError(f"unsupported norm {norm}")


def omega_n(norm: Norm, n: int) -> float:
    """The constant such that integral of ||y||^{-n} over {a <= ||y|| < b} is
    omega_n * log(b/a).

    Equivalently the integral of ||z||^{-n} over the Euclidean unit sphere
    (counting measure of mass 2 for n = 1), i.e. n * vol{||y|| <= 1}.
    """
    if n < 1:
        raise ValidationError("omega_n needs n >= 1")
    if norm is Norm.SUP:
        return float(n * 2**n)
    if norm is Norm.EUCLIDEAN:
        return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    raise ValidationError(f"unsupported norm {norm}")


def mean_constant(problem: ApproximationProblem) -> float:
    """C = 2^m * prod(theta_i) * omega_n, the per-unit-log expected count."""
    prod = 1.0
    for t in problem.thetas:
        prod *= t
    return (2.0**problem.m) * prod * omega_n(problem.norm, problem.n)
