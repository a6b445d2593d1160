"""Exact cumulant combinatorics and the separated/clustered tuple decomposition.

Joint cumulants over finite rational distributions are evaluated in exact
Fraction arithmetic; the conditional cumulant with respect to any partition
with at least two blocks vanishes identically, and the tests exercise that
as an exact identity rather than a numerical one.

Index tuples (s_1, ..., s_r) are embedded as (0, s_1, ..., s_r) and covered
by pieces where coordinates cluster within blocks of a partition (spread at
most alpha_j) and separate across blocks (gaps above beta_{j+1}); the
covering label is produced constructively by finding two consecutive ladder
thresholds with identical clustering graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from diophlab.errors import ValidationError

MAX_PARTITION_GROUND = 10
MAX_CUMULANT_ORDER = 8


@dataclass(frozen=True)
class SetPartition:
    """A partition of a finite ground set into disjoint nonempty blocks."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(sorted(tuple(sorted(b)) for b in self.blocks))
        if any(len(b) == 0 for b in blocks):
            raise ValidationError("empty block in partition")
        flat = [x for b in blocks for x in b]
        if len(set(flat)) != len(flat):
            raise ValidationError("blocks are not disjoint")
        object.__setattr__(self, "blocks", blocks)

    @property
    def ground(self) -> tuple:
        return tuple(sorted(x for b in self.blocks for x in b))

    def __len__(self) -> int:
        return len(self.blocks)


def _partitions_of(items: tuple):
    """All set partitions, by recursive insertion (deterministic order)."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in _partitions_of(rest):
        # first joins each existing block, then its own block
        for i in range(len(sub)):
            yield sub[:i] + ((first,) + sub[i],) + sub[i + 1 :]
        yield sub + ((first,),)


def set_partitions(r: int) -> list:
    """All partitions of {1..r}, Bell(r) of them."""
    if not 1 <= r <= MAX_PARTITION_GROUND:
        raise ValidationError(f"r must be in [1, {MAX_PARTITION_GROUND}]")
    return [SetPartition(blocks) for blocks in _partitions_of(tuple(range(1, r + 1)))]


def bell_number(r: int) -> int:
    row = [1]
    for _ in range(r):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


# ---------------------------------------------------------------------------
# finite rational distributions and exact cumulants

@dataclass(frozen=True)
class FiniteDistribution:
    """Finitely supported distribution with exact rational probabilities.

    ``values[t][i]`` is the value of observable i at atom t.
    """

    probabilities: tuple
    values: tuple

    def __post_init__(self):
        probs = tuple(Fraction(p) for p in self.probabilities)
        vals = tuple(tuple(Fraction(v) for v in row) for row in self.values)
        if len(probs) != len(vals):
            raise ValidationError("probabilities and value rows must align")
        if any(p <= 0 for p in probs):
            raise ValidationError("probabilities must be positive")
        if sum(probs, Fraction(0)) != 1:
            raise ValidationError("probabilities must sum to 1 exactly")
        widths = {len(row) for row in vals}
        if len(widths) > 1:
            raise ValidationError("value rows have inconsistent width")
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "values", vals)

    def moment(self, indices) -> Fraction:
        """E[prod_{i in indices} phi_i], exact; empty product gives 1."""
        total = Fraction(0)
        for p, row in zip(self.probabilities, self.values):
            term = p
            for i in indices:
                term *= row[i]
            total += term
        return total


def _subset_moments(dist: FiniteDistribution, observables) -> dict:
    cache = {frozenset(): Fraction(1)}
    idx = tuple(observables)
    for size in range(1, len(idx) + 1):
        for combo in combinations(range(len(idx)), size):
            cache[frozenset(combo)] = dist.moment([idx[i] for i in combo])
    return cache


def joint_cumulant(dist: FiniteDistribution, observables) -> Fraction:
    """Cum(phi_1, ..., phi_r) = sum over partitions P of (-1)^{|P|-1} (|P|-1)!
    prod_{I in P} E[prod_{i in I} phi_i], exact: the conditional cumulant
    along the one-block partition {1..r}."""
    r = len(observables)
    if not 1 <= r <= MAX_CUMULANT_ORDER:
        raise ValidationError(f"order must be in [1, {MAX_CUMULANT_ORDER}]")
    return conditional_cumulant(dist, observables, SetPartition((tuple(range(1, r + 1)),)))


def conditional_cumulant(dist: FiniteDistribution, observables, Q: SetPartition) -> Fraction:
    """Cumulant with moments factored along Q: each E[prod_{i in I}] becomes
    prod_{J in Q} E[prod_{i in I ^ J}].  Identically 0 whenever |Q| >= 2."""
    r = len(observables)
    if not 1 <= r <= MAX_CUMULANT_ORDER:
        raise ValidationError(f"order must be in [1, {MAX_CUMULANT_ORDER}]")
    ground = set(range(1, r + 1))
    if set(Q.ground) != ground:
        raise ValidationError("Q must partition {1..r}")
    moments = _subset_moments(dist, observables)
    q_blocks = [frozenset(i - 1 for i in b) for b in Q.blocks]
    total = Fraction(0)
    for part in _partitions_of(tuple(range(r))):
        sign = -1 if len(part) % 2 == 0 else 1
        term = Fraction(sign * math.factorial(len(part) - 1))
        for block in part:
            bset = frozenset(block)
            for jb in q_blocks:
                term *= moments[bset & jb]
        total += term
    return total


# ---------------------------------------------------------------------------
# ladders and the covering of tuple space

@dataclass(frozen=True)
class LadderParams:
    """Threshold chain 0 = alpha_0 < beta_1 < alpha_1 < beta_2 < ... with
    alpha_j = (3 + r) beta_j; beta_1 = gamma and beta_{j+1} = (3 + r) beta_j + gamma.
    """

    gamma: float
    r: int

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValidationError("gamma must be > 0")
        if self.r < 1:
            raise ValidationError("r must be >= 1")
        betas = [float(self.gamma)]
        for _ in range(self.r + 1):
            betas.append(float((3 + self.r) * betas[-1] + self.gamma))
        alphas = [0.0] + [(3 + self.r) * b for b in betas]
        object.__setattr__(self, "betas", tuple(betas))  # beta_1 .. beta_{r+2}
        object.__setattr__(self, "alphas", tuple(alphas))  # alpha_0 .. alpha_{r+2}
        chain = []
        for j in range(self.r + 1):
            chain.extend([self.alpha(j), self.beta(j + 1)])
        if any(not a < b for a, b in zip(chain, chain[1:])):
            raise ValidationError("ladder chain 0=a_0<b_1<a_1<... is violated")

    def beta(self, j: int) -> float:
        if j < 1:
            raise ValidationError("beta is indexed from 1")
        return self.betas[j - 1]

    def alpha(self, j: int) -> float:
        return self.alphas[j]


@dataclass(frozen=True)
class TupleLabel:
    """One covering piece: the bulk cube (kind="bulk") or a clustered piece
    Omega_Q(alpha_j, beta_{j+1}) (kind="clustered")."""

    kind: str
    j: int = -1
    partition: SetPartition | None = None


def _cluster_partition(points, threshold: float) -> tuple:
    """Connected components of the graph |s_i - s_j| <= threshold on indices."""
    k = len(points)
    parent = list(range(k))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(k):
        for b in range(a + 1, k):
            if abs(points[a] - points[b]) <= threshold:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra
    groups = {}
    for a in range(k):
        groups.setdefault(find(a), []).append(a)
    return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


def rho_sup(points, partition: SetPartition) -> float:
    """Largest within-block spread max_{I} max_{i,j in I} |s_i - s_j|."""
    best = 0.0
    for block in partition.blocks:
        for a, b in combinations(block, 2):
            best = max(best, abs(points[a] - points[b]))
    return best


def rho_inf(points, partition: SetPartition) -> float:
    """Smallest cross-block gap min_{I != J} min |s_i - s_j|."""
    if len(partition) < 2:
        return math.inf
    best = math.inf
    for A, B in combinations(partition.blocks, 2):
        for a in A:
            for b in B:
                best = min(best, abs(points[a] - points[b]))
    return best


def piece_contains(points, label: TupleLabel, ladder: LadderParams) -> bool:
    """Membership of the embedded tuple in a covering piece, by definition."""
    if label.kind == "bulk":
        return max(points) <= ladder.beta(ladder.r + 1)
    if label.kind != "clustered" or label.partition is None:
        raise ValidationError("malformed label")
    if len(label.partition) < 2:
        return False
    return (
        rho_sup(points, label.partition) <= ladder.alpha(label.j)
        and rho_inf(points, label.partition) > ladder.beta(label.j + 1)
    )


def classify_tuple(s_tuple, ladder: LadderParams):
    """The covering piece containing (0, s_1, ..., s_r).

    The constructive label comes from clustering at consecutive thresholds:
    walking j = 0..r with beta_0 := 0, the clustering graphs at beta_j and
    beta_{j+1} agree for some j (pigeonhole over at most r+1 strict
    coarsenings), and that j with its component partition is a valid piece;
    if the partition is trivial the tuple lies in the bulk cube.
    """
    s_tuple = tuple(float(s) for s in s_tuple)
    if len(s_tuple) != ladder.r:
        raise ValidationError("tuple length must equal ladder.r")
    if any(s < 0 for s in s_tuple):
        raise ValidationError("coordinates must be >= 0")
    points = (0.0,) + s_tuple
    r = ladder.r

    thresholds = [0.0] + [ladder.beta(j) for j in range(1, r + 2)]
    parts = [_cluster_partition(points, t) for t in thresholds]
    for j in range(0, r + 1):
        if parts[j] == parts[j + 1]:
            partition = SetPartition(parts[j])
            if len(partition) == 1:
                label = TupleLabel(kind="bulk")
            else:
                label = TupleLabel(kind="clustered", j=j, partition=partition)
            if not piece_contains(points, label, ladder):
                raise AssertionError("constructive covering label failed membership")
            return label
    raise AssertionError("pigeonhole covering argument failed")  # pragma: no cover
