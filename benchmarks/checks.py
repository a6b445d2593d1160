"""Correctness gate: oracle spot-checks and result digests.

``oracle_pairs`` recomputes a few seeded sample indices of a counting run
with the independent enumerators in ``diophlab.oracles`` and pairs each
oracle value with the production value (``CountingKernel.block_counts`` for
the same u, and the ``Delta`` column of results.csv where the run writes
one).  ``mismatches`` is pure so that the smoke test can hand it a corrupted
expectation.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from pathlib import Path

SPOT_SAMPLES = 2
ORACLE_GRID_LIMIT = 1_500_000  # q-grid points per brute-force shell; keeps a check under ~1 s


def file_sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def kernel_shells(cfg) -> int | None:
    """Number of shells the experiment counts (its kernel is s = 0 .. N-1)."""
    if cfg.subcommand == "lln":
        return max(cfg.n_grid)
    if cfg.subcommand == "clt":
        return cfg.logT
    if cfg.subcommand == "covariance":
        return max(cfg.logT, cfg.t_base + max(cfg.lags) + 1)
    return None


def _grid_points(problem, s: int) -> int:
    from diophlab.counting import block_radius_range, block_sq_radius_range
    from diophlab.problem import Norm

    if problem.n == 1 or problem.norm is Norm.SUP:
        k = block_radius_range(s)[1]
    else:
        k = math.isqrt(block_sq_radius_range(s)[1])
    return (2 * k + 1) ** problem.n


def _delta_column(results_csv: Path) -> dict:
    with Path(results_csv).open() as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    header, body = rows[0], rows[1:]
    if "Delta" not in header or "index" not in header:
        return {}
    i, d = header.index("index"), header.index("Delta")
    return {int(r[i]): int(r[d]) for r in body}


def spot_indices(cfg, key: str) -> list:
    rnd = random.Random(key)
    return sorted(rnd.sample(range(cfg.samples), min(SPOT_SAMPLES, cfg.samples)))


def oracle_pairs(cfg, results_csv: Path, key: str) -> list:
    """[(label, oracle value, production value)] for the seeded spot samples."""
    from diophlab import montecarlo, oracles
    from diophlab.counting import Convention, CountingKernel, block_radius_range

    n_shells = kernel_shells(cfg)
    if n_shells is None:
        return []
    problem = cfg.problem()
    convention = Convention.BOTH_SIGNS if cfg.convention == "both" else Convention.POSITIVE_Q
    kernel = CountingKernel(problem, 0, n_shells)
    shells = [s for s in range(n_shells) if _grid_points(problem, s) <= ORACLE_GRID_LIMIT]
    delta = _delta_column(results_csv)
    pairs = []
    for i in spot_indices(cfg, key):
        u = montecarlo.sample_u_at(cfg.seed, i, problem.m, problem.n)
        got = kernel.block_counts(u, convention)
        for s in shells:
            pairs.append((f"u[{i}] shell {s}", oracles.brute_force_block(problem, u, s, convention), int(got[s])))
        if delta:
            T = float(block_radius_range(n_shells)[0])  # ||q|| < ceil(e^N): shells 0 .. N-1
            pairs.append((f"u[{i}] Delta", oracles.brute_force_count(problem, u, T, convention), delta[i]))
    return pairs


def mismatches(pairs) -> list:
    return [p for p in pairs if p[1] != p[2]]


def pinned_digest(pins: dict, argv_sha: str, seed: int) -> str | None:
    """The pinned results.csv sha256 for this argv and seed, if one is pinned."""
    return pins.get(argv_sha, {}).get("results_sha256", {}).get(str(seed))
