"""Benchmark workloads: the diophlab CLI argv each one runs, per seed.

The reasons for each workload are recorded in BENCHMARK.json.  Only the CLI
argv reaches the program; ``--out-dir`` is appended by the runner.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

PROBLEM_21 = ("--m", "2", "--n", "1", "--weights", "1/2,1/2", "--thetas", "1,1")
PROBLEM_22_EUCLID = ("--m", "2", "--n", "2", "--weights", "1,1", "--thetas", "1,1", "--norm", "euclidean")


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    args: tuple  # problem and experiment flags; sizes are in ``samples``
    samples: int
    smoke_args: tuple  # tiny sizes for the benchmark's own smoke test
    smoke_samples: int

    def argv(self, seed: int, smoke: bool = False) -> list:
        args, samples = (self.smoke_args, self.smoke_samples) if smoke else (self.args, self.samples)
        return [self.subcommand, *args, "--samples", str(samples), "--seed", str(seed)]

    def units(self, smoke: bool = False) -> int:
        """Sample units per run: one shell-count vector per sample."""
        return self.smoke_samples if smoke else self.samples

    def argv_sha256(self, smoke: bool = False) -> str:
        """Hash of the argv with the seed left out: the key of the pinned digests."""
        return hashlib.sha256(json.dumps(self.argv(0, smoke)[:-2]).encode()).hexdigest()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lln-n1", "lln",
            PROBLEM_21 + ("--n-grid", "6,7,8,9,10,11", "--workers", "2"),
            samples=800,
            smoke_args=PROBLEM_21 + ("--n-grid", "5,6,7", "--workers", "2"), smoke_samples=20,
        ),
        Workload(
            "clt-n1-deep", "clt",
            PROBLEM_21 + ("--logT", "13", "--workers", "1"),
            samples=40,
            smoke_args=PROBLEM_21 + ("--logT", "9", "--workers", "1"), smoke_samples=10,
        ),
        Workload(
            "cov-n2-euclid", "covariance",
            PROBLEM_22_EUCLID + ("--logT", "7", "--t-base", "4", "--lags", "0,1,2", "--workers", "1"),
            samples=15,
            smoke_args=PROBLEM_22_EUCLID + ("--logT", "4", "--t-base", "1", "--lags", "0,1,2", "--workers", "1"),
            smoke_samples=4,
        ),
    )
}
