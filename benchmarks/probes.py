"""Layer probes: a fixed table of per-layer costs, independent of the workload.

Regenerates the baseline table of the ROADMAP from one command:
``CountingKernel.block_counts`` ms and exact escalations per sample for
(m, n) = (2, 1) at N = 10, 12, 14; alpha ms per sample for d = 3 (at the
flow times s = 3, 6, 9 of ``alpha-tail --L-grid 2,4,8 --kappa 4``) and for
d = 4 (the only place the generic j >= 3 branch of the covolume scan runs);
and one ``theta_infinity(Pmax=3000)`` in seconds.  The traced alpha calls
here are also where the ``lattice.*`` span metrics come from, since no kept
workload runs the lattice layer.  The probe samples use seed 0 for every
run, so counts compare exactly across runs and commits.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

PROBE_SEED = 0
BLOCK_PROBES = ((10, 40), (12, 15), (14, 5))  # (N, samples)
ALPHA_PROBES = ((3, (3, 6, 9), 200), (4, (3,), 40))  # (d, flow times s, samples per s)
THETA_PMAX = 3000
THETA_REPEATS = 3


def run(tracer) -> dict:
    from diophlab import montecarlo, theory
    from diophlab.counting import CountingKernel
    from diophlab.lattice import alpha, apply_flow, lattice_from_u
    from diophlab.problem import ApproximationProblem, validate

    p21 = validate(ApproximationProblem(m=2, n=1, weights=(Fraction(1, 2), Fraction(1, 2)), thetas=(1.0, 1.0)))
    p22 = validate(ApproximationProblem(m=2, n=2, weights=(Fraction(1), Fraction(1)), thetas=(1.0, 1.0)))
    out = {}
    for N, samples in BLOCK_PROBES:
        kernel = CountingKernel(p21, 0, N)
        before = tracer.counter("counting.exact_open_count")
        times = []
        for i in range(samples):
            u = montecarlo.sample_u_at(PROBE_SEED, i, 2, 1)
            t0 = time.perf_counter()
            kernel.block_counts(u)
            times.append(time.perf_counter() - t0)
        out[f"counting.block_counts_ms_N{N}"] = statistics.median(times) * 1e3
        out[f"counting.escalations_per_sample_N{N}"] = (tracer.counter("counting.exact_open_count") - before) / samples
    for d, flow_times, samples in ALPHA_PROBES:
        problem = p21 if d == 3 else p22
        times = []
        for s in flow_times:
            for i in range(samples):
                u = montecarlo.sample_u_at(PROBE_SEED, i, problem.m, problem.n)
                lat = apply_flow(lattice_from_u(problem, u), s, problem)
                t0 = time.perf_counter()
                alpha(lat)
                times.append(time.perf_counter() - t0)
        out[f"lattice.alpha_ms_d{d}"] = statistics.median(times) * 1e3
    times = []
    for _ in range(THETA_REPEATS):
        t0 = time.perf_counter()
        theory.theta_infinity(p21, 1, THETA_PMAX)
        times.append(time.perf_counter() - t0)
    out[f"theory.theta_infinity_s_P{THETA_PMAX}"] = statistics.median(times)
    return out
