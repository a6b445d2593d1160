import concurrent.futures
import math
import multiprocessing
import os
import signal
from fractions import Fraction

import numpy as np
import pytest

from diophlab import montecarlo, theory
from diophlab.cli import main
from diophlab.errors import CapExceededError, ValidationError
from diophlab.montecarlo import (
    ExperimentConfig,
    normal_cdf,
    ks_statistic,
    run_alpha_tail,
    run_clt,
    run_covariance,
    run_lln,
    run_siegel_mean,
    sample_u_at,
    summarize,
    wilson_interval,
)
from diophlab.problem import ApproximationProblem, Norm, validate

P21 = validate(
    ApproximationProblem(m=2, n=1, weights=(Fraction(1, 2), Fraction(1, 2)), thetas=(1.0, 1.0))
)


def test_sample_u_deterministic_and_in_range():
    a = sample_u_at(42, 0, 2, 1)
    b = sample_u_at(42, 0, 2, 1)
    assert np.array_equal(a.entries, b.entries)
    assert np.all((a.entries >= 0) & (a.entries < 1))
    c = sample_u_at(42, 1, 2, 1)
    assert not np.array_equal(a.entries, c.entries)


def test_sample_u_streams_do_not_collide():
    seen = set()
    for i in range(30_000):
        u = sample_u_at(123, i, 2, 1)
        key = u.entries.tobytes()
        assert key not in seen
        seen.add(key)


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63, 2**64 - 1])
@pytest.mark.parametrize("index", [0, 1, 799, 2**32 + 7, 2**63])
def test_sample_u_is_numpys_philox_stream(seed, index):
    # numpy's Philox generator is the reference here only; m*n up to 25 takes 7 counter blocks
    key = np.array([seed, index], dtype=np.uint64)
    for size in range(1, 26):
        for m in (d for d in range(1, size + 1) if size % d == 0):
            expected = np.random.Generator(np.random.Philox(key=key)).random((m, size // m))
            got = sample_u_at(seed, index, m, size // m).entries
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), (m, size // m)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_is_refused(seed):
    # a masked seed would alias: 2^64 drew the samples of 0, and -1 those of 2^64 - 1
    with pytest.raises(ValidationError, match=r"\[0, 2\^64\)"):
        sample_u_at(seed, 0, 2, 1)
    with pytest.raises(ValidationError, match=r"\[0, 2\^64\)"):
        ExperimentConfig(problem=P21, seed=seed)


def test_largest_seed_is_accepted():
    assert ExperimentConfig(problem=P21, seed=2**64 - 1).seed == 2**64 - 1
    assert sample_u_at(2**64 - 1, 0, 2, 1).entries.shape == (2, 1)


P21_FLAGS = ["--m", "2", "--n", "1", "--weights", "1/2,1/2", "--thetas", "1,1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["clt", "--logT", "6", "--samples", "60", "--seed", "9"],
        ["lln", "--n-grid", "4,5,6", "--samples", "60", "--seed", "9"],
        ["covariance", "--logT", "5", "--t-base", "2", "--lags", "0,1", "--samples", "60", "--seed", "9"],
        ["alpha-tail", "--L-grid", "2,4", "--kappa", "2", "--samples", "60", "--seed", "9"],
    ],
    ids=lambda argv: argv[0],
)
def test_worker_count_does_not_change_results(tmp_path, monkeypatch, argv):
    # two usable CPUs, so that --workers 2 runs the process pool on any machine
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    csv = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        main([argv[0], *P21_FLAGS, *argv[1:], "--workers", workers, "--out-dir", str(out)])
        csv.append((out / "results.csv").read_bytes())
    assert csv[0] == csv[1] and csv[0].count(b"\n") > 2
    assert multiprocessing.active_children() == []


def test_pool_size_is_capped_by_usable_cpus(monkeypatch):
    sizes = []

    class InlinePool:
        """Records the pool size and runs each range in this process."""

        def __init__(self, max_workers, mp_context, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(montecarlo, "_TASK", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert montecarlo._map_indexed(lambda i: i * i, 50, 10**6) == [i * i for i in range(50)]
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert montecarlo._map_indexed(lambda i: -i, 5, 10**6) == [-i for i in range(5)]
    assert sizes == [3, 2]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("error", [CapExceededError, ValidationError])
def test_worker_error_reaches_the_caller(monkeypatch, error):
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)

    def fn(i):
        if i == 7:
            raise error(f"sample {i} refused")
        return i

    with pytest.raises(error, match="^sample 7 refused$"):
        montecarlo._map_indexed(fn, 40, 2)
    assert multiprocessing.active_children() == []


def test_killed_worker_is_cap_exceeded(monkeypatch):
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    parent = os.getpid()

    def fn(i):
        if i == 7 and os.getpid() != parent:  # never the test process itself
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    with pytest.raises(CapExceededError, match="ended abruptly"):
        montecarlo._map_indexed(fn, 40, 2)
    assert multiprocessing.active_children() == []


def test_normal_cdf():
    assert normal_cdf(0.0, 4.0) == 0.5
    assert normal_cdf(1.96, 1.0) == pytest.approx(0.9750021048517795, rel=1e-12)
    with pytest.raises(ValidationError):
        normal_cdf(0.0, 0.0)


def test_ks_statistic_quantile_construction():
    n = 500
    var = 2.5
    # exact mid-quantiles of the target law: KS = 1/(2n)
    from math import sqrt

    from scipy.special import erfinv

    qs = [sqrt(2.0 * var) * erfinv(2.0 * ((i + 0.5) / n) - 1.0) for i in range(n)]
    ks = ks_statistic(qs, lambda x: normal_cdf(x, var))
    assert ks == pytest.approx(1.0 / (2 * n), abs=1e-9)


def test_ks_statistic_against_own_steps():
    samples = [0.0, 1.0, 2.0, 3.0]

    def ecdf(x):
        return sum(1 for s in samples if s <= x) / len(samples)

    # the target is read as continuous: the left limit at each jump leaves 1/n
    assert ks_statistic(samples, ecdf) == 0.25
    with pytest.raises(ValidationError):
        ks_statistic([], ecdf)


def test_summarize_degenerate():
    stats = summarize(np.zeros(100), sigma2=4.0)
    assert stats.variance == 0.0
    assert stats.ks_distance == pytest.approx(0.5, abs=1e-12)
    # plug-in central moments: constants give 0, the balanced 0/1 sample var 1/4, cum4 -1/8
    for sample, moments in (([5.0] * 100, (0.0, 0.0, 0.0)), ([0.0, 1.0] * 500, (0.25, 0.0, -0.125))):
        stats = summarize(sample, sigma2=None)
        assert (stats.variance, stats.cum3, stats.cum4) == moments


def test_run_clt_degenerate_when_every_count_is_zero():
    # thetas of 2^-20 leave every shell empty up to N = 4, and C N is a power of
    # two, so D = -C sqrt(N) is the same float for every sample: variance exactly 0
    tiny = validate(
        ApproximationProblem(m=2, n=1, weights=(Fraction(1, 2), Fraction(1, 2)), thetas=(2.0**-20, 2.0**-20))
    )
    res = run_clt(ExperimentConfig(problem=tiny, N=4, samples=20, seed=1))
    assert not res.delta.any() and res.stats.variance == 0.0
    assert res.verdict == "degenerate" and not res.passed


def test_wilson_interval():
    lo, hi = wilson_interval(5, 100)
    assert 0.0 <= lo < 0.05 < hi <= 1.0
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_run_lln_small():
    cfg = ExperimentConfig(problem=P21, samples=150, seed=42, n_grid=(4, 5, 6))
    res = run_lln(cfg)
    assert [r.N for r in res.rows] == [4, 5, 6]
    for r in res.rows:
        # empirical mean agrees with the exact finite-T expectation
        assert abs(r.mean - r.mean_finite_theory) <= 5 * r.stderr
        assert r.theory == pytest.approx(8.0 * r.N)
    assert res.band >= 0.0


def _whole_window_shell_means(kernel):
    # the reference: the whole window in one array and one bincount
    from diophlab.counting import half_space_grid, interval_radii, squared_radii

    problem = kernel.problem
    _, radii = half_space_grid(problem.n, kernel.lo, kernel.hi, squared_radii(problem))
    per_q_mean = np.prod(2.0 * interval_radii(problem, radii), axis=0)
    return 2.0 * np.bincount(kernel.shell_of(radii), weights=per_q_mean, minlength=kernel.n_shells)


@pytest.mark.parametrize(
    "problem,N",
    [
        (P21, 12),
        (validate(ApproximationProblem(m=1, n=2, weights=(2,), thetas=(1.0,), norm=Norm.EUCLIDEAN)), 6),
        (validate(ApproximationProblem(m=2, n=2, weights=(1, 1), thetas=(1.0, 1.5), norm=Norm.SUP)), 5),
        (validate(ApproximationProblem(m=2, n=2, weights=(1, 1), thetas=(1.0, 1.5), norm=Norm.EUCLIDEAN)), 6),
    ],
)
def test_shell_means_stream_the_whole_window_sum(monkeypatch, problem, N):
    # slab by slab, every shell's expectation is the same float as one
    # whole-window bincount, for slabs of about 65536, 1000 and 7 q (at n = 2
    # the last is one leading row per slab)
    from diophlab import counting
    from diophlab.counting import CountingKernel

    kernel = CountingKernel(problem, 0, N)
    want = _whole_window_shell_means(kernel).tobytes()
    for chunk in (1 << 16, 1000, 7):
        monkeypatch.setattr(counting, "_CHUNK", chunk)
        assert montecarlo._shell_means(kernel).tobytes() == want


def test_shell_means_hold_no_window_sized_array():
    # (2,1) at N = 14: K ~ 1.2 10^6 q, so one float per q of the window is 9.6 MB
    import tracemalloc

    from diophlab.counting import CountingKernel

    kernel = CountingKernel(P21, 0, 14)
    K = kernel.hi - kernel.lo + 1
    tracemalloc.start()
    try:
        montecarlo._shell_means(kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert K > 10**6
    assert peak < 8 * K / 3


def test_run_lln_single_sample_inconclusive():
    cfg = ExperimentConfig(problem=P21, samples=1, seed=1, n_grid=(4, 5))
    res = run_lln(cfg)
    assert res.verdict.startswith("inconclusive")
    assert not res.flat and not res.passed


def test_run_lln_and_siegel_mean_for_m_plus_n_2():
    # (1,1), theta = 1/2: q = 1..ceil(e^N)-1, both signs of q, 2 theta / q integers p
    # on average, so E[Delta_{e^N}] = 4 theta H_{ceil(e^N)-1}; sigma2 does not exist here
    p11 = validate(ApproximationProblem(m=1, n=1, weights=(1,), thetas=(0.5,)))
    res = run_lln(ExperimentConfig(problem=p11, samples=50, seed=2, n_grid=(2, 3)))
    for r in res.rows:
        exact = 4 * 0.5 * math.fsum(1.0 / q for q in range(1, math.ceil(math.exp(r.N))))
        assert r.mean_finite_theory == pytest.approx(exact, rel=1e-12)
    assert res.rows[1].mean_finite_theory == pytest.approx(7.195, abs=1e-3)
    assert run_siegel_mean(ExperimentConfig(problem=p11, samples=20, seed=2), s_list=(2,)).rows[0].theory == 2.0


def test_verdict_names_the_failed_check():
    # the CLI exits 1 on these runs; their verdict must not read as a pass
    lln = run_lln(ExperimentConfig(problem=P21, samples=60, seed=4))
    assert not lln.passed and "gaps not flat" in lln.verdict and "finite-T mean" in lln.verdict
    clt = run_clt(ExperimentConfig(problem=P21, N=6, samples=60))
    assert not clt.passed
    assert clt.verdict.startswith("KS distance 0.312 above 0.07") and "variance 5.52" in clt.verdict


def test_run_clt_fields_and_m1():
    cfg = ExperimentConfig(problem=P21, N=9, samples=120, seed=3)
    res = run_clt(cfg)
    assert res.sigma2_theory == pytest.approx(16.0 * (2 * (math.pi**2 / 6) / 1.2020569031595942 - 1), rel=1e-9)
    assert [row.N for row in res.trace] == [8, 9]  # traced at N = 8 and at N, once N > 8
    assert res.trace[1].ks == res.stats.ks_distance and res.trace[1].variance == res.stats.variance
    assert res.factor2 is not None
    assert res.factor2["var_positive_q"] == res.stats.variance / 4

    p12 = validate(ApproximationProblem(m=1, n=2, weights=(2,), thetas=(0.7,)))
    res12 = run_clt(ExperimentConfig(problem=p12, N=4, samples=60, seed=3))
    assert res12.verdict == "theory comparison unavailable (m = 1)" and res12.passed
    assert res12.trace == ()


def test_run_covariance_small():
    cfg = ExperimentConfig(problem=P21, N=10, samples=250, seed=5, t_base=6, lags=(0, 1))
    res = run_covariance(cfg)
    assert [r.s for r in res.rows] == [0, 1]
    assert res.rows[0].theory == pytest.approx(19.876, abs=0.05)
    assert res.var_prediction == pytest.approx(
        sum((10 - abs(s)) / 10 * res_theory for s, res_theory in _theta_terms(10)), rel=1e-6
    )
    assert res.passed == (all(r.within for r in res.rows) and res.var_within)


def test_run_covariance_one_theta_per_distinct_lag(monkeypatch):
    calls = []
    theta = theory.theta_infinity

    def counted(problem, s, Pmax):
        calls.append((s, Pmax))
        return theta(problem, s, Pmax)

    monkeypatch.setattr(theory, "theta_infinity", counted)
    cfg = ExperimentConfig(problem=P21, N=3, samples=20, seed=5, t_base=2, lags=(-1, 0, 1))
    res = run_covariance(cfg)
    assert calls == [(0, 2000), (1, 2000), (2, 2000)]
    assert res.rows[0].theory == res.rows[2].theory == theta(P21, 1, 2000)


def _theta_terms(N):
    from diophlab.montecarlo import _theta_for_lag

    out = []
    for s in range(-(N - 1), N):
        out.append((s, _theta_for_lag(P21, s)))
    return out


def test_run_alpha_tail_trivial_L1():
    cfg = ExperimentConfig(problem=P21, samples=50, seed=2, L_grid=(1.0, 2.0), kappa=4.0)
    res = run_alpha_tail(cfg)
    rows = res.rows
    assert res.passed == all(r.within for r in rows)
    assert rows[0].L == 1.0 and rows[0].tail == 1.0  # alpha >= 1 always
    assert rows[1].tail <= rows[0].tail  # nested events
    assert rows[0].s == 0


def test_run_siegel_mean_small():
    cfg = ExperimentConfig(problem=P21, samples=300, seed=6)
    rows = run_siegel_mean(cfg, s_list=(4,)).rows
    assert rows[0].theory == pytest.approx(8.0)
    assert abs(rows[0].mean - 8.0) <= 6 * rows[0].stderr


def test_experiment_config_validation():
    for bad in (
        {"samples": 0},
        {"N": 0},
        {"n_grid": ()},
        {"n_grid": (0, 3)},
        {"lags": ()},
        {"t_base": -1},
        {"t_base": 0, "lags": (-1,)},
        {"t_base": 2, "lags": (0, -3)},
        {"L_grid": ()},
        {"L_grid": (2.0, 0.5)},
        {"L_grid": (2.0, math.nan)},
        {"L_grid": (math.inf,)},
        {"kappa": math.nan},
        {"kappa": math.inf},
        {"kappa": 0.0},
        {"kappa": -1.0},
    ):
        with pytest.raises(ValidationError):
            ExperimentConfig(problem=P21, **bad)
