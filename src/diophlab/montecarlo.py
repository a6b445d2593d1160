"""Seeded experiments: LLN, CLT, lag covariance, alpha tails, Siegel means.

Reproducibility contract: sample u_k is drawn from its own counter-based
stream keyed by (seed, k), so the sample set depends only on (seed, S) and
never on the worker count or schedule; per-sample outputs are stored by
index and reduced in a single fixed-order pass.  The stream is Philox4x64-10
(Salmon et al., SC 2011) with key (seed, k) and a 256-bit counter that
starts at 1; each 64-bit output word w gives the float (w >> 11) * 2^-53,
and the floats fill u in row-major order.  That is the stream of numpy's
``Generator(Philox(key=[seed, k])).random((m, n))``, bit for bit, computed
here in Python integers, so it does not depend on the installed numpy's
``Generator`` and no experiment imports ``numpy.random``.

Shell counts are taken in batches of consecutive samples, one kernel pass
each (``_block_matrix``).  The batches, or the samples of the other
experiments, are split into contiguous index ranges, one per process up to
``workers`` and the usable CPUs; the caller runs the first range and forked
workers the others (``_map_indexed``).  A worker gets the mapped function
through the fork and sends back only its values, pickled.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

from diophlab.counting import CountingKernel, MatrixU, half_space_slabs, interval_radii, squared_radii
from diophlab.errors import CapExceededError, ValidationError
from diophlab.lattice import alpha, apply_flow, check_flow_time, lattice_from_u
from diophlab.problem import ApproximationProblem, mean_constant
from diophlab import theory

# verdict thresholds shared by every experiment
THRESHOLDS = {
    "lln_gap": 1.0,
    "lln_band": 1.0,
    "clt_var_rel": 0.25,
    "clt_ks": 0.07,
    "cov_nsigma": 4.0,
    "tail_factor": 4.0,
    "tail_exponent": 2.0,
    "mvt_nsigma": 4.0,
}


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ApproximationProblem
    N: int = 12
    samples: int = 4000
    seed: int = 42
    workers: int = 1
    n_grid: tuple = (6, 7, 8, 9, 10, 11)
    t_base: int = 8
    lags: tuple = (0, 1, 2, 3)
    L_grid: tuple = (2.0, 4.0, 8.0)
    kappa: float = 4.0

    def __post_init__(self):
        if self.samples < 1:
            raise ValidationError("need samples >= 1")
        _check_seed(self.seed)
        if self.N < 1:
            raise ValidationError("need N >= 1")
        if self.workers < 1:
            raise ValidationError("need workers >= 1")
        if not self.n_grid or min(self.n_grid) < 1:
            raise ValidationError("n_grid needs at least one entry, all >= 1")
        if not self.lags:
            raise ValidationError("lags needs at least one entry")
        if self.t_base < 0 or self.t_base + min(self.lags) < 0:
            raise ValidationError("need t_base >= 0 and t_base + min(lags) >= 0")
        if not self.L_grid or not all(1 <= L < math.inf for L in self.L_grid):
            raise ValidationError("L_grid needs at least one entry, all >= 1 and finite")
        if not 0 < self.kappa < math.inf:
            raise ValidationError("kappa must be > 0 and finite")


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    variance: float
    cum3: float
    cum4: float
    ks_distance: float
    stderr_mean: float
    sample_count: int

    def __post_init__(self):
        if self.variance < 0:
            raise ValidationError("variance must be >= 0")
        if not 0.0 <= self.ks_distance <= 1.0:
            raise ValidationError("ks_distance must be in [0, 1]")


# ---------------------------------------------------------------------------
# sampling

_MASK64 = 2**64 - 1
# Philox4x64 round multipliers and key increments (Salmon et al., SC 2011)
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B


def _check_seed(seed: int) -> None:
    # the seed is one 64-bit word of the Philox key: a wider seed would alias
    if not 0 <= seed <= _MASK64:
        raise ValidationError(f"seed must lie in [0, 2^64), got {seed}")


def sample_u_at(seed: int, index: int, m: int, n: int) -> MatrixU:
    """Sample ``index`` of a seeded run: one uniform draw from the torus of
    m x n matrices.

    The draw is Philox4x64-10 with key (seed, index), the counter incremented
    before each block (so the first block uses counter 1), and each output
    word w read as the float (w >> 11) * 2^-53; the floats fill the matrix in
    row-major order.  This is exactly what numpy's
    ``Generator(Philox(key=[seed, index])).random((m, n))`` returns, computed
    in Python integers, so that no run imports ``numpy.random``.  A counter
    below 2^64 leaves the other three counter words at 0.
    """
    _check_seed(seed)
    floats = []
    for block in range(1, (m * n + 3) // 4 + 1):
        c0, c1, c2, c3 = block, 0, 0, 0
        k0, k1 = seed, index
        for _ in range(10):
            p0, p1 = _PHILOX_M0 * c0, _PHILOX_M1 * c2
            c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK64, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK64
            k0, k1 = (k0 + _PHILOX_W0) & _MASK64, (k1 + _PHILOX_W1) & _MASK64
        floats += [(w >> 11) * 2.0**-53 for w in (c0, c1, c2, c3)]
    return MatrixU(np.reshape(floats[: m * n], (m, n)))


def _usable_cpus() -> int:
    # the CPU affinity set, where the platform has one
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# form-0 candidates per block_counts call: a batch's float64 arrays stay near 64 KB
_BATCH_CANDIDATES = 8192


def _map_indexed(fn, count: int, workers: int):
    """fn(i) for i in range(count), in order, over contiguous index ranges:
    min(workers, usable CPUs, count) of them, or one when count < 4 or there
    is no ``os.fork``.  The caller runs the first range and a forked worker
    each other one, which pipes back its pickled values, or its exception to
    raise here (the first in range order); the pipes are read in range order
    after the caller's own range.  A failed fork or a worker gone without a
    reply (killed, out of memory, unpicklable values) raises CapExceededError.
    Every worker is killed and reaped before the map returns or raises.
    """
    procs = min(workers, _usable_cpus(), count) if count >= 4 and hasattr(os, "fork") else 1
    bounds = [count * j // procs for j in range(procs + 1)]
    forked = []  # (pid, read end of its pipe) per worker, in range order
    try:
        for start, stop in zip(bounds[1:], bounds[2:]):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError as exc:  # EAGAIN or ENOMEM
                os.close(r)
                os.close(w)
                raise CapExceededError(f"cannot start a worker process: {exc}") from exc
            if pid == 0:  # the worker leaves only through os._exit, 0 once its reply is written
                try:
                    try:
                        reply = [fn(i) for i in range(start, stop)]
                    except Exception as exc:
                        reply = exc
                    with open(w, "wb") as out:
                        out.write(pickle.dumps(reply))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            forked.append((pid, open(r, "rb")))
        values = [fn(i) for i in range(bounds[1])]
        for _, pipe in forked:
            try:
                reply = pickle.loads(pipe.read())
            except (EOFError, pickle.UnpicklingError) as exc:  # an empty or cut reply
                raise CapExceededError("a worker process ended abruptly (for example, killed when memory ran out)") from exc
            if isinstance(reply, Exception):
                raise reply
            values += reply
        return values
    finally:  # a worker whose reply was read is past it, so its kill changes nothing
        for pid, pipe in forked:
            os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# verdict plumbing

def normal_cdf(x: float, variance: float) -> float:
    """CDF of the centered normal law with the given variance."""
    if variance <= 0:
        raise ValidationError("variance must be > 0")
    return 0.5 * math.erfc(-x / math.sqrt(2.0 * variance))


def ks_statistic(samples, cdf) -> float:
    """Exact sup-gap between the ECDF and the continuous ``cdf``, both
    one-sided gaps taken at the sample points."""
    arr = np.sort(np.asarray(samples, dtype=np.float64))
    n = arr.size
    if n == 0:
        raise ValidationError("ks_statistic needs samples")
    F = np.array([cdf(x) for x in arr])
    d_plus = float(np.max(np.arange(1, n + 1) / n - F))
    d_minus = float(np.max(F - np.arange(0, n) / n))
    return max(d_plus, d_minus, 0.0)


def summarize(samples, sigma2: float | None) -> SummaryStats:
    """Summary statistics, with the KS distance to Norm with variance sigma2
    (0.0 without a positive sigma2, or 0.5 when the samples are constant too)."""
    arr = np.asarray(samples, dtype=np.float64)
    n = arr.size
    mean = float(arr.mean())
    centered = arr - mean
    var = float(np.mean(centered**2))
    cum3 = float(np.mean(centered**3))
    cum4 = float(np.mean(centered**4)) - 3.0 * var * var
    if sigma2 is None or sigma2 <= 0:
        ks = 0.5 if var == 0.0 else 0.0
    else:
        ks = ks_statistic(arr, lambda x: normal_cdf(x, sigma2))
    stderr = math.sqrt(var / n) if n else 0.0
    return SummaryStats(
        mean=mean,
        variance=var,
        cum3=cum3,
        cum4=cum4,
        ks_distance=ks,
        stderr_mean=stderr,
        sample_count=int(n),
    )


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at z = 1.96 (95%)."""
    if n == 0:
        return (0.0, 1.0)
    z = 1.96
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


# ---------------------------------------------------------------------------
# experiment cores

def _block_matrix(config: ExperimentConfig, kernel: CountingKernel) -> np.ndarray:
    """(S, kernel.n_shells) matrix of shell counts for the seeded sample set.

    The samples are counted in batches of consecutive indices, one
    ``block_counts`` call each, of B = max(1, _BATCH_CANDIDATES // c)
    samples, c being the kernel's estimate of candidates per sample.
    """
    m, n, S = config.problem.m, config.problem.n, config.samples
    size = max(1, _BATCH_CANDIDATES // kernel.candidates_per_sample)

    def batch(j: int):
        return kernel.block_counts([sample_u_at(config.seed, i, m, n) for i in range(j * size, min(S, (j + 1) * size))])

    batches = _map_indexed(batch, -(-S // size), config.workers)
    return np.concatenate(batches).astype(np.float64)


@dataclass(frozen=True)
class LlnRow:
    N: int
    mean: float
    theory: float
    gap: float
    stderr: float
    mean_finite_theory: float


@dataclass(frozen=True)
class LlnResult:
    rows: tuple
    flat: bool
    band: float
    verdict: str
    gap_threshold: float
    passed: bool


def _shell_means(kernel: CountingKernel) -> np.ndarray:
    """Exact expectation of each shell's count of both signs over u, from the
    torus identity: 2 sum_q prod_i 2 theta_i ||q||^{-w_i} over the shell's q.

    The window is read slab by slab into running shell sums.  ``np.add.at``
    adds in index order, as ``bincount`` does, so every shell adds its q in
    the order of one whole-window ``bincount`` and gets the same float.
    """
    problem = kernel.problem
    acc = np.zeros(kernel.n_shells)
    for _, radii in half_space_slabs(problem.n, kernel.lo, kernel.hi, squared_radii(problem)):
        per_q_mean = np.prod(2.0 * interval_radii(problem, radii), axis=0)
        np.add.at(acc, kernel.shell_of(radii), per_q_mean)
    return 2.0 * acc


def run_lln(config: ExperimentConfig) -> LlnResult:
    """Mean of Delta_{e^N} against C*N over the N grid, with a flatness flag.

    The ``mean_finite_theory`` column is the exact finite-T expectation
    2 sum_q prod_i 2 theta_i ||q||^{-w_i}; the gap column compares against
    the leading term C*N as reported.  The run passes when the gaps are flat
    across N and every mean lies within ``lln_gap`` of the finite-T mean (the
    leading-term gap tends to a nonzero offset, C*gamma_Euler for (2,1)).
    """
    n_max = max(config.n_grid)
    C = mean_constant(config.problem)
    kernel = CountingKernel(config.problem, 0, n_max)
    cum = np.cumsum(_block_matrix(config, kernel), axis=1)  # Delta_{e^{s+1}} per sample
    finite_theory = np.cumsum(_shell_means(kernel))

    rows = []
    for N in config.n_grid:
        vals = cum[:, N - 1]
        mean = float(vals.mean())
        stderr = float(vals.std(ddof=1) / math.sqrt(config.samples)) if config.samples > 1 else float("inf")
        rows.append(
            LlnRow(
                N=N, mean=mean, theory=C * N, gap=abs(mean - C * N), stderr=stderr,
                mean_finite_theory=float(finite_theory[N - 1]),
            )
        )
    gaps = [r.gap for r in rows]  # n_grid is never empty
    band = max(gaps) - min(gaps)
    gap_max = THRESHOLDS["lln_gap"]
    flat = config.samples > 1 and band <= THRESHOLDS["lln_band"]
    failed = [] if flat else ["gaps not flat across N"]
    far = [str(r.N) for r in rows if not abs(r.mean - r.mean_finite_theory) <= gap_max]
    if far:
        failed.append(f"mean off the finite-T mean by more than {gap_max:g} at N = {', '.join(far)}")
    if config.samples == 1:
        verdict = "inconclusive (stderr dominates at S = 1)"
    else:
        verdict = "; ".join(failed) or "flat"
    return LlnResult(
        rows=tuple(rows), flat=flat, band=band, verdict=verdict, gap_threshold=gap_max, passed=not failed
    )


@dataclass(frozen=True)
class CltTraceRow:
    N: int
    variance: float
    cum3: float
    cum4: float
    ks: float


@dataclass(frozen=True)
class CltResult:
    samples: np.ndarray  # D_{e^N} per sample
    delta: np.ndarray  # raw counts at T = e^N
    stats: SummaryStats
    sigma2_theory: float | None
    verdict: str
    trace: tuple  # CltTraceRow at N = 8 and N, when N > 8
    factor2: dict | None
    constants: theory.TheoryConstants | None  # of the problem; None at m + n = 2
    passed: bool


def run_clt(config: ExperimentConfig) -> CltResult:
    """Normalized counts D_{e^N} for the seeded sample set, with summaries.

    When N > 8 the trace holds the summary rows at N = 8 (the same samples,
    truncated at T = e^8) and at N, for convergence diagnostics.  For n = 1
    and m + n >= 3 the result also carries the factor-2 diagnostic comparing
    the variance of the positive-q normalization with both candidate
    constants.  The run passes when there is no sigma2 to compare with
    (m = 1), or when the KS distance is at most ``clt_ks`` and the variance
    lies within ``clt_var_rel`` * sigma2 of sigma2.
    """
    C = mean_constant(config.problem)
    # sigma2 and zeta_ratio need m + n >= 3; at m + n = 2 the run has m = 1
    consts = theory.constants(config.problem) if config.problem.dimension >= 3 else None
    sigma2 = consts.sigma2 if config.problem.m >= 2 else None
    blocks = _block_matrix(config, CountingKernel(config.problem, 0, config.N))
    totals = blocks.sum(axis=1)

    def normalized(upto: int) -> np.ndarray:
        t = blocks[:, :upto].sum(axis=1)
        return (t - C * upto) / math.sqrt(upto)

    D = normalized(config.N)
    stats = summarize(D, sigma2)
    failed = []
    if sigma2 is None:
        verdict = "theory comparison unavailable (m = 1)"
    else:
        ks_max, var_rel = THRESHOLDS["clt_ks"], THRESHOLDS["clt_var_rel"]
        if not stats.ks_distance <= ks_max:
            failed.append(f"KS distance {stats.ks_distance:.3g} above {ks_max:g}")
        if not abs(stats.variance - sigma2) <= var_rel * sigma2:
            failed.append(f"variance {stats.variance:.3g} not within {var_rel:.0%} of sigma2 {sigma2:.3g}")
        verdict = "degenerate" if stats.variance == 0.0 else "; ".join(failed) or "ok"

    trace = ()
    if config.N > 8:  # the row at N summarises D itself
        rows = ((8, summarize(normalized(8), sigma2)), (config.N, stats))
        trace = tuple(
            CltTraceRow(N=N, variance=s.variance, cum3=s.cum3, cum4=s.cum4, ks=s.ks_distance) for N, s in rows
        )

    factor2 = None
    if consts is not None and config.problem.n == 1:
        # the positive-q count is Delta/2 exactly, so its D has variance Var(D)/4;
        # the one-dimensional statement 2 (C/2) zeta_ratio is sigma2/2
        var_pos, sigma_m, quarter = stats.variance / 4.0, sigma2 / 2.0, sigma2 / 4.0
        factor2 = {
            "var_positive_q": var_pos,
            "sigma_m_theorem": sigma_m,
            "sigma_mn_quarter": quarter,
            "ratio_to_sigma_m": var_pos / sigma_m,
            "ratio_to_quarter": var_pos / quarter,
        }

    return CltResult(
        samples=D,
        delta=totals,
        stats=stats,
        sigma2_theory=sigma2,
        verdict=verdict,
        trace=trace,
        factor2=factor2,
        constants=consts,
        passed=not failed,
    )


@dataclass(frozen=True)
class CovarianceRow:
    s: int
    empirical: float
    stderr: float
    theory: float
    within: bool


@dataclass(frozen=True)
class CovarianceResult:
    rows: tuple
    var_D: float
    var_D_stderr: float
    var_prediction: float
    var_within: bool
    passed: bool


def _theta_for_lag(problem: ApproximationProblem, s: int) -> float:
    """Theta_inf(s) with the diagonal band p ~ e^s q covered up to Pmax = 3000.

    Pmax stays at most 3000, the ceiling that keeps the pinned lag values.
    Lags above ~7 are truncated by it; their true value is below 1e-5 of the
    variance, so the truncation is immaterial for the checks here.  The
    exponent is capped at 8, where the ceiling already holds, so that e^|s|
    cannot overflow.
    """
    Pmax = max(2000, min(int(math.ceil(4.0 * math.exp(min(abs(s), 8)))), 3000))
    return theory.theta_infinity(problem, abs(s), Pmax)


def run_covariance(config: ExperimentConfig) -> CovarianceResult:
    """Empirical lag covariances of the shell counts against Theta_inf(s).

    Also checks the variance chain: Var(D_{e^N}) against the stationary
    finite-N prediction (1/N) sum_{|s|<N} (N - |s|) Theta_inf(s).  The run
    passes when every lag and the chain lie within ``cov_nsigma`` stderr.
    """
    lags, t = config.lags, config.t_base
    if config.problem.m < 2:
        raise ValidationError("covariance theory comparison needs m >= 2")
    N = max(config.N, t + max(lags) + 1)
    blocks = _block_matrix(config, CountingKernel(config.problem, 0, N))
    C = mean_constant(config.problem)
    nsig = THRESHOLDS["cov_nsigma"]
    # one Theta_inf per distinct |s|, ascending
    distinct = sorted({abs(s) for s in lags} | set(range(config.N)))
    theta = {a: _theta_for_lag(config.problem, a) for a in distinct}

    rows = []
    base = blocks[:, t] - blocks[:, t].mean()
    for s in lags:
        other = blocks[:, t + s] - blocks[:, t + s].mean()
        prods = base * other
        emp = float(prods.mean())
        stderr = float(math.sqrt(max(np.mean((prods - emp) ** 2), 0.0) / config.samples))
        th = theta[abs(s)]
        rows.append(
            CovarianceRow(
                s=s, empirical=emp, stderr=stderr, theory=th, within=abs(emp - th) <= nsig * stderr
            )
        )

    # variance chain at N
    D = (blocks[:, : config.N].sum(axis=1) - C * config.N) / math.sqrt(config.N)
    Dc = D - D.mean()
    var_D = float(np.mean(Dc**2))
    var_stderr = float(math.sqrt(max(np.mean((Dc**2 - var_D) ** 2), 0.0) / config.samples))
    pred = theta[0]
    for s in range(1, config.N):
        pred += 2.0 * (config.N - s) / config.N * theta[s]
    var_within = abs(var_D - pred) <= nsig * var_stderr
    return CovarianceResult(
        rows=tuple(rows),
        var_D=var_D,
        var_D_stderr=var_stderr,
        var_prediction=pred,
        var_within=var_within,
        passed=bool(var_within and all(r.within for r in rows)),
    )


@dataclass(frozen=True)
class TailRow:
    L: float
    s: int
    tail: float
    wilson_low: float
    wilson_high: float
    bound: float
    within: bool


@dataclass(frozen=True)
class AlphaTailResult:
    rows: tuple  # TailRow per L
    passed: bool


def run_alpha_tail(config: ExperimentConfig) -> AlphaTailResult:
    """Empirical P(alpha(a^s Lambda_u) >= L) at s = ceil(kappa log L).

    The run passes when every tail is at most its bound.  Flow times that
    ``lattice.check_flow_time`` refuses (the float basis of a^s Lambda_u no
    longer holds the lattice) are refused before any sample runs.
    """
    if config.problem.dimension > 5:
        raise ValidationError("alpha tails need dimension <= 5 (certified alpha)")
    m, n = config.problem.m, config.problem.n
    factor = THRESHOLDS["tail_factor"]
    exponent = THRESHOLDS["tail_exponent"]
    # s = ceil(kappa log L); an infinite kappa log L stays inf, which check_flow_time refuses
    flow_times = [math.ceil(t) if t < math.inf else t for t in (config.kappa * math.log(L) for L in config.L_grid)]
    for L, s in zip(config.L_grid, flow_times):
        check_flow_time(config.problem, s, f"L={L:g}")

    rows = []
    for L, s in zip(config.L_grid, flow_times):

        def one(i: int) -> bool:
            u = sample_u_at(config.seed, i, m, n)
            lat = apply_flow(lattice_from_u(config.problem, u), s, config.problem)
            return alpha(lat) >= L

        hits = _map_indexed(one, config.samples, config.workers)
        k = int(np.sum(hits))
        tail = k / config.samples
        lo, hi = wilson_interval(k, config.samples)
        bound = factor * L ** (-exponent)
        rows.append(
            TailRow(
                L=float(L), s=s, tail=tail, wilson_low=lo, wilson_high=hi,
                bound=bound, within=tail <= bound,
            )
        )
    return AlphaTailResult(rows=tuple(rows), passed=all(r.within for r in rows))


@dataclass(frozen=True)
class SiegelMeanRow:
    s: int
    mean: float
    stderr: float
    theory: float
    within: bool


@dataclass(frozen=True)
class SiegelMeanResult:
    rows: tuple  # SiegelMeanRow per s
    passed: bool


def run_siegel_mean(config: ExperimentConfig, s_list=(4, 6, 8)) -> SiegelMeanResult:
    """Mean of the shell count at flow time s against the volume C.  The run
    passes when every mean lies within ``mvt_nsigma`` stderr of C."""
    C = mean_constant(config.problem)
    nsig = THRESHOLDS["mvt_nsigma"]
    rows = []
    for s in s_list:
        blocks = _block_matrix(config, CountingKernel(config.problem, s, s + 1))
        vals = blocks[:, 0]
        mean = float(vals.mean())
        stderr = float(vals.std(ddof=1) / math.sqrt(config.samples))
        rows.append(
            SiegelMeanRow(
                s=int(s), mean=mean, stderr=stderr, theory=C,
                within=abs(mean - C) <= nsig * stderr,
            )
        )
    return SiegelMeanResult(rows=tuple(rows), passed=all(r.within for r in rows))
