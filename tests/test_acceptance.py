"""Acceptance suite: ten numbered criteria, each printed as one PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  Exact suites come first; the statistical suites are pinned to
seed 42 and their thresholds are fixed here, not tuned.

Two checks are known to fail for mathematical reasons measured by this
package itself (the implementation is exact against brute-force oracles, so
these are properties of the finite-T law, not bugs):

* criterion 7: at N = 12 the normalized count is still far from its limit
  law (Var ~ 13.1 vs sigma2 = 27.8, KS ~ 0.28, strong positive skew): the
  shell counts have heavy alpha-driven tails and their third/fourth moments
  are divergent in the limit, so the plug-in cumulants do not shrink at
  desk-scale N even though the distributional limit holds;
* criterion 8 (second half): the finite-N variance prediction from the
  stationary lag covariances (26.99) exceeds the true Var(D) (14.61) by
  ~85% at N = 12.  The lag covariances measured at t = 8 are all below
  Theta_inf (lag 1: 0.91 vs 3.30; lags 2, 3: -0.80, -0.61 vs 0.56, 0.07),
  and a chain built from them gives ~16.9, close to Var(D): the finite-t
  convergence of the lag covariances is unsettled.

Criterion 6 checks the LLN mean against the exact finite-T expectation
8 H_{ceil(e^N)-1}, not against the leading term C*N: E[Delta_T] - C log T
converges to C * gamma_Euler ~ 4.62 for the (2,1), theta=(1,1)
configuration, so a bound on that gap would fail for any correct program.
"""

import math
import time
from fractions import Fraction

import numpy as np

from diophlab import theory
from diophlab.counting import MatrixU, count_direct
from diophlab.cumulants import LadderParams, classify_tuple, conditional_cumulant, piece_contains, set_partitions
from diophlab.lattice import lattice_from_u, siegel_transform_box
from diophlab.montecarlo import ExperimentConfig, run_alpha_tail, run_clt, run_covariance, run_lln, run_siegel_mean
from diophlab.oracles import brute_force_count
from diophlab.problem import ApproximationProblem, Norm, WeightedBoxFunction, validate

SEED = 42
P21 = validate(
    ApproximationProblem(m=2, n=1, weights=(Fraction(1, 2), Fraction(1, 2)), thetas=(1.0, 1.0))
)
P22 = validate(ApproximationProblem(m=2, n=2, weights=(1, 1), thetas=(1.0, 1.0)))

_WORKERS = 3


def _verdict(num: int, title: str, ok: bool, detail: str, t0: float, budget_s: float):
    elapsed = time.time() - t0
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({title}): {detail} [{elapsed:.1f}s]"
    print("\n" + line, flush=True)
    assert elapsed <= budget_s, f"criterion {num} exceeded its runtime budget: {elapsed:.1f}s"
    assert ok, line


def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    problems = {
        (1, 1): validate(ApproximationProblem(m=1, n=1, weights=(1,), thetas=(0.8,))),
        (2, 1): P21,
        (1, 2): validate(ApproximationProblem(m=1, n=2, weights=(2,), thetas=(0.6,))),
        (2, 2): validate(
            ApproximationProblem(m=2, n=2, weights=(1, 1), thetas=(1.0, 0.7), norm=Norm.EUCLIDEAN)
        ),
    }
    checked = 0
    ok = True
    detail = ""
    for (m, n), prob in problems.items():
        for _ in range(25):
            u = MatrixU(rng.random((m, n)))
            T = float(rng.uniform(10, 500))
            a = count_direct(prob, u, T).total
            b = brute_force_count(prob, u, T)
            checked += 1
            if a != b:
                ok = False
                detail = f"(m,n)=({m},{n}) T={T:.2f}: direct {a} != brute {b}"
                break
    # tessellation identity: Delta_{e^N} equals the sum of shell transforms
    tess = 0
    for prob in (P21, problems[(1, 2)]):
        cell = WeightedBoxFunction.counting_cell(prob)
        for _ in range(3):
            u = MatrixU(rng.random((prob.m, prob.n)))
            lat = lattice_from_u(prob, u)
            for N in (4, 7):
                total = count_direct(prob, u, math.e**N).total
                parts = sum(
                    siegel_transform_box(cell, lat, s, norm=prob.norm) for s in range(N)
                )
                tess += 1
                if total != parts:
                    ok = False
                    detail = f"tessellation (m,n)=({prob.m},{prob.n}) N={N}: {total} != {parts}"
    if ok:
        detail = f"{checked} random instances and {tess} tessellation identities exact"
    _verdict(1, "oracle equivalence", ok, detail, t0, 60)


def test_criterion_02_conditional_cumulant_vanishing():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    from diophlab.cumulants import FiniteDistribution

    ok = True
    detail = ""
    checked = 0
    for trial in range(100):
        n_points = int(rng.integers(2, 5))
        weights = [int(rng.integers(1, 7)) for _ in range(n_points)]
        denom = sum(weights)
        probs = tuple(Fraction(w, denom) for w in weights)
        values = tuple(
            tuple(Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5))) for _ in range(5))
            for _ in range(n_points)
        )
        dist = FiniteDistribution(probs, values)
        for r in (2, 3, 4, 5):
            obs = list(range(r))
            for Q in set_partitions(r):
                if len(Q) < 2:
                    continue
                val = conditional_cumulant(dist, obs, Q)
                checked += 1
                if val != 0:
                    ok = False
                    detail = f"trial {trial} r={r} Q={Q.blocks}: {val}"
    if ok:
        detail = f"{checked} conditional cumulants vanish exactly"
    _verdict(2, "conditional cumulant vanishing", ok, detail, t0, 30)


def test_criterion_03_decomposition_covering():
    t0 = time.time()
    ok = True
    detail = ""
    checked = 0
    for gamma in (1.0, 2.0):
        ladder = LadderParams(gamma=gamma, r=3)
        for s1 in range(40):
            for s2 in range(40):
                for s3 in range(40):
                    label = classify_tuple((s1, s2, s3), ladder)
                    checked += 1
                    if not piece_contains((0.0, float(s1), float(s2), float(s3)), label, ladder):
                        ok = False
                        detail = f"gamma={gamma} tuple ({s1},{s2},{s3}) uncovered"
    if ok:
        detail = f"{checked} tuples all covered"
    _verdict(3, "decomposition covering", ok, detail, t0, 30)


def test_criterion_04_divisor_sum_lemma():
    t0 = time.time()
    ok = True
    detail = ""
    # closed form against vectorized brute force for q <= 300
    for q in range(1, 301):
        for P in (q, 2 * q, 5 * q):
            p_arr = np.arange(-P, P + 1, dtype=np.int64)
            ells = np.arange(1, q + 1, dtype=np.int64)
            brute = np.count_nonzero((ells[:, None] * p_arr[None, :]) % q == 0, axis=1)
            closed = np.array([theory.n_solutions(q, int(e), P) for e in ells])
            if not np.array_equal(brute, closed):
                ok = False
                detail = f"q={q} P={P}: closed form disagrees with brute force"
                break
        if not ok:
            break
    if ok:
        for k, (T1, T2) in ((1, (100, 200)), (2, (100, 200)), (3, (100, 200))):
            ra = theory.divisor_sum_check(T1, k)
            rb = theory.divisor_sum_check(T2, k)
            drift = abs(ra.ratio - rb.ratio) / max(ra.ratio, rb.ratio)
            if drift > 0.25:
                ok = False
                detail = f"k={k}: ratio drift {drift:.3f} between T={T1} and T={T2}"
                break
            if not (ra.inner_bound_holds and rb.inner_bound_holds):
                ok = False
                detail = f"k={k}: inner divisor-sum bound violated"
                break
    if ok:
        detail = "closed form exact to q=300; growth ratios stable within 25%"
    _verdict(4, "divisor-sum lemma", ok, detail, t0, 60)


def test_criterion_05_sigma2_identity():
    t0 = time.time()
    ok = True
    details = []
    for prob in (P21, P22):
        c = theory.constants(prob)
        S = int(math.ceil(math.log(2000))) + 2
        total = math.fsum(theory.theta_infinity(prob, s, 2000) for s in range(-S, S + 1))
        err = abs(total - c.sigma2)
        details.append(f"(m,n)=({prob.m},{prob.n}): |{total:.5f} - {c.sigma2:.5f}| = {err:.2e}")
        if err > 1e-3 * c.sigma2:
            ok = False
    _verdict(5, "sigma2 identity", ok, "; ".join(details), t0, 60)


def test_criterion_06_lln_mean_constant():
    t0 = time.time()
    cfg = ExperimentConfig(
        problem=P21, samples=4000, seed=SEED, workers=_WORKERS, n_grid=(6, 7, 8, 9, 10, 11)
    )
    res = run_lln(cfg)
    # Exact finite-T expectation, computed here rather than taken from the code
    # under test: q = 1..ceil(e^N)-1, both signs of q, and each form admits
    # 2 theta_i q^{-1/2} integers p on average, so E[Delta_{e^N}] = 8 H_{ceil(e^N)-1}.
    exact = {
        N: 8.0 * math.fsum(1.0 / q for q in range(1, math.ceil(math.exp(N))))
        for N in cfg.n_grid
    }
    rows = {r.N: r for r in res.rows}
    dist = {N: abs(r.mean - exact[N]) for N, r in rows.items()}
    theory_ok = all(
        math.isclose(r.mean_finite_theory, exact[N], rel_tol=1e-9) for N, r in rows.items()
    )
    ok = theory_ok and all(d <= 1.0 for d in dist.values())
    detail = (
        "gaps to C*N " + ", ".join(f"N={N}: {r.gap:.2f}" for N, r in rows.items())
        + f"; flat band {res.band:.2f}"
        + "; exact offset E_exact - C*N "
        + ", ".join(f"{exact[N] - r.theory:.3f}" for N, r in rows.items())
        + "; |mean - E_exact| "
        + ", ".join(f"N={N}: {d:.2f}" for N, d in dist.items())
        + ("" if theory_ok else "; mean_finite_theory disagrees with 8*H_{ceil(e^N)-1}")
    )
    _verdict(6, "LLN mean constant", ok, detail, t0, 300)


def test_criterion_07_clt():
    t0 = time.time()
    cfg = ExperimentConfig(problem=P21, N=12, samples=4000, seed=SEED, workers=_WORKERS)
    res = run_clt(cfg, trace_N=(8, 12))
    sigma2 = res.sigma2_theory
    var = res.stats.variance
    ks = res.ks_distance
    cum3, cum4 = res.stats.cum3, res.stats.cum4
    tr = {row.N: row for row in res.trace}
    checks = {
        "var within 25%": abs(var - sigma2) <= 0.25 * sigma2,
        "ks <= 0.07": ks <= 0.07,
        "cum3 bound": abs(cum3) <= 0.5 * var**1.5,
        "cum4 bound": abs(cum4) <= 0.5 * var**2,
        "cum3 decreasing": abs(tr[12].cum3) <= abs(tr[8].cum3),
        "cum4 decreasing": abs(tr[12].cum4) <= abs(tr[8].cum4),
    }
    ok = all(checks.values())
    f2 = res.factor2
    detail = (
        f"var={var:.2f} vs sigma2={sigma2:.2f} (ratio {var / sigma2:.2f}), ks={ks:.3f}, "
        f"cum3={cum3:.1f}, cum4={cum4:.0f}; "
        + ", ".join(f"{k}: {'ok' if v else 'FAIL'}" for k, v in checks.items())
        + f" | factor-2 diagnostic (no verdict): Var(D_pos)={f2['var_positive_q']:.2f} "
        f"= Var(D)/4 exactly, so its limit is sigma_mn/4={f2['sigma_mn_quarter']:.2f}, "
        f"half of the one-dimensional constant sigma_m={f2['sigma_m_theorem']:.2f}"
    )
    _verdict(7, "CLT finite-T checks", ok, detail, t0, 600)


def test_criterion_08_covariance_structure():
    t0 = time.time()
    cfg = ExperimentConfig(
        problem=P21, N=12, samples=10_000, seed=SEED, workers=_WORKERS, t_base=8, lags=(0, 1, 2, 3)
    )
    res = run_covariance(cfg)
    lag_ok = all(r.within for r in res.rows)
    ok = lag_ok and res.var_within
    detail = (
        "lags: "
        + ", ".join(
            f"s={r.s}: {r.empirical:.2f}±{r.stderr:.2f} vs {r.theory:.2f} ({'ok' if r.within else 'FAIL'})"
            for r in res.rows
        )
        + f"; var chain: {res.var_D:.2f}±{res.var_D_stderr:.2f} vs prediction {res.var_prediction:.2f} "
        + ("(ok)" if res.var_within else "(FAIL: the lag covariances have not reached Theta_inf at finite t)")
    )
    _verdict(8, "covariance structure", ok, detail, t0, 300)


def test_criterion_09_alpha_tail():
    t0 = time.time()
    cfg = ExperimentConfig(
        problem=P21, samples=10_000, seed=SEED, workers=_WORKERS, L_grid=(2.0, 4.0, 8.0), kappa=4.0
    )
    rows = run_alpha_tail(cfg)
    ok = all(r.within for r in rows)
    detail = ", ".join(
        f"L={r.L:.0f} (s={r.s}): tail={r.tail:.4f} <= {r.bound:.4f} ({'ok' if r.within else 'FAIL'})"
        for r in rows
    )
    _verdict(9, "non-divergence tail", ok, detail, t0, 300)


def test_criterion_10_siegel_mean_value():
    t0 = time.time()
    cfg = ExperimentConfig(problem=P21, samples=10_000, seed=SEED, workers=_WORKERS)
    rows = run_siegel_mean(cfg, s_list=(4, 6, 8))
    ok = all(r.within for r in rows)
    detail = ", ".join(
        f"s={r.s}: {r.mean:.3f}±{r.stderr:.3f} vs {r.theory:.1f} ({'ok' if r.within else 'FAIL'})"
        for r in rows
    )
    _verdict(10, "Siegel mean value / equidistribution", ok, detail, t0, 120)
