"""Command-line entry point: experiment dispatch, result files, self-test.

Exit codes: 0 success, 1 a statistical verdict failed, 2 usage error,
3 an enumeration cap was exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from diophlab import lattice, montecarlo, theory
from diophlab.counting import Convention, MatrixU, count_direct
from diophlab.errors import CapExceededError, ValidationError
from diophlab.montecarlo import ExperimentConfig
from diophlab.problem import ApproximationProblem, Norm, validate

SCHEMA_VERSION = 1

_SUBCOMMANDS = ("count", "lln", "clt", "covariance", "alpha-tail", "variance", "selftest")
# the subcommands that read each group of settings
_POSED = ("count", "lln", "clt", "covariance", "alpha-tail", "variance")
_SAMPLED = ("lln", "clt", "covariance", "alpha-tail")


_REAL = (float, int)
_EXPERIMENT_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}


def _setting(default, kinds: tuple, only: tuple, is_list: bool = False, choices=None):
    """A CliConfig field and its row of the settings table.

    ``kinds`` are the JSON types the setting accepts (for a comma list, the
    types of its entries); ``kinds[0]`` also parses the flag string, entry
    by entry for a comma list.  ``only`` names the subcommands that read the
    setting: only they have the flag and accept the ``--config`` key.
    ``choices`` is the Enum whose values the flag accepts.
    """
    return field(default=default, metadata={"kinds": kinds, "is_list": is_list, "only": only, "choices": choices})


@dataclass(frozen=True)
class CliConfig:
    """Every CLI setting, declared once: the flag ``--name`` (``_`` read as
    ``-``), its ``--config`` key and its type check all come from its field."""

    subcommand: str
    m: int = _setting(2, (int,), _POSED)
    n: int = _setting(1, (int,), _POSED)
    weights: tuple = _setting(("1/2", "1/2"), (str, int, float), _POSED, is_list=True)
    thetas: tuple = _setting((1.0, 1.0), _REAL, _POSED, is_list=True)
    norm: str = _setting(Norm.SUP.value, (str,), _POSED, choices=Norm)
    logT: int = _setting(_EXPERIMENT_DEFAULTS["N"], (int,), ("count", "clt", "covariance"))
    T: float | None = _setting(None, _REAL, ("count",))
    samples: int = _setting(_EXPERIMENT_DEFAULTS["samples"], (int,), _SAMPLED)
    seed: int = _setting(_EXPERIMENT_DEFAULTS["seed"], (int,), ("count",) + _SAMPLED)
    workers: int = _setting(_EXPERIMENT_DEFAULTS["workers"], (int,), _SAMPLED)
    out_dir: str = _setting("results", (str,), _POSED)
    convention: str = _setting(Convention.BOTH_SIGNS.value, (str,), ("count",), choices=Convention)
    lags: tuple = _setting(_EXPERIMENT_DEFAULTS["lags"], (int,), ("covariance", "variance"), is_list=True)
    L_grid: tuple = _setting(_EXPERIMENT_DEFAULTS["L_grid"], _REAL, ("alpha-tail",), is_list=True)
    kappa: float = _setting(_EXPERIMENT_DEFAULTS["kappa"], _REAL, ("alpha-tail",))
    u: tuple | None = _setting(None, _REAL, ("count",), is_list=True)
    n_grid: tuple = _setting(_EXPERIMENT_DEFAULTS["n_grid"], (int,), ("lln",), is_list=True)
    t_base: int = _setting(_EXPERIMENT_DEFAULTS["t_base"], (int,), ("covariance",))
    fast: bool = _setting(False, (bool,), ("selftest",))

    def problem(self) -> ApproximationProblem:
        # weights as strings, so a JSON 0.1 reads as 1/10 rather than as its double
        return validate(ApproximationProblem(self.m, self.n, tuple(map(str, self.weights)), self.thetas, self.norm))

    def experiment(self) -> ExperimentConfig:
        shared = {key: getattr(self, key) for key in _EXPERIMENT_DEFAULTS if key in _SETTINGS}
        return ExperimentConfig(problem=self.problem(), N=self.logT, **shared)


_SETTINGS = {f.name: f for f in dataclasses.fields(CliConfig) if f.metadata}


def _parser(chosen: str | None) -> argparse.ArgumentParser:
    """The parser of every subcommand name, with the flags of ``chosen``
    alone: a run reads no other subcommand's flags."""
    parser = argparse.ArgumentParser(prog="diophlab", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        if name != chosen:
            continue
        p.add_argument("--config", default=None, help="JSON config file; flags override")
        for key, f in _SETTINGS.items():
            row = f.metadata
            if name not in row["only"]:
                continue
            flag = "--" + key.replace("_", "-")
            if row["kinds"] == (bool,):
                p.add_argument(flag, action="store_true", default=None)
            else:
                p.add_argument(
                    flag,
                    type=str if row["is_list"] else row["kinds"][0],
                    choices=row["choices"] and [c.value for c in row["choices"]],
                    default=None,
                    help="comma list" if row["is_list"] else None,
                )
    return parser


def _check_setting(key: str, value):
    """``value`` as the setting holds it (a comma list as a tuple); refuses a
    wrong type here, before it ends in a TypeError deep in a run."""
    f = _SETTINGS[key]
    kinds, is_list = f.metadata["kinds"], f.metadata["is_list"]
    if is_list and isinstance(value, str):
        value = tuple(kinds[0](x) for x in value.split(",") if x != "")

    def fits(x) -> bool:
        return isinstance(x, kinds) and (bool in kinds or not isinstance(x, bool))

    if value is None and f.default is None:
        return None
    if is_list and isinstance(value, (list, tuple)) and all(map(fits, value)):
        return tuple(value)
    if not is_list and fits(value):
        return value
    raise ValidationError(f"setting {key} has the wrong type: {value!r}")


def _join_negative_lists(argv) -> list:
    """argv with each comma-list flag joined to a value that starts like a
    negative number (``--lags -1,0,1`` becomes ``--lags=-1,0,1``): argparse
    reads only a lone negative number as a value, so it took "-1,0,1" for a
    flag.  No flag starts with a digit, so the joined value names no flag."""
    lists = {"--" + key.replace("_", "-") for key, f in _SETTINGS.items() if f.metadata["is_list"]}
    out = []
    for arg in argv:
        if out and out[-1] in lists and re.match(r"-\.?\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def parse_args(argv) -> CliConfig:
    # the top-level parser takes no option with a value, so the first word is the subcommand
    chosen = next((arg for arg in argv if not arg.startswith("-")), None)
    ns = _parser(chosen).parse_args(_join_negative_lists(argv))
    merged = {}
    if ns.config:
        try:
            merged = json.loads(Path(ns.config).read_text())
        except OSError as exc:
            raise ValidationError(f"cannot read config {ns.config}: {exc}") from exc
        if not isinstance(merged, dict):
            raise ValidationError(f"config {ns.config} must hold a JSON object, got {type(merged).__name__}")
    merged.update((key, value) for key, value in vars(ns).items() if key != "config" and value is not None)
    read = {key for key, f in _SETTINGS.items() if ns.subcommand in f.metadata["only"]}
    unread = merged.keys() - read - {"subcommand"}
    if unread:
        raise ValidationError(f"config keys that {ns.subcommand} does not read: {sorted(unread)}")
    if {"T", "logT"} <= merged.keys():
        raise ValidationError("give count one of --T and --logT, not both")
    for key in read & merged.keys():
        merged[key] = _check_setting(key, merged[key])
    if ns.subcommand != "selftest":
        missing = [k for k in ("m", "n", "weights", "thetas") if k not in merged]
        if missing:
            raise ValidationError(f"missing required problem parameters: {missing}")
    cfg = CliConfig(**merged)
    if ns.subcommand != "selftest":
        cfg.problem()  # surface validation errors now
        Convention(cfg.convention)
    return cfg


# ---------------------------------------------------------------------------
# result files

def _write_csv(path: Path, header, rows) -> None:
    with path.open("w") as fh:
        fh.write(f"# schema_version={SCHEMA_VERSION}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(x) if isinstance(x, float) else str(x) for x in row) + "\n")


def _plot_script(sigma2: float | None) -> str:
    """gnuplot script for a clt results.csv, whose third column is D_T."""
    lines = [
        "# gnuplot script: histogram of the normalized counts with the",
        "# centered normal density overlay (variance sigma2).",
        "binwidth = 0.5",
        "bin(x, w) = w * floor(x / w) + w / 2.0",
        "set datafile separator ','",
        "set style fill solid 0.4",
    ]
    if sigma2:
        lines += [
            f"sigma2 = {sigma2!r}",
            "norm(x) = exp(-x*x / (2.0 * sigma2)) / sqrt(2.0 * pi * sigma2)",
            "plot 'results.csv' every ::2 using (bin($3, binwidth)):(1.0) "
            "smooth freq with boxes title 'D_T (rescale by S*binwidth)', \\",
            "     norm(x) with lines lw 2 title 'Norm_sigma density'",
        ]
    else:
        lines += [
            "plot 'results.csv' every ::2 using (bin($3, binwidth)):(1.0) "
            "smooth freq with boxes title 'D_T'",
        ]
    return "\n".join(lines) + "\n"


def _json_text(record, indent=None) -> str:
    """``record`` as JSON, with each non-finite float written as null: RFC 8259
    has no Infinity or NaN (``lln --samples 1`` has stderr = inf)."""

    def finite(x):
        if isinstance(x, float):
            return x if math.isfinite(x) else None
        if isinstance(x, dict):
            return {key: finite(value) for key, value in x.items()}
        if isinstance(x, (list, tuple)):
            return [finite(value) for value in x]
        return x

    return json.dumps(finite(record), indent=indent, default=str, allow_nan=False)


def emit_results(summary: dict, rows, header, out_dir: str, plot: str | None = None) -> dict:
    """Write results.csv, summary.json and, given its text, plot.gp; returns the paths."""
    out = Path(out_dir)
    paths = {"csv": out / "results.csv", "summary": out / "summary.json"}
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(paths["csv"], header, rows)
        paths["summary"].write_text(_json_text(summary, indent=2) + "\n")
        if plot is not None:
            paths["plot"] = out / "plot.gp"
            paths["plot"].write_text(plot)
    except OSError as exc:
        raise ValidationError(f"cannot write results under {out_dir}: {exc}") from exc
    return {key: str(path) for key, path in paths.items()}


# ---------------------------------------------------------------------------
# subcommand drivers (each returns a process exit code)

def _cmd_count(cfg: CliConfig) -> int:
    problem = cfg.problem()
    if cfg.u is not None:
        entries = np.array(cfg.u, dtype=float)
        if entries.size != problem.m * problem.n:
            raise ValidationError(f"u needs m*n = {problem.m * problem.n} entries, got {entries.size}")
        u = MatrixU(entries.reshape(problem.m, problem.n))
    else:
        u = montecarlo.sample_u_at(cfg.seed, 0, problem.m, problem.n)
    try:
        T = float(cfg.T) if cfg.T is not None else math.e**cfg.logT
    except OverflowError as exc:
        raise CapExceededError(f"T = e^{cfg.logT} overflows a float") from exc
    res = count_direct(problem, u, T, Convention(cfg.convention))
    record = {
        "T": res.T,
        "total": res.total,
        "per_block": list(res.per_block),
        "convention": res.convention.value,
        "u": [list(map(float, row)) for row in u.entries],
    }
    print(_json_text(record))
    emit_results(
        record,
        [(s, b) for s, b in enumerate(res.per_block)],
        ("s", "block_count"),
        cfg.out_dir,
    )
    return 0


# results.csv header per experiment that ``_cmd_experiment`` runs: one name
# per field of its result rows, in field order
_CSV_HEADERS = {
    "lln": ("N", "mean", "C_times_N", "gap", "stderr", "finite_T_mean"),
    "covariance": ("s", "empirical_cov", "stderr", "theta_inf", "within"),
    "alpha-tail": ("L", "s", "tail", "wilson_low", "wilson_high", "bound", "within"),
}


def _cmd_experiment(cfg: CliConfig) -> int:
    """Run ``montecarlo.run_<subcommand>``: its rows are results.csv, the
    result less ``passed`` is the summary, and ``passed`` sets the exit code."""
    # looked up per call, so a wrapper installed on the module is the one that runs
    run = getattr(montecarlo, "run_" + cfg.subcommand.replace("-", "_"))
    res = run(cfg.experiment())
    summary = {"experiment": cfg.subcommand, **dataclasses.asdict(res)}
    del summary["passed"]
    emit_results(summary, [dataclasses.astuple(r) for r in res.rows], _CSV_HEADERS[cfg.subcommand], cfg.out_dir)
    print(_json_text(summary))
    return 0 if res.passed else 1


def _cmd_clt(cfg: CliConfig) -> int:
    res = montecarlo.run_clt(cfg.experiment())
    rows = [(i, int(res.delta[i]), float(res.samples[i])) for i in range(len(res.samples))]
    summary = {
        "experiment": "clt",
        "stats": dataclasses.asdict(res.stats),
        "sigma2_theory": res.sigma2_theory,
        "verdict": res.verdict,
        "trace": [dataclasses.asdict(t) for t in res.trace],
        "factor2_diagnostic": res.factor2,
        "theory": dataclasses.asdict(res.constants) if res.constants else None,
        "caveat": f"fixed-seed run (seed={cfg.seed}); convergence in T is slow and unquantified",
    }
    emit_results(summary, rows, ("index", "Delta", "D_T"), cfg.out_dir, _plot_script(res.sigma2_theory))
    print(_json_text(summary))
    return 0 if res.passed else 1


def _cmd_variance(cfg: CliConfig) -> int:
    problem = cfg.problem()
    if not cfg.lags:
        raise ValidationError("lags needs at least one entry")
    consts = theory.constants(problem)
    table = [(s, montecarlo._theta_for_lag(problem, s)) for s in cfg.lags]
    record = {
        "C": consts.C,
        "sigma2": consts.sigma2,
        "zeta_ratio": consts.zeta_ratio,
        "theta_table": table,
    }
    print(_json_text(record))
    emit_results(record, table, ("s", "theta_inf"), cfg.out_dir)
    return 0


# ---------------------------------------------------------------------------
# self-test

def _selftest_checks(fast: bool) -> list:
    """Run the exact suites; returns (name, passed, detail) triples."""
    from diophlab import cumulants, oracles  # only the self-test needs them

    rng = np.random.default_rng(20240817)  # shared, so the checks run in table order
    p21 = validate(ApproximationProblem(m=2, n=1, weights=(Fraction(1, 2), Fraction(1, 2)), thetas=(1.0, 1.0)))

    def oracle_equivalence():
        # direct vs explicit-p brute force; and the tessellation
        ok, detail = True, ""
        for m, n in ((1, 1), (2, 1)):
            w = (Fraction(n),) if m == 1 else (Fraction(n, 2), Fraction(n, 2))
            prob = validate(ApproximationProblem(m=m, n=n, weights=w, thetas=(0.75,) * m))
            for _ in range(3):
                u = MatrixU(rng.random((m, n)))
                T = float(rng.uniform(15, 120))
                a = count_direct(prob, u, T).total
                b = oracles.brute_force_count(prob, u, T)
                if a != b:
                    ok, detail = False, f"(m,n)=({m},{n}) T={T}: direct {a} != brute {b}"
        u = MatrixU(rng.random((2, 1)))
        lat = lattice.lattice_from_u(p21, u)
        total = count_direct(p21, u, math.e**4).total
        pieces = sum(lattice.siegel_transform_box(p21, lat, s) for s in range(4))
        if total != pieces:
            ok, detail = False, f"tessellation: {total} != {pieces}"
        return ok, detail

    def cumulant_vanishing():
        ok, detail = True, ""
        for trial in range(10):
            dist = _random_rational_distribution(rng, n_points=3, n_obs=4)
            for r in (2, 3, 4):
                obs = list(range(r))
                for Q in cumulants.set_partitions(r):
                    if len(Q) < 2:
                        continue
                    val = cumulants.conditional_cumulant(dist, obs, Q)
                    if val != 0:
                        ok, detail = False, f"trial {trial} r={r} Q={Q.blocks}: {val}"
        return ok, detail

    def covering():
        ok, detail = True, ""
        ladder = cumulants.LadderParams(gamma=1.5, r=2)
        for s1 in range(25):
            for s2 in range(25):
                label = cumulants.classify_tuple((s1, s2), ladder)
                if not cumulants.piece_contains((0.0, float(s1), float(s2)), label, ladder):
                    ok, detail = False, f"tuple ({s1},{s2})"
        return ok, detail

    def divisor_sum():
        ok, detail = True, ""
        for q in range(1, 81):
            for ell in range(1, q + 1):
                for P in (q, 2 * q):
                    if theory.n_solutions(q, ell, P) != theory.n_solutions_brute(q, ell, P):
                        ok, detail = False, f"q={q} ell={ell} P={P}"
        if theory.inner_divisor_sum(12, 1, 12) != sum(theory.n_solutions_brute(12, e, 12) for e in range(1, 13)):
            ok, detail = False, "inner sum at q=12"
        return ok, detail

    def sigma2_identity():
        # the sum of Theta over lags reproduces the variance constant
        sigma2 = theory.constants(p21).sigma2
        series = math.fsum(theory.theta_infinity(p21, s, 800) for s in range(-9, 10))
        return abs(series - sigma2) <= 5e-3 * sigma2, f"series={series:.6f} sigma2={sigma2:.6f}"

    def siegel_mean():
        r = montecarlo.run_siegel_mean(ExperimentConfig(problem=p21, samples=400, seed=7), s_list=(4,)).rows[0]
        return r.within, f"mean={r.mean:.3f} theory={r.theory:.3f}"

    table = [
        ("oracle-equivalence", oracle_equivalence),
        ("conditional-cumulant-vanishing", cumulant_vanishing),
        ("decomposition-covering", covering),
        ("divisor-sum", divisor_sum),
        ("sigma2-identity", sigma2_identity),
    ]
    if not fast:
        table.append(("siegel-mean-smoke", siegel_mean))
    checks = []
    for name, check in table:
        try:
            ok, detail = check()
        except Exception as exc:  # pragma: no cover - defensive
            ok, detail = False, repr(exc)
        checks.append((name, ok, detail))
    return checks


def _random_rational_distribution(rng, n_points: int, n_obs: int):
    from diophlab.cumulants import FiniteDistribution

    weights = [int(rng.integers(1, 6)) for _ in range(n_points)]
    denom = sum(weights)
    probs = [Fraction(w, denom) for w in weights]
    values = [
        tuple(Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))) for _ in range(n_obs))
        for _ in range(n_points)
    ]
    return FiniteDistribution(tuple(probs), tuple(values))


def selftest(fast: bool = False) -> tuple[int, list]:
    """Run the exact suites; returns (exit_code, checks)."""
    t0 = time.time()
    checks = _selftest_checks(fast)
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail and not ok else ""))
    print(f"selftest finished in {time.time() - t0:.1f}s")
    return (0 if all(ok for _, ok, _ in checks) else 1), checks


def _cmd_selftest(cfg: CliConfig) -> int:
    return selftest(fast=bool(cfg.fast))[0]


_DRIVERS = {
    "count": _cmd_count,
    "lln": _cmd_experiment,
    "clt": _cmd_clt,
    "covariance": _cmd_experiment,
    "alpha-tail": _cmd_experiment,
    "variance": _cmd_variance,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code) if exc.code else 0
    except ValueError as exc:  # ValidationError, or a malformed --config value
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return _DRIVERS[cfg.subcommand](cfg)
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
