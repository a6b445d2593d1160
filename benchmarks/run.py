"""diophlab benchmark: closed-loop CLI experiments, each in a fresh child process.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from its
``src/``).  One caller runs the workload's experiment through
``diophlab.cli.main(argv)`` in a fresh child, waits for it, and starts the
next one until ``--seconds`` are used; every child gets the same argv, made
from ``--seed``.  Exit code 1 of the CLI (a statistical verdict failed) is
a successful run.  After the loop, outside the timed region, oracle
spot-checks recompute a few seeded samples exactly.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, medians over
the children.  ``--trace 1`` alternates untraced and traced children and
reports the per-layer metrics (medians over traced children), the tracing
overhead, the fixed layer-probe table (which is also where the lattice.*
metrics come from) and the spot-check cost.  The last
stdout line is the JSON result; the lines before it are a readable table and
the environment record.  Full records and spans are written under
``.bench_out/`` in the checkout.  ``--smoke`` runs tiny sizes for the
benchmark's own smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PINS = HERE / "pinned.json"
RUN_LIMIT_S = 170  # every child is stopped by then, so one run ends well within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "passed_frac": "frac",
}
PER_LAYER_UNITS = {
    "counting.kernel_build_s": "s",
    "counting.kernel_q_points": "count",
    "counting.kernel_bytes_computed": "bytes",
    "counting.block_counts_calls": "count",
    "counting.block_counts_ms_p50": "ms",
    "counting.block_counts_ms_p95": "ms",
    "counting.per_q_s": "s",
    "counting.escalations_per_sample": "count",
    "counting.escalation_s": "s",
    "counting.escalation_share": "frac",
    "counting.float_path_ns_per_q": "ns",
    "lattice.alpha_calls": "count",
    **{f"lattice.alpha_ms_{q}_s{s}": "ms" for s in layers.ALPHA_FLOW_TIMES for q in ("p50", "p95")},
    "lattice.lll_s": "s",
    "lattice.fp_calls": "count",
    "lattice.fp_vectors": "count",
    "lattice.fp_s": "s",
    "lattice.scan_s": "s",
    "lattice.covolume_rounds_per_call": "count",
    "theory.theta_infinity_calls": "count",
    "theory.theta_infinity_distinct_args": "count",
    "theory.busy_s": "s",
    "theory.zeta_calls": "count",
    "montecarlo.self_s": "s",
    "montecarlo.sample_u_s": "s",
    "montecarlo.parallelism": "cpu_s/s",
    "cli.self_s": "s",
    "cli.emit_s": "s",
    "oracles.check_s": "s",
    "trace_overhead_frac": "frac",
    "counting.block_counts_ms_N10": "ms",
    "counting.block_counts_ms_N12": "ms",
    "counting.block_counts_ms_N14": "ms",
    "counting.escalations_per_sample_N10": "count",
    "counting.escalations_per_sample_N12": "count",
    "counting.escalations_per_sample_N14": "count",
    "lattice.alpha_ms_d3": "ms",
    "lattice.alpha_ms_d4": "ms",
    "theory.theta_infinity_s_P3000": "s",
}


class Runner:
    def __init__(self, workload, seed: int, trace: bool, smoke: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.smoke = smoke
        self.work = work
        self.t_start = time.monotonic()
        self.children = 0
        self.env = dict(os.environ, TMPDIR=str(work))

    def remaining(self) -> float:
        return self.t_start + RUN_LIMIT_S - time.monotonic()

    def child(self, mode: str, *extra: str) -> dict:
        """Run one child to completion; its record, or {"error": ...}."""
        self.children += 1
        record = self.work / f"child{self.children}.json"
        timeout = self.remaining()
        if timeout < 1:
            return {"error": "no time left in the run"}
        cmd = [sys.executable, str(HERE / "child.py"), mode, "--src", str(SRC), "--record", str(record)]
        try:
            proc = subprocess.run(
                cmd + ["--t-spawn", repr(time.monotonic()), *extra],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"{mode} child timed out"}
        if not record.exists():
            return {"error": f"{mode} child exited {proc.returncode}: {proc.stderr[-2000:]}"}
        out = json.loads(record.read_text())
        record.unlink()
        return out

    def experiment(self, traced: bool) -> dict:
        out_dir = self.work / f"out{self.children + 1}"
        argv = self.workload.argv(self.seed, self.smoke) + ["--out-dir", str(out_dir)]
        rec = self.child("experiment", "--argv", json.dumps(argv), "--trace", str(int(traced)))
        rec["traced"] = traced
        rec["results"] = str(out_dir / "results.csv")
        return rec


def judge(rec: dict, expected_digest: str | None) -> str | None:
    """Why an experiment child went wrong, or None."""
    if "error" in rec:
        return rec["error"].strip().splitlines()[-1]
    if rec["rc"] not in (0, 1):
        return f"CLI exit code {rec['rc']}"
    if rec["digest"] is None:
        return "no results.csv"
    if expected_digest is not None and rec["digest"] != expected_digest:
        return f"results.csv digest {rec['digest'][:12]} != expected {expected_digest[:12]}"
    return None


def environment(args, argv_sha: str) -> dict:
    from importlib import metadata

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "argv_sha256": argv_sha,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": caches,
        "calibration_s": calibration_seconds(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def calibration_seconds() -> float:
    """Best of three runs of a fixed interpreter loop: host drift context, not a metric."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own smoke test")
    args = ap.parse_args()

    if not (SRC / "diophlab" / "cli.py").is_file():
        print(f"error: no diophlab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    argv_sha = workload.argv_sha256(args.smoke)
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        env = environment(args, argv_sha)
        runner = Runner(workload, args.seed, bool(args.trace), args.smoke, work)
        report = measure(runner, args, pins, argv_sha)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["env"] = env
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    spans = report.pop("spans", None)
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if report["metrics"] is None:
        print(f"error: no experiment child finished: {report['failures']}", file=sys.stderr)
        return 1
    print_table(report)
    print("env " + json.dumps(env))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": report["metrics"][k], "unit": units[k]} for k in units},
    }))
    return 0


def measure(runner: Runner, args, pins: dict, argv_sha: str) -> dict:
    expected = checks.pinned_digest(pins, argv_sha, args.seed)
    pinned = expected is not None
    rounds = []  # one (untraced,) or (untraced, traced) pair per loop iteration
    loop_end = runner.t_start + args.seconds
    while True:
        t0 = time.monotonic()
        rounds.append([runner.experiment(traced) for traced in ((False, True) if runner.trace else (False,))])
        if any("timed out" in rec.get("error", "") for rec in rounds[-1]):
            break
        if time.monotonic() + (time.monotonic() - t0) > loop_end:
            break

    experiments = [rec for pair in rounds for rec in pair]
    if expected is None:  # unpinned seed: every child must still agree with the first
        expected = next((rec["digest"] for rec in experiments if judge(rec, None) is None), None)
    failures = []
    for rec in experiments:
        rec["failure"] = judge(rec, expected)
        if rec["failure"]:
            failures.append(rec["failure"])
    attempted = len(experiments)
    good = [rec for rec in experiments if rec["failure"] is None]

    check = {"error": "no finished experiment to check"}
    if good:
        argv = runner.workload.argv(args.seed, args.smoke) + ["--out-dir", str(runner.work)]
        check = runner.child(
            "check", "--argv", json.dumps(argv), "--results", good[0]["results"],
            "--key", f"{args.workload}:{args.seed}",
        )
    if "error" in check:
        attempted += 1
        failures.append("oracle check: " + check["error"].strip().splitlines()[-1])
    else:
        attempted += len(check["pairs"])
        for label, oracle, production in checks.mismatches(check["pairs"]):
            failures.append(f"oracle mismatch at {label}: oracle {oracle} != production {production}")

    report = {
        "argv": runner.workload.argv(args.seed, args.smoke),
        "digest": expected,
        "digest_pinned": pinned,
        "children": [{k: v for k, v in rec.items() if k != "trace"} for rec in experiments],
        "check": check,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "not_observed": [],
        "metrics": None,
    }
    untraced = [rec for rec in good if not rec["traced"]]
    traced = [rec for rec in good if rec["traced"]]
    if not runner.trace:
        if untraced:
            report["metrics"] = {
                "setup_s": statistics.median(rec["setup_s"] for rec in untraced),
                "wall_s": statistics.median(rec["wall_s"] for rec in untraced),
                "samples_per_s": statistics.median(runner.workload.units(args.smoke) / rec["wall_s"] for rec in untraced),
                "peak_rss_mb": statistics.median(rec["rss_mb"] for rec in untraced),
                "passed_frac": (attempted - len(failures)) / attempted,
            }
        return report

    probe = runner.child("probes")
    report["attempted"] += 1
    if "error" in probe:
        failures.append("probes: " + probe["error"].strip().splitlines()[-1])
    report["failed"] = len(failures)
    if not traced:
        return report
    metrics = layers.median_metrics([layers.metrics(rec["trace"]) for rec in traced])
    ratios = [b["wall_s"] / a["wall_s"] for a, b in rounds if a["failure"] is None and b["failure"] is None]
    metrics["trace_overhead_frac"] = statistics.median(ratios) - 1.0 if ratios else 0.0
    if "check_s" in check:
        metrics["oracles.check_s"] = check["check_s"]
    metrics.update(probe.get("probes", {}))
    missing = set(traced[0]["trace"]["missing"])
    if "trace" in probe:  # no kept workload runs the lattice layer; the alpha probes do
        metrics.update((k, v) for k, v in layers.metrics(probe["trace"]).items() if k.startswith("lattice."))
        missing |= set(probe["trace"]["missing"])
    unobserved = layers.not_observed(missing) + [n for n in PER_LAYER_UNITS if n not in metrics]
    for name in unobserved:
        metrics[name] = 0.0
    report["metrics"] = metrics
    report["not_observed"] = unobserved
    report["spans"] = {"experiments": [rec["trace"] for rec in traced], "probes": probe.get("trace")}
    return report


def print_table(report: dict) -> None:
    env = report["env"]
    trace = env["trace"]
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    print(f"workload {env['workload']}  seed {env['seed']}  trace {trace}  "
          f"children {len(report['children'])}  argv: diophlab {' '.join(report['argv'])}")
    for name, unit in units.items():
        value = report["metrics"][name]
        shown = "not observed" if name in report["not_observed"] else f"{value:.6g}"
        print(f"  {name:40s} {shown:>14s} {unit}")
    failed_frac = report["failed"] / report["attempted"]
    print(f"  {'failed_frac':40s} {failed_frac:14.6g} frac ({report['failed']} of {report['attempted']})")
    status = "pinned" if report["digest_pinned"] else "not pinned for this seed"
    print(f"  results.csv sha256 {report['digest']} ({status})")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")


if __name__ == "__main__":
    sys.exit(main())
