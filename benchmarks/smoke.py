"""Smoke test of the benchmark itself, at tiny sizes.

    python3 benchmarks/smoke.py

Run from the root of a source checkout; exits 0 when every check passes.

1. Each workload runs once with ``--trace 0`` and once with ``--trace 1``;
   the last stdout line must carry exactly the metric names and units that
   BENCHMARK.json lists, with ``correct`` true and nothing failed.
2. The correctness gate fires when handed a wrong expected count or a wrong
   expected digest.  Only the expectation is corrupted, never the program.
3. In a directory that holds only BENCHMARK.json and the benchmark files, the
   command exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import run
from workloads import WORKLOADS

ROOT = run.ROOT
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    if cwd == ROOT:
        cmd.append("--smoke")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_output(workload: str, trace: int, problems: list) -> None:
    proc = run_bench(workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} of {result['attempted']}")
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metric names/units differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(got))}, extra {sorted(set(got) - set(expected))}, "
                        f"unit mismatches {sorted(n for n in got if n in expected and got[n] != expected[n])}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{where}: {name} = {m['value']!r} is not a finite number")


def check_count_gate(problems: list) -> None:
    """A spot-check pair with a wrong oracle count must be reported."""
    sys.path.insert(0, str(run.SRC))
    from diophlab import cli

    out_dir = run.OUT / "smoke-gate"
    argv = WORKLOADS["clt-n1-deep"].argv(0, smoke=True) + ["--out-dir", str(out_dir)]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc not in (0, 1):
        problems.append("count gate: the tiny clt run failed")
        return
    pairs = checks.oracle_pairs(cli.parse_args(argv), out_dir / "results.csv", "smoke")
    shutil.rmtree(out_dir, ignore_errors=True)
    if not pairs or checks.mismatches(pairs):
        problems.append(f"count gate: honest pairs should all agree: {checks.mismatches(pairs) or 'no pairs'}")
        return
    for k in (0, len(pairs) - 1):  # a shell count and the results.csv Delta column
        label, oracle, production = pairs[k]
        corrupted = list(pairs)
        corrupted[k] = (label, oracle + 1, production)
        if checks.mismatches(corrupted) != [corrupted[k]]:
            problems.append(f"count gate did not fire for a wrong expected count at {label}")


def check_digest_gate(problems: list) -> None:
    """A child whose digest differs from the expected one must be judged failed."""
    record = json.loads((run.OUT / "clt-n1-deep-seed0-trace0-smoke.json").read_text())
    child = record["children"][0]
    if run.judge(child, record["digest"]) is not None:
        problems.append("digest gate: the honest child was judged failed")
    wrong = "0" * 64 if record["digest"] != "0" * 64 else "1" * 64
    if run.judge(child, wrong) is None:
        problems.append("digest gate did not fire for a wrong expected digest")
    if not record["digest_pinned"]:
        problems.append("digest gate: no digest is pinned for the tiny clt run at seed 0")


def check_bare_directory(problems: list) -> None:
    bare = run.OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "benchmarks", bare / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("lln-n1", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    problems: list = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_output(workload, trace, problems)
            print(f"ran {workload} --trace {trace}", flush=True)
    check_count_gate(problems)
    check_digest_gate(problems)
    check_bare_directory(problems)
    for p in problems:
        print("FAIL:", p)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
