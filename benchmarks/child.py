"""One fresh child process of the benchmark.

Modes:
  experiment  run ``diophlab.cli.main(argv)`` in process, optionally traced;
              record setup and wall time, peak RSS, exit code and the
              results.csv digest
  check       oracle spot-checks for a finished experiment (outside any
              timed region)
  probes      the fixed layer-probe table, traced (the source of the
              lattice.* metrics)

The record is written as JSON to ``--record``.  ``setup_s`` runs from the
parent's spawn time (``--t-spawn``, CLOCK_MONOTONIC, which is shared by all
processes) to the end of ``import diophlab.cli``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("experiment", "check", "probes"))
    ap.add_argument("--src", required=True)
    ap.add_argument("--record", required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--argv", default="[]", help="JSON list: the CLI argv")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--results", default=None, help="results.csv of the checked run")
    ap.add_argument("--key", default="", help="seeds the choice of spot-checked samples")
    opts = ap.parse_args()

    sys.path.insert(0, opts.src)
    import diophlab.cli

    record = {"setup_s": time.monotonic() - opts.t_spawn}
    argv = json.loads(opts.argv)
    try:
        if opts.mode == "experiment":
            record.update(_experiment(diophlab.cli, argv, bool(opts.trace)))
        elif opts.mode == "check":
            record.update(_check(diophlab.cli, argv, opts.results, opts.key))
        else:
            record.update(_probes())
    except Exception:  # recorded and counted as a failed operation by the parent
        record["error"] = traceback.format_exc()
    Path(opts.record).write_text(json.dumps(record))
    return 1 if "error" in record else 0


def _experiment(cli, argv, traced: bool) -> dict:
    import checks
    import spans

    tracer = spans.Tracer()
    if traced:
        tracer.install()
    try:
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    out = {
        "rc": rc,
        "wall_s": wall,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    results = Path(argv[argv.index("--out-dir") + 1]) / "results.csv"
    out["digest"] = checks.file_sha256(results) if results.exists() else None
    if traced:
        out["trace"] = tracer.dump()
    return out


def _check(cli, argv, results: str, key: str) -> dict:
    import checks

    cfg = cli.parse_args(argv)
    t0 = time.perf_counter()
    pairs = checks.oracle_pairs(cfg, Path(results), key)
    return {"pairs": pairs, "check_s": time.perf_counter() - t0}


def _probes() -> dict:
    import probes
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        return {"probes": probes.run(tracer), "trace": tracer.dump()}
    finally:
        tracer.uninstall()


if __name__ == "__main__":
    sys.exit(main())
