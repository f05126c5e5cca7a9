"""fracharm benchmark: time verify calls end to end, or trace them by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout (the package is imported from
its ``src/``).  With ``--trace 0`` the last line of standard output is the
end-to-end result, with ``--trace 1`` the per-layer result; the line before
it carries the run's details: report digest, failures with their base, the
tail percentile and its sample count, and the environment.

Each run starts fresh interpreters: set-up probes (``--trace 0`` only) and
one measuring process with every thread count at 1, then a replay of call 0
with the thread variables unset (trial pool and BLAS at their defaults),
whose report bytes must match.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, default_env, serial_env  # noqa: E402

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("rows_per_s", "1/s"),
    ("verify_p50_s", "s"),
    ("verify_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("passed_frac", "ratio"),
    ("oracle_rel_err", "ratio"),
)


def tail(latencies: list) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: the
    eleventh-largest latency, and its percentile rank.  With ten samples or
    fewer no such percentile exists and the maximum stands in."""
    xs = sorted(latencies)
    if len(xs) <= 10:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def _child(mode: str, args, env: dict, work: Path) -> None:
    cmd = [sys.executable, str(HERE / "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work)]
    subprocess.run(cmd, env=env, check=True, timeout=CHILD_TIMEOUT_S,
                   stdout=sys.stderr)


def _setup_seconds(args, env: dict, work: Path) -> list:
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        _child("setup", args, env, work)
        times.append(time.perf_counter() - t0)
    return times


def run(args) -> tuple[dict, dict]:
    env = serial_env(os.environ)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = [] if args.trace else _setup_seconds(args, env, work)
        _child("measure", args, env, work)
        _child("replay", args, default_env(os.environ), work)
        measured = json.loads((work / "measure.json").read_text())
        replayed = json.loads((work / "replay.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calls = measured["calls"]
    replay_ok = (replayed["digest"] is not None
                 and replayed["digest"] == calls[0]["digest"])
    failures = [c for c in calls if c["error"] or not c["passed"]]
    if not replay_ok and calls[0] not in failures:
        failures.append(calls[0])
    oracle = measured["oracle"]
    oracle_ok = oracle["oracle_rel_err"] <= oracle["tolerance"]
    mismatch = (measured.get("trace_mismatch", [])
                + measured.get("pool_mismatch", []))
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "report_digest": measured["report_digest"],
        "report_digest_calls": measured["cycle_length"],
        "attempted": len(calls),
        "failed": len(failures),
        "failed_frac": len(failures) / len(calls),
        "failures": [{k: c[k] for k in ("index", "label", "seed", "error")}
                     for c in failures],
        "replay_matches": replay_ok,
        "replay_environment": "FRACHARM_THREADS, OPENBLAS_NUM_THREADS and "
                              "OMP_NUM_THREADS unset",
        "oracle": oracle,
        "grids": WORKLOADS[args.workload].grids,
        "environment": measured["environment"],
    }
    if args.trace:
        details["untraced_digest"] = measured["untraced_digest"]
        details["trace_mismatch"] = measured["trace_mismatch"]
        details["pool_mismatch"] = measured["pool_mismatch"]
        details["pool_workers"] = measured["pool_workers"]
        values = measured["metrics"]
        units = dict(PER_LAYER)
    else:
        latencies = [c["latency_s"] for c in calls]
        tail_s, tail_pct = tail(latencies)
        details.update(verify_tail_pct=tail_pct, verify_calls=len(latencies),
                       setup_probes_s=setup, rows=sum(c["rows"] for c in calls))
        values = {
            "rows_per_s": details["rows"] / sum(latencies),
            "verify_p50_s": statistics.median(latencies),
            "verify_tail_s": tail_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mib": measured["peak_rss_mib"],
            "passed_frac": 1.0 - details["failed_frac"],
            "oracle_rel_err": oracle["oracle_rel_err"],
        }
        units = dict(END_TO_END)
    result = {
        "correct": not failures and oracle_ok and not mismatch,
        "attempted": len(calls),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": units[name]}
                    for name, v in values.items()},
    }
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fracharm" / "__init__.py").is_file() or \
            not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} is not a fracharm checkout (no src/fracharm or "
              "configs/)", file=sys.stderr)
        return 2
    try:
        details, result = run(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"error: benchmark child failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
