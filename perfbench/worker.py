"""The benchmark's child processes: set-up probe, measurement, and replay.

``run.py`` starts this file in a fresh interpreter with the thread
environment already set, so BLAS sees it before numpy loads:

* ``setup``   imports fracharm and builds the workload's configs, then exits;
* ``measure`` runs the timed loop (and, with ``--trace 1``, the traced loop,
  the same calls untraced, and the first cycle again on the trial pool) and
  writes a JSON result;
* ``replay``  runs call 0 alone and writes its report digest.

A verify call is what ``fracharm verify`` does: ``ExperimentConfig.from_dict``,
``run_experiment``, ``write_report_json``, ``write_trials_csv``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from oracles import ORACLES  # noqa: E402
from workloads import CallFactory  # noqa: E402


def _build(workload: str, seed: int):
    """Import fracharm and build every config of one cycle."""
    from fracharm.config import ExperimentConfig

    factory = CallFactory(ROOT, workload, seed)
    for i in range(factory.cycle_length):
        ExperimentConfig.from_dict(factory.config(i))
    return factory


def verify(factory: CallFactory, out: Path, index: int) -> dict:
    """One timed verify call; its outputs are hashed after the clock stops."""
    # names are looked up at call time, so a tracer's rebinding is seen
    from fracharm import config as fconfig, experiments, reports

    config = factory.config(index)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    csv_path = out / "trials.csv"
    error = None
    passed = False
    t0 = time.perf_counter()
    try:
        cfg = fconfig.ExperimentConfig.from_dict(config)
        report = experiments.run_experiment(cfg)
        reports.write_report_json(report_path, report)
        reports.write_trials_csv(csv_path, report.trial_rows())
        passed = bool(report.passed)
    except Exception as e:  # a failed call is counted, not fatal
        error = f"{type(e).__name__}: {e}"
    latency = time.perf_counter() - t0
    digest, rows = None, 0
    if error is None:
        report_bytes = report_path.read_bytes()
        csv_bytes = csv_path.read_bytes()
        digest = hashlib.sha256(report_bytes + csv_bytes).hexdigest()
        rows = csv_bytes.count(b"\n") - 1
    return {"index": index, "label": factory.label(index),
            "seed": config["corpus"]["seed"], "latency_s": latency,
            "passed": passed, "error": error, "digest": digest, "rows": rows}


def _loop(factory: CallFactory, out: Path, seconds: float,
          on_call=None) -> tuple[list, float]:
    """Closed loop over the cycle for ``seconds``, at least one whole cycle."""
    calls = []
    start = time.perf_counter()
    index = 0
    while (index < factory.cycle_length
           or time.perf_counter() - start < seconds):
        if on_call is not None:
            on_call(index)
        calls.append(verify(factory, out, index))
        index += 1
    return calls, time.perf_counter() - start


def cycle_digest(calls: list, cycle_length: int) -> str:
    """sha256 over the reports and CSVs of the first cycle (speed-independent)."""
    h = hashlib.sha256()
    for c in calls[:cycle_length]:
        h.update((c["digest"] or "failed").encode())
    return h.hexdigest()


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _environment() -> dict:
    import numpy
    import scipy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version",
                                                  "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown"}
    return {
        "cpu_count": os.cpu_count(),
        "nproc": _nproc(),
        "blas": blas,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "threads": {k: os.environ.get(k) for k in (
            "FRACHARM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _pool_pass(factory: CallFactory, out: Path, calls: list) -> dict:
    """``calls`` again, traced, on the trial pool: one worker per core and
    at least two.  BLAS keeps the one thread it was started with."""
    from tracer import Tracer, pool_busy_frac

    workers = max(2, _nproc())
    saved = os.environ.get("FRACHARM_THREADS")
    os.environ["FRACHARM_THREADS"] = str(workers)  # read by every run_experiment
    try:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with Tracer() as tracer:
            pooled = [verify(factory, out, c["index"]) for c in calls]
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    finally:
        if saved is None:
            del os.environ["FRACHARM_THREADS"]
        else:
            os.environ["FRACHARM_THREADS"] = saved
    return {
        "workers": workers,
        "mismatch": [c["index"] for c, p in zip(calls, pooled)
                     if c["digest"] != p["digest"]],
        "metrics": {
            "experiments.pool_busy_frac": pool_busy_frac(tracer.spans, wall, workers),
            "experiments.pool_speedup": (sum(c["latency_s"] for c in calls)
                                         / sum(p["latency_s"] for p in pooled)),
            "experiments.cpu_util": cpu / (wall * _nproc()),
        },
    }


def measure(args) -> dict:
    factory = _build(args.workload, args.seed)
    out = args.work / "measure"
    result = {"environment": _environment()}
    if args.trace:
        from tracer import Tracer, layer_metrics

        with Tracer() as tracer:
            traced, traced_wall = _loop(factory, out, args.seconds / 2.0,
                                        tracer.begin_call)
        t0 = time.perf_counter()
        untraced = [verify(factory, out, c["index"]) for c in traced]
        plain_wall = time.perf_counter() - t0
        pool = _pool_pass(factory, out, traced[:factory.cycle_length])
        metrics = layer_metrics(tracer.spans, traced_wall)
        metrics.update(pool["metrics"])
        metrics["trace_overhead_frac"] = traced_wall / plain_wall - 1.0
        mismatch = [c["index"] for c, u in zip(traced, untraced)
                    if c["digest"] != u["digest"]]
        result.update(calls=traced, metrics=metrics, trace_mismatch=mismatch,
                      untraced_digest=cycle_digest(untraced, factory.cycle_length),
                      pool_mismatch=pool["mismatch"], pool_workers=pool["workers"])
    else:
        result["calls"], _wall = _loop(factory, out, args.seconds)
    result["report_digest"] = cycle_digest(result["calls"], factory.cycle_length)
    result["cycle_length"] = factory.cycle_length
    result["oracle"] = ORACLES[args.workload]()
    result["peak_rss_mib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def replay(args) -> dict:
    return verify(_build(args.workload, args.seed), args.work / "replay", 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "replay"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        _build(args.workload, args.seed)
        return 0
    result = measure(args) if args.mode == "measure" else replay(args)
    (args.work / f"{args.mode}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
