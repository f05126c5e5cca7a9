"""Tests of the benchmark itself: python3 -m pytest perfbench

The end-to-end cases start the benchmark from its command line, for one
second of operator-serial per mode, so the file takes about half a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import fracharm.experiments as experiments  # noqa: E402
import fracharm.kernels as kernels  # noqa: E402
import fracharm.maximal as maximal  # noqa: E402
from fracharm.config import ExperimentConfig  # noqa: E402
from fracharm.grid import Cube  # noqa: E402
from run import END_TO_END, tail  # noqa: E402
from tracer import PER_LAYER, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _stats(spans, name):
    return [s for s in spans if s.name == name]


def test_metric_lists_match_benchmark_json():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(PER_LAYER)


def test_tail_is_eleventh_largest():
    xs = [float(i) for i in range(40)]
    value, pct = tail(xs)
    assert value == 29.0
    assert sum(x > value for x in xs) == 10
    assert pct == 75.0


def test_tracer_rebinds_every_namespace_and_restores():
    original = maximal.hl_maximal
    cfg = ExperimentConfig.from_dict({
        "experiment": "fefferman-stein", "n": 1, "gamma": 0.5,
        "p": 1.3333333333333333, "q": 4.0, "vector_r": 2.0, "vector_count": 2,
        "grid": {"box": [[-2, 2]], "h": 0.03125},
        "corpus": {"seed": 3, "count": 2}, "sweep": {"ks": [0, 1]},
    })
    f = Cube((0.5,), 1.0).indicator(((-2.0, 2.0),), 0.03125)
    with Tracer() as tracer:
        assert experiments.hl_maximal is not original
        experiments.run_experiment(cfg)  # calls through fracharm.experiments
        maximal.iterated_maximal(f, 3)   # calls through fracharm.maximal
    assert experiments.hl_maximal is original
    assert maximal.hl_maximal is original
    # 2 trials x 2 components x 2 scales, plus the 3 iterations
    assert len(_stats(tracer.spans, "maximal.hl_maximal")) == 2 * 2 * 2 + 3
    # the off-diagonal pairing: one per trial and scale
    assert len(_stats(tracer.spans, "maximal.frac_maximal")) == 2 * 2
    assert len(_stats(tracer.spans, "experiments.run_experiment")) == 1
    iterated = _stats(tracer.spans, "maximal.iterated_maximal")[0]
    children = [s for s in tracer.spans if s.parent == iterated.span_id]
    assert [s.name for s in children] == ["maximal.hl_maximal"] * 3


def test_operator_tuples_are_computed_from_arguments():
    cfg = ExperimentConfig.from_dict({
        "experiment": "frac-hardy", "m": 2, "n": 1, "gamma": 0.5,
        "exponents": [1.0, 1.0], "grid": {"box": [[-2, 2]], "h": 0.03125},
        "corpus": {"seed": 11, "count": 2, "side_exponents": [-3, -1]},
        "sweep": {"ks": [0, 1]},
    })
    with Tracer() as tracer:
        experiments.run_experiment(cfg)
    ops = _stats(tracer.spans, "kernels.apply_frac_operator")
    # 2 trials x 2 scales on the grid, plus one point evaluation per
    # product-bound diagnostic: 2 side configs x 2 scales
    checks = _stats(tracer.spans, "kernels.local_product_bound_check")
    assert len(checks) == 2 * 2
    assert sorted(s.parent for s in ops if s.parent is not None) == sorted(
        s.span_id for s in checks)
    assert len(ops) == 2 * 2 + 2 * 2
    m = layer_metrics(tracer.spans, wall=1.0)
    assert m["kernels.apply_frac_operator.calls"] == len(ops)
    assert m["kernels.apply_frac_operator.tuples"] == sum(
        s.probe["tuples"] for s in ops)
    assert set(name for name, _ in PER_LAYER) <= set(m)

    # by hand: 128 points x 32 x 32 support cells of two unit indicators
    f = Cube((0.5,), 1.0).indicator(((-2.0, 2.0),), 0.03125)
    with Tracer() as tracer:
        kernels.apply_frac_operator(kernels.KenigSteinKernel(m=2, n=1, gamma=0.5),
                                    [f, f])
    assert tracer.spans[0].probe == {"tuples": 128 * 32 * 32, "grid": 128}


def _bench(*args):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], capture_output=True,
        text=True, timeout=170, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    base = ["--workload", "operator-serial", "--seed", "7", "--seconds", "1"]
    return {trace: _bench(*base, "--trace", str(trace)) for trace in (0, 1)}


@pytest.mark.parametrize("trace,expected", [(0, END_TO_END), (1, PER_LAYER)])
def test_result_line_prints_every_metric_with_its_unit(runs, trace, expected):
    _details, result = runs[trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)


def test_traced_and_untraced_reports_are_byte_identical(runs):
    plain, _ = runs[0]
    traced, _ = runs[1]
    assert traced["trace_mismatch"] == []
    assert traced["pool_mismatch"] == [] and traced["pool_workers"] >= 2
    assert traced["untraced_digest"] == traced["report_digest"]
    assert traced["report_digest"] == plain["report_digest"]
    assert plain["replay_matches"] and traced["replay_matches"]


def test_refuses_a_directory_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "operator-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
