"""Per-trial ratio records, trend statistics, and deterministic report files.

An inequality with an implicit constant is scored by three aggregates over a
corpus of trials: the largest LHS/RHS ratio, its mean, and the least-squares
slope of log(ratio) against log(scale) over a dilation sweep.  A bounded
implicit constant shows up as a finite max and a near-zero slope; a missing
or wrong homogeneity shows up as a slope the gate rejects.

File output is byte-deterministic: floats are written with repr (shortest
round-trip form), CSV rows in trial order, JSON with sorted keys.  Non-finite
floats are encoded as the strings "inf", "-inf", "nan" in JSON, which keeps
the files strict-parser friendly while still recording blowups.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "TrialRow",
    "RatioReport",
    "AnnuliReport",
    "ChainStep",
    "ChainReport",
    "trend_slope",
    "write_trials_csv",
    "write_report_json",
    "json_safe",
    "CSV_HEADER",
]

CSV_HEADER = "trial,scale_k,lhs,rhs,ratio"


@dataclass(frozen=True)
class TrialRow:
    """One measured comparison: LHS vs RHS at one trial and sweep position."""

    trial: int
    scale_k: int
    lhs: float
    rhs: float
    ratio: float

    @classmethod
    def make(cls, trial: int, scale_k: int, lhs: float, rhs: float) -> "TrialRow":
        lhs = float(lhs)
        rhs = float(rhs)
        if rhs > 0.0:
            ratio = lhs / rhs
        elif lhs > 0.0:
            ratio = math.inf
        else:
            ratio = math.nan
        return cls(int(trial), int(scale_k), lhs, rhs, ratio)


def trend_slope(rows) -> float:
    """Least-squares slope of log(ratio) against log(2**scale_k).

    Rows without a finite positive ratio are left out of the fit (they fail
    the pass gate on their own); fewer than two distinct scales gives 0.
    """
    xs = []
    ys = []
    for r in rows:
        if math.isfinite(r.ratio) and r.ratio > 0.0:
            xs.append(r.scale_k * math.log(2.0))
            ys.append(math.log(r.ratio))
    if len(set(xs)) < 2:
        return 0.0
    n = len(xs)
    xbar = sum(xs) / n
    ybar = sum(ys) / n
    num = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    den = sum((x - xbar) ** 2 for x in xs)
    return num / den


@dataclass(frozen=True)
class RatioReport:
    """Corpus-level verdict on one inequality.

    passed requires every RHS positive, a finite max ratio, and a trend
    slope within slope_tol; everything else is recorded, not judged.
    """

    experiment: str
    rows: tuple
    slope_tol: float
    max_ratio: float
    mean_ratio: float
    slope: float
    passed: bool
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_rows(cls, experiment: str, rows, slope_tol: float,
                  metadata: dict | None = None) -> "RatioReport":
        rows = tuple(rows)
        if not rows:
            raise ValueError("a ratio report needs at least one trial row")
        ratios = [r.ratio for r in rows]
        if any(math.isnan(v) for v in ratios):
            max_ratio = math.nan
        else:
            max_ratio = max(ratios)
        finite = [v for v in ratios if math.isfinite(v)]
        mean_ratio = sum(finite) / len(finite) if finite else math.nan
        slope = trend_slope(rows)
        passed = (
            all(r.rhs > 0.0 for r in rows)
            and math.isfinite(max_ratio)
            and abs(slope) <= slope_tol
        )
        return cls(experiment, rows, float(slope_tol), float(max_ratio),
                   float(mean_ratio), float(slope), bool(passed),
                   dict(metadata or {}))

    def trial_rows(self) -> tuple:
        return self.rows

    def summary(self) -> str:
        return (f"max_ratio={self.max_ratio:.6g} mean_ratio={self.mean_ratio:.6g} "
                f"slope={self.slope:.3g} rows={len(self.rows)}")

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "kind": "ratio",
            "trials": len(self.rows),
            "max_ratio": self.max_ratio,
            "mean_ratio": self.mean_ratio,
            "trend_slope": self.slope,
            "slope_tol": self.slope_tol,
            "passed": self.passed,
            "metadata": self.metadata,
        }


@dataclass(frozen=True)
class AnnuliReport:
    """Two-sided comparison constants for the annular tiling of a cube
    complement; per-level and per-cube intervals expose any drift in the
    index or the scale."""

    experiment: str
    s: float
    band: tuple
    lower: float
    upper: float
    per_level: dict
    per_cube: dict
    partition_ok: bool
    scale_drift: float
    passed: bool
    rows: tuple = ()
    metadata: dict = field(default_factory=dict)

    def trial_rows(self) -> tuple:
        return self.rows

    def summary(self) -> str:
        return (f"lower={self.lower:.6g} upper={self.upper:.6g} "
                f"partition={self.partition_ok}")

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "kind": "annuli",
            "s": self.s,
            "band": list(self.band),
            "lower": self.lower,
            "upper": self.upper,
            "per_level": {str(k): list(v) for k, v in self.per_level.items()},
            "per_cube": {str(k): list(v) for k, v in self.per_cube.items()},
            "partition_ok": self.partition_ok,
            "scale_drift": self.scale_drift,
            "passed": self.passed,
            "metadata": self.metadata,
        }


@dataclass(frozen=True)
class ChainStep:
    """One inequality or identity inside a proof chain, as measured.

    constant is LHS/RHS, so a step asserting LHS <= C * RHS is healthy when
    constant <= C; bound is the cap the step is held to (None = record only).
    """

    name: str
    lhs: float
    rhs: float
    constant: float
    bound: float | None
    ok: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "constant": self.constant,
            "bound": self.bound,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class ChainReport:
    """Measured constants for every link of a constructive proof chain."""

    experiment: str
    steps: tuple
    final_constant: float
    hypothesis_constant: float
    passed: bool
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_steps(cls, experiment: str, steps, final_constant: float,
                   hypothesis_constant: float,
                   metadata: dict | None = None) -> "ChainReport":
        steps = tuple(steps)
        passed = (
            bool(steps)
            and all(st.ok for st in steps)
            and math.isfinite(final_constant)
            and math.isfinite(hypothesis_constant)
        )
        return cls(experiment, steps, float(final_constant),
                   float(hypothesis_constant), passed, dict(metadata or {}))

    def trial_rows(self) -> tuple:
        return tuple(
            TrialRow(i, 0, st.lhs, st.rhs, st.constant)
            for i, st in enumerate(self.steps)
        )

    def summary(self) -> str:
        return f"final={self.final_constant:.6g} steps={len(self.steps)}"

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "kind": "chain",
            "steps": [st.to_json_dict() for st in self.steps],
            "final_constant": self.final_constant,
            "hypothesis_constant": self.hypothesis_constant,
            "passed": self.passed,
            "metadata": self.metadata,
        }


def json_safe(obj):
    """Recursively convert a payload to strict-JSON-serializable values."""
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        if math.isnan(obj):
            return "nan"
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, (int, str, bool)) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if hasattr(obj, "item"):  # numpy scalar
        return json_safe(obj.item())
    if hasattr(obj, "to_json_dict"):
        return json_safe(obj.to_json_dict())
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def write_trials_csv(path, rows) -> Path:
    path = Path(path)
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.trial},{r.scale_k},{r.lhs!r},{r.rhs!r},{r.ratio!r}"
        )
    path.write_text("\n".join(lines) + "\n")
    return path


def write_report_json(path, report) -> Path:
    path = Path(path)
    payload = json_safe(report.to_json_dict())
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
