"""Per-trial ratio records, trend statistics, and deterministic report files.

An inequality with an implicit constant is scored by three aggregates over a
corpus of trials: the largest LHS/RHS ratio, its mean, and the least-squares
slope of log(ratio) against log(scale) over a dilation sweep.  A bounded
implicit constant shows up as a finite max and a near-zero slope; a missing
or wrong homogeneity shows up as a slope the gate rejects.

Every pass or fail is a ``Gate``, a named value held to a bound; a report
passes when it has gates and every one passes.

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
    "Gate",
    "TrialRow",
    "RatioReport",
    "AnnuliReport",
    "ChainStep",
    "ChainReport",
    "trend_slope",
    "verdict",
    "write_trials_csv",
    "write_report_json",
    "json_safe",
    "CSV_HEADER",
]

CSV_HEADER = "trial,scale_k,lhs,rhs,ratio"


@dataclass(frozen=True)
class Gate:
    """One condition a run must meet: ``value relation bound``.

    A nan value fails every relation.  margin is the relative slack,
    (bound - value)/|bound| for < and <=, (value - bound)/|bound| for > and
    >=; None where the bound is 0 or infinite.
    """

    name: str
    value: float
    relation: str
    bound: float

    @property
    def passed(self) -> bool:
        v, b = self.value, self.bound
        return bool({"<": v < b, "<=": v <= b, ">": v > b, ">=": v >= b}[self.relation])

    @property
    def margin(self) -> float | None:
        if self.bound == 0 or not math.isfinite(self.bound):
            return None
        slack = self.bound - self.value if "<" in self.relation else self.value - self.bound
        return slack / abs(self.bound)

    def to_json_dict(self) -> dict:
        return {"name": self.name, "value": self.value, "relation": self.relation,
                "bound": self.bound, "passed": self.passed, "margin": self.margin}


def verdict(gates) -> bool:
    """The one pass rule: at least one gate, and every gate passes."""
    return bool(gates) and all(g.passed for g in gates)


class _Gated:
    """A report's verdict, and its summary line, read from its gates."""

    @property
    def passed(self) -> bool:
        return verdict(self.gates)

    def summary(self) -> str:
        """Summary plus failed=<names>, or on a pass the least-margin gate."""
        if not self.passed:
            failed = ",".join(g.name for g in self.gates if not g.passed)
            return f"{self._summary()} failed={failed or '(no gates)'}"
        tight = min((g for g in self.gates if g.margin is not None),
                    key=lambda g: g.margin, default=None)
        return self._summary() + (f" tightest={tight.name} margin={tight.margin:.3g}"
                                  if tight else "")


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


def _nan_or(fn, values):
    # min and max of a list that holds a nan depend on where the nan sits
    return math.nan if any(math.isnan(v) for v in values) else fn(values)


@dataclass(frozen=True)
class RatioReport(_Gated):
    """Corpus-level verdict on one inequality.

    The gates ask for every RHS positive, a finite max ratio, and a trend
    slope within slope_tol; everything else is recorded, not judged.
    """

    experiment: str
    rows: tuple
    slope_tol: float
    max_ratio: float
    mean_ratio: float
    slope: float
    gates: tuple
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_rows(cls, experiment: str, rows, slope_tol: float,
                  metadata: dict | None = None) -> "RatioReport":
        rows = tuple(rows)
        if not rows:
            raise ValueError("a ratio report needs at least one trial row")
        ratios = [r.ratio for r in rows]
        max_ratio = float(_nan_or(max, ratios))
        finite = [v for v in ratios if math.isfinite(v)]
        mean_ratio = sum(finite) / len(finite) if finite else math.nan
        slope = float(trend_slope(rows))
        gates = (
            Gate("rhs_positive", float(_nan_or(min, [r.rhs for r in rows])), ">", 0.0),
            Gate("max_ratio_finite", max_ratio, "<", math.inf),
            Gate("slope", abs(slope), "<=", float(slope_tol)),
        )
        return cls(experiment, rows, float(slope_tol), max_ratio,
                   float(mean_ratio), slope, gates, dict(metadata or {}))

    def trial_rows(self) -> tuple:
        return self.rows

    def _summary(self) -> str:
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
            "gates": [g.to_json_dict() for g in self.gates],
            "metadata": self.metadata,
        }


@dataclass(frozen=True)
class AnnuliReport(_Gated):
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
    gates: tuple
    rows: tuple = ()
    metadata: dict = field(default_factory=dict)

    def trial_rows(self) -> tuple:
        return self.rows

    def _summary(self) -> str:
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
            "gates": [g.to_json_dict() for g in self.gates],
            "metadata": self.metadata,
        }


@dataclass(frozen=True)
class ChainStep:
    """One inequality or identity inside a proof chain, as measured.

    constant is LHS/RHS; bound is the cap C of a step asserting
    LHS <= C * RHS, None for an identity, whose gate holds its residual.
    """

    name: str
    lhs: float
    rhs: float
    constant: float
    bound: float | None
    gate: Gate

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "constant": self.constant,
            "bound": self.bound,
            "ok": self.gate.passed,
        }


@dataclass(frozen=True)
class ChainReport(_Gated):
    """Measured constants for every link of a constructive proof chain."""

    experiment: str
    steps: tuple
    final_constant: float
    hypothesis_constant: float
    gates: tuple
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_steps(cls, experiment: str, steps, final_constant: float,
                   hypothesis_constant: float,
                   metadata: dict | None = None) -> "ChainReport":
        steps = tuple(steps)
        final_constant, hypothesis_constant = float(final_constant), float(hypothesis_constant)
        # a chain with no steps gets no gates, so it cannot pass
        gates = tuple(st.gate for st in steps) + (
            Gate("final_finite", final_constant, "<", math.inf),
        ) if steps else ()
        return cls(experiment, steps, final_constant, hypothesis_constant,
                   gates, dict(metadata or {}))

    def trial_rows(self) -> tuple:
        return tuple(
            TrialRow(i, 0, st.lhs, st.rhs, st.constant)
            for i, st in enumerate(self.steps)
        )

    def _summary(self) -> str:
        return f"final={self.final_constant:.6g} steps={len(self.steps)}"

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "kind": "chain",
            "steps": [st.to_json_dict() for st in self.steps],
            "final_constant": self.final_constant,
            "hypothesis_constant": self.hypothesis_constant,
            "passed": self.passed,
            "gates": [g.to_json_dict() for g in self.gates],
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
