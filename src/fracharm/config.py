"""Experiment configuration: JSON schema, defaults, and field-path errors.

A config is a plain JSON object.  Parsing rejects unknown keys and malformed
values; its errors carry the offending field path (or file line for
malformed JSON) so a broken config is a one-look fix.  Each experiment then
checks the fields it reads against its hypotheses and ignores the fields it
does not read, except ``weights``: the runs that take no weight (annuli,
bounded-slots, var-frac-hardy, extrapolation) refuse it.

Top-level keys:
  experiment         registry id (string, required)
  m, n               multilinearity and dimension (n defaults to 1)
  gamma              fractional order
  p, q               scalar Lebesgue pair for the cube-sum runs
  r                  Muckenhoupt order for the tail run's weight hypothesis
  epsilon            tail decay exponent
  s                  annuli decay exponent
  vector_r, vector_count   vector-valued maximal parameters
  bounded_slots      number of sup-norm slots in the bounded-slot run
  exponents          per-slot exponents: numbers or descriptors
                     ({"kind": "constant", "value": v} |
                      {"kind": "log-decay", "limit": l, "amplitude": a,
                       "center": [..]})
  target_exponents   per-slot target Lebesgue exponents q_i (numbers)
  weights            list of per-slot weight descriptors
                     ({"kind": "constant", "value": v} |
                      {"kind": "power", "exponent": b, "center": [..],
                       "multiplier": c})
  corpus             {seed, count, atoms_per_trial, side_exponents,
                      lambda_range}
  grid               {box: [[lo, hi], ...], h}
  sweep              {k_min, k_max} or {ks: [..]}; must contain k = 0
  tolerances         {slope_tol}

The vanishing-moment order and the scalar Hardy exponents of the
extrapolation chain are derived by the runs from the fields above; neither
is a field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .grid import tile_count
from .varexp import ExponentFunction
from .weights import Weight

__all__ = ["ConfigError", "CorpusSpec", "ExperimentConfig"]


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending field."""

    def __init__(self, message: str, field_path: str | None = None):
        if field_path:
            message = f"config field '{field_path}': {message}"
        super().__init__(message)


def _as_number(value, path: str, *, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("expected a number", path)
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError("must be finite", path)
    if positive and value <= 0:
        raise ConfigError("must be positive", path)
    return value


def _as_int(value, path: str, *, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("expected an integer", path)
    if minimum is not None and value < minimum:
        raise ConfigError(f"must be at least {minimum}", path)
    return value


def _as_pair(value, path: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError("expected a pair [lo, hi]", path)
    return value


def _check_known(d: dict, known, path: str):
    for key in d:
        if key not in known:
            where = f"{path}.{key}" if path else key
            raise ConfigError("unknown field", where)


def _as_object(value, path: str, known) -> dict:
    if not isinstance(value, dict):
        raise ConfigError("expected an object", path)
    _check_known(value, known, path)
    return value


def _number_list(d: dict, key: str) -> tuple | None:
    values = d.get(key)
    if values is None:
        return None
    if not isinstance(values, list):
        raise ConfigError("expected a list of numbers", key)
    return tuple(_as_number(v, f"{key}[{i}]", positive=True)
                 for i, v in enumerate(values))


@dataclass(frozen=True)
class CorpusSpec:
    """Deterministic corpus law: seed, size, and the random cube geometry."""

    seed: int = 0
    count: int = 0  # 0 = dimension default, filled by ExperimentConfig
    atoms_per_trial: tuple = (1, 4)
    side_exponents: tuple = (-2, 1)
    lambda_range: tuple = (0.5, 2.0)

    @classmethod
    def from_dict(cls, d: dict, path: str = "corpus") -> "CorpusSpec":
        _as_object(d, path, {"seed", "count", "atoms_per_trial", "side_exponents",
                             "lambda_range"})
        seed = _as_int(d.get("seed", 0), f"{path}.seed", minimum=0)
        count = _as_int(d.get("count", 0), f"{path}.count", minimum=0)
        apt = d.get("atoms_per_trial", (1, 4))
        apt = _as_pair(apt, f"{path}.atoms_per_trial")
        lo = _as_int(apt[0], f"{path}.atoms_per_trial", minimum=1)
        hi = _as_int(apt[1], f"{path}.atoms_per_trial", minimum=lo)
        se = _as_pair(d.get("side_exponents", (-2, 1)), f"{path}.side_exponents")
        j0 = _as_int(se[0], f"{path}.side_exponents")
        j1 = _as_int(se[1], f"{path}.side_exponents")
        if j0 > j1:
            raise ConfigError("side exponent range is empty", f"{path}.side_exponents")
        lr = _as_pair(d.get("lambda_range", (0.5, 2.0)), f"{path}.lambda_range")
        l0 = _as_number(lr[0], f"{path}.lambda_range", positive=True)
        l1 = _as_number(lr[1], f"{path}.lambda_range", positive=True)
        if l0 > l1:
            raise ConfigError("coefficient range is empty", f"{path}.lambda_range")
        return cls(seed, count, (lo, hi), (j0, j1), (l0, l1))

    def descriptor(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "atoms_per_trial": list(self.atoms_per_trial),
            "side_exponents": list(self.side_exponents),
            "lambda_range": list(self.lambda_range),
        }


def _exponent_from(entry, n: int, path: str) -> ExponentFunction:
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        value = _as_number(entry, path, positive=True)
        return ExponentFunction.constant(value, dim=n)
    if not isinstance(entry, dict):
        raise ConfigError("expected a number or a descriptor object", path)
    kind = entry.get("kind")
    if kind == "constant":
        _check_known(entry, {"kind", "value"}, path)
        return ExponentFunction.constant(
            _as_number(entry.get("value"), f"{path}.value", positive=True), dim=n)
    if kind == "log-decay":
        _check_known(entry, {"kind", "limit", "amplitude", "center"}, path)
        limit = _as_number(entry.get("limit"), f"{path}.limit", positive=True)
        amp = _as_number(entry.get("amplitude"), f"{path}.amplitude", positive=True)
        center = entry.get("center")
        if center is not None:
            if not isinstance(center, (list, tuple)) or len(center) != n:
                raise ConfigError(f"center must have {n} coordinates", f"{path}.center")
            center = tuple(_as_number(c, f"{path}.center") for c in center)
        return ExponentFunction.log_decay(limit, amp, center=center, dim=n)
    raise ConfigError(f"unknown exponent kind {kind!r}", f"{path}.kind")


def _weight_from(entry, n: int, path: str) -> Weight:
    if not isinstance(entry, dict):
        raise ConfigError("expected a weight descriptor object", path)
    kind = entry.get("kind")
    if kind == "constant":
        _check_known(entry, {"kind", "value"}, path)
        return Weight.constant(
            _as_number(entry.get("value", 1.0), f"{path}.value", positive=True), dim=n)
    if kind == "power":
        _check_known(entry, {"kind", "exponent", "center", "multiplier"}, path)
        b = _as_number(entry.get("exponent"), f"{path}.exponent")
        center = entry.get("center", [0.0] * n)
        if not isinstance(center, (list, tuple)) or len(center) != n:
            raise ConfigError(f"center must have {n} coordinates", f"{path}.center")
        center = tuple(_as_number(c, f"{path}.center") for c in center)
        mult = _as_number(entry.get("multiplier", 1.0), f"{path}.multiplier",
                          positive=True)
        return Weight.power(b, center=center, multiplier=mult)
    raise ConfigError(f"unknown weight kind {kind!r}", f"{path}.kind")


_TOP_KEYS = {
    "experiment", "m", "n", "gamma", "p", "q", "r", "epsilon", "s",
    "vector_r", "vector_count", "bounded_slots", "exponents",
    "target_exponents", "weights", "corpus", "grid", "sweep", "tolerances",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment parameters with dimension-dependent defaults."""

    experiment: str
    n: int = 1
    m: int | None = None
    gamma: float | None = None
    p: float | None = None
    q: float | None = None
    r_order: float | None = None
    epsilon: float | None = None
    s: float | None = None
    vector_r: float | None = None
    vector_count: int | None = None
    bounded_slots: int = 0
    exponents: tuple = ()
    target_exponents: tuple | None = None
    weights: tuple = ()
    corpus: CorpusSpec = field(default_factory=CorpusSpec)
    box: tuple = ()
    h: float = 0.0
    sweep: tuple = (-3, -2, -1, 0, 1, 2, 3)
    slope_tol: float = 0.1

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("top level must be a JSON object")
        _check_known(d, _TOP_KEYS, "")
        experiment = d.get("experiment")
        if not isinstance(experiment, str) or not experiment:
            raise ConfigError("required (a registry id string)", "experiment")
        n = _as_int(d.get("n", 1), "n")
        if n not in (1, 2):
            raise ConfigError("dimension must be 1 or 2", "n")

        m = d.get("m")
        if m is not None:
            m = _as_int(m, "m", minimum=1)
        gamma = d.get("gamma")
        if gamma is not None:
            gamma = _as_number(gamma, "gamma", positive=True)

        scalars = {}
        for key in ("p", "q", "r", "epsilon", "s", "vector_r"):
            v = d.get(key)
            scalars[key] = None if v is None else _as_number(v, key, positive=True)
        vector_count = d.get("vector_count")
        if vector_count is not None:
            vector_count = _as_int(vector_count, "vector_count", minimum=1)
            if vector_count > 8:
                raise ConfigError("at most 8 components", "vector_count")
        bounded_slots = _as_int(d.get("bounded_slots", 0), "bounded_slots",
                                minimum=0)

        exps = d.get("exponents", [])
        if not isinstance(exps, list):
            raise ConfigError("expected a list", "exponents")
        exponents = tuple(
            _exponent_from(e, n, f"exponents[{i}]") for i, e in enumerate(exps)
        )

        tq = _number_list(d, "target_exponents")

        wts = d.get("weights", [])
        if not isinstance(wts, list):
            raise ConfigError("expected a list of weight descriptors", "weights")
        weights = tuple(
            _weight_from(w, n, f"weights[{i}]") for i, w in enumerate(wts)
        )

        corpus = CorpusSpec.from_dict(d.get("corpus", {}))
        if corpus.count == 0:
            corpus = replace(corpus, count=100 if n == 1 else 20)

        grid = _as_object(d.get("grid", {}), "grid", {"box", "h"})
        h = grid.get("h", 2.0 ** -8 if n == 1 else 2.0 ** -5)
        h = _as_number(h, "grid.h", positive=True)
        raw_box = grid.get("box")
        if raw_box is None:
            raw_box = [[-8.0, 8.0]] if n == 1 else [[-2.0, 2.0], [-2.0, 2.0]]
        if not isinstance(raw_box, list) or len(raw_box) != n:
            raise ConfigError(f"box must list {n} axis intervals", "grid.box")
        box = []
        for axis, pair in enumerate(raw_box):
            pair = _as_pair(pair, f"grid.box[{axis}]")
            lo = _as_number(pair[0], f"grid.box[{axis}]")
            hi = _as_number(pair[1], f"grid.box[{axis}]")
            if hi <= lo:
                raise ConfigError("axis interval is empty", f"grid.box[{axis}]")
            if not tile_count(hi - lo, h):
                raise ConfigError("axis length is not a multiple of h",
                                  f"grid.box[{axis}]")
            box.append((lo, hi))
        box = tuple(box)

        sweep = _as_object(d.get("sweep", {}), "sweep", {"k_min", "k_max", "ks"})
        if "ks" in sweep:
            ks = sweep["ks"]
            if not isinstance(ks, list) or not ks:
                raise ConfigError("expected a nonempty list", "sweep.ks")
            ks = tuple(_as_int(k, "sweep.ks") for k in ks)
        else:
            k_min = _as_int(sweep.get("k_min", -3), "sweep.k_min")
            k_max = _as_int(sweep.get("k_max", 3), "sweep.k_max")
            if k_min > k_max:
                raise ConfigError("k_min exceeds k_max", "sweep")
            ks = tuple(range(k_min, k_max + 1))
        if 0 not in ks:
            # the base scale is where the drifts are measured from
            raise ConfigError("must contain the base scale k = 0", "sweep")

        tols = _as_object(d.get("tolerances", {}), "tolerances", {"slope_tol"})
        slope_tol = _as_number(tols.get("slope_tol", 0.1), "tolerances.slope_tol",
                               positive=True)

        return cls(
            experiment=experiment, n=n, m=m, gamma=gamma,
            p=scalars["p"], q=scalars["q"], r_order=scalars["r"],
            epsilon=scalars["epsilon"], s=scalars["s"],
            vector_r=scalars["vector_r"], vector_count=vector_count,
            bounded_slots=bounded_slots, exponents=exponents,
            target_exponents=tq, weights=weights, corpus=corpus, box=box, h=h,
            sweep=ks, slope_tol=slope_tol,
        )

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as e:
            raise ConfigError(f"cannot read {path}: {e.strerror}") from e
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(
                f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
        return cls.from_dict(payload)

    def with_seed(self, seed: int) -> "ExperimentConfig":
        seed = _as_int(seed, "corpus.seed", minimum=0)
        return replace(self, corpus=replace(self.corpus, seed=seed))

    def descriptor(self) -> dict:
        """Echo of the resolved parameters, for report metadata."""
        return {
            "experiment": self.experiment,
            "n": self.n,
            "m": self.m,
            "gamma": self.gamma,
            "p": self.p,
            "q": self.q,
            "r": self.r_order,
            "epsilon": self.epsilon,
            "s": self.s,
            "vector_r": self.vector_r,
            "vector_count": self.vector_count,
            "bounded_slots": self.bounded_slots,
            "exponents": [e.descriptor() for e in self.exponents],
            "target_exponents": list(self.target_exponents) if self.target_exponents else None,
            "weights": [w.descriptor() for w in self.weights],
            "corpus": self.corpus.descriptor(),
            "grid": {"box": [list(b) for b in self.box], "h": self.h},
            "sweep": list(self.sweep),
            "slope_tol": self.slope_tol,
        }
