"""Benchmark workloads: cycles of verify calls built from the shipped configs.

A workload is a fixed cycle of verify calls.  Each call starts from one of
the shipped ``configs/*.json``, applies the overrides below (corpus size,
grid, vector count) and gets a corpus seed derived from the workload seed
and the call index, so the package only ever sees generated configs and the
same seed gives the same inputs.  The timed loop walks the cycle until the
run's time is up, always finishing at least one whole cycle.

Why these four (see README.md for the measured shares):

* ``maximal-serial`` runs the Hardy-Littlewood and fractional maximal
  ladders at G=4096 and one 2-D ladder at 128x128; the operator is never
  called, so an operator change must leave it unchanged.
* ``operator-serial`` runs the multilinear operator at G=256 and G=1024 with
  unit and power weights and bounded slots; no ladder, no Luxemburg norm.
* ``varexp-serial`` runs Luxemburg norms by bisection (variable and constant
  exponents) and the extrapolation chain, which reaches ``hl_maximal``
  through ``rubio_iterate``.
* ``mixed-serial`` runs many short cube-sum calls plus two atomic corpora,
  the calls whose trials repeat weight samples and mollifier kernels.

Every workload is timed with all thread counts at 1.  The trial pool is
measured in the traced run instead (``worker.py``): on a few shared cores
its latencies follow whether the other cores are idle more than the code.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

# Thread settings of every timed process; the replay removes all three.
SERIAL_ENV = {"FRACHARM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1"}

# One atom of fixed side per slot for the atomic corpora.  The shipped laws
# draw 1-4 atoms of random dyadic side per slot, so the operator's work per
# trial (a product of slot support sizes) varies over two orders of
# magnitude, and overlapping atoms still make it vary when only the count
# is fixed; a run's total would follow the seed more than the code.  The
# seed still draws positions, coefficients and atom profiles.
ONE_UNIT = {"atoms_per_trial": [1, 1], "side_exponents": [0, 0]}
ONE_HALF = {"atoms_per_trial": [1, 1], "side_exponents": [-1, -1]}
ONE_QUARTER = {"atoms_per_trial": [1, 1], "side_exponents": [-2, -2]}


@dataclass(frozen=True)
class Call:
    """One verify call of a cycle: a shipped config plus overrides."""

    label: str
    config: str
    overrides: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    grids: str
    cycle: tuple


def _call(label, config, **overrides):
    return Call(label, config, overrides)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "maximal-serial",
            "maximal ladders at G=4096 and 128x128, serial; the operator is "
            "never called",
            "1-D G=4096 (box [-8,8], h=2^-8); 2-D 128x128 (box [-2,2]^2, h=2^-5)",
            (
                _call("fs-diag", "fefferman_stein_diag",
                      vector_count=3, corpus={"count": 1}),
                _call("fs-offdiag", "fefferman_stein_offdiag",
                      vector_count=2, corpus={"count": 1}),
                _call("fs-diag-2d", "fefferman_stein_diag",
                      n=2, vector_count=1, corpus={"count": 1}),
            ),
        ),
        Workload(
            "operator-serial",
            "multilinear operator at G=256 and G=1024 with unit and power "
            "weights, serial; no ladder, no Luxemburg norm",
            "G=256 (box [-2,2], h=2^-6) and G=1024 (box [-8,8], h=2^-6)",
            (
                _call("fh-unit", "frac_hardy_unit", corpus={"count": 2, **ONE_UNIT}),
                _call("fh-power", "frac_hardy_power", corpus={"count": 2, **ONE_UNIT}),
                _call("fh-unit-G1024", "frac_hardy_unit", corpus={"count": 2, **ONE_HALF},
                      grid={"box": [[-8, 8]], "h": 0.015625}),
                _call("fh-asym", "frac_hardy_asym", corpus={"count": 2, **ONE_UNIT}),
                _call("fh-gamma15", "frac_hardy_gamma15", corpus={"count": 2, **ONE_UNIT}),
                _call("bounded-slots", "bounded_slots", corpus={"count": 2, **ONE_UNIT}),
            ),
        ),
        Workload(
            "varexp-serial",
            "Luxemburg norms by bisection at variable and constant exponents "
            "plus the extrapolation chain, serial",
            "var-frac-hardy G=256 (box [-2,2], h=2^-6); extrapolation G=1024 "
            "(box [-8,8], h=2^-6)",
            (
                _call("vfh-logdecay", "var_frac_hardy", corpus={"count": 16, **ONE_HALF}),
                _call("extrap-const", "extrapolation_const", corpus=ONE_HALF),
                _call("vfh-const", "var_frac_hardy_const", corpus={"count": 18, **ONE_HALF}),
                _call("extrap-var", "extrapolation_var", corpus=ONE_HALF),
            ),
        ),
        Workload(
            "mixed-serial",
            "many short cube-sum calls and two atomic corpora, serial; weight "
            "samples and mollifier kernels repeat across trials",
            "cube sums G=4096 (box [-8,8], h=2^-8); frac-hardy G=256",
            (
                _call("star-unit", "star_sum_unit", corpus={"count": 20}),
                _call("star-power", "star_sum_power", corpus={"count": 10}),
                _call("tail-unit", "tail_sum_unit", corpus={"count": 12}),
                _call("tail-power", "tail_sum_power", corpus={"count": 8}),
                _call("annuli", "annuli"),
                _call("star-single", "star_sum_single"),
                _call("fh-single", "frac_hardy_single", corpus=ONE_QUARTER),
                _call("fh-corpus", "frac_hardy_unit", corpus={"count": 8, **ONE_HALF}),
            ),
        ),
    )
}


def serial_env(base: dict) -> dict:
    """``base`` with every thread count at 1: the timed processes."""
    env = dict(base)
    env.update(SERIAL_ENV)
    return env


def default_env(base: dict) -> dict:
    """``base`` with the thread variables removed, so the trial pool and BLAS
    use their defaults: the replay."""
    return {k: v for k, v in base.items() if k not in SERIAL_ENV}


def call_seed(workload: str, seed: int, index: int) -> int:
    """Corpus seed of call ``index``: a hash, so it is stable across Python
    and numpy versions."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


class CallFactory:
    """Builds the config dict of every call of one workload run."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.workload = WORKLOADS[workload]
        self.seed = int(seed)
        self._bases = []
        for call in self.workload.cycle:
            d = json.loads((root / "configs" / f"{call.config}.json").read_text())
            for key, value in call.overrides.items():
                if isinstance(value, dict):
                    d[key] = {**d.get(key, {}), **value}
                else:
                    d[key] = value
            self._bases.append(d)

    @property
    def cycle_length(self) -> int:
        return len(self._bases)

    def label(self, index: int) -> str:
        return self.workload.cycle[index % self.cycle_length].label

    def config(self, index: int) -> dict:
        d = copy.deepcopy(self._bases[index % self.cycle_length])
        d.setdefault("corpus", {})["seed"] = call_seed(
            self.workload.name, self.seed, index)
        return d
