"""Desk-scale numerical checks for multilinear fractional integral bounds.

The package builds small, fully deterministic experiments that measure both
sides of weighted norm inequalities for fractional integral operators of
Kenig-Stein type, their maximal-function majorants, and the variable-exponent
extrapolation machinery that transfers constant-exponent bounds.  Everything
runs on uniform grids over bounded boxes in dimension one or two; claimed
bounds are exercised, never assumed.
"""

__version__ = "0.1.0"

from .atoms import Atom, AtomicSum, hardy_quasinorm, random_atomic_family
from .config import ConfigError, CorpusSpec, ExperimentConfig
from .experiments import EXPERIMENTS, HypothesisError, run_experiment
from .grid import Cube, DyadicFamily, GridFunction, dyadic_cubes, integrate, weighted_lp_quasinorm
from .kernels import KenigSteinKernel, apply_frac_operator
from .maximal import MaximalConfig, Mollifier, frac_maximal, grand_maximal, hl_maximal
from .reports import AnnuliReport, ChainReport, ChainStep, RatioReport, TrialRow
from .varexp import ExponentFunction, derive_system, luxemburg_norm, modular
from .weights import Weight, ap_constant, apq_constant, rh_constant, rw_estimate

__all__ = [
    "Atom",
    "AtomicSum",
    "AnnuliReport",
    "ChainReport",
    "ChainStep",
    "ConfigError",
    "CorpusSpec",
    "Cube",
    "DyadicFamily",
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExponentFunction",
    "GridFunction",
    "HypothesisError",
    "KenigSteinKernel",
    "MaximalConfig",
    "Mollifier",
    "RatioReport",
    "TrialRow",
    "Weight",
    "ap_constant",
    "apply_frac_operator",
    "apq_constant",
    "derive_system",
    "dyadic_cubes",
    "frac_maximal",
    "grand_maximal",
    "hardy_quasinorm",
    "hl_maximal",
    "integrate",
    "luxemburg_norm",
    "modular",
    "random_atomic_family",
    "rh_constant",
    "run_experiment",
    "rw_estimate",
    "weighted_lp_quasinorm",
]
