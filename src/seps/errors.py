"""Exception hierarchy shared across the package, and the config value ranges.

Every error raised on a user input path derives from SepsError so the CLI
can map it to a stable exit code; NumericalError subclasses map to the
numerical-failure code instead.

Each config dataclass checks its fields on construction against `RANGES`,
one table by field name, so NaN, +-inf or a negative seed is a ConfigError.
"""

from dataclasses import fields
from math import inf

import numpy as np


class SepsError(Exception):
    """Base class for all package errors."""


class ShapeError(SepsError):
    """Operands have incompatible or unsupported shapes."""


class GraphError(SepsError):
    """Invalid use of the compute graph (e.g. gradient of a non-scalar)."""


class BankFormatError(SepsError):
    """Feature-bank file is malformed or not a bank at all."""


class BankInvariantError(SepsError):
    """In-memory bank violates a structural invariant."""


class ConfigError(SepsError):
    """Rejected configuration key or value."""


class NoPatchesSelectedError(SepsError):
    """Both decision branches dropped every patch."""


class DegenerateVectorError(SepsError):
    """A zero-norm vector reached a cosine computation."""


class NumericalError(SepsError):
    """Base class for runtime numerical failures."""


class NonFiniteError(NumericalError):
    """A public operation produced NaN or Inf."""


class DivergenceError(NumericalError):
    """Optimizer saw a non-finite gradient."""


# field -> (low, high, low excluded); no range holds NaN or +-inf
RANGES = {
    "dim": (1, inf, False), "n_patches": (1, inf, False), "seed": (0, inf, False),
    "folds": (1, inf, False), "lr": (0, inf, False), "weight_decay": (0, inf, False),
    "batch_size": (2, inf, False), "epochs": (1, inf, False), "margin": (0, inf, True),
    "rho": (0, 1, True), "lambda1": (0, inf, False), "lambda2": (0, inf, False),
    "beta": (0, 0.5, False), "tau": (0, inf, True), "k_top": (1, inf, False),
    "n_keep": (0, inf, False), "head_hidden": (0, inf, False),
    "grad_check_every": (0, inf, False), "n_samples": (1, inf, False),
    "n_relevant_patches": (0, inf, False), "n_sparse_words": (1, inf, False),
    "n_dense_words": (1, inf, False), "concept_count": (1, inf, False),
    "noise_sigma": (0, inf, False),
}


def check_range(name: str, value, as_f32: bool = False) -> None:
    """ConfigError unless `value`, as float32 if `as_f32`, lies in RANGES[name]."""
    low, high, open_low = RANGES[name]
    x = value
    if as_f32:
        with np.errstate(over="ignore"):  # an overflow is inf, outside every range
            x = float(np.float32(value))
    if not ((low < x if open_low else low <= x) and x <= high and x < inf):
        bound = (f"lie in {'(' if open_low else '['}{low:g}, {high:g}]" if high < inf
                 else f"be finite and {'>' if open_low else '>='} {low:g}")
        raise ConfigError(f"{name} must {bound}{' as float32' if as_f32 else ''}, got {value}")


def check_fields(config) -> None:
    """check_range on every dataclass field of `config` that RANGES names."""
    for field in fields(config):
        if field.name in RANGES:
            check_range(field.name, getattr(config, field.name))
