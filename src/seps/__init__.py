"""Trainable patch-selection and patch-word-alignment library over
precomputed feature banks, with retrieval evaluation and a CLI."""

from . import alignment, autodiff, bank, evaluator, objective, selection, trainer

__all__ = [
    "alignment",
    "autodiff",
    "bank",
    "cli",
    "evaluator",
    "objective",
    "selection",
    "trainer",
]

__version__ = "0.1.0"
