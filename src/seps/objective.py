"""The image x caption score grid, batch similarity and the training objective.

The alignment term is a bidirectional triplet loss with in-batch hardest
negatives; the ratio term penalizes squared deviation of the weighted keep
fractions from the target ratio.  Sample i is paired with caption i as the
positive.  Triplet terms accumulate in row order (text hinge, then image
hinge) so the result is bit-reproducible against a plain double loop.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from . import autodiff as ad
from . import selection
from .alignment import AlignmentParams, Rows, score_from_similarity, similarity_matrix
from .autodiff import Tensor
from .bank import Sample
from .errors import ConfigError, ShapeError
from .selection import SelectionParams

if TYPE_CHECKING:  # trainer imports this module
    from .trainer import TrainConfig


def keep_means(gates: Sequence[Tensor]) -> np.ndarray:
    """Each 2 x n gate's mean keep fraction per row, as a B x 2 array; each
    row summed, then divided, as np.mean's value."""
    return np.array([gate.data.sum(axis=1) / gate.shape[1] for gate in gates])


@dataclass
class BatchScores:
    """Pairwise alignment scores S[i][j] = score(image i, caption j) plus
    each sample's 2 x n gate (sparse row, then dense) for the ratio loss."""

    scores: Tensor                    # B x B
    gates: list[Tensor]

    @functools.cached_property
    def keep(self) -> np.ndarray:
        """`keep_means` of the gates, computed once for the loss and the stats."""
        return keep_means(self.gates)

    def keep_fractions(self) -> tuple[float, float]:
        """Batch-mean forward keep fraction per branch."""
        sparse, dense = self.keep.T.copy()
        return float(np.mean(sparse)), float(np.mean(dense))


def score_grid(images: Sequence[Sample], captions: Sequence[Sample],
               sel_params: SelectionParams, align_params: AlignmentParams,
               mode: str = "eval", seed: int = 0, step: int = 0) -> Iterator[tuple]:
    """Every image against every caption, one image's row at a time: the
    image's `selection.Decisions` and its `AlignmentScore` against each
    caption, in caption order.  One selection pass per image, its decision
    noise keyed by (seed, sample id, step) in train mode; each caption and
    each image's fused vectors are prepared once for all their pairs."""
    prepared = [Rows(caption.sparse_tokens) for caption in captions]
    for image in images:
        rng = selection.decision_rng(seed, image.sample_id, step) if mode == "train" else None
        agg, _, decisions = selection.select_and_aggregate(image, sel_params, mode, rng)
        side = Rows(agg.vectors)
        yield decisions, [score_from_similarity(similarity_matrix(side, caption), align_params)
                      for caption in prepared]


def batch_similarity(samples: Sequence[Sample], sel_params: SelectionParams,
                     align_params: AlignmentParams, mode: str = "train", seed: int = 0,
                     step: int = 0) -> BatchScores:
    """The batch's own `score_grid`, image i's positive caption being
    caption i, stacked, with each sample's gate for the ratio loss."""
    if not samples:
        raise ShapeError("empty batch")
    grid = list(score_grid(samples, samples, sel_params, align_params, mode, seed, step))
    b = len(samples)
    return BatchScores(
        scores=ad.stack([score.total for _, row in grid for score in row], (b, b)),
        gates=[decisions.gate(mode) for decisions, _ in grid])


def triplet_loss(scores: Tensor, margin: float) -> Tensor:
    """Bidirectional hinge over the hardest in-batch negatives, as one node.

    For each row i, the hardest caption is the off-diagonal row maximum and
    the hardest image the off-diagonal column maximum (first occurrence on
    ties).  Each hinge is ((s[i,hard] + -s[i,i]) + margin)^+; while it is
    strictly positive its gradient is +1 at the hard entry, -1 at s[i,i].
    """
    data = scores.data
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise ShapeError(f"scores must be square, got {data.shape}")
    if data.shape[0] < 2:
        raise ConfigError("no negatives available")

    masked = data.copy()
    np.fill_diagonal(masked, -np.inf)
    rows = np.arange(data.shape[0])
    hardest_caption = np.argmax(masked, axis=1)
    hardest_image = np.argmax(masked, axis=0)
    text = (data[rows, hardest_caption] + -data[rows, rows]) + margin
    image = (data[hardest_image, rows] + -data[rows, rows]) + margin
    on_text, on_image = text > 0.0, image > 0.0
    # terms added left to right, as a plain loop over rows adds them
    total = functools.reduce(operator.add, np.maximum(text, 0.0) + np.maximum(image, 0.0))

    def vjp(g):
        gs = np.zeros_like(data)
        np.add.at(gs, (rows[on_text], hardest_caption[on_text]), g)
        np.add.at(gs, (hardest_image[on_image], rows[on_image]), g)
        gs[rows, rows] -= g * (on_text + on_image.astype(np.float64))
        return (gs,)

    return ad.node(total, (scores,), vjp, "triplet_loss")


def ratio_loss(gates: Sequence[Tensor], cfg: TrainConfig,
               keep: np.ndarray | None = None) -> Tensor:
    """Mean over images of (rho - l1*keep_sparse - l2*keep_dense)^2, as one node
    whose parents are each image's 2 x n gate, sparse row first.

    A keep fraction is the mean of its gate row (`keep`, the gates'
    `keep_means`, when the caller has them), so the printed value matches
    the hard decisions while gradient flows through the soft keep
    probabilities; each row's adjoint is spread evenly over its patches.
    Each gap is (ks*(-l1) + kd*(-l2)) + rho; the squares are added in batch
    order, then scaled by 1/B.
    """
    if not gates or any(gate.ndim != 2 or len(gate.data) != 2 for gate in gates):
        raise ShapeError("keep statistics missing for a branch")
    keep = keep_means(gates) if keep is None else keep
    inv = 1.0 / len(gates)
    gaps = (keep[:, 0] * -cfg.lambda1 + keep[:, 1] * -cfg.lambda2) + cfg.rho

    def vjp(g):
        half = g * inv * gaps
        rows = np.stack([(half + half) * -cfg.lambda1, (half + half) * -cfg.lambda2], axis=1)
        return tuple(np.repeat((row / gate.shape[1])[:, None], gate.shape[1], axis=1)
                     for gate, row in zip(gates, rows))

    with np.errstate(over="ignore"):  # -> NonFiniteError in ad.node
        total = functools.reduce(operator.add, gaps * gaps) * inv
    return ad.node(total, tuple(gates), vjp, "ratio_loss")


def batch_loss(batch: BatchScores, cfg: TrainConfig) -> Tensor:
    """Unweighted sum of the alignment and ratio terms."""
    return ad.add(triplet_loss(batch.scores, cfg.margin),
                  ratio_loss(batch.gates, cfg, batch.keep))
