"""Patch-word alignment scoring.

Builds the cosine similarity matrix between aggregated patch vectors and
caption word features, then scores the pair with four terms: mean of
row-wise maxima, a learned head over the top-K row maxima, and the same
two terms column-wise.  Heads are linear by default (zero-initialized so
scoring starts as pure mean pooling) with an optional tanh hidden layer.

The matrix and the score are one tape node each, with a plain-numpy
forward and a hand-written vjp.  Subgradient conventions: a row or column
maximum routes to its first-occurrence winner; the top-K orders ties by
first occurrence and, when K exceeds the number of maxima, pads with the
first-occurrence minimum, whose slots all add into that one entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DegenerateVectorError, ShapeError


@dataclass
class RelevanceHead:
    """Maps the top-K pooled maxima to one scalar."""

    out_w: Tensor                 # (k,) linear, or (hidden,) after the tanh layer
    out_b: Tensor                 # scalar
    hid_w: Tensor | None = None   # (k, hidden) when the hidden layer is enabled
    hid_b: Tensor | None = None

    def named(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        if self.hid_w is not None:
            yield f"{prefix}.hid_w", self.hid_w
            yield f"{prefix}.hid_b", self.hid_b
        yield f"{prefix}.w", self.out_w
        yield f"{prefix}.b", self.out_b


def validate_k_top(k_top: int) -> None:
    if k_top < 1:
        raise ConfigError("k_top must be >= 1")


@dataclass
class AlignmentParams:
    k_top: int
    p2w: RelevanceHead
    w2p: RelevanceHead

    def __post_init__(self) -> None:
        validate_k_top(self.k_top)

    def named(self) -> Iterator[tuple[str, Tensor]]:
        yield from self.p2w.named("head_p2w")
        yield from self.w2p.named("head_w2p")


@dataclass
class AlignmentScore:
    """Total image-text score, a scalar tensor, and its four summands."""

    mean_p2w: float
    head_p2w: float
    mean_w2p: float
    head_w2p: float
    total: Tensor

    def components(self) -> tuple[float, float, float, float]:
        return self.mean_p2w, self.head_p2w, self.mean_w2p, self.head_w2p


def similarity_matrix(patches: Tensor | np.ndarray, words: np.ndarray) -> Tensor:
    """Exact cosine of every patch-word pair, patches along rows and words
    along columns, as one tape node; zero-norm vectors are refused.

    Patches may be a graph tensor; words are data.  The forward is
    `(P @ Wt) * (1/|p|)[:, None] * (1/|w|)[None, :]`, and the patch tensor
    is listed twice as a parent so its norm-path adjoint accumulates before
    its product-path one.
    """
    if not isinstance(patches, Tensor):
        patches = ad.constant(patches)
    p, w = patches.data, np.ascontiguousarray(words, dtype=np.float64)
    if p.ndim != 2 or w.ndim != 2 or p.shape[1] != w.shape[1]:
        raise ShapeError(f"incompatible shapes {p.shape} vs {w.shape}")
    norm_p = np.sqrt(np.sum(p * p, axis=1))
    norm_w = np.sqrt(np.sum(w * w, axis=1))
    if not (norm_p.all() and norm_w.all()):
        raise DegenerateVectorError("degenerate vector in alignment")
    w_t = w.T.copy()
    raw = p @ w_t
    recip_p, recip_w = 1.0 / norm_p, 1.0 / norm_w
    ad.finite("the similarity matrix", raw, norm_p, recip_p, norm_w, recip_w)
    out = raw * recip_p[:, None] * recip_w[None, :]

    def vjp(g):
        g_rows = g * recip_w[None, :]
        g_norm = -np.sum(g_rows * raw, axis=1) * recip_p * recip_p
        return (g_norm / norm_p)[:, None] * p, (g_rows * recip_p[:, None]) @ w_t.T

    return ad.node(out, (patches, patches), vjp, "similarity")


def _pool(maxima: np.ndarray, head: RelevanceHead, k_top: int):
    """Mean of one direction's maxima and its head over their top k_top in
    descending order (ties by first occurrence, padded with the
    first-occurrence minimum), plus the backward of both: upstream adjoint
    -> (adjoint of the maxima, adjoints of the head tensors in `named`
    order)."""
    order = np.argsort(-maxima, kind="stable")
    if k_top > maxima.size:
        order = np.concatenate([order, np.full(k_top - maxima.size, np.argmin(maxima))])
    idx = order[:k_top]
    pooled = maxima[idx]
    out_w = head.out_w.data
    x = pooled
    if head.hid_w is not None:
        hid_wt = head.hid_w.data.T.copy()
        x = np.tanh(hid_wt @ pooled + head.hid_b.data)

    def backward(g):
        grads = (g * x, g)
        g_pooled = g * out_w
        if head.hid_w is not None:
            g_pre = g_pooled * (1.0 - x * x)
            grads = (np.outer(g_pre, pooled).T, g_pre, *grads)
            g_pooled = hid_wt.T @ g_pre
        g_top = np.zeros_like(maxima)
        np.add.at(g_top, idx, g_pooled)  # padded slots add up at the argmin
        return np.full(maxima.shape, g / maxima.size) + g_top, grads

    return np.mean(maxima), out_w @ x + head.out_b.data, backward


def score_from_similarity(sim: Tensor, params: AlignmentParams) -> AlignmentScore:
    """Four-term score of one similarity matrix, as one tape node.

    patch_to_word pools the row maxima (best word per patch), word_to_patch
    the column maxima; each contributes their mean plus its head over the
    padded top-k_top.  Only `total` is on the tape; the summands are
    floats, read by `seps score`.
    """
    s = sim.data
    if s.ndim != 2 or s.size == 0:
        raise ShapeError("score_from_similarity expects a non-empty matrix")
    rows, cols = np.arange(s.shape[0]), np.arange(s.shape[1])
    arg_p2w, arg_w2p = np.argmax(s, axis=1), np.argmax(s, axis=0)
    mean_p2w, head_p2w, back_p2w = _pool(s[rows, arg_p2w], params.p2w, params.k_top)
    mean_w2p, head_w2p, back_w2p = _pool(s[arg_w2p, cols], params.w2p, params.k_top)

    def vjp(g):
        g_p2w, grads_p2w = back_p2w(g)
        g_w2p, grads_w2p = back_w2p(g)
        g_rows, g_cols = np.zeros_like(s), np.zeros_like(s)
        g_rows[rows, arg_p2w] = g_p2w
        g_cols[arg_w2p, cols] = g_w2p
        return (g_rows + g_cols, *grads_p2w, *grads_w2p)

    heads = [t for head in (params.p2w, params.w2p) for _, t in head.named("")]
    total = ad.node(((mean_p2w + head_p2w) + mean_w2p) + head_w2p, (sim, *heads), vjp,
                    "pair_score")
    return AlignmentScore(mean_p2w=float(mean_p2w), head_p2w=float(head_p2w),
                          mean_w2p=float(mean_w2p), head_w2p=float(head_w2p), total=total)


def align_score(patches: Tensor | np.ndarray, words: np.ndarray,
                params: AlignmentParams) -> AlignmentScore:
    """Four-term alignment score between one image's aggregated patches and
    one caption's words."""
    return score_from_similarity(similarity_matrix(patches, words), params)
