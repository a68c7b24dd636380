"""Patch-word alignment scoring.

Builds the cosine similarity matrix between aggregated patch vectors and
caption word features, then scores the pair with four terms: mean of
row-wise maxima, a learned head over the top-K row maxima, and the same
two terms column-wise.  Heads are linear by default (zero-initialized so
scoring starts as pure mean pooling) with an optional tanh hidden layer.

The matrix and the score are one tape node each, with a plain-numpy
forward and a hand-written vjp; a side that enters many pairs (a caption,
an image's fused vectors) is prepared once as `Rows`.  Subgradient
conventions, kept by the score's vjp, which runs for a nonzero adjoint
only: a row or column maximum routes to its first-occurrence winner; the
top-K orders ties by first occurrence and, when K exceeds the number of
maxima, pads with the first-occurrence minimum, whose slots all add into
that one entry.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DegenerateVectorError, NonFiniteError, ShapeError, check_range


@dataclass
class RelevanceHead:
    """Maps the top-K pooled maxima to one scalar."""

    out_w: Tensor                 # (k,) linear, or (hidden,) after the tanh layer
    out_b: Tensor                 # scalar
    hid_w: Tensor | None = None   # (k, hidden) when the hidden layer is enabled
    hid_b: Tensor | None = None

    def tensors(self) -> tuple[Tensor, ...]:
        if self.hid_w is None:
            return self.out_w, self.out_b
        return self.hid_w, self.hid_b, self.out_w, self.out_b


@dataclass
class AlignmentParams:
    p2w: RelevanceHead
    w2p: RelevanceHead

    def __post_init__(self) -> None:
        check_range("k_top", self.k_top)
        self.heads = (*self.p2w.tensors(), *self.w2p.tensors())  # each pair node's parents

    @property
    def k_top(self) -> int:
        # the heads' input width: the rows of hid_w, or of out_w when linear
        return len((self.p2w.hid_w or self.p2w.out_w).data)


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


class Rows:
    """One side of a similarity matrix, prepared once for every pair it
    enters: the matrix, its row norms and their reciprocals (also as a
    column and as a row), whether a row is zero and whether those terms are
    finite.  `tensor` is the graph tensor of a patch side, None for words,
    which are data; `parents` lists it twice, as the similarity node does.

    The checks are recorded, not raised, so `similarity_matrix` raises for
    each pair exactly what it would raise on the raw arrays.
    """

    def __init__(self, matrix: Tensor | np.ndarray):
        self.tensor = matrix if isinstance(matrix, Tensor) else None
        self.parents = () if self.tensor is None else (self.tensor, self.tensor)
        data = matrix.data if self.tensor is not None else np.ascontiguousarray(
            matrix, dtype=np.float64)
        if data.ndim != 2:
            raise ShapeError(f"expected a matrix, got shape {data.shape}")
        self.data = data
        self.norm = np.sqrt((data * data).sum(axis=1))
        self.degenerate = not self.norm.all()
        # a zero norm gets no reciprocal: similarity_matrix refuses it first
        self.recip = None if self.degenerate else 1.0 / self.norm
        if not self.degenerate:
            self.col, self.row = self.recip[:, None], self.recip[None, :]
        self.finite = not self.degenerate and bool(
            np.isfinite(self.norm).all() and np.isfinite(self.recip).all())

    @functools.cached_property
    def t(self) -> np.ndarray:
        """The transposed copy a word side is multiplied by."""
        return self.data.T.copy()


def similarity_matrix(patches: Rows | Tensor | np.ndarray, words: Rows | np.ndarray) -> Tensor:
    """Exact cosine of every patch-word pair, patches along rows and words
    along columns, as one tape node; zero-norm vectors are refused.

    Patches may be a graph tensor; words are data.  Either side may come
    prepared as `Rows`, so a side shared by many pairs pays for its norms
    once.  The forward is `(P @ Wt) * (1/|p|)[:, None] * (1/|w|)[None, :]`,
    and the patch tensor is listed twice as a parent so its norm-path
    adjoint accumulates before its product-path one.
    """
    if not isinstance(patches, Rows):
        patches = Rows(patches if isinstance(patches, Tensor) else ad.constant(patches))
    if not isinstance(words, Rows):
        words = Rows(words)
    p, w = patches.data, words.data
    if p.shape[1] != w.shape[1]:
        raise ShapeError(f"incompatible shapes {p.shape} vs {w.shape}")
    if patches.degenerate or words.degenerate:
        raise DegenerateVectorError("degenerate vector in alignment")
    w_t = words.t
    raw = p @ w_t
    if not (patches.finite and words.finite and np.isfinite(raw).all()):
        raise NonFiniteError("non-finite values in the similarity matrix")
    norm_p, recip_p, col_p, row_w = patches.norm, patches.recip, patches.col, words.row
    out = raw * col_p * row_w

    def vjp(g):
        g_rows = g * row_w
        g_norm = -(g_rows * raw).sum(axis=1) * recip_p * recip_p
        return (g_norm / norm_p)[:, None] * p, (g_rows * col_p) @ w_t.T

    return ad.finite_node(out, patches.parents, vjp, "similarity")  # cosines of checked norms


def _slots(maxima: np.ndarray, k_top: int) -> np.ndarray:
    """Top-k_top entries, descending, ties by first occurrence, padded with the first min."""
    order = (-maxima).argsort(kind="stable")
    if k_top > maxima.size:
        order = np.concatenate([order, np.full(k_top - maxima.size, maxima.argmin())])
    return order[:k_top]


@functools.lru_cache(maxsize=256)
def _descending(k_top: int, n: int) -> np.ndarray:
    """Where each top-k_top slot reads an ascending sort of n values."""
    return np.maximum(np.arange(n - 1, n - 1 - k_top, -1), 0)


def _pool(s: np.ndarray, head: RelevanceHead, k_top: int):
    """Mean of the maxima of the rows of `s` and the head over their top
    k_top, plus the backward of both: upstream adjoint -> (adjoint of the
    maxima, adjoints of the head's `tensors()`).  The forward reads values
    only: equal nonzero values have equal bits, so a sort, read back into a
    contiguous array, gives the slots' values; a zero maximum, whose sign
    np.max and the sort may not keep, takes the backward's path."""
    maxima = np.maximum.reduce(s, axis=1)
    if np.count_nonzero(maxima) < maxima.size:
        maxima = s[np.arange(len(s)), s.argmax(axis=1)]
        pooled = maxima[_slots(maxima, k_top)]
    else:
        ordered = maxima.copy()  # np.sort's copy, without its Python wrapper
        ordered.sort()
        pooled = ordered[_descending(k_top, maxima.size)]
    out_w = head.out_w.data
    x = pooled
    if head.hid_w is not None:
        hid_wt = head.hid_w.data.T.copy()  # for the bits: hid_w.T @ pooled differs
        x = np.tanh(hid_wt @ pooled + head.hid_b.data)

    def backward(g):
        idx = _slots(maxima, k_top)
        grads = (g * x, g)
        g_pooled = g * out_w
        if head.hid_w is not None:
            g_pre = g_pooled * (1.0 - x * x)
            grads = (np.outer(g_pre, pooled).T, g_pre, *grads)
            g_pooled = hid_wt.T @ g_pre
        # padded slots add up at the argmin, in slot order
        return g / maxima.size + np.bincount(idx, g_pooled, maxima.size), grads

    return np.add.reduce(maxima) / maxima.size, out_w @ x + head.out_b.data, backward


def score_from_similarity(sim: Tensor, params: AlignmentParams) -> AlignmentScore:
    """Four-term score of one similarity matrix, as one tape node.

    patch_to_word pools the row maxima (best word per patch), word_to_patch
    the column maxima; each contributes their mean plus its head over the
    padded top-k_top.  Only `total` is on the tape; the summands are
    floats, read by `seps score`.  The vjp finds where the values came from.
    """
    s = sim.data
    if s.ndim != 2 or s.size == 0:
        raise ShapeError("score_from_similarity expects a non-empty matrix")
    k_top = params.k_top
    mean_p2w, head_p2w, back_p2w = _pool(s, params.p2w, k_top)
    mean_w2p, head_w2p, back_w2p = _pool(s.T, params.w2p, k_top)

    def vjp(g):
        g_p2w, grads_p2w = back_p2w(g)
        g_w2p, grads_w2p = back_w2p(g)
        g_rows, g_cols = np.zeros(s.shape), np.zeros(s.shape)
        g_rows[np.arange(s.shape[0]), s.argmax(axis=1)] = g_p2w
        g_cols[s.argmax(axis=0), np.arange(s.shape[1])] = g_w2p
        return (g_rows + g_cols, *grads_p2w, *grads_w2p)

    total = ad.node(((mean_p2w + head_p2w) + mean_w2p) + head_w2p,
                    (sim, *params.heads), vjp, "pair_score")
    return AlignmentScore(mean_p2w=float(mean_p2w), head_p2w=float(head_p2w),
                          mean_w2p=float(mean_w2p), head_w2p=float(head_w2p), total=total)


def align_score(patches: Rows | Tensor | np.ndarray, words: Rows | np.ndarray,
                params: AlignmentParams) -> AlignmentScore:
    """Four-term alignment score between one image's aggregated patches and
    one caption's words."""
    return score_from_similarity(similarity_matrix(patches, words), params)
