"""The selection pass composed from generic tape ops: the gradient oracle.

`seps.selection` records a selection pass as a few fused tape nodes, both
branches' decisions in one (2, n) `decide` node.  This module keeps the
per-branch path those nodes replaced, built from `seps.autodiff` ops plus
the generic ops that only this path (and the composed pair path in
tests/composed_alignment.py) needs, so tests can hold the fused pass to
bitwise-equal values, masks, gradients and errors.  The fused forwards and
vjps repeat these ops' expressions and operand layouts.  `FUNCTIONS` names
the two `seps.selection` functions whose whole pass this module stands in
for; it hands back the same `Decisions`, its rows joined by a `rows` node.
Each stage reports a non-finite value with the message of the fused check
that covers it (`stage`), so both paths raise alike.
"""

import contextlib
import functools
from dataclasses import dataclass

import numpy as np

from seps import autodiff as ad
from seps.autodiff import EPS_LOG
from seps.bank import Sample
from seps.errors import (ConfigError, NoPatchesSelectedError, NonFiniteError, ShapeError,
                         check_range)
from seps.selection import (CLIP_HI, MODES, AggregatedPatches, Decisions, ScoreBundle,
                            SelectionParams, attention_views, column_softmax)

FUNCTIONS = ("score_and_decide", "select_and_aggregate")


class EmptySupportError(Exception):
    """Softmax asked to normalize over an empty support."""


# ---------------------------------------------------------------------------
# elementwise ops


def neg(a: ad.Tensor) -> ad.Tensor:
    return ad.node(-a.data, (a,), lambda g: (-g,), "neg")


def scale(a: ad.Tensor, c: float) -> ad.Tensor:
    c = float(c)
    return ad.node(a.data * c, (a,), lambda g: (g * c,), "scale")


def add_scalar(a: ad.Tensor, c: float) -> ad.Tensor:
    return ad.node(a.data + float(c), (a,), lambda g: (g,), "add_scalar")


def log(a: ad.Tensor) -> ad.Tensor:
    a_ = a.data
    with np.errstate(divide="ignore", invalid="ignore"):  # -> NonFiniteError
        out = np.log(a_)
    return ad.node(out, (a,), lambda g: (g / a_,), "log")


def log_sigmoid(a: ad.Tensor) -> ad.Tensor:
    """log(sigmoid(x)) computed without underflow to -inf."""
    a_ = a.data
    return ad.node(-np.logaddexp(0.0, -a_), (a,), lambda g: (g * ad.sigmoid_np(-a_),),
                   "log_sigmoid")


def tanh(a: ad.Tensor) -> ad.Tensor:
    out = np.tanh(a.data)
    return ad.node(out, (a,), lambda g: (g * (1.0 - out * out),), "tanh")


def clip(a: ad.Tensor, lo: float, hi: float) -> ad.Tensor:
    """Clamp to [lo, hi]; gradient passes on the closed interval."""
    a_ = a.data
    gate = (a_ >= lo) & (a_ <= hi)
    return ad.node(np.clip(a_, lo, hi), (a,), lambda g: (g * gate,), "clip")


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    a_, b_ = a.data, b.data
    if a_.ndim != 2 or b_.ndim not in (1, 2) or a_.shape[1] != b_.shape[0]:
        raise ShapeError(f"matmul shapes {a_.shape} vs {b_.shape}")
    if b_.ndim == 2:
        def vjp(g):
            return g @ b_.T, a_.T @ g
    else:
        def vjp(g):
            return np.outer(g, b_), a_.T @ g
    return ad.node(a_ @ b_, (a, b), vjp, "matmul")


def rows(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """Two equal-shaped vectors as the rows of one matrix."""
    if a.ndim != 1 or a.shape != b.shape:
        raise ShapeError(f"rows shapes {a.shape} vs {b.shape}")
    return ad.node(np.array((a.data, b.data)), (a, b), lambda g: (g[0], g[1]), "rows")


def transpose(a: ad.Tensor) -> ad.Tensor:
    if a.ndim != 2:
        raise ShapeError("transpose expects a matrix")
    return ad.node(a.data.T.copy(), (a,), lambda g: (g.T,), "transpose")


def scale_rows(a: ad.Tensor, s: ad.Tensor) -> ad.Tensor:
    a_, s_ = a.data, s.data
    if a_.ndim != 2 or s_.shape != (a_.shape[0],):
        raise ShapeError(f"scale_rows shapes {a_.shape} vs {s_.shape}")
    return ad.node(a_ * s_[:, None], (a, s),
                   lambda g: (g * s_[:, None], np.sum(g * a_, axis=1)), "scale_rows")


def add_rowvec(a: ad.Tensor, v: ad.Tensor) -> ad.Tensor:
    """Add v to every row of a (bias over the trailing axis)."""
    a_, v_ = a.data, v.data
    if a_.ndim != 2 or v_.shape != (a_.shape[1],):
        raise ShapeError(f"add_rowvec shapes {a_.shape} vs {v_.shape}")
    return ad.node(a_ + v_[None, :], (a, v), lambda g: (g, np.sum(g, axis=0)), "add_rowvec")


def add_colvec(a: ad.Tensor, v: ad.Tensor) -> ad.Tensor:
    """Add v_i to every entry of row i."""
    a_, v_ = a.data, v.data
    if a_.ndim != 2 or v_.shape != (a_.shape[0],):
        raise ShapeError(f"add_colvec shapes {a_.shape} vs {v_.shape}")
    return ad.node(a_ + v_[:, None], (a, v), lambda g: (g, np.sum(g, axis=1)), "add_colvec")


def softmax_columns(x: ad.Tensor, support: np.ndarray | None = None) -> ad.Tensor:
    """Column-wise softmax over the rows listed in `support`; rows outside
    it are exactly zero and receive no gradient."""
    x_ = x.data
    if x_.ndim != 2:
        raise ShapeError("softmax_columns expects a matrix")
    n, m = x_.shape
    if n == 0 or m == 0:
        raise ShapeError("softmax_columns on empty matrix")
    keep = np.ones(n, dtype=bool) if support is None else np.asarray(support, dtype=bool)
    if keep.shape != (n,):
        raise ShapeError(f"support shape {keep.shape} for {x_.shape} matrix")
    if not keep.any():
        raise EmptySupportError("empty softmax support")
    out = column_softmax(x_, keep)

    def vjp(g):
        inner = np.sum(g * out, axis=0, keepdims=True)
        return (out * (g - inner),)

    return ad.node(out, (x,), vjp, "softmax_columns")


# ---------------------------------------------------------------------------
# the composed selection pass


@contextlib.contextmanager
def stage(what: str):
    """Raise a NonFiniteError from inside the block as the fused check over
    the same values words it."""
    try:
        yield
    except NonFiniteError:
        raise NonFiniteError(f"non-finite values in {what}") from None


@dataclass
class BranchMask:
    """One branch's decision as tensors: the per-branch form of `Decisions`."""

    hard: np.ndarray
    soft: ad.Tensor
    logit: ad.Tensor
    score: ad.Tensor

    def gate(self, mode: str) -> ad.Tensor:
        if mode == "eval":
            return ad.constant(self.hard)
        return self._train_gate if mode == "train" else self.soft

    @functools.cached_property
    def _train_gate(self) -> ad.Tensor:
        return ad.straight_through(self.soft, self.hard)

    @property
    def kept(self) -> np.ndarray:
        return self.hard.astype(bool)


def predict_scores(patches: np.ndarray, params: SelectionParams) -> ad.Tensor:
    patches = np.asarray(patches, dtype=np.float64)
    if patches.ndim != 2 or patches.shape[1] != params.dim:
        raise ShapeError(f"patches shape {patches.shape} does not match dim {params.dim}")
    v = ad.constant(patches)
    with stage("the predicted scores"):
        hidden = tanh(add_rowvec(matmul(v, params.pred_w1), params.pred_b1))
        return ad.sigmoid(ad.add(matmul(hidden, params.pred_w2), params.pred_b2))


def branch_scores(bundle: ScoreBundle, beta: float) -> tuple[ad.Tensor, ad.Tensor]:
    sparse_fixed = beta * (2.0 * bundle.sparse_text + 2.0 * bundle.image_self)
    dense_fixed = beta * (2.0 * bundle.dense_text + 2.0 * bundle.image_self)
    with stage("the branch score"):
        pred = scale(bundle.predicted, 1.0 - 2.0 * beta)
        return (clip(ad.add(pred, ad.constant(sparse_fixed)), 0.0, CLIP_HI),
                clip(ad.add(pred, ad.constant(dense_fixed)), 0.0, CLIP_HI))


def gumbel_decision(scores: ad.Tensor, tau: float,
                    noise: np.ndarray | None = None) -> BranchMask:
    check_range("tau", tau)
    with stage("the decision logit"):
        keep = log(add_scalar(scores, EPS_LOG))
        one_minus = neg(add_scalar(scores, -1.0))
        drop = log(add_scalar(one_minus, EPS_LOG))
        diff = ad.add(keep, neg(drop))
    with stage("tensor decide"):
        if noise is not None:
            g_keep, g_drop = noise
            diff = ad.add(diff, ad.constant(g_keep - g_drop))
        logit = scale(diff, 1.0 / tau)
    soft = ad.sigmoid(logit)
    hard = (soft.data > 0.5).astype(np.float64)
    return BranchMask(hard=hard, soft=soft, logit=logit, score=scores)


def _branch_weights(logits: ad.Tensor, mask: BranchMask, mode: str) -> ad.Tensor | None:
    if mode == "soft":
        with stage("the aggregation logits"):
            logits = add_colvec(logits, log_sigmoid(mask.logit))
        return softmax_columns(logits)
    support = mask.kept
    if not support.any():
        return None
    return softmax_columns(logits, support)


def aggregate(patches: np.ndarray, mask_s: BranchMask, mask_d: BranchMask,
              params: SelectionParams, mode: str = "train") -> AggregatedPatches:
    patches = np.asarray(patches, dtype=np.float64)
    n = patches.shape[0]
    if mask_s.hard.shape != (n,) or mask_d.hard.shape != (n,):
        raise ShapeError("mask length does not match patch count")
    v = ad.constant(patches)
    with stage("the aggregation logits"):
        logits_s = add_rowvec(matmul(v, params.agg_sparse_w), params.agg_sparse_b)
        logits_d = add_rowvec(matmul(v, params.agg_dense_w), params.agg_dense_b)
    w_s = _branch_weights(logits_s, mask_s, mode)
    w_d = _branch_weights(logits_d, mask_d, mode)
    if w_s is None and w_d is None:
        raise NoPatchesSelectedError("no patches selected")

    def contribution(weights, mask):
        if weights is None:
            return ad.constant(np.zeros((params.n_keep, params.dim)))
        return matmul(transpose(scale_rows(weights, mask.gate(mode))), v)

    with stage("tensor aggregate"):
        vectors = ad.add(contribution(w_s, mask_s), contribution(w_d, mask_d))
    return AggregatedPatches(
        vectors=vectors,
        weights_sparse=None if w_s is None else w_s.data,
        weights_dense=None if w_d is None else w_d.data,
        empty_sparse=w_s is None, empty_dense=w_d is None)


def _decide(sample: Sample, params: SelectionParams, mode: str,
            rng: np.random.Generator | None) -> tuple[ScoreBundle, list[BranchMask]]:
    """Stage 1 and each branch's decision, its noise the library's one
    (2, 2, n) draw: sparse keep and drop, then dense keep and drop."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode: {mode}")
    bundle = ScoreBundle(predict_scores(sample.patches, params),
                         *attention_views(sample.views, params))
    if mode == "train" and rng is None:
        raise ConfigError("noise requires an rng")
    noise = rng.gumbel(size=(2, 2, sample.n_patches)) if mode == "train" else (None, None)
    scores = branch_scores(bundle, params.beta)
    return bundle, [gumbel_decision(s, params.tau, b) for s, b in zip(scores, noise)]


def _decisions(masks: list[BranchMask]) -> Decisions:
    mask_s, mask_d = masks
    return Decisions(hard=np.array((mask_s.hard, mask_d.hard)),
                     soft=rows(mask_s.soft, mask_d.soft), logit=rows(mask_s.logit, mask_d.logit),
                     score=np.array((mask_s.score.data, mask_d.score.data)))


def score_and_decide(sample: Sample, params: SelectionParams, mode: str = "eval",
                     rng: np.random.Generator | None = None) -> tuple[ScoreBundle, Decisions]:
    bundle, masks = _decide(sample, params, mode, rng)
    return bundle, _decisions(masks)


def select_and_aggregate(sample: Sample, params: SelectionParams, mode: str = "eval",
                         rng: np.random.Generator | None = None):
    bundle, masks = _decide(sample, params, mode, rng)
    agg = aggregate(sample.patches, *masks, params, mode)
    return agg, bundle, _decisions(masks)
