"""Text-aware patch selection: semantic scoring, decisions, aggregation.

Stage 1 scores every patch from four views: a learned prediction head plus
attention against the sparse-text, dense-text, and image global embeddings,
which each sample derives once and keeps (`bank.Sample.views`).
Stage 2 converts both branches' scores, as the two rows of one 2 x n array,
into stochastic keep/drop decisions (two-logit Gumbel softmax with a
straight-through estimator) and fuses the survivors of both branches into a
fixed number of aggregated vectors via masked column softmax weights.

Modes: "train" samples Gumbel noise and uses hard decisions with soft
backward; "eval" is deterministic and hard; "soft" disables noise and keeps
the smooth relaxation end to end, which is what finite-difference audits
run against.

Each stage is one tape node with a plain-numpy forward and a hand-written
vjp: the prediction head, `decide` (both branches' clipped scores and
decision logits), their keep probability, the train-mode gate, and the
aggregation (both branches' weights and the fused vectors).  A tensor read
by two nodes sums their adjoints, and a two-term sum does not depend on
order, so gradients are reproducible bit for bit.  Subgradient
conventions: the clip passes gradient on the closed interval [0, CLIP_HI];
the train-mode gate forwards the hard decision and backpropagates as
identity into the keep probability (straight-through); rows outside a
branch's survivors are exactly zero in its column softmax and receive no
gradient.  The tape-free eval forward scores a stack of samples at once
(`sparse_eval_scores`), bitwise equal to the taped pass per sample.
"""

from __future__ import annotations

import collections
import functools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import EPS_LOG, Tensor
from .bank import Sample, stable_id_hash
from .errors import ConfigError, NoPatchesSelectedError, ShapeError, check_fields, check_range

MODES = ("train", "eval", "soft")

# branch scores are clipped here before entering the log-domain logits
CLIP_HI = 1.0 - 1e-6


@dataclass
class SelectionParams:
    """Weights and knobs for the selection stage.

    The prediction head is a two-layer perceptron (d -> d -> 1) with a tanh
    hidden activation and sigmoid output; each aggregation branch maps a
    patch to its column logits (d -> n_keep).
    """

    pred_w1: Tensor
    pred_b1: Tensor
    pred_w2: Tensor
    pred_b2: Tensor
    agg_sparse_w: Tensor
    agg_sparse_b: Tensor
    agg_dense_w: Tensor
    agg_dense_b: Tensor
    beta: float
    tau: float
    rho: float
    zero_dense_attention: bool = False  # ablation switch: s_dt forced to 0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.n_keep < 1:  # the resolved column count; TrainConfig's 0 means auto
            raise ConfigError("n_keep must be >= 1")

    @property
    def dim(self) -> int:
        return self.pred_w1.shape[0]

    @property
    def n_keep(self) -> int:
        return self.agg_sparse_w.shape[1]

    def tensors(self) -> tuple[Tensor, ...]:
        return (self.pred_w1, self.pred_b1, self.pred_w2, self.pred_b2,
                self.agg_sparse_w, self.agg_sparse_b, self.agg_dense_w, self.agg_dense_b)


@dataclass
class ScoreBundle:
    """Per-patch significance components.

    `predicted` carries gradients; the three attention scores come from
    the sample's `views` and are read-only arrays.
    """

    predicted: Tensor
    sparse_text: np.ndarray
    dense_text: np.ndarray
    image_self: np.ndarray


# one branch's row of `Decisions`, as arrays
BranchDecision = collections.namedtuple("BranchDecision", "hard soft logit score")


@dataclass
class Decisions:
    """Keep/drop decisions of both branches as 2 x n rows, sparse first.

    `hard` is the 0/1 forward decision, `soft` the keep probability,
    `logit` the temperature-scaled log-odds that produced it, and `score`
    the clipped branch scores the logits were drawn from.  Iterating yields
    each branch's `BranchDecision`.
    """

    hard: np.ndarray
    soft: Tensor
    logit: Tensor
    score: np.ndarray

    def gate(self, mode: str) -> Tensor:
        """Per-patch multiplier used downstream: hard forward in train/eval,
        with the straight-through backward in train mode only."""
        if mode == "train":
            return self._train_gate
        if mode == "eval":
            return ad.constant(self.hard)
        if mode == "soft":
            return self.soft
        raise ConfigError(f"unknown mode: {mode}")

    @functools.cached_property
    def _train_gate(self) -> Tensor:
        # one straight-through node per pass, however many consumers read it
        return ad.straight_through(self.soft, self.hard)

    @property
    def kept(self) -> np.ndarray:
        return self.hard.astype(bool)

    def __iter__(self) -> Iterator[BranchDecision]:
        return map(BranchDecision, self.hard, self.soft.data, self.logit.data, self.score)


@dataclass
class AggregatedPatches:
    """Fused patch vectors (one `aggregate` node) and the weights that built them."""

    vectors: Tensor                        # n_keep x d
    weights_sparse: np.ndarray | None      # None when the branch kept nothing
    weights_dense: np.ndarray | None
    empty_sparse: bool
    empty_dense: bool


def _patch_matrix(patches: np.ndarray, params: SelectionParams) -> np.ndarray:
    patches = np.asarray(patches, dtype=np.float64)
    if patches.ndim < 2 or patches.shape[-1] != params.dim:
        raise ShapeError(f"patches shape {patches.shape[-2:]} does not match dim {params.dim}")
    return np.ascontiguousarray(patches)  # the layout a Tensor stores


def _predict_forward(v: np.ndarray, params: SelectionParams, what: str):
    """Hidden activations and sigmoid outputs of the prediction head; stacks too."""
    pre = v @ params.pred_w1.data
    pre += params.pred_b1.data
    hidden = np.tanh(ad.finite(what, pre), out=pre)
    logits = ad.finite(what, hidden @ params.pred_w2.data + params.pred_b2.data)
    return hidden, ad.sigmoid_np(logits)


def predict_scores(patches: np.ndarray, params: SelectionParams) -> Tensor:
    """Learned significance in (0,1) for every patch, as one `predict` node;
    the patches are data and get no gradient."""
    v = _patch_matrix(patches, params)
    hidden, out = _predict_forward(v, params, "the predicted scores")
    w2 = params.pred_w2.data

    def vjp(g):
        g_logits = g * out * (1.0 - out)
        g_pre = np.outer(g_logits, w2) * (1.0 - hidden * hidden)
        return v.T @ g_pre, np.add.reduce(g_pre, axis=0), hidden.T @ g_logits, g_logits.sum()

    parents = (params.pred_w1, params.pred_b1, params.pred_w2, params.pred_b2)
    return ad.finite_node(out, parents, vjp, "predict")  # of logits checked finite


def _attention_part(beta: float, text: np.ndarray, image: np.ndarray) -> np.ndarray:
    return beta * (2.0 * text + 2.0 * image)


def _branch_scores(bundle: ScoreBundle, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Both branches' scores, unclipped and clipped to [0, CLIP_HI], as 2 x n rows."""
    views = np.array((bundle.sparse_text, bundle.dense_text))
    x = ad.finite("the branch score", bundle.predicted.data * float(1.0 - 2.0 * beta)
                  + _attention_part(beta, views, bundle.image_self))  # and so is its clip
    return x, x.clip(0.0, CLIP_HI)


def branch_scores(bundle: ScoreBundle, beta: float) -> tuple[Tensor, Tensor]:
    """Per-branch decision scores `decide` draws from, clipped to [0, 1) for
    the log domain, as constants, sparse first.  Each branch fills the missing
    modality's slot with its own attention score, so sparse and dense
    branches see the same total weight mass."""
    return tuple(map(ad.constant, _branch_scores(bundle, beta)[1]))


def decide(bundle: ScoreBundle, beta: float, tau: float,
           noise: np.ndarray | None = None) -> Decisions:
    """Both branches' two-logit Gumbel decisions, from one `decide` node.

    Per branch and patch, keep = log(s + eps) and drop = log(1 - s + eps)
    for the branch score s; `noise`, when given, is i.i.d. Gumbel noise of
    shape 2 x 2 x n (per branch, keep then drop), added to those logits.
    The keep probability is the softmax of the pair at temperature tau.  A
    patch is kept iff that probability strictly exceeds 0.5, so an exactly
    ambivalent score drops.  The node's only parent is the prediction,
    which both branches read scaled by 1 - 2*beta.
    """
    x, s = _branch_scores(bundle, beta)
    check_range("tau", tau)
    keep_in = s + EPS_LOG  # both in (0, 2): their logs are finite
    drop_in = 1.0 - s + EPS_LOG
    diff = ad.finite("the decision logit", np.log(keep_in) + -np.log(drop_in))
    if noise is not None:
        diff = diff + (noise[:, 0] - noise[:, 1])
    inv_tau, scale = float(1.0 / tau), float(1.0 - 2.0 * beta)
    inside = (x >= 0.0) & (x <= CLIP_HI)

    def vjp(g):
        g_diff = g * inv_tau
        g_score = (g_diff / keep_in + -(-g_diff / drop_in)) * inside
        return ((g_score[0] + g_score[1]) * scale,)

    logit = ad.node(diff * inv_tau, (bundle.predicted,), vjp, "decide")
    soft = ad.sigmoid(logit)
    return Decisions(hard=(soft.data > 0.5).astype(np.float64), soft=soft, logit=logit,
                     score=s)


def column_softmax(x: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Softmax of each column over the rows in the boolean `support`; the
    other rows are exactly zero."""
    rows = x[support]
    e = np.exp(rows - np.maximum.reduce(rows, axis=0, keepdims=True))
    out = np.zeros(x.shape)
    out[support] = e / np.add.reduce(e, axis=0, keepdims=True)
    return out


def _branch_weights(v: np.ndarray, weight: Tensor, bias: Tensor, logit: np.ndarray,
                    kept: np.ndarray, mode: str) -> np.ndarray | None:
    """Column-softmax aggregation weights of one branch, or None if the
    branch kept nothing.  Soft mode adds the log keep probability to every
    row's logits and normalises over all rows."""
    logits = ad.finite("the aggregation logits", v @ weight.data + bias.data[None, :])
    if mode == "soft":
        x = ad.finite("the aggregation logits", logits + (-np.logaddexp(0.0, -logit))[:, None])
        return column_softmax(x, np.ones(len(x), dtype=bool))
    return column_softmax(logits, kept) if kept.any() else None


def aggregate(patches: np.ndarray, decisions: Decisions, params: SelectionParams,
              mode: str = "train") -> AggregatedPatches:
    """Fuse surviving patches of both branches into n_keep vectors as one
    `aggregate` node: the sum over branches of (weights * gate[:, None]).T @ v.

    Weight columns are softmax-normalized over each branch's survivors, so
    every used column sums to one; a branch that kept nothing contributes
    the zero matrix and is flagged.  Raises when both branches are empty.
    Parents: each non-empty branch's weight and bias, sparse first, then the
    decision logit in soft mode, then the gate; a logit or gate row of a
    branch that kept nothing gets the adjoint -0.0, which adds nothing.
    """
    v = _patch_matrix(patches, params)
    if decisions.hard.shape != (2, len(v)):
        raise ShapeError("mask length does not match patch count")
    layers = ((params.agg_sparse_w, params.agg_sparse_b), (params.agg_dense_w, params.agg_dense_b))
    logit, kept = decisions.logit.data, decisions.kept
    w_s, w_d = (_branch_weights(v, weight, bias, logit[r], kept[r], mode)
                for r, (weight, bias) in enumerate(layers))
    if w_s is None and w_d is None:
        raise NoPatchesSelectedError("no patches selected")
    soft = mode == "soft"
    gate = decisions.gate(mode)
    parts, live, parents = [], [], []
    for r, (w, (weight, bias)) in enumerate(zip((w_s, w_d), layers)):
        if w is None:  # the zero matrix keeps the sum's ±0.0 signs
            parts.append(np.zeros((params.n_keep, v.shape[1])))
            continue
        parts.append((w * gate.data[r][:, None]).T.copy() @ v)
        live.append((r, w))
        parents += [weight, bias]
    parents += [*([decisions.logit] if soft else []), gate]

    def vjp(g):
        g_gated = (g @ v.T).T
        grads, g_logit, g_gate = [], np.full(logit.shape, -0.0), np.full(logit.shape, -0.0)
        for r, w in live:
            g_w = g_gated * gate.data[r][:, None]
            g_x = w * (g_w - np.add.reduce(g_w * w, axis=0, keepdims=True))
            if soft:
                g_logit[r] = np.add.reduce(g_x, axis=1) * ad.sigmoid_np(-logit[r])
            g_gate[r] = np.add.reduce(g_gated * w, axis=1)
            grads += [v.T @ g_x, np.add.reduce(g_x, axis=0)]
        return [*grads, *([g_logit] if soft else []), g_gate]

    vectors = ad.node(parts[0] + parts[1], tuple(parents), vjp, "aggregate")
    return AggregatedPatches(vectors, w_s, w_d, empty_sparse=w_s is None, empty_dense=w_d is None)


def decision_rng(seed: int, sample_id: str, step: int = 0) -> np.random.Generator:
    """Noise stream reproducibly keyed by (run seed, sample, step)."""
    return np.random.default_rng(
        np.random.SeedSequence([seed, stable_id_hash(sample_id), step]))


def attention_views(views: tuple[np.ndarray, ...], params: SelectionParams) -> tuple:
    """A sample's or a stack's `views`, the dense one zeroed under `zero_dense_attention`."""
    s_st, s_dt, s_im = views
    return (s_st, np.zeros_like(s_dt), s_im) if params.zero_dense_attention else views


def sparse_eval_scores(samples: Sequence[Sample], params: SelectionParams) -> np.ndarray:
    """Eval-mode sparse-branch score of every patch of C samples that share
    one patch shape, as a C x n matrix from one stacked pass with no tape, over
    each sample's own `views`, stacked.  Stacked `np.matmul` runs the 2-D
    kernel per slice, so row c is bitwise the sparse row of the `score` of
    `score_and_decide(samples[c], ..., "eval")`; it raises NonFiniteError
    wherever that path's Tensor checks would."""
    patches = _patch_matrix(np.array([s.patches for s in samples]), params)
    views = tuple(np.array(view) for view in zip(*(s.views for s in samples)))
    s_st, s_dt, s_im = attention_views(views, params)
    what = "the sparse-branch score"
    _, pred = _predict_forward(patches, params, what)
    pred = pred * (1.0 - 2.0 * params.beta)
    # the taped path checks the dense branch's unclipped score too
    x = ad.finite(what, pred + _attention_part(params.beta, s_st, s_im), s_dt)
    return np.clip(x, 0.0, CLIP_HI)


def score_and_decide(
    sample: Sample,
    params: SelectionParams,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> tuple[ScoreBundle, Decisions]:
    """Stage 1 plus both branches' decisions, without aggregation.

    Gumbel noise is sampled only in train mode, in one draw with the bits of
    four draws of n: sparse keep and drop, then dense keep and drop.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode: {mode}")
    bundle = ScoreBundle(predict_scores(sample.patches, params),
                         *attention_views(sample.views, params))
    if mode == "train" and rng is None:
        raise ConfigError("noise requires an rng")
    noise = rng.gumbel(size=(2, 2, sample.n_patches)) if mode == "train" else None
    return bundle, decide(bundle, params.beta, params.tau, noise)


def select_and_aggregate(
    sample: Sample,
    params: SelectionParams,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> tuple[AggregatedPatches, ScoreBundle, Decisions]:
    """Full selection pass for one sample: scoring, decisions, aggregation."""
    bundle, decisions = score_and_decide(sample, params, mode, rng)
    return aggregate(sample.patches, decisions, params, mode), bundle, decisions
