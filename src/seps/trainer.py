"""Parameter initialization, decoupled-weight-decay optimizer, epoch loop.

Training is single-threaded and fully seeded: two runs with the same
config produce bitwise-identical histories and checkpoints.  Checkpoints
are "SEPC" containers of named float32 tensors (little-endian) plus the
scalar hyperparameters needed to rebuild the model for evaluation.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

import numpy as np

from . import autodiff as ad
from . import evaluator, objective, selection
from .alignment import AlignmentParams, RelevanceHead
from .autodiff import Tensor
from .bank import FeatureBank, Reader, text_chunk, write_atomic
from .errors import (BankFormatError, ConfigError, DivergenceError, NumericalError,
                     check_fields, check_range)
from .objective import ObjectiveConfig
from .selection import SelectionParams

CKPT_MAGIC = b"SEPC"
CKPT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    dim: int = 32
    n_patches: int = 16
    lr: float = 1e-4
    weight_decay: float = 1e-2
    batch_size: int = 8
    epochs: int = 20
    margin: float = 0.2
    rho: float = 0.5
    lambda1: float = 1.0
    lambda2: float = 1.0
    beta: float = 0.2
    tau: float = 1.0
    k_top: int = 8
    n_keep: int = 0          # 0 -> ceil(rho * n_patches)
    head_hidden: int = 0     # 0 -> linear relevance heads
    seed: int = 0
    grad_check_every: int = 0  # steps between sampled finite-difference audits

    def __post_init__(self) -> None:
        check_fields(self)
        for key in ("beta", "tau", "rho"):  # which a checkpoint stores as float32
            check_range(key, getattr(self, key), as_f32=True)

    @property
    def keep_count(self) -> int:
        return self.n_keep if self.n_keep > 0 else max(1, math.ceil(self.rho * self.n_patches))

    def objective(self) -> ObjectiveConfig:
        return ObjectiveConfig(margin=self.margin, rho=self.rho,
                               lambda1=self.lambda1, lambda2=self.lambda2)


@dataclass
class ModelParams:
    selection: SelectionParams
    alignment: AlignmentParams

    def tensors(self) -> list[Tensor]:
        """Every model tensor, in `_layout` order."""
        return [*self.selection.tensors(), *self.alignment.p2w.tensors(),
                *self.alignment.w2p.tensors()]

    def hyper(self) -> dict:
        """The hyperparameters a checkpoint stores, the sizes read from the shapes."""
        sel, align = self.selection, self.alignment
        return dict(dim=sel.dim, beta=sel.beta, tau=sel.tau, rho=sel.rho, n_keep=sel.n_keep,
                    k_top=align.k_top,
                    head_hidden=0 if align.p2w.hid_w is None else align.p2w.hid_w.shape[1])

    def named(self) -> Iterator[tuple[str, Tensor]]:
        return zip((name for name, _, _ in _layout(**self.hyper())), self.tensors(),
                   strict=True)


HYPER_KEYS = ("dim", "beta", "tau", "rho", "n_keep", "k_top", "head_hidden")


def _layout(dim, n_keep, k_top, head_hidden, **_knobs) -> list[tuple[str, tuple, bool]]:
    """Every model tensor as (name, shape, drawn), in checkpoint and
    `named()` order, which is also the order of the init's draws; the only
    list of tensor names.  `_knobs` takes the rest of a `hyper()` dict."""
    layout = [("pred.w1", (dim, dim), True), ("pred.b1", (dim,), False),
              ("pred.w2", (dim,), True), ("pred.b2", (), False)]
    for branch in ("agg_sparse", "agg_dense"):
        layout += [(f"{branch}.w", (dim, n_keep), True), (f"{branch}.b", (n_keep,), False)]
    for head in ("head_p2w", "head_w2p"):
        if head_hidden:
            layout += [(f"{head}.hid_w", (k_top, head_hidden), True),
                       (f"{head}.hid_b", (head_hidden,), False)]
        layout += [(f"{head}.w", (head_hidden or k_top,), False), (f"{head}.b", (), False)]
    return layout


def _assemble(tensors: dict[str, np.ndarray], hyper: dict) -> ModelParams:
    """The model from its tensors, named and ordered as in `_layout`, and the
    beta, tau and rho in `hyper`.  A name "<prefix>.<leaf>" fills the
    selection field <prefix>_<leaf>, or, under a head_* prefix, that head's
    out_<leaf> (w, b) or <leaf> (hid_w, hid_b)."""
    sel: dict[str, Tensor] = {}
    heads: dict[str, dict[str, Tensor]] = {}
    for name, data in tensors.items():
        prefix, leaf = name.split(".")
        tensor = ad.tensor(data, requires_grad=True, name=name)
        if prefix.startswith("head_"):
            heads.setdefault(prefix, {})[leaf if "_" in leaf else f"out_{leaf}"] = tensor
        else:
            sel[f"{prefix}_{leaf}"] = tensor
    p2w, w2p = (RelevanceHead(**fields) for fields in heads.values())
    return ModelParams(SelectionParams(**sel, beta=hyper["beta"], tau=hyper["tau"],
                                       rho=hyper["rho"]), AlignmentParams(p2w, w2p))


def init_params(cfg: TrainConfig, rng: np.random.Generator | None = None) -> ModelParams:
    """Fresh parameters: perceptron weights ~ U(+-1/sqrt(fan_in)), fan_in
    being a weight's first dimension; biases and the heads' output layers
    zero, so scoring starts at the mean baseline."""
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 11]))
    tensors = {}
    for name, shape, drawn in _layout(cfg.dim, cfg.keep_count, cfg.k_top, cfg.head_hidden):
        bound = 1.0 / math.sqrt(shape[0]) if drawn else 0.0
        tensors[name] = rng.uniform(-bound, bound, size=shape) if drawn else np.zeros(shape)
    return _assemble(tensors, vars(cfg))


# ---------------------------------------------------------------------------
# optimizer


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class OptimizerState:
    """The step count and both moments, each one flat float64 buffer in
    `_layout` order (none before the first step)."""
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def optimizer_step(params: ModelParams, grads: dict[Tensor, Tensor],
                   state: OptimizerState, cfg: TrainConfig) -> None:
    """One decoupled-weight-decay update of every parameter as one flat
    vector, a tensor absent from `grads` having a zero gradient:

    theta <- theta - lr * (mhat / (sqrt(vhat) + eps) + weight_decay * theta)

    A divergent step raises and changes no parameter, moment or step count.
    """
    tensors = params.tensors()
    theta = np.concatenate([p.data.ravel() for p in tensors])
    g = np.concatenate([grads[p].data.ravel() if p in grads else np.zeros(p.size)
                        for p in tensors])
    t = state.step + 1
    m, v = (state.m, state.v) if state.step else (np.zeros(g.size), np.zeros(g.size))
    with np.errstate(over="ignore", invalid="ignore"):  # -> DivergenceError below
        m = BETA1 * m + (1.0 - BETA1) * g
        v = BETA2 * v + (1.0 - BETA2) * g * g  # not finite where g is not
        m_hat = m / (1.0 - BETA1 ** t)
        v_hat = v / (1.0 - BETA2 ** t)
        fresh = theta - cfg.lr * (m_hat / (np.sqrt(v_hat) + EPS) + cfg.weight_decay * theta)
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(fresh))):
        raise DivergenceError("divergence detected")
    state.step, state.m, state.v = t, m, v
    for p, end in zip(tensors, accumulate(p.size for p in tensors)):
        p.data = fresh[end - p.size:end].reshape(p.shape)


# ---------------------------------------------------------------------------
# training loop


@dataclass
class EpochStats:
    epoch: int
    loss: float
    keep_sparse: float
    keep_dense: float
    val_r1: float | None = None


def _audit_gradients(samples, views, params: ModelParams, cfg: TrainConfig,
                     rng: np.random.Generator) -> None:
    """Spot-check backprop against central differences on the smooth
    relaxation of the current batch loss, at 10 random coordinates."""
    obj = cfg.objective()

    def loss_value() -> float:
        with ad.no_grad():
            batch = objective.batch_similarity(samples, params.selection, params.alignment,
                                               "soft", cfg.seed, views=views)
            return objective.batch_loss(batch, obj).item()

    batch = objective.batch_similarity(samples, params.selection, params.alignment,
                                       "soft", cfg.seed, views=views)
    tensors = params.tensors()
    grads = ad.gradient(objective.batch_loss(batch, obj), tensors)
    flat = [(ti, ci) for ti, t in enumerate(tensors) for ci in range(t.size)]
    picks = rng.choice(len(flat), size=min(10, len(flat)), replace=False)
    for pick in picks:
        ti, ci = flat[int(pick)]
        tensor = tensors[ti]
        analytic = float(grads[tensor].data.reshape(-1)[ci])
        numeric = ad.central_difference(loss_value, tensor, ci)
        rel = abs(analytic - numeric) / max(1.0, abs(analytic))
        if rel >= 1e-3:
            raise NumericalError(
                f"gradient audit failed at coordinate {ci}: rel error {rel:.2e}")


def fit(
    bank: FeatureBank,
    cfg: TrainConfig,
    val_bank: FeatureBank | None = None,
    checkpoint_path=None,
    params: ModelParams | None = None,
) -> tuple[ModelParams, list[EpochStats]]:
    """Seeded epoch loop over shuffled mini-batches.

    Records loss and keep rates per epoch (plus validation R@1 when a
    validation bank is given, checked against `retrieval_eval`'s rules
    before the first step) and rewrites the checkpoint after each epoch,
    so a divergent run keeps the last completed epoch on disk.  Each
    sample's attention views depend on its features alone, so they are
    computed once per fit.
    """
    if len(bank.samples) < cfg.batch_size:
        raise ConfigError("bank smaller than batch size")
    if params is None:
        params = init_params(cfg)
    if val_bank is not None:
        evaluator.check_retrieval_bank(val_bank, params)
    obj = cfg.objective()
    state = OptimizerState()
    history: list[EpochStats] = []
    global_step = 0
    n = len(bank.samples)
    views = [selection.attention_views(sample, params.selection) for sample in bank.samples]

    for epoch in range(cfg.epochs):
        shuffle = np.random.default_rng(np.random.SeedSequence([cfg.seed, 7, epoch]))
        order = shuffle.permutation(n)
        losses: list[float] = []
        keeps_s: list[float] = []
        keeps_d: list[float] = []
        for start in range(0, n, cfg.batch_size):
            chunk = order[start:start + cfg.batch_size]
            if chunk.size < 2:
                continue  # a lone sample has no in-batch negative
            samples = [bank.samples[int(i)] for i in chunk]
            batch_views = [views[int(i)] for i in chunk]
            batch = objective.batch_similarity(
                samples, params.selection, params.alignment, "train",
                seed=cfg.seed, step=global_step, views=batch_views)
            loss = objective.batch_loss(batch, obj)
            grads = ad.gradient(loss, params.tensors())
            if cfg.grad_check_every > 0 and global_step % cfg.grad_check_every == 0:
                audit_rng = np.random.default_rng(
                    np.random.SeedSequence([cfg.seed, 13, global_step]))
                _audit_gradients(samples, batch_views, params, cfg, audit_rng)
            optimizer_step(params, grads, state, cfg)
            losses.append(loss.item())
            ks, kd = batch.keep_fractions()
            keeps_s.append(ks)
            keeps_d.append(kd)
            global_step += 1

        val_r1 = None
        if val_bank is not None:
            report = evaluator.retrieval_eval(val_bank, params)
            val_r1 = 0.5 * (report.i2t_r1 + report.t2i_r1)
        history.append(EpochStats(
            epoch=epoch,
            loss=float(np.mean(losses)),
            keep_sparse=float(np.mean(keeps_s)),
            keep_dense=float(np.mean(keeps_d)),
            val_r1=val_r1,
        ))
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, params)
    return params, history


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params: ModelParams) -> None:
    hyper = params.hyper()
    entries = [(n, t.data) for n, t in params.named()] + [
        (f"hyper.{key}", hyper[key]) for key in HYPER_KEYS]
    chunks = [CKPT_MAGIC, struct.pack("<II", CKPT_VERSION, len(entries))]
    for name, data in entries:
        arr = np.asarray(data, dtype=np.float64)
        with np.errstate(over="ignore"):
            narrowed = np.ascontiguousarray(arr, dtype="<f4")
        if not np.all(np.isfinite(narrowed)):
            # refuse to replace a good checkpoint with an overflowed one
            raise DivergenceError("divergence detected")
        chunks.append(text_chunk(name))
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(narrowed.tobytes())
    write_atomic(path, chunks)


def load_checkpoint(path) -> ModelParams:
    """Raises BankFormatError for a damaged file, and for one that lacks an
    entry, holds an extra or repeated one, or has a tensor shaped against
    its hyperparameters."""
    reader = Reader(path, "checkpoint")
    if reader.take(4) != CKPT_MAGIC:
        raise BankFormatError("not a checkpoint")
    if reader.u32() != CKPT_VERSION:
        raise BankFormatError("unsupported version")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(reader.u32()):
        name = reader.text()
        if name in tensors:
            raise reader.corrupt()
        tensors[name] = reader.floats(tuple(reader.u32() for _ in range(reader.u32())))
    reader.finish()

    try:
        hyper = {key: tensors[f"hyper.{key}"].item() for key in HYPER_KEYS}
    except (KeyError, ValueError):  # absent, or not a single value
        raise reader.corrupt() from None
    layout = _layout(**hyper)
    expected = {f"hyper.{key}": () for key in HYPER_KEYS} | {n: shape for n, shape, _ in layout}
    if tensors.keys() != expected.keys() or any(
            tensors[name].shape != shape for name, shape in expected.items()):
        raise reader.corrupt()
    return _assemble({name: tensors[name] for name, _, _ in layout}, hyper)
