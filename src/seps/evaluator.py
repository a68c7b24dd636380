"""Retrieval evaluation and selection diagnostics.

Recall@K counts a query as a hit when any of its ground-truth gallery
indices ranks inside the top K, with score ties broken toward the lower
gallery index.  rSum adds the six recalls (both directions, K in 1/5/10).
Selection quality scores the sparse-branch ranking against the synthetic
relevance masks as an ROC AUC, over stacks of samples that share one patch
shape, scored side by side on a thread pool with a worker per usable CPU.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import objective, selection
from .bank import FeatureBank
from .errors import BankInvariantError, ConfigError

K_VALUES = (1, 5, 10)


@dataclass(frozen=True)
class GroundTruth:
    """Correct gallery indices per query; every query needs at least one."""

    positives: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if any(len(p) == 0 for p in self.positives):
            raise ConfigError("ground truth empty for some query")

    @staticmethod
    def identity(n: int) -> "GroundTruth":
        return GroundTruth(tuple(frozenset((i,)) for i in range(n)))


@dataclass(frozen=True)
class RetrievalReport:
    i2t_r1: float
    i2t_r5: float
    i2t_r10: float
    t2i_r1: float
    t2i_r5: float
    t2i_r10: float
    rsum: float

    def machine_line(self) -> str:
        fields = (self.i2t_r1, self.i2t_r5, self.i2t_r10,
                  self.t2i_r1, self.t2i_r5, self.t2i_r10, self.rsum)
        return ",".join(f"{v:.4f}" for v in fields)

    def table(self) -> str:
        rows = [
            f"{'':>14}  {'R@1':>7}  {'R@5':>7}  {'R@10':>7}",
            f"{'image-to-text':>14}  {self.i2t_r1:7.2f}  {self.i2t_r5:7.2f}  {self.i2t_r10:7.2f}",
            f"{'text-to-image':>14}  {self.t2i_r1:7.2f}  {self.t2i_r5:7.2f}  {self.t2i_r10:7.2f}",
            f"{'rSum':>14}  {self.rsum:7.2f}",
        ]
        return "\n".join(rows)


def recall_at_k(scores: np.ndarray, gt: GroundTruth, k: int) -> float:
    """Percentage of queries whose ground truth appears in the top-k list.

    A positive's rank is the count of strictly higher scores plus the count
    of equal scores at a lower gallery index; a query hits when any of its
    positives ranks below k.  With one positive per query, each query's row
    is read in place; with more, the rows are gathered once per positive.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] < 1:
        raise ConfigError("scores must be a Q x G matrix")
    queries, gallery = scores.shape
    if len(gt.positives) != queries:
        raise ConfigError("ground truth size does not match query count")
    if k < 1 or k > gallery:
        raise ConfigError(f"k={k} outside gallery size {gallery}")
    if not np.isfinite(scores).all():
        raise ConfigError("scores must be finite")
    query = np.repeat(np.arange(queries), [len(p) for p in gt.positives])
    item = np.array([g for p in gt.positives for g in sorted(p)], dtype=np.intp)
    if item.min() < 0 or item.max() >= gallery:
        raise ConfigError("ground truth index outside the gallery")
    row = scores if len(query) == queries else scores[query]
    own = scores[query, item][:, None]
    rank = (np.count_nonzero(row > own, axis=1)
            + np.count_nonzero((row == own) & (np.arange(gallery) < item[:, None]), axis=1))
    hit = np.zeros(queries, dtype=bool)
    np.logical_or.at(hit, query, rank < k)
    return 100.0 * int(np.count_nonzero(hit)) / queries


def rsum(recalls: Sequence[float]) -> float:
    """Exact left-to-right sum of the six recall percentages."""
    if len(recalls) != 6:
        raise ConfigError("rsum expects exactly six recalls")
    total = 0.0
    for value in recalls:
        total += float(value)
    return total


def check_dims(bank: FeatureBank, params) -> None:
    if bank.dim != params.selection.dim:
        raise ConfigError("dimension mismatch between bank and checkpoint")


def check_retrieval_bank(bank: FeatureBank, params) -> None:
    """The rules a bank must meet before `retrieval_eval` scores it."""
    if len(bank.samples) < 2:
        raise ConfigError("retrieval needs at least two samples")
    check_dims(bank, params)


def pairwise_scores(bank: FeatureBank, params) -> np.ndarray:
    """S[i, j] = eval-mode `objective.score_grid` score of image i against
    caption j, each row filled in place: one selection pass per image and
    one similarity product per image and caption word-count, read pair by
    pair in row-major order, so an error names the first failing pair in
    that order."""
    check_dims(bank, params)
    scores = np.zeros((len(bank.samples), len(bank.samples)))
    with ad.no_grad():
        grid = objective.score_grid(bank.samples, bank.samples, params.selection,
                                    params.alignment)
        for i, (_, row) in enumerate(grid):
            scores[i] = [score.total.item() for score in row]
    return scores


def _six_recalls(scores: np.ndarray) -> list[float]:
    # K is clamped to the gallery size so small banks stay evaluable
    n = scores.shape[0]
    gt = GroundTruth.identity(n)
    return ([recall_at_k(scores, gt, min(k, n)) for k in K_VALUES]
            + [recall_at_k(scores.T, gt, min(k, n)) for k in K_VALUES])


def retrieval_eval(bank: FeatureBank, params, folds: int = 1) -> RetrievalReport:
    """Evaluate retrieval in both directions over all pairs in the bank.

    The bank is split into `folds` contiguous folds of two or more samples;
    each is scored and evaluated in isolation, by one `pairwise_scores` call
    on its samples, and the six recalls are averaged.  An error names the
    first failing pair of the first failing fold, in fold order.
    """
    check_retrieval_bank(bank, params)
    n = len(bank.samples)
    if folds < 1 or n % folds != 0:
        raise ConfigError("fold count must divide the sample count")
    if n // folds < 2:
        raise ConfigError("fold count leaves folds of fewer than two samples")
    size = n // folds
    per_fold = [_six_recalls(pairwise_scores(FeatureBank(bank.dim, bank.samples[at:at + size]),
                                             params))
                for at in range(0, n, size)]
    recalls = [float(np.mean([fold[i] for fold in per_fold])) for i in range(6)]
    return RetrievalReport(
        i2t_r1=recalls[0], i2t_r5=recalls[1], i2t_r10=recalls[2],
        t2i_r1=recalls[3], t2i_r5=recalls[4], t2i_r10=recalls[5],
        rsum=rsum(recalls),
    )


# ---------------------------------------------------------------------------
# selection diagnostics


def _row_aucs(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Rank-based ROC AUC of every row (the last axis), ties at midrank;
    midranks are half-integers, so each row's rank sum is exact in any order."""
    order = np.argsort(scores, axis=-1)
    ordered = np.take_along_axis(scores, order, axis=-1)
    pos = np.take_along_axis(labels == 1, order, axis=-1)
    n = scores.shape[-1]
    at = np.arange(n)
    # a tie group spanning sorted positions i..j shares the rank (i+j)/2 + 1;
    # a group ends where the next one starts
    starts = np.insert(ordered[..., 1:] != ordered[..., :-1], 0, True, axis=-1)
    first = np.maximum.accumulate(np.where(starts, at, 0), axis=-1)
    ends = np.where(np.roll(starts, -1, axis=-1), at, n - 1)
    ranks = 0.5 * (first + np.minimum.accumulate(ends[..., ::-1], axis=-1)[..., ::-1]) + 1.0
    n_pos = np.count_nonzero(pos, axis=-1)
    n_neg = n - n_pos
    if not (n_pos.all() and n_neg.all()):
        raise BankInvariantError("AUC needs both classes")
    return (np.where(pos, ranks, 0.0).sum(axis=-1) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# a stack's patches (10 samples at 196 x 64) and a rank block's scores stay
# under this many bytes: enough to amortise per-call overhead, near the cache
STACK_BYTES = 1 << 20


def selection_quality(bank: FeatureBank, params) -> float:
    """Mean per-sample AUC of the eval-mode sparse-branch score vs the
    ground-truth relevance mask; a sample without a two-class mask is
    skipped before any scoring, one whose branches both keep nothing still
    counts.  Each run of consecutive samples of one patch shape is scored in
    stacks of at most STACK_BYTES of patches and ranked in blocks of whole
    stacks of at most STACK_BYTES of scores (or one stack), bitwise equal to
    one sample at a time.  Each stack is one task of a thread pool opened
    for the call, with a worker per CPU the process may run on, under the
    caller's numpy error state; the calling thread ranks each block in bank
    order once its stacks are scored.  The first failing stack in bank order
    raises, and stacks not yet started are cancelled.  Each scored sample
    keeps the `views` that the first call's read of `Sample.views` derives
    for it; nothing else is kept."""
    from concurrent.futures import ThreadPoolExecutor  # here: only this call pays its import

    check_dims(bank, params)
    scored = [s for s in bank.samples if s.relevance_mask is not None
              and s.relevance_mask.min() != s.relevance_mask.max()]
    if not scored:
        raise BankInvariantError("no masks")
    errors = dict(np.geterr(), call=np.geterrcall())  # numpy keeps these per thread

    def score(stack: list) -> np.ndarray:
        with np.errstate(**errors):
            return selection.sparse_eval_scores(stack, params.selection)

    pool = ThreadPoolExecutor(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                              else os.cpu_count() or 1)
    try:
        blocks = []  # each rank block's samples and its stacks' tasks, in bank order
        for _, run in itertools.groupby(scored, key=lambda s: s.patches.shape):
            run = list(run)
            size = max(1, STACK_BYTES // run[0].patches.nbytes)
            # a block's scores are float64: 8 bytes per patch of each sample
            block = size * max(1, STACK_BYTES // (8 * size * len(run[0].patches)))
            for start in range(0, len(run), block):
                part = run[start:start + block]
                blocks.append((part, [pool.submit(score, part[at:at + size])
                                      for at in range(0, len(part), size)]))
        aucs = [_row_aucs(np.concatenate([task.result() for task in tasks]),
                          np.stack([sample.relevance_mask for sample in part]))
                for part, tasks in blocks]
    finally:
        pool.shutdown(cancel_futures=True)
    return float(np.mean(np.concatenate(aucs)))
