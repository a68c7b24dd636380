"""Patch-word alignment scoring.

Builds the cosine similarity matrix between aggregated patch vectors and
caption word features, then scores the pair with four terms: mean of
row-wise maxima, a learned head over the top-K row maxima, and the same
two terms column-wise.  Heads are linear by default (zero-initialized so
scoring starts as pure mean pooling) with an optional tanh hidden layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DegenerateVectorError, ShapeError

DIRECTIONS = ("patch_to_word", "word_to_patch")


@dataclass
class RelevanceHead:
    """Maps the top-K pooled maxima to one scalar."""

    out_w: Tensor                 # (k,) linear, or (hidden,) after the tanh layer
    out_b: Tensor                 # scalar
    hid_w: Tensor | None = None   # (k, hidden) when the hidden layer is enabled
    hid_b: Tensor | None = None

    def apply(self, pooled: Tensor) -> Tensor:
        x = pooled
        if self.hid_w is not None:
            x = ad.tanh(ad.add(ad.matmul(ad.transpose(self.hid_w), x), self.hid_b))
        return ad.add(ad.dot(self.out_w, x), self.out_b)

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
    """Total image-text score and its four summands (all scalar tensors)."""

    mean_p2w: Tensor
    head_p2w: Tensor
    mean_w2p: Tensor
    head_w2p: Tensor
    total: Tensor

    def components(self) -> tuple[float, float, float, float]:
        return (self.mean_p2w.item(), self.head_p2w.item(),
                self.mean_w2p.item(), self.head_w2p.item())


def similarity_matrix(patches: Tensor | np.ndarray,
                      words: Tensor | np.ndarray) -> Tensor:
    """Exact cosine of every patch-word pair, patches along rows and words
    along columns; zero-norm vectors are refused.

    Both sides may be graph tensors; plain arrays enter as constants.
    """
    if not isinstance(patches, Tensor):
        patches = ad.constant(np.asarray(patches, dtype=np.float64))
    if not isinstance(words, Tensor):
        words = ad.constant(np.asarray(words, dtype=np.float64))
    if patches.ndim != 2 or words.ndim != 2 or patches.shape[1] != words.shape[1]:
        raise ShapeError(f"incompatible shapes {patches.shape} vs {words.shape}")
    if (np.any(np.linalg.norm(words.data, axis=1) == 0.0)
            or np.any(np.linalg.norm(patches.data, axis=1) == 0.0)):
        raise DegenerateVectorError("degenerate vector in alignment")
    raw = ad.matmul(patches, ad.transpose(words))
    return ad.scale_cols(ad.scale_rows(raw, ad.recip(ad.rows_l2norm(patches))),
                         ad.recip(ad.rows_l2norm(words)))


def relevance_pool(sim: Tensor, direction: str,
                   params: AlignmentParams) -> tuple[Tensor, Tensor]:
    """Mean and top-K head terms for one pooling direction.

    patch_to_word pools row maxima over words; word_to_patch pools column
    maxima over patches.  The head input is always length k_top thanks to
    the padded topk.
    """
    if direction not in DIRECTIONS:
        raise ConfigError(f"unknown direction: {direction}")
    matrix = sim if direction == "patch_to_word" else ad.transpose(sim)
    maxima, _ = ad.row_max_with_arg(matrix)
    mean_term = ad.mean_all(maxima)
    pooled, _ = ad.topk(maxima, params.k_top)
    head = params.p2w if direction == "patch_to_word" else params.w2p
    return mean_term, head.apply(pooled)


def score_from_similarity(sim: Tensor, params: AlignmentParams) -> AlignmentScore:
    mean_p2w, head_p2w = relevance_pool(sim, "patch_to_word", params)
    mean_w2p, head_w2p = relevance_pool(sim, "word_to_patch", params)
    total = ad.add(ad.add(ad.add(mean_p2w, head_p2w), mean_w2p), head_w2p)
    return AlignmentScore(mean_p2w=mean_p2w, head_p2w=head_p2w,
                          mean_w2p=mean_w2p, head_w2p=head_w2p, total=total)


def align_score(patches: Tensor | np.ndarray, words: np.ndarray,
                params: AlignmentParams) -> AlignmentScore:
    """Four-term alignment score between one image's aggregated patches and
    one caption's words."""
    return score_from_similarity(similarity_matrix(patches, words), params)
