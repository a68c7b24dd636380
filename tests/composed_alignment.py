"""The pair score composed from generic tape ops: the gradient oracle.

`alignment.similarity_matrix` and `alignment.score_from_similarity` are one
tape node each.  This module keeps the path they replaced, built from
`seps.autodiff` ops, the generic ops of tests/composed_selection.py and seven
ops that only this path needs, so tests can hold the fused nodes to
bitwise-equal values and gradients.  Its operand
order (Wt as a contiguous copy, then 1/|p| on rows, then 1/|w| on columns;
hid_wt likewise) is the one the fused forward keeps.

`dense_stack` is `ad.stack` with the dense backward it replaced, which hands
every cell its adjoint, zero or not, so every pair's vjps run; tests swap
it in to hold the sparse backward to the same bytes.
"""

import numpy as np

from composed_selection import matmul, scale_rows, tanh, transpose

from seps import autodiff as ad
from seps.alignment import AlignmentParams, AlignmentScore, RelevanceHead, Rows
from seps.errors import DegenerateVectorError, ShapeError


def dense_stack(parts, shape) -> ad.Tensor:
    parts = tuple(parts)
    data = np.array([p.data.reshape(()) for p in parts], dtype=np.float64).reshape(shape)

    def vjp(g):
        flat = g.reshape(-1)
        return tuple(flat[i] for i in range(len(parts)))

    return ad.node(data, parts, vjp, "stack")


def mean_all(a: ad.Tensor) -> ad.Tensor:
    if a.size == 0:
        raise ShapeError("mean of empty tensor")
    shape, n = a.shape, a.size

    def vjp(g):
        return (np.full(shape, g / n),)

    return ad.node(a.data.sum() / n, (a,), vjp, "mean_all")  # np.mean's value


def recip(a: ad.Tensor) -> ad.Tensor:
    with np.errstate(divide="ignore"):  # zero input surfaces as NonFiniteError
        out = 1.0 / a.data
    return ad.node(out, (a,), lambda g: (-g * out * out,), "recip")


def dot(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    ad_, bd = a.data, b.data
    if ad_.ndim != 1 or ad_.shape != bd.shape:
        raise ShapeError(f"dot shapes {ad_.shape} vs {bd.shape}")
    return ad.node(ad_ @ bd, (a, b), lambda g: (g * bd, g * ad_), "dot")


def scale_cols(a: ad.Tensor, s: ad.Tensor) -> ad.Tensor:
    ad_, sd = a.data, s.data
    return ad.node(ad_ * sd[None, :], (a, s),
                   lambda g: (g * sd[None, :], np.sum(g * ad_, axis=0)), "scale_cols")


def rows_l2norm(a: ad.Tensor) -> ad.Tensor:
    ad_ = a.data
    out = np.sqrt(np.sum(ad_ * ad_, axis=1))
    return ad.node(out, (a,), lambda g: ((g / out)[:, None] * ad_,), "rows_l2norm")


def row_max_with_arg(x: ad.Tensor) -> tuple[ad.Tensor, np.ndarray]:
    """Per-row maximum; the subgradient goes to the first-occurrence argmax."""
    xd = x.data
    if xd.ndim != 2 or xd.size == 0:
        raise ShapeError("row_max_with_arg expects a non-empty matrix")
    arg = np.argmax(xd, axis=1)
    rows = np.arange(xd.shape[0])

    def vjp(g):
        gx = np.zeros_like(xd)
        gx[rows, arg] = g
        return (gx,)

    return ad.node(xd[rows, arg], (x,), vjp, "row_max"), arg


def topk(x: ad.Tensor, k: int) -> tuple[ad.Tensor, np.ndarray]:
    """k largest entries, descending, ties by first occurrence; padded with
    the first-occurrence minimum when k exceeds the length."""
    xd = x.data
    if xd.ndim != 1 or xd.size == 0:
        raise ShapeError("topk expects a non-empty vector")
    order = np.argsort(-xd, kind="stable")
    if k <= xd.size:
        idx = order[:k]
    else:
        idx = np.concatenate([order, np.full(k - xd.size, np.argmin(xd))])

    def vjp(g):
        gx = np.zeros_like(xd)
        np.add.at(gx, idx, g)
        return (gx,)

    return ad.node(xd[idx], (x,), vjp, "topk"), idx


def unwrap(side):
    """The tensor a prepared `Rows` patch side holds, so the oracle can
    stand in where the library passes prepared sides."""
    return side.tensor if isinstance(side, Rows) else side


def similarity_matrix(patches, words):
    if isinstance(words, Rows):  # a stack: one matrix per slice, in stack order
        return (similarity_matrix(patches, matrix) for matrix in words.data)
    patches = unwrap(patches)
    if not isinstance(patches, ad.Tensor):
        patches = ad.constant(np.asarray(patches, dtype=np.float64))
    if not isinstance(words, ad.Tensor):
        words = ad.constant(np.asarray(words, dtype=np.float64))
    if (np.any(np.linalg.norm(words.data, axis=1) == 0.0)
            or np.any(np.linalg.norm(patches.data, axis=1) == 0.0)):
        raise DegenerateVectorError("degenerate vector in alignment")
    raw = matmul(patches, transpose(words))
    return scale_cols(scale_rows(raw, recip(rows_l2norm(patches))),
                      recip(rows_l2norm(words)))


def apply_head(head: RelevanceHead, pooled: ad.Tensor) -> ad.Tensor:
    x = pooled
    if head.hid_w is not None:
        x = tanh(ad.add(matmul(transpose(head.hid_w), x), head.hid_b))
    return ad.add(dot(head.out_w, x), head.out_b)


def relevance_pool(sim: ad.Tensor, direction: str,
                   params: AlignmentParams) -> tuple[ad.Tensor, ad.Tensor]:
    """Mean and head terms: patch_to_word pools row maxima, word_to_patch
    column maxima."""
    matrix = sim if direction == "patch_to_word" else transpose(sim)
    maxima, _ = row_max_with_arg(matrix)
    pooled, _ = topk(maxima, params.k_top)
    head = params.p2w if direction == "patch_to_word" else params.w2p
    return mean_all(maxima), apply_head(head, pooled)


def score_from_similarity(sim: ad.Tensor, params: AlignmentParams) -> AlignmentScore:
    mean_p2w, head_p2w = relevance_pool(sim, "patch_to_word", params)
    mean_w2p, head_w2p = relevance_pool(sim, "word_to_patch", params)
    total = ad.add(ad.add(ad.add(mean_p2w, head_p2w), mean_w2p), head_w2p)
    return AlignmentScore(mean_p2w=mean_p2w.item(), head_p2w=head_p2w.item(),
                          mean_w2p=mean_w2p.item(), head_w2p=head_w2p.item(), total=total)


def align_score(patches, words, params: AlignmentParams) -> AlignmentScore:
    return score_from_similarity(similarity_matrix(patches, words), params)
