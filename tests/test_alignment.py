"""Patch-word alignment: cosine matrix, relevance pooling, total score,
and bitwise parity of the two fused nodes with the composed path."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import composed_alignment as composed
from conftest import finite_difference_check, make_params, perturb_params

from seps import evaluator, objective, selection
from seps import autodiff as ad
from seps.alignment import (AlignmentParams, RelevanceHead, align_score,
                            score_from_similarity, similarity_matrix)
from seps.bank import FeatureBank, Sample, SynthConfig, generate_synthetic
from seps.errors import (DegenerateVectorError, NonFiniteError, NoPatchesSelectedError,
                         ShapeError)
from seps.objective import batch_similarity
from seps.trainer import ModelParams


def linear_head(weights, bias=0.0) -> RelevanceHead:
    return RelevanceHead(out_w=ad.constant(np.asarray(weights, dtype=float)),
                         out_b=ad.constant(float(bias)))


def head_params(k_top: int, w_p2w=None, w_w2p=None) -> AlignmentParams:
    zero = np.zeros(k_top)
    return AlignmentParams(p2w=linear_head(zero if w_p2w is None else w_p2w),
                           w2p=linear_head(zero if w_w2p is None else w_w2p))


def sim_of(matrix) -> ad.Tensor:
    return ad.constant(np.asarray(matrix, dtype=float))


# ---------------------------------------------------------------------------
# similarity matrix


def test_cosine_identity():
    v = np.array([[1.0, 0.0, 0.0]])
    assert similarity_matrix(v, v).item() == 1.0


def test_cosine_orthogonal():
    patches = np.array([[1.0, 0.0]])
    words = np.array([[0.0, 1.0]])
    assert similarity_matrix(patches, words).item() == 0.0


def test_cosine_matches_hand_computation(rng):
    patches = rng.normal(size=(3, 2))
    words = rng.normal(size=(2, 2))
    got = similarity_matrix(patches, words).data
    expected = np.empty((3, 2))
    for i in range(3):
        for j in range(2):
            expected[i, j] = patches[i] @ words[j] / (
                np.linalg.norm(patches[i]) * np.linalg.norm(words[j]))
    np.testing.assert_allclose(got, expected, atol=1e-12)
    assert np.all(np.abs(got) <= 1.0 + 1e-12)


def test_cosine_rejects_zero_norm():
    with pytest.raises(DegenerateVectorError, match="degenerate vector in alignment"):
        similarity_matrix(np.zeros((1, 3)), np.ones((1, 3)))
    with pytest.raises(DegenerateVectorError):
        similarity_matrix(np.ones((1, 3)), np.zeros((1, 3)))


@pytest.mark.parametrize("side", ["patches", "words"])
def test_cosine_rejects_an_overflowing_norm(side):
    # the product stays finite, the norm does not: the composed path's
    # rows_l2norm tensor raised here, so the fused node must too
    big, small = np.full((1, 2), 1e200), np.full((1, 2), 1e-150)
    patches, words = (big, small) if side == "patches" else (small, big)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        similarity_matrix(patches, words)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        composed.similarity_matrix(patches, words)


def test_similarity_is_one_tape_node_with_no_word_gradient(rng):
    patches = ad.tensor(rng.normal(size=(3, 4)), requires_grad=True)
    sim = similarity_matrix(patches, rng.normal(size=(2, 4)))
    assert sim.name == "similarity" and sim.parents == (patches, patches)


# ---------------------------------------------------------------------------
# relevance pooling


def test_pool_identity_zero_head():
    score = score_from_similarity(sim_of(np.eye(2)), head_params(2))
    assert score.mean_p2w == 1.0
    assert score.head_p2w == 0.0


def test_pool_passthrough_head():
    params = head_params(1, w_p2w=[1.0])
    score = score_from_similarity(sim_of([[0.9, 0.1]]), params)
    assert score.head_p2w == pytest.approx(0.9, abs=1e-15)
    assert score.mean_p2w == pytest.approx(0.9, abs=1e-15)


def test_pool_matches_bruteforce_oracle(rng):
    a = rng.normal(size=(4, 3))
    k = 2
    w_p2w = rng.normal(size=k)
    w_w2p = rng.normal(size=k)
    params = AlignmentParams(p2w=linear_head(w_p2w, 0.3), w2p=linear_head(w_w2p, -0.2))
    score = score_from_similarity(sim_of(a), params)

    maxima = sorted((max(row) for row in a), reverse=True)
    assert score.mean_p2w == pytest.approx(np.mean([max(r) for r in a]), abs=1e-12)
    assert score.head_p2w == pytest.approx(np.dot(w_p2w, maxima[:k]) + 0.3, abs=1e-12)

    col_maxima = sorted((max(a[:, j]) for j in range(3)), reverse=True)
    assert score.mean_w2p == pytest.approx(
        np.mean([max(a[:, j]) for j in range(3)]), abs=1e-12)
    assert score.head_w2p == pytest.approx(
        np.dot(w_w2p, col_maxima[:k]) - 0.2, abs=1e-12)


def test_pool_pads_short_inputs():
    # one row but k_top=3: padding repeats the minimum row maximum
    params = head_params(3, w_p2w=[1.0, 1.0, 1.0])
    score = score_from_similarity(sim_of([[0.4, 0.2]]), params)
    assert score.head_p2w == pytest.approx(1.2, abs=1e-12)


def test_score_rejects_an_empty_matrix():
    with pytest.raises(ShapeError):
        score_from_similarity(sim_of(np.zeros((0, 2))), head_params(2))


def test_score_only_total_is_on_the_tape():
    sim = ad.tensor([[0.3, 0.9], [0.8, 0.1]], requires_grad=True)
    score = score_from_similarity(sim, head_params(2, w_p2w=[0.5, 0.1]))
    assert score.total.name == "pair_score" and score.total.parents[0] is sim
    assert all(type(v) is float for v in (score.mean_p2w, score.head_p2w,
                                          score.mean_w2p, score.head_w2p))


# ---------------------------------------------------------------------------
# first-occurrence subgradients of the maxima and the padded top-k


def sim_gradient(matrix, params):
    sim = ad.tensor(np.asarray(matrix, dtype=float), requires_grad=True)
    return ad.gradient(score_from_similarity(sim, params).total, [sim])[sim].data


def test_row_max_tie_routes_to_the_first_column():
    # row 0 ties across both words; column maxima sit in row 0 as well
    grad = sim_gradient([[0.5, 0.5], [0.1, 0.2]], head_params(2))
    np.testing.assert_array_equal(grad, [[0.5 + 0.5, 0.5], [0.0, 0.5]])


def test_column_max_tie_routes_to_the_first_row():
    # column 0 ties across both patches; each row's maximum is in column 0
    grad = sim_gradient([[0.3, 0.1], [0.3, 0.2]], head_params(2))
    np.testing.assert_array_equal(grad, [[0.5 + 0.5, 0.0], [0.5, 0.5]])


def test_padded_topk_ties_route_to_the_first_minimum():
    # two tied row maxima, k_top=3: slots take rows 0, 1, then the padded
    # minimum, which is row 0 again; the single column maximum is row 0
    params = head_params(3, w_p2w=[1.0, 2.0, 4.0])
    score = score_from_similarity(sim_of([[0.2], [0.2]]), params)
    assert score.head_p2w == (1.0 * 0.2 + 2.0 * 0.2) + 4.0 * 0.2
    grad = sim_gradient([[0.2], [0.2]], params)
    np.testing.assert_array_equal(grad, [[(0.5 + 5.0) + 1.0], [0.5 + 2.0]])


def test_topk_orders_descending_with_ties_by_first_occurrence():
    # row maxima 0.4, 0.9, 0.4: slots hold rows 1, 0, 2 in that order
    params = head_params(3, w_p2w=[1.0, 10.0, 100.0])
    grad = sim_gradient([[0.4], [0.9], [0.4]], params)
    # mean share, plus the slot weight, plus row 1's column-maximum share
    expected = (np.full(3, 1.0 / 3.0) + [10.0, 1.0, 100.0]) + [0.0, 1.0, 0.0]
    np.testing.assert_array_equal(grad[:, 0], expected)


def stable_topk_adjoint(values: list[float], k_top: int) -> list[float]:
    """Adjoint of the mean plus a head of weights 2**slot over the top
    k_top of `values`, slots taken from Python's stable `sorted` and padded
    with the first minimum; the other direction's single maximum, the
    first one, adds its mean share 1.  Every term is exact."""
    n = len(values)
    order = sorted(range(n), key=lambda i: -values[i])
    slots = (order + [values.index(min(values))] * k_top)[:k_top]
    grad = [1.0 / n] * n
    for slot, i in enumerate(slots):
        grad[i] += 2.0 ** slot
    grad[values.index(max(values))] += 1.0
    return grad


@pytest.mark.parametrize("n", [8, 16])
def test_topk_ties_follow_a_stable_sort_on_random_tied_rows(n):
    # three levels tie in almost every row; k_top runs below, at and above
    # both the number of tied maxima and the row length
    rng = np.random.default_rng(40 + n)
    for _ in range(40):
        values = rng.choice([0.1, 0.5, 0.9], size=n).tolist()
        for k_top in range(1, n + 3):
            weights = 2.0 ** np.arange(k_top)
            expected = stable_topk_adjoint(values, k_top)
            rows = sim_gradient(np.array(values)[:, None], head_params(k_top, w_p2w=weights))
            cols = sim_gradient(np.array(values)[None, :], head_params(k_top, w_w2p=weights))
            assert rows[:, 0].tolist() == cols[0].tolist() == expected, (values, k_top)


# ---------------------------------------------------------------------------
# alignment score


def test_align_identity_pair_scores_two():
    patches = np.eye(2)
    words = np.eye(2)
    score = align_score(patches, words, head_params(2))
    assert score.total.item() == 2.0


def test_align_single_degenerate_pair_scores_two():
    v = np.array([[0.6, 0.8]])
    score = align_score(v, v, head_params(1))
    assert score.total.item() == pytest.approx(2.0, abs=1e-12)


def test_align_matches_whole_formula_recomputation(rng):
    patches = rng.normal(size=(4, 5))
    words = rng.normal(size=(3, 5))
    k = 2
    w1, w2 = rng.normal(size=k), rng.normal(size=k)
    params = AlignmentParams(p2w=linear_head(w1, 0.1), w2p=linear_head(w2, 0.2))
    score = align_score(patches, words, params)

    a = np.array([[patches[i] @ words[j] / (np.linalg.norm(patches[i]) * np.linalg.norm(words[j]))
                   for j in range(3)] for i in range(4)])
    row_max = a.max(axis=1)
    col_max = a.max(axis=0)
    expected = (row_max.mean() + (np.dot(w1, np.sort(row_max)[::-1][:k]) + 0.1)
                + col_max.mean() + (np.dot(w2, np.sort(col_max)[::-1][:k]) + 0.2))
    assert score.total.item() == pytest.approx(expected, abs=1e-12)


def test_align_total_is_exact_component_sum(rng):
    patches = rng.normal(size=(3, 4))
    words = rng.normal(size=(2, 4))
    params = head_params(2, w_p2w=[0.3, -0.1], w_w2p=[0.2, 0.5])
    s = align_score(patches, words, params)
    assert s.total.item() == ((s.mean_p2w + s.head_p2w)
                              + s.mean_w2p) + s.head_w2p


# ---------------------------------------------------------------------------
# invariants


def test_align_permutation_invariance(rng):
    patches = rng.normal(size=(5, 4))
    words = rng.normal(size=(3, 4))
    params = head_params(2, w_p2w=rng.normal(size=2), w_w2p=rng.normal(size=2))
    base = align_score(patches, words, params).total.item()
    for _ in range(5):
        p_perm = rng.permutation(5)
        w_perm = rng.permutation(3)
        permuted = align_score(patches[p_perm], words[w_perm], params).total.item()
        assert permuted == pytest.approx(base, abs=1e-9)


def test_align_monotone_in_dominant_entry():
    a = np.array([[0.8, 0.1], [0.2, 0.6]])
    params = head_params(2, w_p2w=[0.5, 0.25], w_w2p=[0.4, 0.1])
    base = score_from_similarity(sim_of(a), params).total.item()
    bumped = a.copy()
    bumped[0, 0] += 0.1  # strict max of its row and column
    higher = score_from_similarity(sim_of(bumped), params).total.item()
    assert higher >= base


def test_align_scale_invariance(rng):
    patches = rng.normal(size=(4, 3))
    words = rng.normal(size=(2, 3))
    params = head_params(2, w_p2w=rng.normal(size=2), w_w2p=rng.normal(size=2))
    base = align_score(patches, words, params).total.item()
    scaled_patches = patches.copy()
    scaled_patches[2] *= 37.5
    scaled_words = words.copy()
    scaled_words[0] *= 0.003
    rescored = align_score(scaled_patches, scaled_words, params).total.item()
    assert rescored == pytest.approx(base, abs=1e-9)
    a0 = similarity_matrix(patches, words).data
    a1 = similarity_matrix(scaled_patches, scaled_words).data
    np.testing.assert_allclose(a1, a0, atol=1e-9)


def test_align_gradient_matches_finite_differences(rng):
    words = rng.normal(size=(3, 4)) + 0.5
    params = head_params(2, w_p2w=[0.4, 0.2], w_w2p=[0.3, 0.1])

    def wrt_patches(t):
        return align_score(t, words, params).total

    patches0 = rng.normal(size=(4, 4)) + np.arange(16).reshape(4, 4) * 0.13
    point = ad.tensor(patches0, requires_grad=True)
    assert finite_difference_check(wrt_patches, point) < 1e-4


def test_hidden_head_config(rng):
    params: ModelParams = make_params(dim=4, k_top=3, head_hidden=5, seed=2)
    assert params.alignment.p2w.hid_w is not None
    patches = rng.normal(size=(3, 4))
    words = rng.normal(size=(2, 4))
    # zero output layer keeps the hidden head at the mean baseline
    score = align_score(patches, words, params.alignment)
    assert score.head_p2w == 0.0
    assert score.head_w2p == 0.0


# ---------------------------------------------------------------------------
# the fused nodes against the composed path, bit for bit


def bits(array) -> bytes:
    return np.ascontiguousarray(array, dtype=np.float64).tobytes()


@pytest.mark.parametrize("head_hidden", [0, 4])
@pytest.mark.parametrize("n_patches, n_words", [(8, 2), (3, 5)])
def test_pair_score_matches_the_composed_path_bitwise(head_hidden, n_patches, n_words):
    # k_top=8 pads both directions in the second shape, the word side in the first
    params = perturb_params(make_params(dim=6, k_top=8, head_hidden=head_hidden), n_patches)
    rng = np.random.default_rng(head_hidden)
    patches = ad.tensor(rng.normal(size=(n_patches, 6)), requires_grad=True)
    words = rng.normal(size=(n_words, 6))
    wrt = [patches, *params.alignment.p2w.tensors(), *params.alignment.w2p.tensors()]
    fused = align_score(patches, words, params.alignment)
    oracle = composed.align_score(patches, words, params.alignment)
    assert fused.components() == oracle.components()
    assert bits(fused.total.data) == bits(oracle.total.data)
    assert bits(similarity_matrix(patches, words).data) == bits(
        composed.similarity_matrix(patches, words).data)
    got = ad.gradient(fused.total, wrt)
    want = ad.gradient(oracle.total, wrt)
    for t in wrt:
        assert bits(got[t].data) == bits(want[t].data)


# cell values a drawn matrix repeats, both zeros among them, so ties, zero
# maxima of either sign and zero maxima that tie occur often
LEVELS = (-0.5, -0.0, 0.0, 0.25, 0.5)


@st.composite
def tied_similarities(draw) -> np.ndarray:
    """1-12 x 1-6 cells, each a repeated level or any value in [-1, 1], and
    some rows of zeros of either sign."""
    rows, cols = draw(st.integers(1, 12), label="rows"), draw(st.integers(1, 6), label="cols")
    cell = st.one_of(st.sampled_from(LEVELS), st.floats(-1.0, 1.0))
    matrix = np.array(draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols),
                           label="cells")).reshape(rows, cols)
    zero = st.lists(st.sampled_from((-0.0, 0.0)), min_size=cols, max_size=cols)
    for row in draw(st.sets(st.integers(0, rows - 1)), label="zero rows"):
        matrix[row] = draw(zero, label=f"row {row}")
    return matrix


def drawn_head(rng, k_top: int, hidden: int) -> RelevanceHead:
    def leaf(*shape):
        return ad.tensor(rng.normal(size=shape), requires_grad=True)

    if not hidden:
        return RelevanceHead(out_w=leaf(k_top), out_b=leaf())
    return RelevanceHead(out_w=leaf(hidden), out_b=leaf(), hid_w=leaf(k_top, hidden),
                         hid_b=leaf(hidden))


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_pair_score_on_tied_and_zero_cells_matches_the_composed_path_bitwise(data):
    # the fused forward reads the maxima and the top k from np.max and a
    # sort, the composed path from the first-occurrence argmax and a stable
    # sort by index: they agree only while zeros keep their signs and the
    # sorted values are read back contiguously
    matrix = data.draw(tied_similarities(), label="similarity")
    counts = {k for n in matrix.shape for k in (n - 1, n, n + 1) if k >= 1}
    k_top = data.draw(st.sampled_from(sorted(counts)), label="k_top")
    hidden = data.draw(st.sampled_from((0, 3)), label="head_hidden")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="weights"))
    params = AlignmentParams(p2w=drawn_head(rng, k_top, hidden),
                             w2p=drawn_head(rng, k_top, hidden))
    sim = ad.tensor(matrix, requires_grad=True)
    wrt = [sim, *params.p2w.tensors(), *params.w2p.tensors()]
    fused = score_from_similarity(sim, params)
    oracle = composed.score_from_similarity(sim, params)
    assert bits(fused.components()) == bits(oracle.components())
    assert bits(fused.total.data) == bits(oracle.total.data)
    got, want = ad.gradient(fused.total, wrt), ad.gradient(oracle.total, wrt)
    for t in wrt:
        assert bits(got[t].data) == bits(want[t].data)


def test_pairwise_scores_match_the_composed_path_bitwise(monkeypatch):
    bank = generate_synthetic(SynthConfig(n_samples=6, dim=8, n_patches=6, seed=3))
    params = perturb_params(make_params(dim=8, n_keep=8, k_top=8, head_hidden=3), 5)
    fused = evaluator.pairwise_scores(bank, params)
    # the grid looks both nodes up in objective; the oracle unwraps prepared sides
    monkeypatch.setattr(objective, "similarity_matrix", composed.similarity_matrix)
    monkeypatch.setattr(objective, "score_from_similarity", composed.score_from_similarity)
    assert bits(fused) == bits(evaluator.pairwise_scores(bank, params))


# ---------------------------------------------------------------------------
# prepared sides: the batch and the gallery against the raw per-pair path


DESK_GALLERY = dict(n_samples=64, dim=32, n_patches=16, n_relevant_patches=4,
                    n_sparse_words=2, n_dense_words=4, noise_sigma=0.1)


@pytest.mark.parametrize("head_hidden", [0, 3])
def test_pairwise_scores_match_raw_per_pair_align_score_bitwise(head_hidden):
    bank = generate_synthetic(SynthConfig(seed=head_hidden, **DESK_GALLERY))
    params = perturb_params(make_params(dim=32, n_patches=16, n_keep=8, k_top=8,
                                        head_hidden=head_hidden, seed=1), 3)
    assert bits(evaluator.pairwise_scores(bank, params)) == bits(raw_pairwise_scores(bank, params))


def raw_pairwise_scores(bank, params) -> np.ndarray:
    """Each image selected, then scored against each caption by `align_score`
    on raw arrays, one pair at a time; raises at the first failing pair."""
    want = np.empty((len(bank.samples), len(bank.samples)))
    with ad.no_grad():
        for i, image in enumerate(bank.samples):
            agg, _, _ = selection.select_and_aggregate(image, params.selection, "eval")
            for j, caption in enumerate(bank.samples):
                want[i, j] = align_score(agg.vectors.data, caption.sparse_tokens,
                                         params.alignment).total.item()
    return want


# a drawn bank's one fault, none in two of five: a zero caption fails each
# pair it enters, zero patches fuse to zero vectors, huge patches overflow
# the selection pass
FAULTS = ("none", "none", "zero caption", "zero patches", "huge patches")


@st.composite
def ragged_banks(draw) -> FeatureBank:
    """2-5 samples of 1-12 patches and 1-5 sparse words each, dims 2-8, with
    at most one faulty sample."""
    dim = draw(st.integers(2, 8), label="dim")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    count = draw(st.integers(2, 5), label="samples")
    fault, faulty = draw(st.sampled_from(FAULTS), label="fault"), draw(st.integers(0, count - 1))
    samples = []
    for i in range(count):
        rows = (draw(st.integers(1, 12)), draw(st.integers(1, 5)), draw(st.integers(1, 5)))
        patches, sparse, dense = (rng.normal(size=(n, dim)) for n in rows)
        if i == faulty and fault == "zero caption":
            sparse = np.zeros_like(sparse)
        elif i == faulty and fault != "none":
            patches = patches * (0.0 if fault == "zero patches" else 1e200)
        samples.append(Sample(f"s{i}", patches, sparse, dense))
    return FeatureBank(dim=dim, samples=samples)


def scored_or_raised(score, bank, params, selected: list) -> tuple:
    """The scores' bits, or the error raised and the image selected last."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return "scored", bits(score(bank, params))
    except (DegenerateVectorError, NonFiniteError, NoPatchesSelectedError) as exc:
        return "raised", type(exc), str(exc), selected[-1]


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_pairwise_scores_on_ragged_banks_match_the_raw_per_pair_loop(data, monkeypatch):
    bank = data.draw(ragged_banks(), label="bank")
    # k_top below, at or above the n_keep maxima of the image side; the word
    # side has 1-5 maxima, so its pairs fall on all three sides too
    side = data.draw(st.sampled_from(("below", "at", "above")), label="k_top side")
    n_keep = data.draw(st.integers(2 if side == "below" else 1, 4), label="n_keep")
    k_top = data.draw({"below": st.integers(1, n_keep - 1), "at": st.just(n_keep),
                       "above": st.integers(n_keep + 1, n_keep + 3)}[side], label="k_top")
    params = make_params(dim=bank.dim, n_patches=12, n_keep=n_keep, k_top=k_top,
                         beta=data.draw(st.sampled_from((0.0, 0.2, 0.5)), label="beta"),
                         head_hidden=data.draw(st.sampled_from((0, 3)), label="head_hidden"),
                         seed=data.draw(st.integers(0, 99), label="model"))
    perturb_params(params, data.draw(st.integers(0, 99), label="perturbation"))
    selected, select = [], selection.select_and_aggregate

    def recorded(image, *args):
        selected.append(image.sample_id)
        return select(image, *args)

    monkeypatch.setattr(selection, "select_and_aggregate", recorded)
    fused = scored_or_raised(evaluator.pairwise_scores, bank, params, selected)
    assert fused == scored_or_raised(raw_pairwise_scores, bank, params, selected)


CAPTION_FAULTS = {
    "zero": (np.zeros((2, 8)), DegenerateVectorError, "degenerate vector in alignment"),
    "overflow": (np.full((2, 8), 1e200), NonFiniteError,
                 "non-finite values in the similarity matrix"),
}


def with_captions(faults: dict[int, str]) -> list:
    samples = generate_synthetic(SynthConfig(n_samples=4, dim=8, n_patches=6, seed=1)).samples
    return [dataclasses.replace(s, sparse_tokens=CAPTION_FAULTS[faults[i]][0])
            if i in faults else s for i, s in enumerate(samples)]


def score_paths(samples, params):
    """The batch and the gallery, each fed a list of samples."""
    yield lambda: batch_similarity(samples, params.selection, params.alignment, "train")
    yield lambda: evaluator.pairwise_scores(FeatureBank(dim=8, samples=samples), params)


@pytest.mark.parametrize("faults, expected", [
    ({2: "zero"}, "zero"),
    ({2: "overflow"}, "overflow"),
    # image 0 meets caption 1 first, so caption 1's fault is the one raised
    ({1: "zero", 2: "overflow"}, "zero"),
    ({1: "overflow", 2: "zero"}, "overflow"),
])
def test_a_faulty_caption_raises_through_the_batch_and_the_gallery(faults, expected):
    _, error, message = CAPTION_FAULTS[expected]
    samples = with_captions(faults)
    params = make_params(dim=8, n_keep=2, k_top=2)
    for run in score_paths(samples, params):
        with np.errstate(over="ignore"), pytest.raises(error, match=message):
            run()


# ---------------------------------------------------------------------------
# end-to-end relations through both consumers of the grid: the gallery
# (`pairwise_scores`) and the batch (`batch_similarity`)


# six seeded 16-sample desk banks, linear and hidden-layer heads
RELATION_BANKS = [(seed, head_hidden) for seed in range(3) for head_hidden in (0, 3)]


def relation_bank(seed: int, head_hidden: int):
    bank = generate_synthetic(SynthConfig(seed=10 + seed, **dict(DESK_GALLERY, n_samples=16)))
    params = perturb_params(make_params(dim=32, n_patches=16, n_keep=8, k_top=8,
                                        head_hidden=head_hidden, seed=seed), 20 + seed)
    return bank.samples, params


def gallery(samples, params) -> np.ndarray:
    return evaluator.pairwise_scores(FeatureBank(dim=32, samples=list(samples)), params)


def batch(samples, params, mode: str) -> np.ndarray:
    return batch_similarity(samples, params.selection, params.alignment, mode,
                            seed=1, step=3).scores.data


@pytest.mark.parametrize("seed, head_hidden", RELATION_BANKS)
def test_reordering_the_samples_permutes_the_gallery_and_the_batch_bitwise(seed, head_hidden):
    samples, params = relation_bank(seed, head_hidden)
    rng = np.random.default_rng(seed)
    scores = gallery(samples, params)
    order = rng.permutation(16)
    assert bits(gallery([samples[i] for i in order], params)) == bits(scores[order][:, order])
    # train-mode noise is keyed by sample id, so it follows each sample
    order = rng.permutation(8)
    for mode in ("eval", "train"):
        base = batch(samples[:8], params, mode)
        assert bits(batch([samples[i] for i in order], params, mode)) == bits(
            base[order][:, order])
    assert bits(batch(samples[:8], params, "eval")) == bits(scores[:8, :8])


def permuted(rows: np.ndarray, rng) -> np.ndarray:
    return rows[rng.permutation(len(rows))]


def permuted_patches(sample, rng) -> dict:
    order = rng.permutation(sample.n_patches)
    return dict(patches=sample.patches[order], relevance_mask=sample.relevance_mask[order])


# edit of one sample -> the largest change it may make to any cell
INVARIANCES = {
    "dense_words_permuted": (
        0.0, lambda s, rng: dict(dense_tokens=permuted(s.dense_tokens, rng))),
    "tokens_scaled": (
        0.0, lambda s, rng: dict(sparse_tokens=2.0 * s.sparse_tokens,
                                 dense_tokens=4.0 * s.dense_tokens)),
    # bitwise on these banks, but 4.4e-16 has been seen elsewhere
    "caption_words_permuted": (
        1e-12, lambda s, rng: dict(sparse_tokens=permuted(s.sparse_tokens, rng))),
    "patches_permuted": (1e-12, permuted_patches),
}


@pytest.mark.parametrize("edit", list(INVARIANCES))
@pytest.mark.parametrize("seed, head_hidden", RELATION_BANKS)
def test_an_invariant_edit_leaves_the_gallery_and_the_eval_batch_unchanged(seed, head_hidden,
                                                                           edit):
    samples, params = relation_bank(seed, head_hidden)
    tol, change = INVARIANCES[edit]
    rng = np.random.default_rng(seed)
    edited = [dataclasses.replace(s, **change(s, rng)) for s in samples]
    pairs = [(gallery(samples, params), gallery(edited, params)),
             (batch(samples[:8], params, "eval"), batch(edited[:8], params, "eval"))]
    for before, after in pairs:
        if tol == 0.0:
            assert bits(after) == bits(before)
        else:
            assert np.abs(after - before).max() <= tol
