"""Patch selection: scoring, decisions, aggregation, full forward."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composed_selection as composed
from conftest import (basis_sample, finite_difference_check, make_params, mul,
                      perturb_params, sum_all, zero_params)

from seps import autodiff as ad
from seps import selection
from seps.autodiff import EPS_LOG, EPS_NORM
from seps.bank import FeatureBank, Sample, SynthConfig, attention_scores, generate_synthetic
from seps.errors import ConfigError, NoPatchesSelectedError, NonFiniteError, ShapeError
from seps.evaluator import selection_quality
from seps.objective import batch_loss, batch_similarity
from seps.selection import (Decisions, ScoreBundle, aggregate, branch_scores, decide,
                            predict_scores, score_and_decide, select_and_aggregate,
                            sparse_eval_scores)
from seps.trainer import TrainConfig


def bundle_from(pred, s_st, s_dt, s_im):
    predicted = pred if isinstance(pred, ad.Tensor) else ad.constant(pred)
    return ScoreBundle(predicted=predicted, sparse_text=np.asarray(s_st, dtype=float),
                       dense_text=np.asarray(s_dt, dtype=float),
                       image_self=np.asarray(s_im, dtype=float))


# ---------------------------------------------------------------------------
# stage 1: scoring


def test_predict_scores_zero_init_gives_half(rng):
    params = zero_params(make_params(dim=4)).selection
    out = predict_scores(rng.normal(size=(3, 4)), params)
    np.testing.assert_array_equal(out.data, [0.5, 0.5, 0.5])


def test_predict_scores_saturates():
    params = zero_params(make_params(dim=4)).selection
    params.pred_b2.data = np.asarray(50.0)
    out = predict_scores(np.ones((1, 4)), params)
    assert abs(out.item() - 1.0) <= 1e-15


def test_predict_scores_matches_hand_forward(rng):
    params = make_params(dim=4, seed=3).selection
    v = rng.normal(size=(3, 4))
    out = predict_scores(v, params).data
    hidden = np.tanh(v @ params.pred_w1.data + params.pred_b1.data)
    logits = hidden @ params.pred_w2.data + params.pred_b2.data
    expected = 1.0 / (1.0 + np.exp(-logits))
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_predict_scores_rejects_dim_mismatch():
    params = make_params(dim=4).selection
    with pytest.raises(ShapeError):
        predict_scores(np.ones((2, 5)), params)


def test_attention_scores_minmax_endpoints():
    # raws [2, 4, 6] via dim=1 and a unit embedding
    out = attention_scores(np.array([[2.0], [4.0], [6.0]]), np.array([1.0]))
    np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-7)
    assert out[0] == 0.0


def test_attention_scores_degenerate_range_is_half():
    out = attention_scores(np.array([[7.0]]), np.array([1.0]))
    np.testing.assert_array_equal(out, [0.5])
    # a range below EPS_NORM is degenerate; a range of exactly EPS_NORM is not
    below = attention_scores(np.array([[0.0], [0.5 * EPS_NORM]]), np.array([1.0]))
    np.testing.assert_array_equal(below, [0.5, 0.5])
    exact = attention_scores(np.array([[0.0], [EPS_NORM]]), np.array([1.0]))
    np.testing.assert_array_equal(exact, [0.0, 0.5])


def test_attention_scores_hand_case():
    out = attention_scores(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 0.0]))
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-7)
    assert out[1] == 0.0


def test_branch_scores_symmetric_when_texts_agree():
    bundle = bundle_from([0.4, 0.6], [0.3, 0.9], [0.3, 0.9], [0.2, 0.1])
    s_sp, s_dn = branch_scores(bundle, 0.2)
    np.testing.assert_array_equal(s_sp.data, s_dn.data)


def test_branch_scores_beta_zero_collapses_to_prediction():
    bundle = bundle_from([0.4, 0.6], [0.3, 0.9], [0.1, 0.2], [0.2, 0.1])
    s_sp, s_dn = branch_scores(bundle, 0.0)
    np.testing.assert_array_equal(s_sp.data, [0.4, 0.6])
    np.testing.assert_array_equal(s_dn.data, [0.4, 0.6])


def test_branch_scores_worked_example():
    bundle = bundle_from([0.8], [0.6], [0.0], [0.5])
    s_sp, _ = branch_scores(bundle, 0.25)
    assert s_sp.item() == pytest.approx(0.95, abs=1e-12)


def test_branch_scores_clipped_below_one():
    bundle = bundle_from([0.99], [1.0], [1.0], [1.0])
    s_sp, s_dn = branch_scores(bundle, 0.25)
    assert s_sp.item() == 1.0 - 1e-6
    assert s_dn.item() == 1.0 - 1e-6


def test_branch_score_gradient_passes_on_the_closed_interval():
    # beta 0 makes each branch score the prediction itself: both ends of
    # [0, CLIP_HI] pass the log-odds' gradient, values clipped from outside
    # pass none
    pred = ad.tensor([0.0, selection.CLIP_HI, 1.5, -0.2, 0.3], requires_grad=True)
    logit = decide(bundle_from(pred, *np.zeros((3, 5))), 0.0, 1.0).logit
    grad = ad.gradient(sum_all(logit), [pred])[pred].data
    s = np.clip(pred.data, 0.0, selection.CLIP_HI)
    expected = 2.0 * (1.0 / (s + EPS_LOG) + 1.0 / (1.0 - s + EPS_LOG))
    np.testing.assert_array_equal(grad[2:4], [0.0, 0.0])
    np.testing.assert_allclose(grad[[0, 1, 4]], expected[[0, 1, 4]], rtol=1e-12)


# ---------------------------------------------------------------------------
# stage 2: decisions


def decisions_for(scores, tau, noise=None):
    """Both branches' decisions on branch scores equal to `scores`: beta 0
    and zero views make each branch score the prediction itself."""
    pred = scores if isinstance(scores, ad.Tensor) else ad.constant(scores)
    return decide(bundle_from(pred, *np.zeros((3, pred.size))), 0.0, tau, noise)


def test_gumbel_hard_decision_tracks_scores():
    decisions = decisions_for([0.9, 0.2], tau=1.0)
    np.testing.assert_array_equal(decisions.hard, [[1.0, 0.0], [1.0, 0.0]])


def test_gumbel_exact_tie_drops():
    decisions = decisions_for([0.5], tau=1.0)
    np.testing.assert_array_equal(decisions.soft.data, [[0.5], [0.5]])
    np.testing.assert_array_equal(decisions.hard, [[0.0], [0.0]])


def test_gumbel_rejects_bad_tau():
    with pytest.raises(ConfigError):
        decisions_for([0.5], tau=0.0)


@pytest.mark.parametrize("tau", [0.0, -1.0])
def test_knobs_and_gumbel_share_the_tau_rule(tau):
    with pytest.raises(ConfigError, match="tau must be finite and > 0"):
        decisions_for([0.5], tau=tau)
    with pytest.raises(ConfigError, match="tau must be finite and > 0"):
        make_params(dim=4, tau=tau)


def test_gumbel_keep_rate_matches_monte_carlo_oracle():
    s = 0.6
    eps = EPS_LOG
    oracle_rng = np.random.default_rng(777)
    draws = 10**6
    gap = oracle_rng.gumbel(size=draws) - oracle_rng.gumbel(size=draws)
    oracle = float(np.mean(gap > np.log(1.0 - s + eps) - np.log(s + eps)))

    decisions = decisions_for(np.full(1000, s), tau=1.0,
                              noise=np.random.default_rng(31).gumbel(size=(2, 2, 1000)))
    for row in decisions.hard:  # each branch, with noise of its own
        assert abs(float(row.mean()) - oracle) <= 0.05


def test_gumbel_train_noise_is_reproducible():
    scores = np.linspace(0.1, 0.9, 7)
    a = decisions_for(scores, 1.0, np.random.default_rng(5).gumbel(size=(2, 2, 7)))
    b = decisions_for(scores, 1.0, np.random.default_rng(5).gumbel(size=(2, 2, 7)))
    np.testing.assert_array_equal(a.hard, b.hard)
    np.testing.assert_array_equal(a.soft.data, b.soft.data)


def four_draws(n: int) -> np.ndarray:
    """Sparse keep, sparse drop, dense keep and dense drop noise for an
    n-patch sample, drawn one branch logit at a time from a fresh stream."""
    rng = selection.decision_rng(9, "drawn", 4)
    return np.stack([rng.gumbel(size=n) for _ in range(4)])


@pytest.mark.parametrize("n", [1, 2, 16, 196])
def test_train_noise_is_one_draw_with_the_bits_of_four(n, monkeypatch):
    assert bits(selection.decision_rng(9, "drawn", 4).gumbel(size=(4, n))) == bits(four_draws(n))
    # the noise the pass hands `decide`: per branch, sparse first, keep then drop
    received, decide_ = [], selection.decide

    def recorded(bundle, beta, tau, noise=None):
        received.append(noise)
        return decide_(bundle, beta, tau, noise)

    monkeypatch.setattr(selection, "decide", recorded)
    rng = np.random.default_rng(n)
    sample = Sample("drawn", rng.normal(size=(n, 8)), rng.normal(size=(2, 8)),
                    rng.normal(size=(3, 8)))
    score_and_decide(sample, make_params(dim=8).selection, "train",
                     selection.decision_rng(9, "drawn", 4))
    (noise,) = received
    assert noise.shape == (2, 2, n) and bits(noise.reshape(4, n)) == bits(four_draws(n))


# ---------------------------------------------------------------------------
# aggregation


def explicit_decisions(hard_s, hard_d):
    hard = np.array((hard_s, hard_d), dtype=np.float64)
    soft = ad.constant(np.clip(hard, 0.01, 0.99))
    logit = ad.constant(np.log(soft.data / (1 - soft.data)))
    return Decisions(hard=hard, soft=soft, logit=logit, score=soft.data)


def test_aggregate_uniform_at_zero_init():
    params = zero_params(make_params(dim=3, n_keep=1)).selection
    v = np.array([[1.0, 2.0, 3.0], [3.0, 0.0, 1.0]])
    agg = aggregate(v, explicit_decisions([1, 1], [0, 0]), params, "eval")
    assert agg.empty_dense and not agg.empty_sparse
    np.testing.assert_allclose(agg.vectors.data, (v[0:1] + v[1:2]) / 2.0, atol=1e-15)


def test_aggregate_single_patch_each_branch_doubles():
    params = zero_params(make_params(dim=3, n_keep=1)).selection
    v = np.array([[1.0, -2.0, 0.5]])
    agg = aggregate(v, explicit_decisions([1], [1]), params, "eval")
    np.testing.assert_allclose(agg.vectors.data, 2.0 * v, atol=1e-15)


def test_aggregate_matches_bruteforce_masked_softmax(rng):
    params = make_params(dim=4, n_keep=3, seed=8).selection
    v = rng.normal(size=(5, 4))
    keep_s = np.array([1, 0, 1, 1, 0], dtype=float)
    keep_d = np.array([0, 1, 0, 0, 1], dtype=float)
    agg = aggregate(v, explicit_decisions(keep_s, keep_d), params, "eval")

    def brute(weighted, bias, keep):
        logits = v @ weighted + bias
        idx = np.flatnonzero(keep)
        w = np.zeros_like(logits)
        ex = np.exp(logits[idx] - logits[idx].max(axis=0, keepdims=True))
        w[idx] = ex / ex.sum(axis=0, keepdims=True)
        return w.T @ v

    expected = (brute(params.agg_sparse_w.data, params.agg_sparse_b.data, keep_s)
                + brute(params.agg_dense_w.data, params.agg_dense_b.data, keep_d))
    np.testing.assert_allclose(agg.vectors.data, expected, atol=1e-12)
    np.testing.assert_allclose(agg.weights_sparse.sum(axis=0), np.ones(3), atol=1e-12)
    assert np.all(agg.weights_sparse[keep_s == 0] == 0.0)


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_a_branch_that_kept_nothing_adds_nothing_to_its_gate_adjoint(mode):
    # its gate row gets -0.0, and x + -0.0 keeps every x's bits, -0.0 too:
    # the same sum as a per-branch gate that the aggregation never read
    params = make_params(dim=3, n_keep=2, seed=5).selection
    v = np.random.default_rng(6).normal(size=(3, 3))
    agg = aggregate(v, explicit_decisions([0, 0, 0], [1, 0, 1]), params, mode)
    assert agg.empty_sparse and not agg.empty_dense
    *weights, g_gate = agg.vectors.vjp(np.ones(agg.vectors.shape))
    assert len(weights) == 2 and g_gate.shape == (2, 3)
    assert bits(g_gate[0]) == bits(np.full(3, -0.0)) and g_gate[1].any()


def test_aggregate_both_branches_empty_raises():
    params = make_params(dim=3, n_keep=1).selection
    with pytest.raises(NoPatchesSelectedError, match="no patches selected"):
        aggregate(np.ones((2, 3)), explicit_decisions([0, 0], [0, 0]), params, "eval")


# ---------------------------------------------------------------------------
# full forward


def test_forward_eval_deterministic_bitwise():
    sample = basis_sample()
    params = make_params(dim=8, n_keep=2, seed=2)
    a, _, decisions_a = select_and_aggregate(sample, params.selection, "eval")
    b, _, decisions_b = select_and_aggregate(sample, params.selection, "eval")
    assert np.array_equal(a.vectors.data, b.vectors.data)
    assert np.array_equal(decisions_a.hard, decisions_b.hard)


def test_forward_zero_init_all_half_then_no_selection():
    # identical patches make every attention score degenerate (0.5); with
    # beta=0 the branch scores equal the 0.5 predictions, and the strict
    # keep rule drops everything
    patches = np.tile(np.array([[1.0, 2.0, 0.5, -1.0]]), (3, 1))
    sample = Sample("flat", patches, patches[:1], patches[:1])
    params = zero_params(make_params(dim=4, beta=0.0))
    with pytest.raises(NoPatchesSelectedError, match="no patches selected"):
        select_and_aggregate(sample, params.selection, "eval")


def test_forward_zero_init_scores_all_half():
    patches = np.tile(np.array([[1.0, 2.0, 0.5, -1.0]]), (3, 1))
    sample = Sample("flat", patches, patches[:1], patches[:1])
    params = zero_params(make_params(dim=4, beta=0.0))
    try:
        select_and_aggregate(sample, params.selection, "eval")
    except NoPatchesSelectedError:
        pass
    bundle = ScoreBundle(
        predicted=predict_scores(patches, params.selection),
        sparse_text=attention_scores(patches, patches[0] / np.linalg.norm(patches[0])),
        dense_text=attention_scores(patches, patches[0] / np.linalg.norm(patches[0])),
        image_self=attention_scores(patches, patches[0] / np.linalg.norm(patches[0])))
    np.testing.assert_array_equal(bundle.predicted.data, [0.5, 0.5, 0.5])
    np.testing.assert_array_equal(bundle.sparse_text, [0.5, 0.5, 0.5])


def test_forward_relevant_patches_outscore_distractors():
    sample = basis_sample()
    params = zero_params(make_params(dim=8, n_keep=2))
    params.selection.beta = 0.2
    _, bundle, decisions = select_and_aggregate(sample, params.selection, "eval")
    s_sp, _ = branch_scores(bundle, 0.2)
    relevant = s_sp.data[sample.relevance_mask == 1]
    distractor = s_sp.data[sample.relevance_mask == 0]
    assert relevant.min() > distractor.max()
    np.testing.assert_array_equal(decisions.hard[0], sample.relevance_mask.astype(float))


@pytest.mark.parametrize("mode", selection.MODES)
def test_decision_mask_score_is_the_branch_score(mode, rng):
    sample = Sample("m", rng.normal(size=(7, 5)), rng.normal(size=(2, 5)),
                    rng.normal(size=(3, 5)))
    params = make_params(dim=5, n_keep=3, seed=3)
    noise = np.random.default_rng(8) if mode == "train" else None
    _, bundle, decisions = select_and_aggregate(sample, params.selection, mode, noise)
    s_sp, s_dn = branch_scores(bundle, params.selection.beta)
    assert bits(decisions.score) == bits([s_sp.data, s_dn.data])
    # each branch's row, as the keep-stats hook unpacks them
    for mask, row in zip(decisions, range(2)):
        assert bits(mask.hard) == bits(decisions.hard[row])
        assert bits(mask.soft) == bits(decisions.soft.data[row])
        assert bits(mask.logit) == bits(decisions.logit.data[row])
        assert bits(mask.score) == bits((s_sp, s_dn)[row].data)


# ---------------------------------------------------------------------------
# tape-free sparse-branch scores


def taped_sparse_scores(sample, params):
    with ad.no_grad():
        bundle, _ = score_and_decide(sample, params, "eval")
    return branch_scores(bundle, params.beta)[0].data


def assert_bitwise_parity(samples, params):
    """Scored as one stack and each as a stack of one, every row equals the
    taped branch score bit for bit, and the views that the stacked pass
    leaves on each sample equal the ones it derives alone."""
    alone = [[v.tobytes() for v in replace(s).views] for s in samples]
    stacked = sparse_eval_scores(samples, params)
    assert [[v.tobytes() for v in s.views] for s in samples] == alone
    assert stacked.dtype == np.float64 and stacked.shape == (len(samples), samples[0].n_patches)
    for row, sample in zip(stacked, samples):
        taped = taped_sparse_scores(sample, params).tobytes()
        assert row.tobytes() == taped, sample.sample_id
        assert sparse_eval_scores([sample], params)[0].tobytes() == taped, sample.sample_id


DESK = dict(dim=32, n_patches=16, n_relevant_patches=4, n_sparse_words=2,
            n_dense_words=4, noise_sigma=0.1)
VIT = dict(dim=64, n_patches=196, n_relevant_patches=24, n_sparse_words=2,
           n_dense_words=8, concept_count=4096, noise_sigma=0.1)


@pytest.mark.parametrize("n, d", [(16, 32), (196, 64)], ids=["desk", "vit"])
def test_stacked_matmul_forms_equal_the_per_slice_products_bitwise(n, d):
    # the stacked pass is bitwise only while numpy runs each slice of a
    # stacked product through the same kernel as the unstacked one
    rng = np.random.default_rng(n)
    c = 12
    patches, weight, w2 = rng.normal(size=(c, n, d)), rng.normal(size=(d, d)), rng.normal(size=d)
    first = patches @ weight
    second = np.tanh(first) @ w2
    for i in range(c):
        assert bits(first[i]) == bits(patches[i] @ weight)
        assert bits(second[i]) == bits(np.tanh(patches[i] @ weight) @ w2)


@pytest.mark.parametrize("beta", [0.0, 0.2, 0.5])
def test_sparse_eval_scores_bitwise_equal_to_taped_branch_score(beta):
    samples = generate_synthetic(SynthConfig(n_samples=24, seed=11, **DESK)).samples
    params = make_params(dim=32, n_patches=16, beta=beta, seed=4).selection
    params.pred_b2.data = np.asarray(0.3)  # move predictions off the init's centre
    assert_bitwise_parity(samples, params)


def test_sparse_eval_scores_bitwise_on_vit_shaped_samples():
    samples = generate_synthetic(SynthConfig(n_samples=8, seed=12, **VIT)).samples
    assert_bitwise_parity(samples, make_params(dim=64, n_patches=196, n_keep=8,
                                               seed=5).selection)


def test_sparse_eval_scores_bitwise_with_dense_attention_zeroed():
    samples = generate_synthetic(SynthConfig(n_samples=8, seed=13, **DESK)).samples
    params = make_params(dim=32, n_patches=16, seed=6).selection
    params.zero_dense_attention = True
    assert_bitwise_parity(samples, params)


def test_sparse_eval_scores_bitwise_on_degenerate_caption_and_single_patch(rng):
    params = make_params(dim=6, seed=7).selection
    token = rng.normal(size=(1, 6))
    # tokens t and -t average to zero: the embedding is degenerate and the
    # sparse-text view is flat at 0.5
    flat = Sample("zero-mean", rng.normal(size=(9, 6)), np.vstack([token, -token]),
                  rng.normal(size=(3, 6)))
    single = Sample("one", rng.normal(size=(1, 6)), rng.normal(size=(2, 6)),
                    rng.normal(size=(3, 6)))
    with ad.no_grad():
        bundle, _ = score_and_decide(flat, params, "eval")
    np.testing.assert_array_equal(bundle.sparse_text, np.full(9, 0.5))
    assert_bitwise_parity([flat], params)
    assert_bitwise_parity([single], params)


def test_sparse_eval_scores_rejects_dim_mismatch_like_the_taped_path(rng):
    params = make_params(dim=4).selection
    sample = Sample("wide", rng.normal(size=(3, 5)), rng.normal(size=(2, 5)),
                    rng.normal(size=(2, 5)))
    with pytest.raises(ShapeError) as taped:
        score_and_decide(sample, params, "eval")
    with pytest.raises(ShapeError) as fast:
        sparse_eval_scores([sample], params)
    assert str(fast.value) == str(taped.value)


@pytest.mark.parametrize("where", ["pred.w1", "pred.w2", "patches", "sparse_tokens",
                                   "dense_tokens"])
def test_sparse_eval_scores_raises_non_finite_like_the_taped_path(where, rng):
    params = make_params(dim=4, seed=1).selection
    arrays = dict(patches=rng.normal(size=(5, 4)), sparse_tokens=rng.normal(size=(2, 4)),
                  dense_tokens=rng.normal(size=(3, 4)))
    if where.startswith("pred."):
        # the pre-activation overflows to inf; no input is non-finite
        weight, bias = ("pred_w1", "pred_b1") if where == "pred.w1" else ("pred_w2", "pred_b2")
        for name in (weight, bias):
            tensor = getattr(params, name)
            tensor.data = np.full_like(tensor.data, 1e308)
    else:
        arrays[where][0, 0] = np.nan
    sample = Sample("bad", **arrays)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError):
            taped_sparse_scores(sample, params)
        with pytest.raises(NonFiniteError):
            sparse_eval_scores([sample], params)


@pytest.mark.parametrize("overflow", ["product", "bias"])
def test_head_pre_activation_overflow_raises_the_same_message(overflow, rng):
    # the bias add and the tanh run in the product's buffer; the finite
    # check must still see the pre-activation, not tanh's finite +-1
    params = make_params(dim=4, seed=1)
    patches = rng.uniform(0.5, 1.0, size=(5, 4))
    # "bias": each product is at most 4e307, and adding 1.7e308 overflows
    w1, b1 = {"product": (1e308, 0.0), "bias": (1e307, 1.7e308)}[overflow]
    params.selection.pred_w1.data = np.full((4, 4), w1)
    params.selection.pred_b1.data = np.full(4, b1)
    mask = np.array([1, 0, 1, 0, 0], dtype=np.int8)
    sample = Sample("hot", patches, rng.normal(size=(2, 4)), rng.normal(size=(3, 4)), mask)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="^non-finite values in the predicted scores$"):
            predict_scores(patches, params.selection)
        message = "^non-finite values in the sparse-branch score$"
        with pytest.raises(NonFiniteError, match=message):
            sparse_eval_scores([sample, sample], params.selection)
        with pytest.raises(NonFiniteError, match=message):
            selection_quality(FeatureBank(dim=4, samples=[sample]), params)


# ---------------------------------------------------------------------------
# the fused nodes against the composed path (tests/composed_selection.py), bit for bit


def bits(array) -> bytes:
    return np.ascontiguousarray(array, dtype=np.float64).tobytes()


def use_composed(monkeypatch):
    for name in composed.FUNCTIONS:
        monkeypatch.setattr(selection, name, getattr(composed, name))


def one_empty_case():
    """Sparse tokens orthogonal to every patch and a low prediction: in eval
    mode the sparse branch keeps nothing and the dense one keeps patch 0."""
    eye = np.eye(4)
    sample = Sample("one-empty", eye[:3].copy(), eye[3:].copy(), eye[:1].copy())
    params = perturb_params(make_params(dim=4, n_keep=2, seed=3), 1).selection
    params.pred_b2.data = np.asarray(-3.0)
    return sample, params


def selection_case(case):
    if case == "one_empty":
        return one_empty_case()
    sample = generate_synthetic(SynthConfig(n_samples=1, seed=21, **DESK)).samples[0]
    params = perturb_params(make_params(dim=32, n_patches=16, n_keep=8, seed=2), 3).selection
    params.zero_dense_attention = case == "zero_dense_attention"
    return sample, params


def selection_pass_bits(sample, params, mode, rng=None, select=None):
    """Every value of one selection pass through `select` (by default
    `selection.select_and_aggregate`), and the gradient of a readout of the
    vectors and both keep means, as bytes."""
    if mode == "train" and rng is None:
        rng = np.random.default_rng(4)  # seed 4: sparse empty
    select = select or selection.select_and_aggregate
    agg, bundle, decisions = select(sample, params, mode, rng)
    readout = sum_all(mul(agg.vectors, ad.constant(np.cos(np.arange(agg.vectors.size))
                                                   .reshape(agg.vectors.shape))))
    gate = decisions.gate(mode)  # the sparse keep mean, minus twice the dense one
    means = ad.constant(np.repeat([[1.0], [-2.0]], gate.shape[1], axis=1) / gate.shape[1])
    readout = ad.add(readout, sum_all(mul(gate, means)))
    tensors = params.tensors()
    grads = ad.gradient(readout, tensors)
    empty = (agg.empty_sparse, agg.empty_dense)
    values = [agg.vectors.data, bundle.predicted.data, readout.data,
              *(w for w in (agg.weights_sparse, agg.weights_dense) if w is not None),
              decisions.hard, decisions.soft.data, decisions.logit.data, decisions.score,
              *(grads[t].data for t in tensors)]
    return empty, [bits(v) for v in values]


@pytest.mark.parametrize("case", ["desk", "zero_dense_attention", "one_empty"])
@pytest.mark.parametrize("mode", selection.MODES)
def test_selection_pass_matches_the_composed_path_bitwise(mode, case, monkeypatch):
    sample, params = selection_case(case)
    empty, fused = selection_pass_bits(sample, params, mode)
    if case == "one_empty" and mode != "soft":
        assert empty == (True, False)
    use_composed(monkeypatch)
    assert selection_pass_bits(sample, params, mode) == (empty, fused)


# the tape nodes under one pass's vectors: the prediction, one `decide` node
# for both branches' scores and logits, their keep probability, the gate
# (a constant in eval mode, the keep probability in soft mode) and one
# aggregate node for both branches' weights and the fused vectors: 5 nodes
# in train mode, 1 in eval mode and 4 in soft mode
STAGES = {"predict": 1, "decide": 1, "sigmoid": 1}
PASS_NODES = {"train": {**STAGES, "straight_through": 1, "aggregate": 1},
              "eval": {"aggregate": 1},
              "soft": {**STAGES, "aggregate": 1}}


@pytest.mark.parametrize("mode", selection.MODES)
def test_selection_pass_tapes_its_stages_by_name(mode):
    sample, params = selection_case("desk")
    rng = np.random.default_rng(0) if mode == "train" else None
    agg, _, _ = select_and_aggregate(sample, params, mode, rng)
    assert not (agg.empty_sparse or agg.empty_dense)
    names = [n.name for n in ad.Graph(agg.vectors).nodes if n.parents]
    assert Counter(names) == PASS_NODES[mode]


@pytest.mark.parametrize("head_hidden", [0, 4])
@pytest.mark.parametrize("mode", selection.MODES)
def test_batch_matches_the_composed_selection_bitwise(mode, head_hidden, monkeypatch):
    # a desk-shaped batch: B=8, 16 patches, 8 kept vectors, k_top=8 over 2 words
    bank = generate_synthetic(SynthConfig(n_samples=8, seed=head_hidden + 1))
    params = perturb_params(make_params(dim=32, n_patches=16, n_keep=8, k_top=8,
                                        head_hidden=head_hidden, seed=1), 4)

    def run():
        batch = batch_similarity(bank.samples, params.selection, params.alignment,
                                 mode, seed=5, step=2)
        loss = batch_loss(batch, TrainConfig())
        grads = ad.gradient(loss, params.tensors())
        return [bits(loss.data), bits(batch.scores.data),
                *(bits(grads[t].data) for t in params.tensors())]

    fused = run()
    use_composed(monkeypatch)
    assert run() == fused


# a layer's weight and bias, which the tests below set to 1e308
LAYERS = ("pred.w1 pred.b1", "pred.w2 pred.b2", "agg_sparse.w agg_sparse.b",
          "agg_dense.w agg_dense.b")


@pytest.mark.parametrize("layer", LAYERS)
@pytest.mark.parametrize("mode", selection.MODES)
def test_non_finite_raises_where_the_composed_path_raises(layer, mode, monkeypatch):
    # a layer's weight and bias at 1e308 overflow its pre-activation to inf,
    # which the composed path held in a Tensor; no input is non-finite
    sample, params = selection_case("desk")
    for name in layer.split():
        tensor = getattr(params, name.replace(".", "_"))
        tensor.data = np.full_like(tensor.data, 1e308)

    def raises():
        rng = np.random.default_rng(0) if mode == "train" else None
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError) as e:
            selection.select_and_aggregate(sample, params, mode, rng)
        return str(e.value)

    fused = raises()
    use_composed(monkeypatch)
    assert raises() == fused


def pass_outcome(select, sample, params, mode, seed, step):
    """`selection_pass_bits` of one pass, or the class and message it raised."""
    rng = selection.decision_rng(seed, sample.sample_id, step) if mode == "train" else None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return selection_pass_bits(sample, params, mode, rng, select)
    except (NoPatchesSelectedError, NonFiniteError) as e:
        return type(e), str(e)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_selection_pass_matches_the_composed_pass_on_drawn_inputs(data):
    n, d = data.draw(st.integers(1, 20), label="patches"), data.draw(st.integers(2, 8), label="dim")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="sample"))
    words = (data.draw(st.integers(1, 4), label="sparse words"),
             data.draw(st.integers(1, 6), label="dense words"))
    sample = Sample("drawn", rng.normal(size=(n, d)), *(rng.normal(size=(m, d)) for m in words))
    params = perturb_params(make_params(
        dim=d, n_keep=data.draw(st.integers(1, 4), label="n_keep"),
        beta=data.draw(st.floats(0.0, 0.05) | st.floats(0.0, 0.5), label="beta"),
        tau=data.draw(st.floats(0.05, 5.0), label="tau"),
        seed=data.draw(st.integers(0, 99), label="model")),
        data.draw(st.integers(0, 99), label="perturbation")).selection
    # a low prediction under a small beta empties branches; a layer at 1e308 overflows
    params.pred_b2.data = np.asarray(data.draw(st.floats(-8.0, 4.0), label="prediction bias"))
    params.zero_dense_attention = data.draw(st.booleans(), label="zero_dense_attention")
    overflow = data.draw(st.sampled_from((None,) * 8 + LAYERS), label="overflow")
    for name in (overflow or "").split():
        tensor = getattr(params, name.replace(".", "_"))
        tensor.data = np.full_like(tensor.data, 1e308)
    mode = data.draw(st.sampled_from(selection.MODES), label="mode")
    keys = data.draw(st.integers(0, 2**31 - 1), label="seed"), data.draw(st.integers(0, 999))
    fused = pass_outcome(selection.select_and_aggregate, sample, params, mode, *keys)
    assert pass_outcome(composed.select_and_aggregate, sample, params, mode, *keys) == fused


def test_forward_unknown_mode_rejected():
    sample = basis_sample()
    params = make_params(dim=8)
    with pytest.raises(ConfigError):
        select_and_aggregate(sample, params.selection, "test")


# ---------------------------------------------------------------------------
# invariants


def test_score_components_bounded(rng):
    for seed in range(5):
        sample = Sample(
            f"r{seed}",
            rng.normal(size=(6, 5)),
            rng.normal(size=(3, 5)),
            rng.normal(size=(4, 5)),
        )
        params = make_params(dim=5, n_keep=3, seed=seed)
        _, bundle, _ = select_and_aggregate(sample, params.selection, "eval")
        for arr in (bundle.predicted.data, bundle.sparse_text,
                    bundle.dense_text, bundle.image_self):
            assert arr.min() >= 0.0 and arr.max() <= 1.0
        s_sp, s_dn = branch_scores(bundle, params.selection.beta)
        for arr in (s_sp.data, s_dn.data):
            assert arr.min() >= 0.0 and arr.max() < 1.0


def test_straight_through_gradient_equals_soft_path():
    # with noise off and a linear readout, the straight-through gradient of
    # the hard decision equals the gradient of the soft relaxation, which a
    # finite-difference probe of the soft path verifies
    readout = np.array([[1.5, -2.0, 0.7, 0.4], [0.3, 0.9, -1.1, 2.0]])
    scores0 = np.array([0.62, 0.31, 0.55, 0.48])
    tau = 0.8

    def soft_loss(t):
        return sum_all(mul(decisions_for(t, tau).soft, ad.constant(readout)))

    point = ad.tensor(scores0, requires_grad=True)
    st_loss = sum_all(mul(decisions_for(point, tau).gate("train"), ad.constant(readout)))
    st_grad = ad.gradient(st_loss, [point])[point].data

    soft_point = ad.tensor(scores0, requires_grad=True)
    soft_grad = ad.gradient(soft_loss(soft_point), [soft_point])[soft_point].data
    np.testing.assert_allclose(st_grad, soft_grad, atol=1e-12)
    assert finite_difference_check(soft_loss, point) < 1e-4


def test_permutation_equivariance(rng):
    sample = Sample("perm", rng.normal(size=(6, 5)),
                    rng.normal(size=(2, 5)), rng.normal(size=(3, 5)))
    params = make_params(dim=5, n_keep=3, seed=4)
    agg, bundle, (mask_s, mask_d) = select_and_aggregate(sample, params.selection, "eval")

    perm = rng.permutation(6)
    permuted = Sample("perm", sample.patches[perm], sample.sparse_tokens,
                      sample.dense_tokens)
    agg_p, bundle_p, (mask_s_p, mask_d_p) = select_and_aggregate(
        permuted, params.selection, "eval")

    np.testing.assert_allclose(bundle_p.predicted.data, bundle.predicted.data[perm],
                               atol=1e-12)
    np.testing.assert_allclose(bundle_p.sparse_text, bundle.sparse_text[perm], atol=1e-12)
    np.testing.assert_array_equal(mask_s_p.hard, mask_s.hard[perm])
    np.testing.assert_array_equal(mask_d_p.hard, mask_d.hard[perm])
    np.testing.assert_allclose(agg_p.vectors.data, agg.vectors.data, atol=1e-9)


def test_eval_idempotence_repeated_calls(rng):
    sample = Sample("idem", rng.normal(size=(5, 4)),
                    rng.normal(size=(2, 4)), rng.normal(size=(2, 4)))
    params = make_params(dim=4, n_keep=2, seed=6)
    runs = [select_and_aggregate(sample, params.selection, "eval")[0].vectors.data
            for _ in range(3)]
    assert np.array_equal(runs[0], runs[1]) and np.array_equal(runs[1], runs[2])
