"""Numeric substrate: op examples, gradient checks, determinism."""

import ast
import dataclasses
import functools
import zlib
from pathlib import Path

import numpy as np
import pytest

from composed_alignment import (dot, mean_all, recip, row_max_with_arg, rows_l2norm, scale_cols,
                                topk)
from composed_selection import (EmptySupportError, add_colvec, add_rowvec, add_scalar, clip,
                                log, log_sigmoid, matmul, neg, rows, scale, scale_rows,
                                softmax_columns, tanh, transpose)
from conftest import finite_difference_check, make_params, mul, sum_all
import reference_autodiff

import seps
from seps import autodiff as ad
from seps.alignment import (AlignmentParams, RelevanceHead, score_from_similarity,
                            similarity_matrix)
from seps.objective import ratio_loss, triplet_loss
from seps.selection import Decisions, ScoreBundle, aggregate, decide, predict_scores
from seps.errors import GraphError, NonFiniteError, ShapeError
from seps.trainer import TrainConfig


def test_sigmoid_symmetry_point():
    assert ad.sigmoid(ad.constant(0.0)).item() == 0.5


def test_sigmoid_saturates():
    assert abs(ad.sigmoid(ad.constant(50.0)).item() - 1.0) <= 1e-15


def test_sigmoid_gradient_matches_central_difference():
    x = ad.tensor(0.0, requires_grad=True)
    y = ad.sigmoid(x)
    grad = ad.gradient(y, [x])[x].item()
    assert grad == pytest.approx(0.25, abs=1e-12)
    err = finite_difference_check(lambda t: ad.sigmoid(t), x)
    assert err < 1e-7


SIGMOID_EDGES = [0.0, -0.0, 1e-320, -1e-320, 36.0, -36.0, 709.0, -709.0, 745.0, -745.0,
                 np.inf, -np.inf, np.nan, -np.nan]


def test_sigmoid_np_equals_the_boolean_mask_form_bitwise():
    # the composed oracles call ad.sigmoid_np themselves, so only a direct
    # comparison catches a drift in its bits
    edges = np.array(SIGMOID_EDGES)
    rng = np.random.default_rng(29)
    arrays = [edges, edges[::-1].reshape(2, 7), *(rng.normal(scale=40.0, size=shape)
                                                  for shape in [(257,), (13, 17), (4, 9, 11)])]
    with np.errstate(under="ignore"):
        for x in arrays:
            fast, masked = ad.sigmoid_np(x), reference_autodiff.sigmoid_np(x)
            assert fast.shape == x.shape and fast.dtype == np.float64
            assert fast.tobytes() == masked.tobytes()
        for value in SIGMOID_EDGES:
            x = np.asarray(value)
            assert ad.sigmoid_np(x).tobytes() == reference_autodiff.sigmoid_np(x).tobytes()


# ---------------------------------------------------------------------------
# the column softmax of the composed selection oracle (tests/composed_selection.py),
# whose masked kernel `selection.column_softmax` the weights nodes share


def test_softmax_uniform_column():
    out = softmax_columns(ad.constant([[0.0], [0.0]]))
    np.testing.assert_allclose(out.data, [[0.5], [0.5]], rtol=0, atol=0)


def test_softmax_single_support_row():
    out = softmax_columns(ad.constant([[0.0], [0.0]]), support=np.array([True, False]))
    np.testing.assert_array_equal(out.data, [[1.0], [0.0]])


def test_softmax_against_direct_exponentiation():
    column = np.array([1.0, 2.0, 3.0])
    out = softmax_columns(ad.constant(column[:, None])).data[:, 0]
    expected = np.exp(column) / np.exp(column).sum()
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_softmax_empty_support_raises():
    with pytest.raises(EmptySupportError, match="empty softmax support"):
        softmax_columns(ad.constant([[1.0], [2.0]]), support=np.array([False, False]))


def test_softmax_columns_sum_to_one():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.normal(size=(5, 4)) * 3
        support = rng.random(5) > 0.3
        if not support.any():
            support[0] = True
        out = softmax_columns(ad.constant(x), support=support).data
        np.testing.assert_allclose(out.sum(axis=0), np.ones(4), atol=1e-12)
        assert np.all(out[~support] == 0.0)


# ---------------------------------------------------------------------------
# max and top-k of the composed pair-score oracle (tests/composed_alignment.py),
# whose first-occurrence and padding rules the fused pair_score node keeps


def test_row_max_identity():
    values, args = row_max_with_arg(ad.constant([[1.0, 0.0], [0.0, 1.0]]))
    np.testing.assert_array_equal(values.data, [1.0, 1.0])
    np.testing.assert_array_equal(args, [0, 1])


def test_row_max_tie_breaks_first():
    values, args = row_max_with_arg(ad.constant([[2.0, 2.0]]))
    np.testing.assert_array_equal(values.data, [2.0])
    np.testing.assert_array_equal(args, [0])


def test_row_max_empty_raises():
    with pytest.raises(ShapeError):
        row_max_with_arg(ad.constant(np.zeros((0, 3))))


def test_row_max_gradient_away_from_ties():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 4)) + np.arange(12).reshape(3, 4) * 0.31
    point = ad.tensor(x, requires_grad=True)
    err = finite_difference_check(
        lambda t: sum_all(row_max_with_arg(t)[0]), point)
    assert err < 1e-7


def test_topk_sorts_descending():
    values, _ = topk(ad.constant([0.1, 0.9, 0.5]), 2)
    np.testing.assert_array_equal(values.data, [0.9, 0.5])


def test_topk_pads_with_minimum():
    values, _ = topk(ad.constant([0.3]), 3)
    np.testing.assert_array_equal(values.data, [0.3, 0.3, 0.3])


def test_topk_empty_raises():
    with pytest.raises(ShapeError):
        topk(ad.constant(np.zeros(0)), 1)


def test_topk_gradient_away_from_ties():
    x = np.array([0.4, -1.2, 2.2, 0.9, -0.3, 1.5])
    point = ad.tensor(x, requires_grad=True)
    weights = ad.constant([1.0, 2.0, 3.0])
    err = finite_difference_check(
        lambda t: sum_all(mul(topk(t, 3)[0], weights)), point)
    assert err < 1e-7


def test_gradient_square():
    x = ad.tensor(3.0, requires_grad=True)
    grad = ad.gradient(mul(x, x), [x])[x].item()
    assert grad == 6.0


def test_gradient_product():
    x = ad.tensor(2.0, requires_grad=True)
    y = ad.tensor(5.0, requires_grad=True)
    grads = ad.gradient(mul(x, y), [x, y])
    assert grads[x].item() == 5.0
    assert grads[y].item() == 2.0


def test_graph_topological_order_and_adjoints():
    x = ad.tensor([1.0, 2.0], requires_grad=True)
    y = ad.sigmoid(x)
    out = mean_all(y)
    graph = ad.Graph(out)
    order = {id(node): i for i, node in enumerate(graph.nodes)}
    assert order[id(x)] < order[id(y)] < order[id(out)]
    adjoints = graph.backward()
    assert id(x) in adjoints and id(out) in adjoints
    np.testing.assert_allclose(adjoints[id(x)],
                               y.data * (1 - y.data) / 2.0, atol=1e-15)


def test_adjoints_sum_in_reverse_creation_order():
    # a, b and c each hand x one contribution; the output lists them as
    # (c, a, b), so a depth-first walk would sum b's, a's, then c's:
    # (-1e16 + 1.0) + 1e16 == 0.0.  Reverse creation order sums c's, b's,
    # then a's: (1e16 + -1e16) + 1.0 == 1.0
    x = ad.tensor(0.0, requires_grad=True)
    a, b, c = (ad.node(x.data, (x,), lambda g, k=k: (g * k,), name)
               for k, name in ((1.0, "a"), (-1e16, "b"), (1e16, "c")))
    out = ad.node(x.data, (c, a, b), lambda g: (g, g, g), "out")
    assert [n.name for n in ad.Graph(out).nodes] == [None, "a", "b", "c", "out"]
    assert ad.gradient(out, [x])[x].item() == 1.0


def test_gradient_non_scalar_output_raises():
    x = ad.tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(GraphError):
        ad.gradient(ad.sigmoid(x), [x])


def test_gradient_unreached_leaf_is_zero():
    x = ad.tensor(2.0, requires_grad=True)
    other = ad.tensor([1.0, 1.0], requires_grad=True)
    grads = ad.gradient(mul(x, x), [x, other])
    np.testing.assert_array_equal(grads[other].data, np.zeros(2))


def test_stack_skips_parts_whose_adjoint_is_zero():
    shared = ad.tensor([0.5, -1.5], requires_grad=True)
    only_skipped = ad.tensor([[2.0, -3.0]], requires_grad=True)
    ran = []

    def probe(x, name):
        def vjp(g):
            ran.append(name)
            return (np.full(x.shape, g),)
        return ad.node(x.data.sum(), (x,), vjp, name)

    cells = ad.stack([probe(shared, "a"), probe(only_skipped, "b"), probe(shared, "c")], (3,))
    # -0.0 counts as zero; the shared leaf still gets 2.0 + 4.0 from its live cells
    grads = ad.gradient(sum_all(mul(cells, ad.constant([2.0, -0.0, 4.0]))),
                        [shared, only_skipped])
    assert sorted(ran) == ["a", "c"]
    np.testing.assert_array_equal(grads[shared].data, [6.0, 6.0])
    assert grads[only_skipped].shape == (1, 2)
    assert grads[only_skipped].data.tobytes() == np.zeros((1, 2)).tobytes()  # +0.0


def test_fd_check_linear_is_near_exact():
    x = ad.tensor([1.0, -2.0, 0.5], requires_grad=True)
    coeff = ad.constant([3.0, 1.0, -2.0])
    err = finite_difference_check(lambda t: sum_all(mul(t, coeff)), x)
    assert err < 1e-10


def test_fd_check_sigmoid_composite():
    x = ad.tensor([0.3, -0.7], requires_grad=True)
    err = finite_difference_check(
        lambda t: mean_all(ad.sigmoid(mul(t, t))), x)
    assert err < 1e-6


def test_fd_check_reports_discontinuity():
    # step function: analytic gradient 0, FD sees the jump; the large error
    # must be returned, not raised or masked
    def step(t):
        hard = (t.data > 0.0).astype(float)
        return sum_all(ad.straight_through(scale(t, 0.0), hard))

    x = ad.tensor([1e-7], requires_grad=True)
    err = finite_difference_check(step, x)
    assert err > 1e3


def test_central_difference_of_a_quadratic():
    x = ad.tensor([1.0, -2.0, 0.5], requires_grad=True)
    before = x.data.copy()
    slope = ad.central_difference(lambda: float(np.sum(x.data ** 2)), x, 1)
    assert abs(slope - (-4.0)) < 1e-8
    np.testing.assert_array_equal(x.data, before)


def test_central_difference_restores_tensor_when_loss_raises():
    x = ad.tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    original = x.data
    before = original.copy()
    calls = []

    def failing_loss() -> float:
        calls.append(x.data.copy())
        if len(calls) == 2:
            raise RuntimeError("loss failed")
        return 0.0

    with pytest.raises(RuntimeError):
        ad.central_difference(failing_loss, x, 3)
    assert x.data is original
    np.testing.assert_array_equal(x.data, before)
    assert calls[0][1, 1] == 4.0 + ad.FD_STEP
    assert calls[1][1, 1] == 4.0 + ad.FD_STEP - 2.0 * ad.FD_STEP


def test_non_finite_result_raises():
    with pytest.raises(NonFiniteError):
        log(ad.constant([0.0]))


def test_forward_determinism_bitwise():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 3))

    def run():
        t = ad.constant(x)
        out = softmax_columns(matmul(t, ad.constant(rng_w)))
        return mean_all(mul(out, out)).item()

    rng_w = np.random.default_rng(4).normal(size=(3, 5))
    assert run() == run()


def test_no_grad_suppresses_graph():
    x = ad.tensor([1.0, 2.0], requires_grad=True)
    with ad.no_grad():
        y = ad.sigmoid(x)
    assert y.parents == ()


def test_straight_through_forwards_hard_values():
    soft = ad.tensor([0.7, 0.2], requires_grad=True)
    hard = np.array([1.0, 0.0])
    out = ad.straight_through(soft, hard)
    np.testing.assert_array_equal(out.data, hard)
    grads = ad.gradient(sum_all(mul(out, ad.constant([2.0, 3.0]))), [soft])
    np.testing.assert_array_equal(grads[soft].data, [2.0, 3.0])


# ---------------------------------------------------------------------------
# finite-difference sweep over every public differentiable op


def _away_from_ties(rng, shape, spread=1.0):
    """Values with pairwise gaps, keeping max/topk subgradients stable."""
    flat = rng.normal(size=int(np.prod(shape))) * spread
    flat += np.linspace(0, 0.37 * flat.size, flat.size)
    return rng.permutation(flat).reshape(shape)


TRIPLET_MARGIN = 0.2


def _clear_of_kinks(s, margin, clearance=1e-3):
    """No off-diagonal tie for a row or column maximum and no hinge within
    `clearance` of 0, so a central difference sees one linear piece."""
    masked = s + np.diag(np.full(len(s), -np.inf))
    for lines in (masked, masked.T):
        top2 = np.sort(lines, axis=1)[:, -2:]
        hinge = top2[:, 1] - np.diag(s) + margin
        if np.any(top2[:, 1] - top2[:, 0] < clearance) or np.any(np.abs(hinge) < clearance):
            return False
    return True


def _square_scores(rng, b=4):
    while True:
        s = _away_from_ties(rng, (b, b))
        if _clear_of_kinks(s, TRIPLET_MARGIN):
            return s


def _draw(rng, shape):
    if callable(shape):
        return shape(rng)
    return _away_from_ties(rng, (3, 4) if shape == "m34" else shape)


PAIR_K_TOP = 3  # above the two words of the probed 3x2 similarity, so word_to_patch pads


def _pair_score_cases():
    """pair_score of a 3x2 similarity with linear or tanh-hidden heads, one
    entry per probed input: the similarity or one head tensor."""
    cases = {}
    for hidden in (0, 2):
        rng = np.random.default_rng(hidden)
        shapes = {"w": (hidden or PAIR_K_TOP,), "b": ()}
        if hidden:
            shapes = {"hid_w": (PAIR_K_TOP, hidden), "hid_b": (hidden,), **shapes}
        fixed = {f"{side}.{name}": rng.normal(size=shape)
                 for side in ("p2w", "w2p") for name, shape in shapes.items()}
        fixed["sim"] = _away_from_ties(rng, (3, 2))

        def fn(t, wrt, fixed=fixed, hidden=hidden):
            value = {key: ad.constant(data) for key, data in fixed.items()} | {wrt: t}

            def head(side):
                return RelevanceHead(out_w=value[f"{side}.w"], out_b=value[f"{side}.b"],
                                     hid_w=value.get(f"{side}.hid_w"),
                                     hid_b=value.get(f"{side}.hid_b"))

            params = AlignmentParams(head("p2w"), head("w2p"))
            return score_from_similarity(value["sim"], params).total

        kind = "hidden" if hidden else "linear"
        for wrt, data in fixed.items():
            cases[f"pair_score_{kind}.{wrt}"] = (functools.partial(fn, wrt=wrt), data.shape)
    return cases


def _selection_cases():
    """The selection pass's nodes on 5 patches of dim 3 with 2 columns, one
    entry per probed input: a head weight, the prediction `decide` reads,
    or one parent of the aggregate node (a logit or gate row, the other
    row held fixed, for each branch)."""
    sel = make_params(dim=3, n_keep=2, seed=4).selection
    rng = np.random.default_rng(9)
    patches = rng.normal(size=(5, 3))
    readout = ad.constant(rng.normal(size=5))
    readout2 = ad.constant(rng.normal(size=(2, 5)))
    columns = ad.constant(rng.normal(size=(2, 3)))
    hard = np.array([[1.0, 0, 1, 1, 0], [0.0, 1, 0, 1, 1]])
    fixed_logit = ad.constant(rng.normal(size=(2, 5)))
    fixed_soft = ad.constant(ad.sigmoid_np(fixed_logit.data))

    def decisions(hard=hard, soft=fixed_soft, logit=fixed_logit):
        return Decisions(hard=hard, soft=soft, logit=logit, score=soft.data)

    def vectors(mode, given=None, **weights):
        params = dataclasses.replace(sel, **weights)
        return sum_all(mul(aggregate(patches, given or decisions(), params, mode).vectors,
                           columns))

    def agg_weight(t, mode, field):
        return vectors(mode, **{field: t})

    def agg_row(t, branch, field):
        fixed = {"logit": fixed_logit, "soft": fixed_soft}[field].data
        pair = [ad.constant(fixed[0]), ad.constant(fixed[1])]
        pair[branch] = t
        return vectors("soft", decisions(**{field: rows(*pair)}))

    def predicted(t, name):
        return sum_all(mul(predict_scores(patches, dataclasses.replace(sel, **{name: t})),
                           readout))

    def decided(t, noise=None):
        # beta 0.25 and both views at 1 clip the third patch at CLIP_HI
        views = np.array([0.1, 0.3, 1.0, 0.2, 0.0]), np.array([0.2, 0.1, 1.0, 0.3, 0.0])
        bundle = ScoreBundle(t, views[0], views[1][::-1].copy(), views[1])
        return sum_all(mul(decide(bundle, 0.25, 0.7, noise).logit, readout2))

    def unit(low, high):
        return lambda rng: rng.uniform(low, high, size=5)

    cases = {f"predict.{name}": (functools.partial(predicted, name=f"pred_{name}"),
                                 getattr(sel, f"pred_{name}").shape)
             for name in ("w1", "b1", "w2", "b2")}
    # every parent of the aggregate node, keyed aggregate.<mode>.<parent>
    for mode in ("eval", "soft"):
        for branch in ("sparse", "dense"):
            for name in ("w", "b"):
                field = f"agg_{branch}_{name}"
                cases[f"aggregate.{mode}.{branch}_{name}"] = (
                    functools.partial(agg_weight, mode=mode, field=field),
                    getattr(sel, field).shape)
    for index, branch in enumerate(("sparse", "dense")):
        cases[f"aggregate.soft.{branch}_logit"] = (
            functools.partial(agg_row, branch=index, field="logit"), (5,))
        cases[f"aggregate.soft.{branch}_gate"] = (
            functools.partial(agg_row, branch=index, field="soft"), unit(0.1, 0.9))
    # the sparse branch keeps nothing, so the dense parents come first
    cases["aggregate.eval_sparse_empty.dense_w"] = (
        lambda t: vectors("eval", decisions(hard * [[0.0], [1.0]]), agg_dense_w=t),
        sel.agg_dense_w.shape)
    # the prediction, decide's only parent, through both branches' clipped
    # scores, and through the log-odds with noise of their own
    cases["decide.clip"] = (decided, unit(0.1, 0.5))
    cases["decide.noise"] = (functools.partial(
        decided, noise=np.random.default_rng(3).gumbel(size=(2, 2, 5))), unit(0.05, 0.95))
    return cases


def _fd_cases():
    m34 = "m34"  # marker: 3x4 matrix input
    words = np.array([[0.3, -1.0, 0.8, 0.1], [1.2, 0.4, -0.5, 0.9]])
    ratio_cfg = TrainConfig(rho=0.4, lambda1=0.7, lambda2=1.3)
    # 3 x each one-hot column of a 2 x 3 matrix: each row's mean picks one entry
    picks = [ad.constant(3.0 * (np.arange(3) == i) * np.ones((2, 1))) for i in range(3)]
    gate_rows = [ad.constant(rows) for rows in np.cos(np.arange(24.0)).reshape(2, 2, 6)]
    return {
        "add": (lambda t: sum_all(ad.add(t, ad.constant([0.2, -0.4, 1.0]))), (3,)),
        "add_scalar_broadcast": (lambda t: sum_all(ad.add(t, ad.constant(0.3))), (3,)),
        "mul": (lambda t: sum_all(mul(t, ad.constant([1.2, -0.8, 0.5]))), (3,)),
        "scale": (lambda t: sum_all(scale(t, -2.5)), (3,)),
        "sigmoid": (lambda t: sum_all(ad.sigmoid(t)), (3,)),
        "sum_all": (lambda t: sum_all(t), m34),
        "stack": (lambda t: sum_all(mul(ad.stack(
            [mean_all(t), mean_all(tanh(t)), sum_all(mul(t, t)),
             mean_all(ad.sigmoid(t))], (2, 2)), ad.constant([[1.0, -2.0], [0.5, 3.0]]))), m34),
        # zero upstream cells skip their parts, which share t with the others
        "stack_zero_cells": (lambda t: sum_all(mul(ad.stack(
            [mean_all(t), mean_all(tanh(t)), sum_all(mul(t, t)),
             mean_all(ad.sigmoid(t))], (2, 2)), ad.constant([[1.0, 0.0], [-0.0, 3.0]]))), m34),
        "triplet_loss": (lambda t: triplet_loss(t, TRIPLET_MARGIN), _square_scores),
        # three samples, each keep fraction one entry of t
        "ratio_loss": (lambda t: ratio_loss([mul(t, pick) for pick in picks], ratio_cfg),
                       (2, 3)),
        # per-patch gates: each keep fraction is its gate row's mean
        "ratio_loss_gates": (lambda t: ratio_loss([mul(t, w) for w in gate_rows], ratio_cfg),
                             (2, 6)),
        "similarity": (lambda t: sum_all(mul(similarity_matrix(t, words),
                                             ad.constant(np.arange(6.0).reshape(3, 2) - 2.0))),
                       m34),
        **_pair_score_cases(),
        **_selection_cases(),
        **_oracle_op_cases(m34),
    }


def _oracle_op_cases(m34):
    """The ops the composed paths in tests/composed_selection.py and
    tests/composed_alignment.py keep for themselves: their vjps make the
    gradients the fused nodes are held bitwise equal to, so they are swept
    like the library's."""
    return {
        "mean_all": (lambda t: mean_all(t), m34),
        "neg": (lambda t: sum_all(neg(t)), (3,)),
        "log": (lambda t: sum_all(log(add_scalar(mul(t, t), 0.5))), (3,)),
        "log_sigmoid": (lambda t: sum_all(log_sigmoid(t)), (3,)),
        "tanh": (lambda t: sum_all(tanh(t)), (3,)),
        "clip_interior": (lambda t: sum_all(clip(t, -50.0, 50.0)), (3,)),
        "matmul": (lambda t: sum_all(matmul(t, ad.constant(np.arange(8.0).reshape(4, 2)))), m34),
        "matvec": (lambda t: sum_all(matmul(t, ad.constant([1.0, -1.0, 0.5, 2.0]))), m34),
        "transpose": (lambda t: sum_all(mul(transpose(t), transpose(t))), m34),
        "rows": (lambda t: sum_all(mul(rows(t, mul(t, t)), ad.constant([[1.0, -2.0, 0.5],
                                                                       [3.0, 0.7, -1.0]]))),
                 (3,)),
        "scale_rows": (lambda t: sum_all(scale_rows(t, ad.constant([1.0, -2.0, 0.5]))), m34),
        "add_rowvec": (lambda t: sum_all(mul(add_rowvec(t, ad.constant([1.0, 2.0, 3.0, 4.0])), t)), m34),
        "add_colvec": (lambda t: sum_all(mul(add_colvec(t, ad.constant([1.0, 2.0, 3.0])), t)), m34),
        "softmax_columns": (lambda t: sum_all(mul(softmax_columns(t), ad.constant(np.arange(12.0).reshape(3, 4)))), m34),
        "softmax_masked": (lambda t: sum_all(mul(
            softmax_columns(t, support=np.array([True, False, True])),
            ad.constant(np.arange(12.0).reshape(3, 4)))), m34),
        "recip": (lambda t: sum_all(recip(add_scalar(mul(t, t), 1.0))), (3,)),
        "dot": (lambda t: dot(t, ad.constant([0.7, -1.3, 0.4])), (3,)),
        "scale_cols": (lambda t: sum_all(scale_cols(t, ad.constant([1.0, -1.0, 2.0, 0.5]))), m34),
        "rows_l2norm": (lambda t: sum_all(rows_l2norm(add_scalar(t, 3.0))), m34),
        "row_max": (lambda t: sum_all(row_max_with_arg(t)[0]), m34),
        "topk": (lambda t: dot(topk(t, 4)[0], ad.constant([1.0, 2.0, 3.0, 4.0])), (3,)),
    }


@pytest.mark.parametrize("name", sorted(_fd_cases()))
def test_fd_sweep_public_ops(name):
    fn, shape = _fd_cases()[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))  # stable across runs
    for _ in range(100):
        point = ad.tensor(_draw(rng, shape), requires_grad=True)
        assert finite_difference_check(fn, point) < 1e-4


# ---------------------------------------------------------------------------
# every hand-written vjp in the library is reached by the sweep

# ops whose backward is not the derivative of their forward by design
FD_EXEMPT = {"straight_through": "forwards a constant; its identity backward is an estimator"}


def _argument(call, index, keyword):
    if len(call.args) > index:
        return call.args[index]
    return next((kw.value for kw in call.keywords if kw.arg == keyword), None)


def _vjp_functions():
    """(function, node name) for every function in src/seps that records a
    tape node through `node` with a vjp it defines itself."""
    found = []
    for path in sorted(Path(seps.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            local = {f.name for f in ast.walk(fn) if isinstance(f, ast.FunctionDef)}
            for call in ast.walk(fn):
                callee = getattr(call, "func", None)
                if getattr(callee, "id", getattr(callee, "attr", None)) != "node":
                    continue
                vjp = _argument(call, 2, "vjp")
                if isinstance(vjp, ast.Lambda) or (isinstance(vjp, ast.Name) and vjp.id in local):
                    tag = _argument(call, 3, "name")
                    found.append((f"{path.stem}.{fn.name}", getattr(tag, "value", None)))
    return found


def test_every_library_vjp_has_a_finite_difference_sweep_entry():
    ops = _vjp_functions()
    assert {"autodiff.add", "objective.triplet_loss", "objective.ratio_loss"} <= {
        fn for fn, _ in ops}
    tags = [tag for _, tag in ops]
    assert None not in tags and len(set(tags)) == len(tags), ops  # tags name one op each
    swept = set()
    for fn, shape in _fd_cases().values():
        probe = ad.tensor(_draw(np.random.default_rng(0), shape), requires_grad=True)
        swept |= {n.name for n in ad.Graph(fn(probe)).nodes}
    missing = [fn for fn, tag in ops if tag not in swept and fn.split(".")[1] not in FD_EXEMPT]
    assert not missing, f"no finite-difference sweep entry reaches {missing}"


# ---------------------------------------------------------------------------
# every public autodiff function has a caller in the library


def _autodiff_references(path: Path) -> set[str]:
    """Names of autodiff functions that `path` reads: `ad.<name>` and
    `from .autodiff import <name>` anywhere, plus, inside autodiff itself,
    any name used outside its own top-level definition."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for n in ast.walk(top):
            if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "ad":
                found.add(n.attr)
            elif isinstance(n, ast.ImportFrom) and n.module == "autodiff":
                found |= {alias.name for alias in n.names}
            elif path.stem == "autodiff" and isinstance(n, ast.Name) and n.id != own:
                found.add(n.id)
    return found


def test_every_public_autodiff_function_has_a_library_caller():
    package = Path(seps.__file__).parent
    tree = ast.parse((package / "autodiff.py").read_text(encoding="utf-8"))
    public = {fn.name for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")}
    assert {"node", "gradient", "straight_through"} <= public
    used = set().union(*(_autodiff_references(path) for path in package.glob("*.py")))
    assert not public - used, f"no caller in src/seps for {sorted(public - used)}"
