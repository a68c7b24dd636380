"""Numeric substrate: op examples, gradient checks, determinism."""

import zlib

import numpy as np
import pytest

from seps import autodiff as ad
from seps.errors import EmptySupportError, GraphError, NonFiniteError, ShapeError


def test_sigmoid_symmetry_point():
    assert ad.sigmoid(ad.constant(0.0)).item() == 0.5


def test_sigmoid_saturates():
    assert abs(ad.sigmoid(ad.constant(50.0)).item() - 1.0) <= 1e-15


def test_sigmoid_gradient_matches_central_difference():
    x = ad.tensor(0.0, requires_grad=True)
    y = ad.sigmoid(x)
    grad = ad.gradient(y, [x])[x].item()
    assert grad == pytest.approx(0.25, abs=1e-12)
    err = ad.finite_difference_check(lambda t: ad.sigmoid(t), x)
    assert err < 1e-7


def test_softmax_uniform_column():
    out = ad.softmax_columns(ad.constant([[0.0], [0.0]]))
    np.testing.assert_allclose(out.data, [[0.5], [0.5]], rtol=0, atol=0)


def test_softmax_single_support_row():
    out = ad.softmax_columns(ad.constant([[0.0], [0.0]]),
                             support=np.array([True, False]))
    np.testing.assert_array_equal(out.data, [[1.0], [0.0]])


def test_softmax_against_direct_exponentiation():
    column = np.array([1.0, 2.0, 3.0])
    out = ad.softmax_columns(ad.constant(column[:, None])).data[:, 0]
    expected = np.exp(column) / np.exp(column).sum()
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_softmax_empty_support_raises():
    with pytest.raises(EmptySupportError, match="empty softmax support"):
        ad.softmax_columns(ad.constant([[1.0], [2.0]]), support=np.array([False, False]))


def test_softmax_columns_sum_to_one():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.normal(size=(5, 4)) * 3
        support = rng.random(5) > 0.3
        if not support.any():
            support[0] = True
        out = ad.softmax_columns(ad.constant(x), support=support).data
        np.testing.assert_allclose(out.sum(axis=0), np.ones(4), atol=1e-12)
        assert np.all(out[~support] == 0.0)


def test_row_max_identity():
    values, args = ad.row_max_with_arg(ad.constant([[1.0, 0.0], [0.0, 1.0]]))
    np.testing.assert_array_equal(values.data, [1.0, 1.0])
    np.testing.assert_array_equal(args, [0, 1])


def test_row_max_tie_breaks_first():
    values, args = ad.row_max_with_arg(ad.constant([[2.0, 2.0]]))
    np.testing.assert_array_equal(values.data, [2.0])
    np.testing.assert_array_equal(args, [0])


def test_row_max_empty_raises():
    with pytest.raises(ShapeError):
        ad.row_max_with_arg(ad.constant(np.zeros((0, 3))))


def test_row_max_gradient_away_from_ties():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 4)) + np.arange(12).reshape(3, 4) * 0.31
    point = ad.tensor(x, requires_grad=True)
    err = ad.finite_difference_check(
        lambda t: ad.sum_all(ad.row_max_with_arg(t)[0]), point)
    assert err < 1e-7


def test_topk_sorts_descending():
    values, _ = ad.topk(ad.constant([0.1, 0.9, 0.5]), 2)
    np.testing.assert_array_equal(values.data, [0.9, 0.5])


def test_topk_pads_with_minimum():
    values, _ = ad.topk(ad.constant([0.3]), 3)
    np.testing.assert_array_equal(values.data, [0.3, 0.3, 0.3])


def test_topk_empty_raises():
    with pytest.raises(ShapeError):
        ad.topk(ad.constant(np.zeros(0)), 1)


def test_topk_gradient_away_from_ties():
    x = np.array([0.4, -1.2, 2.2, 0.9, -0.3, 1.5])
    point = ad.tensor(x, requires_grad=True)
    weights = ad.constant([1.0, 2.0, 3.0])
    err = ad.finite_difference_check(
        lambda t: ad.dot(ad.topk(t, 3)[0], weights), point)
    assert err < 1e-7


def test_gradient_square():
    x = ad.tensor(3.0, requires_grad=True)
    grad = ad.gradient(ad.mul(x, x), [x])[x].item()
    assert grad == 6.0


def test_gradient_product():
    x = ad.tensor(2.0, requires_grad=True)
    y = ad.tensor(5.0, requires_grad=True)
    grads = ad.gradient(ad.mul(x, y), [x, y])
    assert grads[x].item() == 5.0
    assert grads[y].item() == 2.0


def test_graph_topological_order_and_adjoints():
    x = ad.tensor([1.0, 2.0], requires_grad=True)
    y = ad.sigmoid(x)
    out = ad.mean_all(y)
    graph = ad.Graph(out)
    order = {id(node): i for i, node in enumerate(graph.nodes)}
    assert order[id(x)] < order[id(y)] < order[id(out)]
    adjoints = graph.backward()
    assert id(x) in adjoints and id(out) in adjoints
    np.testing.assert_allclose(adjoints[id(x)],
                               y.data * (1 - y.data) / 2.0, atol=1e-15)


def test_gradient_non_scalar_output_raises():
    x = ad.tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(GraphError):
        ad.gradient(ad.sigmoid(x), [x])


def test_gradient_unreached_leaf_is_zero():
    x = ad.tensor(2.0, requires_grad=True)
    other = ad.tensor([1.0, 1.0], requires_grad=True)
    grads = ad.gradient(ad.mul(x, x), [x, other])
    np.testing.assert_array_equal(grads[other].data, np.zeros(2))


def test_fd_check_linear_is_near_exact():
    x = ad.tensor([1.0, -2.0, 0.5], requires_grad=True)
    coeff = ad.constant([3.0, 1.0, -2.0])
    err = ad.finite_difference_check(lambda t: ad.dot(t, coeff), x)
    assert err < 1e-10


def test_fd_check_sigmoid_composite():
    x = ad.tensor([0.3, -0.7], requires_grad=True)
    err = ad.finite_difference_check(
        lambda t: ad.mean_all(ad.sigmoid(ad.mul(t, t))), x)
    assert err < 1e-6


def test_fd_check_reports_discontinuity():
    # step function: analytic gradient 0, FD sees the jump; the large error
    # must be returned, not raised or masked
    def step(t):
        hard = (t.data > 0.0).astype(float)
        return ad.sum_all(ad.straight_through(ad.scale(t, 0.0), hard))

    x = ad.tensor([1e-7], requires_grad=True)
    err = ad.finite_difference_check(step, x)
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
    assert calls[0][1, 1] == 4.0 + ad.CONSTANTS.fd_step
    assert calls[1][1, 1] == 4.0 + ad.CONSTANTS.fd_step - 2.0 * ad.CONSTANTS.fd_step


def test_non_finite_result_raises():
    with pytest.raises(NonFiniteError):
        ad.log(ad.constant([0.0]))


def test_forward_determinism_bitwise():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 3))

    def run():
        t = ad.constant(x)
        out = ad.softmax_columns(ad.matmul(t, ad.constant(rng_w)))
        return ad.mean_all(ad.rows_l2norm(out)).item()

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
    grads = ad.gradient(ad.dot(out, ad.constant([2.0, 3.0])), [soft])
    np.testing.assert_array_equal(grads[soft].data, [2.0, 3.0])


# ---------------------------------------------------------------------------
# finite-difference sweep over every public differentiable op


def _away_from_ties(rng, shape, spread=1.0):
    """Values with pairwise gaps, keeping max/topk subgradients stable."""
    flat = rng.normal(size=int(np.prod(shape))) * spread
    flat += np.linspace(0, 0.37 * flat.size, flat.size)
    return rng.permutation(flat).reshape(shape)


def _fd_cases():
    w = np.array([0.7, -1.3, 0.4])
    m34 = "m34"  # marker: 3x4 matrix input
    return {
        "add": (lambda t: ad.sum_all(ad.add(t, ad.constant([0.2, -0.4, 1.0]))), (3,)),
        "add_scalar_broadcast": (lambda t: ad.sum_all(ad.add(t, ad.constant(0.3))), (3,)),
        "mul": (lambda t: ad.sum_all(ad.mul(t, ad.constant([1.2, -0.8, 0.5]))), (3,)),
        "neg": (lambda t: ad.sum_all(ad.neg(t)), (3,)),
        "scale": (lambda t: ad.sum_all(ad.scale(t, -2.5)), (3,)),
        "recip": (lambda t: ad.sum_all(ad.recip(ad.add_scalar(ad.mul(t, t), 1.0))), (3,)),
        "log": (lambda t: ad.sum_all(ad.log(ad.add_scalar(ad.mul(t, t), 0.5))), (3,)),
        "sigmoid": (lambda t: ad.sum_all(ad.sigmoid(t)), (3,)),
        "log_sigmoid": (lambda t: ad.sum_all(ad.log_sigmoid(t)), (3,)),
        "tanh": (lambda t: ad.sum_all(ad.tanh(t)), (3,)),
        "relu": (lambda t: ad.sum_all(ad.relu(ad.add_scalar(t, 5.0))), (3,)),
        "clip_interior": (lambda t: ad.sum_all(ad.clip(t, -50.0, 50.0)), (3,)),
        "matmul": (lambda t: ad.sum_all(ad.matmul(t, ad.constant(np.arange(8.0).reshape(4, 2)))), m34),
        "matvec": (lambda t: ad.sum_all(ad.matmul(t, ad.constant([1.0, -1.0, 0.5, 2.0]))), m34),
        "transpose": (lambda t: ad.sum_all(ad.mul(ad.transpose(t), ad.transpose(t))), m34),
        "dot": (lambda t: ad.dot(t, ad.constant(w)), (3,)),
        "sum_all": (lambda t: ad.sum_all(t), m34),
        "mean_all": (lambda t: ad.mean_all(t), m34),
        "scale_rows": (lambda t: ad.sum_all(ad.scale_rows(t, ad.constant([1.0, -2.0, 0.5]))), m34),
        "scale_cols": (lambda t: ad.sum_all(ad.scale_cols(t, ad.constant([1.0, -1.0, 2.0, 0.5]))), m34),
        "add_rowvec": (lambda t: ad.sum_all(ad.mul(ad.add_rowvec(t, ad.constant([1.0, 2.0, 3.0, 4.0])), t)), m34),
        "add_colvec": (lambda t: ad.sum_all(ad.mul(ad.add_colvec(t, ad.constant([1.0, 2.0, 3.0])), t)), m34),
        "rows_l2norm": (lambda t: ad.sum_all(ad.rows_l2norm(ad.add_scalar(t, 3.0))), m34),
        "softmax_columns": (lambda t: ad.sum_all(ad.mul(ad.softmax_columns(t), ad.constant(np.arange(12.0).reshape(3, 4)))), m34),
        "softmax_masked": (lambda t: ad.sum_all(ad.mul(
            ad.softmax_columns(t, support=np.array([True, False, True])),
            ad.constant(np.arange(12.0).reshape(3, 4)))), m34),
        "row_max": (lambda t: ad.sum_all(ad.row_max_with_arg(t)[0]), m34),
        "topk": (lambda t: ad.dot(ad.topk(t, 4)[0], ad.constant([1.0, 2.0, 3.0, 4.0])), (3,)),
        "element": (lambda t: ad.element(t, 1, 2), m34),
        "stack": (lambda t: ad.mean_all(ad.stack(
            [ad.element(t, 0, 0), ad.element(t, 1, 1), ad.element(t, 2, 3),
             ad.element(t, 0, 2)], (2, 2))), m34),
    }


@pytest.mark.parametrize("name", sorted(_fd_cases()))
def test_fd_sweep_public_ops(name):
    fn, shape = _fd_cases()[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))  # stable across runs
    for _ in range(100):
        data = _away_from_ties(rng, (3, 4) if shape == "m34" else shape)
        point = ad.tensor(data, requires_grad=True)
        assert ad.finite_difference_check(fn, point) < 1e-4
