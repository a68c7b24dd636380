"""Batch scores, triplet loss vs brute force, ratio loss, the batch loss."""

import numpy as np
import pytest

import composed_alignment as composed
from conftest import make_params, perturb_params

from seps import autodiff as ad
from seps import alignment, evaluator, objective, selection
from seps.alignment import align_score
from seps.bank import Sample, SynthConfig, generate_synthetic
from seps.errors import ConfigError
from seps.objective import (BatchScores, batch_loss, batch_similarity, keep_means,
                            ratio_loss, triplet_loss)
from seps.trainer import TrainConfig


def brute_force_triplet(s: np.ndarray, margin: float) -> float:
    """Double loop replicating the documented accumulation order exactly."""
    b = s.shape[0]
    total = None
    for i in range(b):
        best_t = max((s[i, j] for j in range(b) if j != i))
        best_i = max((s[k, i] for k in range(b) if k != i))
        text = max(0.0, (best_t + -s[i, i]) + margin)
        image = max(0.0, (best_i + -s[i, i]) + margin)
        term = text + image
        total = term if total is None else total + term
    return total


def small_bank(seed=0, n=4):
    cfg = SynthConfig(n_samples=n, dim=6, n_patches=5, n_relevant_patches=2,
                      n_sparse_words=2, n_dense_words=3, concept_count=8, seed=seed)
    return generate_synthetic(cfg)


# ---------------------------------------------------------------------------
# batch similarity


def test_batch_of_one_matches_standalone():
    bank = small_bank()
    params = make_params(dim=6, n_keep=2, seed=1)
    batch = batch_similarity(bank.samples[:1], params.selection, params.alignment, "eval")
    assert batch.scores.shape == (1, 1)
    agg, _, _ = selection.select_and_aggregate(bank.samples[0], params.selection, "eval")
    standalone = align_score(agg.vectors, bank.samples[0].sparse_tokens,
                             params.alignment).total.item()
    assert batch.scores.data[0, 0] == pytest.approx(standalone, abs=1e-12)


def test_duplicated_sample_gives_equal_rows():
    bank = small_bank(seed=3)
    pair = [bank.samples[0], bank.samples[0]]
    params = make_params(dim=6, n_keep=2, seed=2)
    batch = batch_similarity(pair, params.selection, params.alignment, "eval")
    np.testing.assert_allclose(batch.scores.data[0], batch.scores.data[1], atol=1e-12)


def test_batch_entries_match_standalone_pipeline():
    bank = small_bank(seed=5)
    samples = bank.samples[:3]
    params = make_params(dim=6, n_keep=2, seed=4)
    batch = batch_similarity(samples, params.selection, params.alignment, "eval")
    for i in range(3):
        agg, _, _ = selection.select_and_aggregate(samples[i], params.selection, "eval")
        for j in range(3):
            expected = align_score(agg.vectors, samples[j].sparse_tokens,
                                   params.alignment).total.item()
            assert batch.scores.data[i, j] == pytest.approx(expected, abs=1e-12)


def test_batch_keep_stats_match_hard_fraction():
    bank = small_bank(seed=7)
    params = make_params(dim=6, n_keep=2, seed=6)
    batch = batch_similarity(bank.samples, params.selection, params.alignment, "eval")
    for sample, gate, keep in zip(bank.samples, batch.gates, batch.keep):
        _, _, (mask_s, mask_d) = selection.select_and_aggregate(
            sample, params.selection, "eval")
        assert keep_means([gate]).tolist() == [[mask_s.hard.mean(), mask_d.hard.mean()]]
        assert keep.tolist() == [mask_s.hard.mean(), mask_d.hard.mean()]
    assert batch.keep_fractions() == (float(np.mean([g.data[0].mean() for g in batch.gates])),
                                      float(np.mean([g.data[1].mean() for g in batch.gates])))


@pytest.mark.parametrize("mode", selection.MODES)
def test_a_step_computes_its_keep_means_once(mode, monkeypatch):
    # the ratio loss and the trainer's keep fractions read one computation
    calls, means = [], objective.keep_means

    def counted(gates):
        calls.append(len(gates))
        return means(gates)

    monkeypatch.setattr(objective, "keep_means", counted)
    bank = small_bank(seed=4)
    params = make_params(dim=6, n_keep=2, seed=5)
    batch = batch_similarity(bank.samples, params.selection, params.alignment, mode, seed=1)
    batch_loss(batch, TrainConfig())
    batch.keep_fractions()
    assert calls == [len(bank.samples)]


def test_train_batch_tapes_one_gate_per_sample_and_two_nodes_per_pair():
    bank = small_bank(seed=4)
    params = make_params(dim=6, n_keep=2, seed=5)
    batch = batch_similarity(bank.samples, params.selection, params.alignment, "train")
    names = [n.name for n in ad.Graph(batch_loss(batch, TrainConfig())).nodes]
    b = len(bank.samples)
    assert names.count("straight_through") == b  # one 2 x n gate: both branches
    assert all(gate.shape == (2, sample.n_patches) for gate, sample in zip(batch.gates,
                                                                           bank.samples))
    assert names.count("similarity") == names.count("pair_score") == b * b


def test_desk_train_step_builds_184_tape_nodes():
    # 12 weights, then per sample: predict, one decide node for both
    # branches' scores and logits, their sigmoid, their gate and one
    # aggregate node (5 x 8); two per pair (2 x 64); the stacked scores and
    # three loss nodes
    bank = generate_synthetic(SynthConfig(n_samples=8, seed=5))
    params = make_params(dim=32, n_patches=16, n_keep=8, k_top=8, seed=5)
    batch = batch_similarity(bank.samples, params.selection, params.alignment, "train",
                             seed=5)
    nodes = ad.Graph(batch_loss(batch, TrainConfig())).nodes
    names = [n.name for n in nodes]
    assert names.count("aggregate") == names.count("decide") == 8
    assert "branch_weights" not in names and "soft_branch_weights" not in names
    assert len(nodes) == 184


# each consumer of objective.score_grid on a desk bank of n samples, with
# the (images, captions, pairs) it prepares and scores
GRID_CONSUMERS = {
    "train_step": (8, (8, 8, 64), lambda bank, params: batch_similarity(
        bank.samples, params.selection, params.alignment, "train", seed=5)),
    "pairwise": (16, (16, 16, 256), evaluator.pairwise_scores),
    "one_pair": (2, (1, 1, 1), lambda bank, params: list(objective.score_grid(
        bank.samples[:1], bank.samples[1:], params.selection, params.alignment))),
}


@pytest.mark.parametrize("consumer", list(GRID_CONSUMERS))
def test_grid_consumers_prepare_each_side_once_and_score_every_pair(consumer, monkeypatch):
    class CountedRows(alignment.Rows):
        images = captions = 0

        def __init__(self, matrix):
            if isinstance(matrix, ad.Tensor):
                CountedRows.images += 1
            else:
                CountedRows.captions += 1
            super().__init__(matrix)

    # similarity_matrix would wrap an unprepared side through alignment.Rows
    monkeypatch.setattr(alignment, "Rows", CountedRows)
    monkeypatch.setattr(objective, "Rows", CountedRows)
    pairs = []
    score = objective.score_from_similarity

    def counted_score(sim, params):
        pairs.append(sim)
        return score(sim, params)

    monkeypatch.setattr(objective, "score_from_similarity", counted_score)
    n, expected, run = GRID_CONSUMERS[consumer]
    bank = generate_synthetic(SynthConfig(n_samples=n, seed=5))
    run(bank, make_params(dim=32, n_patches=16, n_keep=8, k_top=8, seed=5))
    # perfbench counts one alignment pair per score_from_similarity call
    assert (CountedRows.images, CountedRows.captions, len(pairs)) == expected


def desk_batch_run(samples, params, mode, cfg=TrainConfig()):
    """Loss, scores and every gradient of one B=8 step, as bytes."""
    batch = batch_similarity(samples, params.selection, params.alignment, mode, seed=3, step=4)
    loss = batch_loss(batch, cfg)
    grads = ad.gradient(loss, params.tensors())
    return [loss.data.tobytes(), batch.scores.data.tobytes(),
            *(np.ascontiguousarray(grads[t].data).tobytes() for t in params.tensors())]


@pytest.mark.parametrize("head_hidden", [0, 4])
@pytest.mark.parametrize("mode", ["train", "soft"])
def test_batch_loss_and_gradients_match_the_composed_path_bitwise(mode, head_hidden,
                                                                  monkeypatch):
    # a desk-shaped batch: B=8, 16 patches, 8 kept vectors, k_top=8 over 2 words
    bank = generate_synthetic(SynthConfig(n_samples=8, seed=head_hidden))
    params = perturb_params(make_params(dim=32, n_patches=16, n_keep=8, k_top=8,
                                        head_hidden=head_hidden, seed=1), 2)

    fused = desk_batch_run(bank.samples, params, mode)
    # the oracle unwraps the prepared sides the batch hands it
    monkeypatch.setattr(objective, "similarity_matrix", composed.similarity_matrix)
    monkeypatch.setattr(objective, "score_from_similarity", composed.score_from_similarity)
    assert fused == desk_batch_run(bank.samples, params, mode)


@pytest.mark.parametrize("head_hidden", [0, 3])
@pytest.mark.parametrize("mode", ["train", "eval", "soft"])
def test_sparse_backward_matches_the_dense_one_bitwise(mode, head_hidden, monkeypatch):
    # margin 0.5 leaves between 5 and 16 of the 64 score cells live in each case
    bank = generate_synthetic(SynthConfig(n_samples=8, seed=1))
    params = perturb_params(make_params(dim=32, n_patches=16, n_keep=8, k_top=8,
                                        head_hidden=head_hidden, seed=1), 2)
    cfg = TrainConfig(margin=0.5)
    sparse = desk_batch_run(bank.samples, params, mode, cfg)
    monkeypatch.setattr(ad, "stack", composed.dense_stack)
    assert sparse == desk_batch_run(bank.samples, params, mode, cfg)


def count_pair_vjps(loss: ad.Tensor) -> tuple[dict, list]:
    """Wrap the pair vjps of `loss`'s tape to count their runs, and the
    stack's to record the triplet adjoint it receives."""
    runs = {"similarity": 0, "pair_score": 0}
    adjoints = []

    def counted(node):
        vjp = node.vjp

        def wrapped(g):
            if node.name == "stack":
                adjoints.append(g.copy())
            else:
                runs[node.name] += 1
            return vjp(g)

        return wrapped

    for node in ad.Graph(loss).nodes:
        if node.name in ("similarity", "pair_score", "stack"):
            node.vjp = counted(node)
    return runs, adjoints


def test_desk_step_runs_one_pair_vjp_per_nonzero_score_adjoint():
    bank = generate_synthetic(SynthConfig(n_samples=8, seed=5))
    params = perturb_params(make_params(dim=32, n_patches=16, n_keep=8, k_top=8, seed=5), 6)
    batch = batch_similarity(bank.samples, params.selection, params.alignment, "train",
                             seed=5)
    loss = batch_loss(batch, TrainConfig())
    runs, adjoints = count_pair_vjps(loss)
    ad.gradient(loss, params.tensors())
    (g,) = adjoints
    touched = int(np.count_nonzero(g))
    assert 0 < touched < 64  # some hinge is active, most cells are silent
    assert runs == {"similarity": touched, "pair_score": touched}


def test_desk_step_finds_top_k_slots_only_in_the_pair_vjps_that_run(monkeypatch):
    # the forward reads the top-k values from a sort; the stable sort by
    # index (`alignment._slots`) runs in the backward, once per direction
    slots, calls = alignment._slots, []

    def counted(maxima, k_top):
        calls.append(k_top)
        return slots(maxima, k_top)

    monkeypatch.setattr(alignment, "_slots", counted)
    bank = generate_synthetic(SynthConfig(n_samples=8, seed=5))
    params = perturb_params(make_params(dim=32, n_patches=16, n_keep=8, k_top=8, seed=5), 6)
    batch = batch_similarity(bank.samples, params.selection, params.alignment, "train",
                             seed=5)
    loss = batch_loss(batch, TrainConfig())
    assert calls == []
    runs, _ = count_pair_vjps(loss)
    ad.gradient(loss, params.tensors())
    assert 0 < runs["pair_score"] < 64
    assert calls == [8] * (2 * runs["pair_score"])


def orthogonal_batch(b: int = 8, dim: int = 32, n_patches: int = 16) -> list[Sample]:
    """Sample i's patches are positive multiples of basis vector i and its
    words equal it: each diagonal score is 2, every other score 0."""
    eye = np.eye(dim)
    scales = np.linspace(0.5, 2.0, n_patches)[:, None]
    return [Sample(f"axis-{i}", scales * eye[i], eye[[i, i]], eye[[i]]) for i in range(b)]


@pytest.mark.parametrize("head_hidden", [0, 3])
def test_batch_with_every_hinge_inactive_runs_no_pair_vjp(head_hidden):
    params = make_params(dim=32, n_patches=16, n_keep=8, k_top=8, head_hidden=head_hidden,
                         seed=2)
    batch = batch_similarity(orthogonal_batch(), params.selection, params.alignment,
                             "train", seed=2)
    np.testing.assert_array_equal(batch.scores.data, 2.0 * np.eye(8))
    loss = batch_loss(batch, TrainConfig())
    runs, adjoints = count_pair_vjps(loss)
    grads = ad.gradient(loss, params.tensors())
    assert not adjoints[0].any()
    assert runs == {"similarity": 0, "pair_score": 0}
    for t in (*params.alignment.p2w.tensors(), *params.alignment.w2p.tensors()):
        assert grads[t].shape == t.shape
        assert not grads[t].data.any() and not np.signbit(grads[t].data).any()
    # the keep gates still learn through the ratio loss
    assert grads[params.selection.pred_w2].data.any()


# ---------------------------------------------------------------------------
# triplet loss


def test_triplet_margin_satisfied_example():
    s = ad.constant([[0.9, 0.1], [0.2, 0.8]])
    assert triplet_loss(s, 0.2).item() == 0.0


def test_triplet_worked_example():
    s = ad.constant([[0.5, 0.6], [0.4, 0.7]])
    assert triplet_loss(s, 0.2).item() == pytest.approx(0.5, abs=1e-12)


def test_triplet_zero_when_diagonal_dominates(rng):
    for _ in range(10):
        b = int(rng.integers(2, 6))
        s = rng.normal(size=(b, b))
        off_max = (s - np.diag([np.inf] * b)).max()
        np.fill_diagonal(s, off_max + 0.2 + rng.random(b))
        assert triplet_loss(ad.constant(s), 0.2).item() == 0.0


def test_triplet_rejects_singleton():
    with pytest.raises(ConfigError, match="no negatives available"):
        triplet_loss(ad.constant([[1.0]]), 0.2)


def test_triplet_equals_bruteforce_on_random_matrices(rng):
    for _ in range(100):
        b = int(rng.integers(2, 17))
        s = rng.normal(size=(b, b))
        margin = float(rng.uniform(0.05, 0.5))
        assert triplet_loss(ad.constant(s), margin).item() == brute_force_triplet(s, margin)


def test_triplet_gradient_touches_selected_entries_only():
    s = ad.tensor([[0.5, 0.6, 0.1], [0.4, 0.7, 0.2], [0.1, 0.3, 0.4]],
                  requires_grad=True)
    grads = ad.gradient(triplet_loss(s, 0.2), [s])[s].data
    data = s.data
    allowed = set()
    for i in range(3):
        masked = data.copy()
        np.fill_diagonal(masked, -np.inf)
        allowed.add((i, i))
        allowed.add((i, int(np.argmax(masked[i]))))
        allowed.add((int(np.argmax(masked[:, i])), i))
    outside = [(i, j) for i in range(3) for j in range(3) if (i, j) not in allowed]
    assert all(grads[i, j] == 0.0 for i, j in outside)
    assert np.any(grads != 0.0)


def test_triplet_stays_zero_in_clamped_regime(rng):
    base = np.array([[1.0, 0.2, 0.1], [0.0, 0.9, 0.3], [0.2, 0.1, 1.1]])
    margin = 0.2
    assert triplet_loss(ad.constant(base), margin).item() == 0.0
    for _ in range(20):
        jitter = rng.uniform(-0.05, 0.05, size=(3, 3))
        perturbed = base + jitter
        off = perturbed - np.diag([np.inf] * 3)
        if np.all(np.diag(perturbed) >= off.max(axis=1) + margin) and \
                np.all(np.diag(perturbed) >= off.max(axis=0) + margin):
            assert triplet_loss(ad.constant(perturbed), margin).item() == 0.0


def triplet_gradient_oracle(s: np.ndarray, margin: float) -> np.ndarray:
    """Subgradient of the summed hinges by a plain double loop: +1 at the
    first-occurrence hardest negative and -1 at the diagonal for every
    strictly positive hinge."""
    b = s.shape[0]
    grad = np.zeros((b, b))
    for i in range(b):
        caption = image = None
        for j in range(b):
            if j != i and (caption is None or s[i, j] > s[i, caption]):
                caption = j
            if j != i and (image is None or s[j, i] > s[image, i]):
                image = j
        for hard in ((i, caption), (image, i)):
            if (s[hard] + -s[i, i]) + margin > 0.0:
                grad[hard] += 1.0
                grad[i, i] -= 1.0
    return grad


def triplet_gradient(s: np.ndarray, margin: float) -> np.ndarray:
    scores = ad.tensor(s, requires_grad=True)
    return ad.gradient(triplet_loss(scores, margin), [scores])[scores].data


def test_triplet_gradient_equals_oracle_on_random_matrices(rng):
    for b in range(2, 17):
        for _ in range(5):
            s = rng.normal(size=(b, b))
            margin = float(rng.uniform(0.05, 0.5))
            assert np.array_equal(triplet_gradient(s, margin), triplet_gradient_oracle(s, margin))


def test_triplet_gradient_ties_route_to_first_occurrence(rng):
    # integer scores on a small range tie off the diagonal in almost every row
    for b in range(2, 17):
        for _ in range(5):
            s = rng.integers(0, 3, size=(b, b)).astype(np.float64)
            got = triplet_gradient(s, 0.5)
            assert np.array_equal(got, triplet_gradient_oracle(s, 0.5))
    # every off-diagonal entry ties: each row and column picks its first
    s = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    np.testing.assert_array_equal(triplet_gradient(s, 0.2),
                                  [[-2.0, 2.0, 1.0], [2.0, -2.0, 0.0], [1.0, 0.0, -2.0]])


def test_triplet_gradient_all_inactive_and_all_active(rng):
    for b in range(2, 17):
        s = rng.normal(size=(b, b))
        dominant = s.copy()
        np.fill_diagonal(dominant, np.abs(s).max() + 1.0)  # every hinge below 0
        assert not triplet_gradient(dominant, 0.2).any()
        buried = s.copy()
        np.fill_diagonal(buried, -np.abs(s).max() - 1.0)  # every hinge above 0
        got = triplet_gradient(buried, 0.2)
        np.testing.assert_array_equal(np.diag(got), np.full(b, -2.0))
        assert got.sum() == 0.0
        assert np.array_equal(got, triplet_gradient_oracle(buried, 0.2))
    # a hinge of exactly 0 is inactive
    assert not triplet_gradient(np.array([[1.0, 0.75], [0.75, 1.0]]), 0.25).any()


def test_triplet_loss_is_one_tape_node():
    scores = ad.tensor([[0.5, 0.6, 0.1], [0.4, 0.7, 0.2], [0.1, 0.3, 0.4]],
                       requires_grad=True)
    assert ad.Graph(triplet_loss(scores, 0.2)).nodes[:-1] == [scores]


# ---------------------------------------------------------------------------
# ratio loss


def stats_of(values_s, values_d):
    """One 2 x 1 gate per sample: its sparse and its dense keep fraction."""
    return [ad.constant([[s], [d]]) for s, d in zip(values_s, values_d)]


def test_ratio_loss_zero_at_target():
    cfg = TrainConfig(rho=0.5, lambda1=1.0, lambda2=1.0)
    assert ratio_loss(stats_of([0.25], [0.25]), cfg).item() == 0.0


def test_ratio_loss_worked_example():
    cfg = TrainConfig(rho=0.5, lambda1=1.0, lambda2=1.0)
    assert ratio_loss(stats_of([0.3], [0.1]), cfg).item() == pytest.approx(0.01, abs=1e-12)


def test_ratio_loss_zero_lambdas_is_constant():
    cfg = TrainConfig(rho=0.5, lambda1=0.0, lambda2=0.0)
    gate = ad.tensor([[0.3], [0.6]], requires_grad=True)
    loss = ratio_loss([gate], cfg)
    assert loss.item() == pytest.approx(0.25, abs=1e-15)
    np.testing.assert_array_equal(ad.gradient(loss, [gate])[gate].data, [[0.0], [0.0]])


def test_ratio_loss_averages_over_batch():
    cfg = TrainConfig(rho=0.5, lambda1=1.0, lambda2=1.0)
    loss = ratio_loss(stats_of([0.3, 0.25], [0.1, 0.25]), cfg)
    assert loss.item() == pytest.approx(0.005, abs=1e-12)


def test_ratio_gradient_step_shrinks_gap(rng):
    cfg = TrainConfig(rho=0.5, lambda1=1.0, lambda2=1.0)
    step = 1e-3
    for seed in range(10):
        local = np.random.default_rng(seed)
        logits = ad.tensor(local.normal(size=(2, 6)), requires_grad=True)

        def gap(x):
            ps, pd = 1.0 / (1.0 + np.exp(-x))
            return abs(cfg.rho - cfg.lambda1 * ps.mean() - cfg.lambda2 * pd.mean())

        before = gap(logits.data)
        if before < 1e-6:
            continue
        grads = ad.gradient(ratio_loss([ad.sigmoid(logits)], cfg), [logits])
        assert gap(logits.data - step * grads[logits].data) < before


def test_ratio_gradient_matches_closed_form(rng):
    for b in range(1, 9):
        cfg = TrainConfig(rho=float(rng.uniform(0.1, 1.0)),
                          lambda1=float(rng.uniform(0.0, 2.0)),
                          lambda2=float(rng.uniform(0.0, 2.0)))
        gates = [ad.tensor(rng.random((2, 1)), requires_grad=True) for _ in range(b)]
        grads = ad.gradient(ratio_loss(gates, cfg), gates)
        for gate in gates:
            (ps,), (pd,) = gate.data
            gap = cfg.rho - cfg.lambda1 * ps - cfg.lambda2 * pd
            (gs,), (gd,) = grads[gate].data
            assert gs == pytest.approx(-2.0 * cfg.lambda1 * gap / b, rel=1e-12, abs=1e-15)
            assert gd == pytest.approx(-2.0 * cfg.lambda2 * gap / b, rel=1e-12, abs=1e-15)


def test_ratio_loss_is_one_tape_node():
    gates = [ad.tensor([[0.3], [0.2]], requires_grad=True),
             ad.tensor([[0.6], [0.1]], requires_grad=True)]
    graph = ad.Graph(ratio_loss(gates, TrainConfig()))
    assert graph.nodes[:-1] == gates


# ---------------------------------------------------------------------------
# batch loss: the sum of both terms


def test_batch_loss_adds_three_nodes_to_the_tape():
    bank = small_bank(seed=2)
    params = make_params(dim=6, n_keep=2, seed=3)
    batch = batch_similarity(bank.samples, params.selection, params.alignment, "train")
    upstream = {id(n) for t in (batch.scores, *batch.gates) for n in ad.Graph(t).nodes}
    nodes = ad.Graph(batch_loss(batch, TrainConfig())).nodes
    assert [n.name for n in nodes if id(n) not in upstream] == [
        "triplet_loss", "ratio_loss", "add"]


def test_total_loss_reduces_to_triplet_when_ratio_zero():
    cfg = TrainConfig(margin=0.2, rho=0.5, lambda1=1.0, lambda2=1.0)
    s = ad.constant([[0.5, 0.6], [0.4, 0.7]])
    stats = stats_of([0.25, 0.25], [0.25, 0.25])
    assert batch_loss(BatchScores(s, stats), cfg).item() == triplet_loss(s, 0.2).item()


def test_total_loss_reduces_to_ratio_when_margin_satisfied():
    cfg = TrainConfig(margin=0.2, rho=0.5, lambda1=1.0, lambda2=1.0)
    s = ad.constant([[0.9, 0.1], [0.2, 0.8]])
    stats = stats_of([0.3], [0.1])
    assert batch_loss(BatchScores(s, stats), cfg).item() == ratio_loss(stats, cfg).item()


def test_total_loss_is_exact_component_sum(rng):
    cfg = TrainConfig(margin=0.3, rho=0.4, lambda1=0.8, lambda2=1.2)
    s = ad.constant(rng.normal(size=(3, 3)))
    stats = stats_of(rng.random(3).tolist(), rng.random(3).tolist())
    assert batch_loss(BatchScores(s, stats), cfg).item() == (
        triplet_loss(s, 0.3).item() + ratio_loss(stats, cfg).item())


def test_total_loss_gradients_match_central_differences():
    # whole-pipeline check on a 4-patch / 3-word pair, smooth relaxation
    rng = np.random.default_rng(52)
    samples = [Sample(f"fd{i}", rng.normal(size=(4, 5)),
                      rng.normal(size=(3, 5)), rng.normal(size=(3, 5)))
               for i in range(2)]
    params = make_params(dim=5, n_patches=4, n_keep=2, k_top=2, seed=9)
    cfg = TrainConfig(margin=0.2, rho=0.5, lambda1=1.0, lambda2=1.0)

    def loss_value() -> float:
        with ad.no_grad():
            batch = batch_similarity(samples, params.selection, params.alignment, "soft")
            return objective.batch_loss(batch, cfg).item()

    batch = batch_similarity(samples, params.selection, params.alignment, "soft")
    grads = ad.gradient(objective.batch_loss(batch, cfg), params.tensors())
    step = 1e-6
    worst = 0.0
    for tensor in params.tensors():
        analytic = grads[tensor].data.reshape(-1)
        flat = tensor.data.copy().reshape(-1)
        for ci in range(flat.size):
            orig = flat[ci]
            flat[ci] = orig + step
            tensor.data = flat.reshape(tensor.shape)
            hi = loss_value()
            flat[ci] = orig - step
            tensor.data = flat.reshape(tensor.shape)
            lo = loss_value()
            flat[ci] = orig
            tensor.data = flat.reshape(tensor.shape)
            numeric = (hi - lo) / (2.0 * step)
            worst = max(worst, abs(analytic[ci] - numeric) / max(1.0, abs(analytic[ci])))
    assert worst < 1e-4
