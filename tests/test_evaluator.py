"""Retrieval metrics, chance-level sanity, selection quality."""

import math
import os
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import basis_sample, make_params, mixed_bank, zero_params

from seps import autodiff as ad
from seps import bank as bank_module
from seps import evaluator, selection
from seps.bank import FeatureBank, Sample, SynthConfig, generate_synthetic, read_bank, write_bank
from seps.errors import (BankInvariantError, ConfigError, NonFiniteError,
                         NoPatchesSelectedError)
from seps.evaluator import (GroundTruth, recall_at_k, retrieval_eval, rsum,
                            selection_quality)
from seps.trainer import TrainConfig, init_params


def diag_gt(n: int) -> GroundTruth:
    return GroundTruth.identity(n)


# ---------------------------------------------------------------------------
# recall and rsum


def test_recall_perfect_ranking():
    assert recall_at_k(np.eye(3), diag_gt(3), 1) == 100.0


def test_recall_worst_ranking():
    scores = np.array([[0.1, 0.9], [0.8, 0.2]])
    assert recall_at_k(scores, diag_gt(2), 1) == 0.0


def test_recall_full_list_is_total():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=(5, 5))
    assert recall_at_k(scores, diag_gt(5), 5) == 100.0


def test_recall_rejects_k_beyond_gallery():
    with pytest.raises(ConfigError):
        recall_at_k(np.eye(3), diag_gt(3), 4)


def test_recall_monotone_in_k(rng):
    scores = rng.normal(size=(6, 6))
    values = [recall_at_k(scores, diag_gt(6), k) for k in range(1, 7)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_recall_tie_breaks_toward_lower_index():
    scores = np.array([[0.5, 0.5]])
    # both entries tie; index 0 wins the single slot
    assert recall_at_k(scores, GroundTruth((frozenset((0,)),)), 1) == 100.0
    assert recall_at_k(scores, GroundTruth((frozenset((1,)),)), 1) == 0.0


def test_recall_gallery_relabel_invariance(rng):
    scores = rng.normal(size=(5, 7))
    perm = rng.permutation(7)
    gt = GroundTruth(tuple(frozenset((int(rng.integers(0, 7)),)) for _ in range(5)))
    relabeled_gt = GroundTruth(tuple(
        frozenset(int(np.flatnonzero(perm == g)[0]) for g in q) for q in gt.positives))
    for k in (1, 3, 7):
        assert recall_at_k(scores, gt, k) == recall_at_k(scores[:, perm], relabeled_gt, k)


def test_recall_supports_multiple_positives():
    scores = np.array([[0.9, 0.8, 0.1]])
    gt = GroundTruth((frozenset((1, 2)),))
    assert recall_at_k(scores, gt, 1) == 0.0
    assert recall_at_k(scores, gt, 2) == 100.0


def lexsort_recall(scores: np.ndarray, gt: GroundTruth, k: int) -> float:
    """The per-query loop recall_at_k replaced: sort each row by descending
    score, ties toward the lower index, and look for a positive in the top k."""
    indices = np.arange(scores.shape[1])
    hits = 0
    for q in range(scores.shape[0]):
        order = np.lexsort((indices, -scores[q]))
        if not gt.positives[q].isdisjoint(order[:k].tolist()):
            hits += 1
    return 100.0 * hits / scores.shape[0]


def test_recall_matches_the_lexsort_loop_on_tie_heavy_matrices(rng):
    for _ in range(200):
        q, g = rng.integers(1, 9), rng.integers(1, 9)
        # few distinct values, signed zeros among them, so ties are common
        scores = rng.choice([-0.0, 0.0, 0.5, -0.5, 1.0], size=(q, g))
        gt = GroundTruth(tuple(
            frozenset(rng.choice(g, size=rng.integers(1, g + 1), replace=False).tolist())
            for _ in range(q)))
        for k in range(1, g + 1):
            got = recall_at_k(scores, gt, k)
            assert type(got) is float and got == lexsort_recall(scores, gt, k)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_recall_rejects_non_finite_scores(bad):
    with pytest.raises(ConfigError, match="finite"):
        recall_at_k(np.array([[0.5, bad]]), diag_gt(1), 1)


@pytest.mark.parametrize("index", [-1, 2])
def test_recall_rejects_positives_outside_the_gallery(index):
    with pytest.raises(ConfigError, match="outside the gallery"):
        recall_at_k(np.array([[0.5, 0.1]]), GroundTruth((frozenset((index,)),)), 1)


def test_groundtruth_rejects_empty_query():
    with pytest.raises(ConfigError):
        GroundTruth((frozenset(),))


def test_rsum_paper_row():
    assert rsum([86.1, 93.7, 96.9, 86.9, 98.1, 99.2]) == pytest.approx(560.9, abs=1e-9)


def test_rsum_extremes():
    assert rsum([0.0] * 6) == 0.0
    assert rsum([100.0] * 6) == 600.0


def test_rsum_rejects_wrong_arity():
    with pytest.raises(ConfigError):
        rsum([1.0, 2.0])


# ---------------------------------------------------------------------------
# retrieval over banks


def separable_bank(n: int = 3, dim: int = 12) -> FeatureBank:
    samples = [basis_sample(dim=dim, relevant=(2 * i, 2 * i + 1),
                            distractor=(dim - 2, dim - 1), sample_id=f"b{i}")
               for i in range(n)]
    return FeatureBank(dim=dim, samples=samples)


def test_retrieval_perfect_on_separable_bank():
    bank = separable_bank()
    params = zero_params(make_params(dim=12, n_keep=2, k_top=2))
    params.selection.beta = 0.25
    report = retrieval_eval(bank, params)
    assert report.i2t_r1 == 100.0
    assert report.t2i_r1 == 100.0
    assert report.rsum == 600.0


def test_report_rsum_is_exact_field_sum():
    bank = separable_bank()
    params = zero_params(make_params(dim=12, n_keep=2, k_top=2))
    params.selection.beta = 0.25
    r = retrieval_eval(bank, params)
    assert r.rsum == rsum([r.i2t_r1, r.i2t_r5, r.i2t_r10, r.t2i_r1, r.t2i_r5, r.t2i_r10])


def test_retrieval_chance_level_for_uninformative_bank():
    # noise drowns every concept, so captions carry no information about
    # their images and R@1 hits follow a Binomial(queries, 1/gallery)
    n, seeds = 64, 20
    hits = 0
    for seed in range(seeds):
        bank = generate_synthetic(SynthConfig(
            n_samples=n, dim=8, n_patches=6, n_relevant_patches=2,
            n_sparse_words=2, n_dense_words=3, concept_count=12,
            noise_sigma=200.0, seed=900 + seed))
        params = make_params(dim=8, n_patches=6, n_keep=3, k_top=2, seed=seed)
        report = retrieval_eval(bank, params)
        hits += round(report.i2t_r1 / 100.0 * n)

    # exact 99% binomial band for Binomial(seeds*n, 1/n)
    trials, p = seeds * n, 1.0 / n
    def cdf(k):
        return sum(math.comb(trials, i) * p**i * (1 - p)**(trials - i)
                   for i in range(k + 1))
    lo = next(k for k in range(trials + 1) if cdf(k) >= 0.005)
    hi = next(k for k in range(trials + 1) if cdf(k) >= 0.995)
    assert lo <= hits <= hi


def test_retrieval_requires_matching_dim():
    bank = separable_bank(dim=12)
    params = make_params(dim=8)
    with pytest.raises(ConfigError, match="dimension mismatch"):
        retrieval_eval(bank, params)


def test_retrieval_fold_splitting():
    cfg = SynthConfig(n_samples=12, dim=8, n_patches=6, n_relevant_patches=2,
                      n_sparse_words=2, n_dense_words=3, concept_count=12, seed=4)
    bank = generate_synthetic(cfg)
    params = make_params(dim=8, n_patches=6, n_keep=3, k_top=2, seed=1)
    whole = retrieval_eval(bank, params)
    folded = retrieval_eval(bank, params, folds=3)
    assert folded.rsum == rsum([folded.i2t_r1, folded.i2t_r5, folded.i2t_r10,
                                folded.t2i_r1, folded.t2i_r5, folded.t2i_r10])
    # folds make retrieval easier (smaller galleries), never harder
    assert folded.rsum >= whole.rsum - 1e-9
    with pytest.raises(ConfigError):
        retrieval_eval(bank, params, folds=5)


def test_retrieval_checks_folds_before_scoring(monkeypatch):
    bank = separable_bank()
    params = make_params(dim=12, n_keep=2, k_top=2)

    def no_scoring(*args):
        raise AssertionError("pairs scored before the fold check")

    monkeypatch.setattr(evaluator, "pairwise_scores", no_scoring)
    for folds in (0, len(bank.samples) + 1, 5, len(bank.samples)):
        with pytest.raises(ConfigError, match="fold count"):
            retrieval_eval(bank, params, folds=folds)


# ---------------------------------------------------------------------------
# selection quality


def midrank_auc_loop(scores, labels):
    """The original midrank loop, kept as the oracle for `_row_aucs`."""
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def test_auc_matches_midrank_loop_bitwise_on_ties():
    rng = np.random.default_rng(17)
    by_length = {}
    for _ in range(2000):
        n = int(rng.integers(2, 40))
        levels = int(rng.integers(1, n + 1))  # few levels -> many ties
        scores = rng.integers(0, levels, size=n) / max(levels - 1, 1)
        if rng.random() < 0.3:
            scores = np.where(rng.random(n) < 0.5, scores, rng.random(n))
        labels = rng.integers(0, 2, size=n).astype(np.int8)
        labels[rng.choice(n, size=2, replace=False)] = (0, 1)
        by_length.setdefault(n, []).append((scores, labels))
    for cases in by_length.values():
        scores, labels = (np.stack(column) for column in zip(*cases))
        expected = np.array([midrank_auc_loop(*case) for case in cases])
        assert evaluator._row_aucs(scores, labels).tobytes() == expected.tobytes()
        assert all(evaluator._row_aucs(*case) == loop for case, loop in zip(cases, expected))


def test_selection_quality_perfect_on_separable_bank():
    bank = separable_bank()
    params = zero_params(make_params(dim=12, n_keep=2, k_top=2))
    params.selection.beta = 0.25
    assert selection_quality(bank, params) == 1.0


def test_selection_quality_inverted_mask_is_zero():
    bank = separable_bank()
    bank.samples = [replace(s, relevance_mask=(1 - s.relevance_mask).astype(np.int8))
                    for s in bank.samples]
    params = zero_params(make_params(dim=12, n_keep=2, k_top=2))
    params.selection.beta = 0.25
    assert selection_quality(bank, params) == 0.0


def test_selection_quality_chance_for_unrelated_mask(rng):
    # 1000 distractor-only patches with a random mask: scores carry no
    # label information, so AUC sits near one half
    patches = rng.normal(size=(1000, 8))
    mask = (rng.random(1000) < 0.5).astype(np.int8)
    mask[0], mask[1] = 0, 1  # force both classes
    sample = Sample("null", patches, rng.normal(size=(2, 8)),
                    rng.normal(size=(3, 8)), mask)
    bank = FeatureBank(dim=8, samples=[sample])
    params = make_params(dim=8, n_keep=3, k_top=2, seed=2)
    auc = selection_quality(bank, params)
    assert abs(auc - 0.5) <= 0.05


def test_selection_quality_requires_masks():
    bank = separable_bank()
    bank.samples = [replace(s, relevance_mask=None) for s in bank.samples]
    params = zero_params(make_params(dim=12, n_keep=2, k_top=2))
    with pytest.raises(BankInvariantError, match="no masks"):
        selection_quality(bank, params)


def taped_selection_quality(bank, params):
    """The per-sample loop through the full taped selection pass that
    `selection_quality` ran before its tape-free forward, kept as the oracle."""
    evaluator.check_dims(bank, params)
    aucs = []
    for sample in bank.samples:
        mask = sample.relevance_mask
        if mask is None:
            continue
        labels = np.asarray(mask)
        if labels.min() == labels.max():
            continue
        with ad.no_grad():
            _, _, (mask_s, _) = selection.select_and_aggregate(
                sample, params.selection, "eval")
        aucs.append(float(evaluator._row_aucs(mask_s.score, labels)))
    if not aucs:
        raise BankInvariantError("no masks")
    return float(np.mean(aucs))


def mann_whitney_auc(scores, labels):
    """Share of (relevant, irrelevant) pairs ranked correctly, ties half."""
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (pos.size * neg.size))


def six_sample_bank():
    data = generate_synthetic(SynthConfig(seed=4, n_samples=6, dim=8, n_patches=6,
                                          n_relevant_patches=2, n_sparse_words=1,
                                          n_dense_words=2, concept_count=64))
    return data, init_params(TrainConfig(dim=8, n_patches=6, n_keep=2, k_top=2, beta=0.0))


@pytest.mark.parametrize("shape", [
    dict(n_samples=32, dim=32, n_patches=16, n_relevant_patches=4, noise_sigma=0.1),
    dict(n_samples=12, dim=64, n_patches=196, n_relevant_patches=24, n_sparse_words=2,
         n_dense_words=8, concept_count=4096, noise_sigma=0.1),
], ids=["desk", "vit"])
def test_selection_quality_bitwise_equal_to_the_taped_loop(shape):
    bank = generate_synthetic(SynthConfig(seed=21, **shape))
    params = make_params(dim=shape["dim"], n_patches=shape["n_patches"], n_keep=8, seed=21)
    assert selection_quality(bank, params) == taped_selection_quality(bank, params)


# STACK_BYTES -> the sample count of each stack in each rank call: at
# 3 * 9 * 16 * 8 a stack holds 3 nine-patch or 2 twelve-patch samples and a
# block a whole run; at 2 * 12 * 8 a stack holds one sample and a block two
MIXED_BLOCKS = {None: [[5], [4], [6]],
                3 * 9 * 16 * 8: [[3, 2], [2, 2], [3, 3]],
                2 * 12 * 8: [[1, 1], [1, 1], [1], [1, 1], [1, 1], [1, 1], [1, 1], [1, 1]],
                1: [[1]] * 15}


@pytest.mark.parametrize("stack_bytes", list(MIXED_BLOCKS))
def test_selection_quality_bitwise_on_a_mixed_bank(stack_bytes, monkeypatch):
    bank = mixed_bank()
    params = make_params(dim=16, n_patches=9, n_keep=3, seed=31)
    if stack_bytes is not None:
        monkeypatch.setattr(evaluator, "STACK_BYTES", stack_bytes)
    expected = taped_selection_quality(bank, params)  # it ranks too: run it before recording
    stacks, ranked = [], []
    score, rank = selection.sparse_eval_scores, evaluator._row_aucs
    index = {id(sample): at for at, sample in enumerate(bank.samples)}

    def scored(samples, params):
        # worker threads finish stacks in any order: key each by its first sample
        rows = score(samples, params)
        stacks.append((index[id(samples[0])], samples, rows))
        return rows

    def ranks(scores, labels):
        ranked.append((scores, labels))
        return rank(scores, labels)

    monkeypatch.setattr(selection, "sparse_eval_scores", scored)
    monkeypatch.setattr(evaluator, "_row_aucs", ranks)
    assert selection_quality(bank, params) == expected
    stacks = [(samples, rows) for _, samples, rows in sorted(stacks, key=lambda s: s[0])]
    skipped = {bank.samples[i].sample_id for i in (2, 4, 8, 13)}
    assert [s.sample_id for stack, _ in stacks for s in stack] == [
        s.sample_id for s in bank.samples if s.sample_id not in skipped]
    for stack, _ in stacks:
        assert len({s.patches.shape for s in stack}) == 1
        assert len(stack) == 1 or sum(s.patches.nbytes for s in stack) <= evaluator.STACK_BYTES
    # each rank call takes the next whole stacks, all of one run, in bank order
    blocks, queue = [], list(stacks)
    for scores, labels in ranked:
        block = [queue.pop(0)]
        while sum(len(stack) for stack, _ in block) < len(scores):
            block.append(queue.pop(0))
        samples = [s for stack, _ in block for s in stack]
        assert len({s.patches.shape for s in samples}) == 1
        assert scores.tobytes() == np.concatenate([rows for _, rows in block]).tobytes()
        assert labels.tobytes() == np.stack([s.relevance_mask for s in samples]).tobytes()
        assert len(block) == 1 or scores.nbytes <= evaluator.STACK_BYTES
        blocks.append([len(stack) for stack, _ in block])
    assert not queue
    assert blocks == MIXED_BLOCKS[stack_bytes]
    assert len(stacks) == {None: 3, 3 * 9 * 16 * 8: 6, 2 * 12 * 8: 15, 1: 15}[stack_bytes]


def test_selection_quality_counts_samples_whose_branches_keep_nothing():
    # predictions near 0 and beta = 0: neither branch keeps a patch
    bank, params = six_sample_bank()
    params.selection.pred_b2.data = np.asarray(-20.0)
    with pytest.raises(NoPatchesSelectedError):
        taped_selection_quality(bank, params)
    expected = []
    for sample in bank.samples:
        labels = np.asarray(sample.relevance_mask)
        with ad.no_grad():
            _, decisions = selection.score_and_decide(sample, params.selection)
        assert not decisions.kept.any()
        if labels.min() != labels.max():
            expected.append(mann_whitney_auc(decisions.score[0], labels))
    auc = selection_quality(bank, params)
    assert abs(auc - float(np.mean(expected))) <= 1e-12
    assert round(auc, 4) == 0.3958


def test_selection_quality_raises_on_overflow_like_the_taped_loop():
    # the first layer's pre-activation overflows; every input is finite
    bank, params = six_sample_bank()
    for name in ("pred_w1", "pred_b1"):
        tensor = getattr(params.selection, name)
        tensor.data = np.full_like(tensor.data, 1e308)
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError):
            taped_selection_quality(bank, params)
        with pytest.raises(NonFiniteError):
            selection_quality(bank, params)


def use_cpus(monkeypatch, count: int) -> None:
    """Give the CPU set that `selection_quality`'s pool reads `count` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.mark.parametrize("workers", [1, 3])
def test_selection_quality_raises_when_only_a_later_stack_overflows(workers, monkeypatch):
    # finite pre-activations on every sample but the last, whose patches are
    # 1e10 times larger; the caller's errstate reaches every worker
    bank, params = six_sample_bank()
    params.selection.pred_w1.data = np.full_like(params.selection.pred_w1.data, 1e300)
    last = bank.samples[-1]
    overflowing = FeatureBank(bank.dim, [*bank.samples[:-1],
                                         replace(last, patches=last.patches * 1e10)])
    monkeypatch.setattr(evaluator, "STACK_BYTES", 1)  # a stack per sample
    use_cpus(monkeypatch, workers)
    threads = threading.active_count()
    with np.errstate(over="ignore"):
        auc = selection_quality(bank, params)
        assert auc == taped_selection_quality(bank, params)
        assert threading.active_count() == threads
        with pytest.raises(NonFiniteError):
            taped_selection_quality(overflowing, params)
        with pytest.raises(NonFiniteError):
            selection_quality(overflowing, params)
    assert threading.active_count() == threads


@pytest.mark.parametrize("workers", [1, 3])
def test_selection_quality_raises_the_first_failing_stack_in_bank_order(workers, monkeypatch):
    bank, params = six_sample_bank()
    monkeypatch.setattr(evaluator, "STACK_BYTES", 1)  # a stack per sample
    use_cpus(monkeypatch, workers)
    score, index = selection.sparse_eval_scores, {id(s): at for at, s in enumerate(bank.samples)}

    def failing(samples, params):
        at = index[id(samples[0])]
        if at in (2, 4):
            raise NonFiniteError(f"stack {at}")
        return score(samples, params)

    monkeypatch.setattr(selection, "sparse_eval_scores", failing)
    threads = threading.active_count()
    with pytest.raises(NonFiniteError, match="stack 2"):
        selection_quality(bank, params)
    assert threading.active_count() == threads


def test_selection_quality_never_scores_the_stacks_not_started_after_a_failure(monkeypatch):
    bank, params = separable_bank(n=32, dim=66), make_params(dim=66)
    monkeypatch.setattr(evaluator, "STACK_BYTES", 1)  # a stack per sample
    use_cpus(monkeypatch, 1)
    ran = []

    def failing(samples, params):
        ran.append(samples[0])
        if samples[0] is bank.samples[0]:
            raise NonFiniteError("first stack")
        time.sleep(0.02)  # so the later stacks are still queued when the failure is seen
        return np.zeros((len(samples), samples[0].n_patches))

    monkeypatch.setattr(selection, "sparse_eval_scores", failing)
    with pytest.raises(NonFiniteError, match="first stack"):
        selection_quality(bank, params)
    assert len(ran) <= len(bank.samples) // 4


def test_selection_quality_rejects_a_wrong_dim_bank_like_the_taped_loop():
    bank, params = separable_bank(dim=12), make_params(dim=8)
    for score in (taped_selection_quality, selection_quality):
        with pytest.raises(ConfigError, match="dimension mismatch"):
            score(bank, params)


def test_auc_needs_both_classes():
    scores = np.array([[0.2, 0.7], [0.1, 0.3], [0.5, 0.4]])
    for labels in ([[0, 1], [1, 1], [1, 0]], [[0, 1], [1, 0], [0, 0]], [[1, 1]]):
        with pytest.raises(BankInvariantError, match="AUC needs both classes"):
            evaluator._row_aucs(scores[:len(labels)], np.array(labels))


def test_reading_and_generating_derive_no_views(tmp_path):
    # a sample's views are derived on first read only, so set-up stays lazy
    generated, _ = six_sample_bank()
    write_bank(generated, tmp_path / "six.sepb")
    read = read_bank(tmp_path / "six.sepb")
    assert not any("views" in s.__dict__ for s in (*generated.samples, *read.samples))


def derived_views(bank: FeatureBank) -> list:
    """Each sample's kept views as bytes, None where it has none."""
    return [[v.tobytes() for v in s.__dict__["views"]] if "views" in s.__dict__ else None
            for s in bank.samples]


def per_sample_views(bank: FeatureBank) -> list:
    # a replaced sample holds the same arrays and no views, so it derives its own
    return [[v.tobytes() for v in replace(s).views] for s in bank.samples]


@pytest.mark.parametrize("read, workers", [(False, 1), (True, 1), (False, 8), (True, 8)],
                         ids=["generated", "read", "generated-8-workers", "read-8-workers"])
def test_selection_quality_keeps_each_scored_sample_views(read, workers, tmp_path, monkeypatch):
    bank = mixed_bank()
    if read:
        write_bank(bank, tmp_path / "mixed.sepb")
        bank = read_bank(tmp_path / "mixed.sepb")
    use_cpus(monkeypatch, workers)  # 8: more workers than stacks, switching often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        selection_quality(bank, make_params(dim=16, n_patches=9, n_keep=3, seed=31))
    finally:
        sys.setswitchinterval(interval)
    kept, oracle = derived_views(bank), per_sample_views(bank)
    for at, views in enumerate(kept):
        assert views == (None if at in (2, 4, 8, 13) else oracle[at]), at


@pytest.mark.parametrize("read", [False, True], ids=["generated", "read"])
def test_first_selection_quality_derives_views_per_stack_and_the_next_none(
        read, tmp_path, monkeypatch):
    bank = mixed_bank()
    if read:
        write_bank(bank, tmp_path / "mixed.sepb")
        bank = read_bank(tmp_path / "mixed.sepb")
    params = make_params(dim=16, n_patches=9, n_keep=3, seed=31)
    calls = []
    attention = bank_module.attention_scores
    index = {id(sample.patches): at for at, sample in enumerate(bank.samples)}

    def counted(patches, embedding):
        calls.append(index[id(patches)])  # list.append is atomic across worker threads
        return attention(patches, embedding)

    monkeypatch.setattr(bank_module, "attention_scores", counted)
    first = selection_quality(bank, params)
    # each scored sample derives its own three views; the skipped ones none
    assert sorted(calls) == [at for at in range(len(bank.samples)) if at not in (2, 4, 8, 13)
                             for _ in range(3)]
    assert len(calls) == 45
    calls.clear()
    assert selection_quality(bank, params) == first
    assert calls == []


@st.composite
def drawn_banks(draw) -> FeatureBank:
    """Runs of one shape each, dim 4, with masks absent, single-class or two-class."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    shapes = st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 3),
                       st.integers(1, 3))
    samples = []
    for run, (count, n, m, m_d) in enumerate(draw(st.lists(shapes, min_size=1, max_size=4))):
        for i in range(count):
            kind = draw(st.sampled_from(("two", "none", "one")))
            mask = None if kind == "none" else np.full(n, i % 2, dtype=np.int8)
            if kind == "two" and n > 1:
                mask = (rng.permutation(n) < rng.integers(1, n)).astype(np.int8)
            features = (rng.normal(size=(rows, 4)).astype(np.float32).astype(np.float64)
                        for rows in (n, m, m_d))
            samples.append(Sample(f"{run}-{i}", *features, mask))
    return FeatureBank(dim=4, samples=samples)


def outcome(score, bank, params) -> tuple:
    try:
        return "scored", score(bank, params).hex()
    except (BankInvariantError, NonFiniteError) as exc:
        return "raised", type(exc), str(exc)


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_auc_and_views_bitwise_whichever_samples_already_have_views(data, tmp_path, monkeypatch):
    use_cpus(monkeypatch, data.draw(st.integers(1, 3), label="workers"))
    path = tmp_path / "drawn.sepb"
    write_bank(data.draw(drawn_banks(), label="bank"), path)
    params = make_params(dim=4, n_keep=2, seed=data.draw(st.integers(0, 99), label="model"))
    params.selection.zero_dense_attention = data.draw(st.booleans(), label="zero_dense")
    oracle = outcome(taped_selection_quality, read_bank(path), params)
    fresh, mixed = read_bank(path), read_bank(path)
    for sample in mixed.samples:
        if data.draw(st.booleans(), label=f"views of {sample.sample_id}"):
            assert len(sample.views) == 3
    assert outcome(selection_quality, fresh, params) == oracle
    assert outcome(selection_quality, mixed, params) == oracle
    assert outcome(selection_quality, fresh, params) == oracle  # every view reused
    oracle_views = per_sample_views(fresh)
    for bank in (fresh, mixed):
        assert all(views in (None, expected)
                   for views, expected in zip(derived_views(bank), oracle_views))


def test_selection_quality_builds_no_tape_and_runs_no_decision(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("selection_quality left its tape-free path")

    params = zero_params(make_params(dim=12, n_keep=2, k_top=2))
    params.selection.beta = 0.25
    for name in ("select_and_aggregate", "aggregate", "decide"):
        monkeypatch.setattr(selection, name, forbidden)
    monkeypatch.setattr(ad.Tensor, "__init__", forbidden)
    assert selection_quality(separable_bank(), params) == 1.0
