"""Tests of the benchmark harness itself: span arithmetic, the percentile
rule, wrapper install/restore, and that the output checks catch wrong
results."""

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import stats
import tracing
import worker
import workloads
from seps import alignment, bank, evaluator, objective, trainer

ROOT = Path(__file__).resolve().parents[2]


def span(name, start, end, parent=-1, call=0):
    return [name, start, end, parent, call]


def tiny_bank(n=8, seed=3):
    return bank.generate_synthetic(bank.SynthConfig(
        n_samples=n, dim=8, n_patches=6, n_relevant_patches=2,
        n_sparse_words=1, n_dense_words=2, concept_count=64, seed=seed))


def tiny_params(seed=0):
    return trainer.init_params(trainer.TrainConfig(dim=8, n_patches=6, n_keep=2,
                                                   k_top=2, seed=seed))


# ---------------------------------------------------------------------------
# span arithmetic


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        span("trainer.fit", 0.0, 10.0),
        span("objective.batch_similarity", 1.0, 3.0, parent=0),
        span("objective.batch_loss", 2.0, 4.0, parent=0),       # overlaps the one before
        span("trainer.save_checkpoint", 8.0, 12.0, parent=0),   # runs past the parent
        span("selection.select_and_aggregate", 1.5, 2.5, parent=1),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 1.0, 2.0, 4.0, 1.0])


def test_layer_time_counts_nested_spans_of_one_layer_once():
    spans = [
        span("trainer.fit", 0.0, 10.0),
        span("selection.select_and_aggregate", 1.0, 3.0, parent=0),
        span("selection.branch_scores", 1.5, 2.0, parent=1),
        span("selection.branch_scores", 4.0, 4.5, parent=0),
        span("trainer.optimizer_step", 5.0, 6.0, parent=0),
    ]
    assert tracing.outermost(spans) == [True, True, False, True, False]
    layers = tracing.layer_metrics(spans, {}, calls=2)
    assert layers["selection.s"] == pytest.approx(2.5 / 2)
    assert layers["selection.calls"] == 0.5
    assert layers["trainer.optimizer_s"] == pytest.approx(0.5)
    assert layers["trainer.fit_self_s"] == pytest.approx((10.0 - 2.0 - 0.5 - 1.0) / 2)
    emitted = set(layers) | set(worker.QUALITY) | {"trace.overhead_frac"}
    assert emitted == set(tracing.PER_LAYER_UNITS)


def test_setup_spans_feed_only_the_setup_figures():
    spans = [span("bank.read_bank", 0.0, 0.25, call=tracing.SETUP),
             span("evaluator.selection_quality", 1.0, 2.0, call=0)]
    layers = tracing.layer_metrics(spans, {"bank.bytes": [100.0]}, calls=1)
    assert layers["bank.read_s"] == 0.25
    assert layers["bank.bytes"] == 100.0
    assert layers["evaluator.auc_self_s"] == 1.0


# ---------------------------------------------------------------------------
# order statistics


@pytest.mark.parametrize("n, expected", [
    (9, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
    (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_is_the_highest_with_ten_samples_beyond(n, expected):
    values = [float(v) for v in range(n)]
    tail = stats.tail_percentile(values)
    if expected is None:
        assert tail is None
        return
    p, value = tail
    assert p == expected
    assert sum(v > value for v in values) >= 10
    higher = [q for q in stats.TAIL_PERCENTILES if q > p]
    assert all(stats.samples_beyond(n, q) < 10 for q in higher)


# ---------------------------------------------------------------------------
# wrappers


def lookup(target):
    return getattr(importlib.import_module(target.module), target.attr)


def test_install_patches_every_lookup_site_and_restore_puts_originals_back():
    originals = {t: lookup(t) for t in tracing.TARGETS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for target, original in originals.items():
            wrapped = lookup(target)
            assert wrapped is not original
            assert wrapped.__wrapped__ is original
        # objective imported these by name: the module attribute in
        # seps.alignment is left alone, the name objective calls is wrapped
        assert objective.similarity_matrix is not alignment.similarity_matrix
        assert objective.score_from_similarity is not alignment.score_from_similarity
    finally:
        tracer.restore()
    for target, original in originals.items():
        assert lookup(target) is original


def test_a_missing_target_fails_install_and_patches_nothing():
    originals = {t: lookup(t) for t in tracing.TARGETS}
    gone = tracing.Target("seps.evaluator", "no_such_function", "evaluator.gone")
    tracer = tracing.Tracer()
    with pytest.raises(tracing.MissingTarget, match="seps.evaluator.no_such_function"):
        tracer.install((*tracing.TARGETS, gone))
    for target, original in originals.items():
        assert lookup(target) is original


def test_a_traced_call_that_raises_still_closes_its_span():
    tracer = tracing.Tracer()
    original = evaluator.selection_quality
    tracer.install()
    try:
        with pytest.raises(AttributeError):
            evaluator.selection_quality(tiny_bank(), None)
    finally:
        tracer.restore()
    assert evaluator.selection_quality is original
    assert all(s[tracing.END] >= s[tracing.START] for s in tracer.spans)


def test_traced_fit_counts_every_training_pair_and_the_tape():
    data = tiny_bank(n=8)
    cfg = trainer.TrainConfig(dim=8, n_patches=6, n_keep=2, k_top=2, batch_size=4,
                              epochs=1, seed=0)
    _, untraced = trainer.fit(data, cfg)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.call_id = 0
        _, traced = trainer.fit(data, cfg)
    finally:
        tracer.restore()
    assert traced[-1].loss == untraced[-1].loss
    layers = tracing.layer_metrics(tracer.spans, tracer.counters, calls=1)
    assert layers["trainer.steps"] == 2
    assert layers["alignment.pairs"] == 2 * 4 * 4
    assert layers["selection.calls"] == 8
    assert layers["autodiff.nodes_per_step"] > 0
    assert 0.0 <= layers["objective.active_hinge_frac"] <= 1.0
    # the node count runs in a hook span, outside the backward span
    hooks = [i for i, s in enumerate(tracer.spans) if s[tracing.NAME] == tracing.HOOK]
    grads = [s for s in tracer.spans if s[tracing.NAME] == "autodiff.gradient"]
    assert all(s[tracing.PARENT] not in hooks for s in grads)


# ---------------------------------------------------------------------------
# output checks


def test_score_check_passes_the_evaluator_and_fails_a_corrupted_cell():
    data, params, seed = tiny_bank(), tiny_params(), 5
    scores = evaluator.pairwise_scores(data, params)
    assert workloads.check_scores(scores, data, params, seed) == []
    i, j = workloads.oracle_cells(len(data), seed)[-1]
    corrupted = scores.copy()
    corrupted[i, j] += 1e-9
    errors = workloads.check_scores(corrupted, data, params, seed)
    assert len(errors) == 1 and f"S[{i},{j}]" in errors[0]


def test_report_check_recounts_recalls_and_rsum():
    data, params = tiny_bank(), tiny_params()
    scores = evaluator.pairwise_scores(data, params)
    report = evaluator.retrieval_eval(data, params)
    assert workloads.check_report(report, scores) == []
    assert workloads.check_report(dataclasses.replace(report, rsum=report.rsum + 0.1), scores)
    assert workloads.check_report(
        dataclasses.replace(report, t2i_r10=report.t2i_r10 - 12.5), scores)


def test_recall_counting_breaks_ties_toward_the_lower_index():
    scores = np.array([[0.5, 0.5, 0.1],
                       [0.5, 0.5, 0.1],
                       [0.1, 0.1, 0.1]])
    i2t_r1 = workloads.recalls_from_scores(scores)[0]
    gt = evaluator.GroundTruth.identity(3)
    assert i2t_r1 == evaluator.recall_at_k(scores, gt, 1)


def test_brute_force_auc_matches_selection_quality_and_catches_a_wrong_value():
    data, params = tiny_bank(n=12), tiny_params()
    auc = evaluator.selection_quality(data, params)
    assert abs(workloads.brute_force_auc(data, params) - auc) <= workloads.AUC_TOL
    state = {"bank": data, "params": params}
    assert workloads.SelectBank().check(state, [auc, auc], seed=0) == []
    assert workloads.SelectBank().check(state, [auc + 1e-9], seed=0)
    assert workloads.SelectBank().check(state, [auc, auc + 1e-9], seed=0)


def test_train_check_flags_repeats_that_disagree(tmp_path):
    data = tiny_bank(n=8)
    cfg = trainer.TrainConfig(dim=8, n_patches=6, n_keep=2, k_top=2, batch_size=4,
                              epochs=2, seed=0)
    state = {"bank": data, "cfg": cfg, "work": tmp_path}
    desk = workloads.TrainDesk()
    results = [desk.call(state, 0), desk.call(state, 1)]
    assert desk.check(state, results, seed=0) == []
    params, history, path = results[1]
    drifted = history[:-1] + [dataclasses.replace(history[-1], loss=history[-1].loss + 1e-12)]
    assert desk.check(state, [results[0], (params, drifted, path)], seed=0)
    path.write_bytes(path.read_bytes()[:-4])
    assert desk.check(state, results, seed=0)


# ---------------------------------------------------------------------------
# the command


def test_benchmark_json_names_what_the_benchmark_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_without_the_library_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", "tests"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_desk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_eval_check_compares_repeats_and_falls_back_to_pairwise_scores():
    data, params = tiny_bank(), tiny_params()
    state = {"bank": data, "params": params}
    gallery = workloads.EvalGallery()
    first = gallery.call(state, 0)
    assert first[1] is not None
    assert gallery.check(state, [first, gallery.call(state, 1)], seed=0) == []
    assert gallery.check(state, [(first[0], None)], seed=0) == []
    drifted = dataclasses.replace(first[0], i2t_r1=first[0].i2t_r1 + 12.5)
    errors = gallery.check(state, [first, (drifted, first[1])], seed=0)
    assert "repeated evaluations disagree" in errors
