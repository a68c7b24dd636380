"""Span tracing around the public functions of each seps layer.

The traced run replaces each function named in TARGETS with a wrapper that
records a span (name, start, end, parent, call id) and restores the
originals afterwards.  Each name is patched in the module where callers
look it up: `objective` imports `similarity_matrix` and
`score_from_similarity` by name, so those two are patched in
`seps.objective`, while the evaluator reaches `alignment.align_score`
through the module.  Counts (tape nodes, keep fractions, active hinges,
bytes read) are taken by hooks that run inside their own `trace.hook`
span, outside the span they describe, so their cost is never charged to a
layer.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

NAME, START, END, PARENT, CALL = range(5)
SETUP = "setup"
HOOK = "trace.hook"


@dataclass(frozen=True)
class Target:
    module: str   # module whose attribute callers look up
    attr: str
    span: str     # "<layer>.<function>"


TARGETS = (
    Target("seps.bank", "read_bank", "bank.read_bank"),
    Target("seps.trainer", "load_checkpoint", "trainer.load_checkpoint"),
    Target("seps.trainer", "fit", "trainer.fit"),
    Target("seps.trainer", "optimizer_step", "trainer.optimizer_step"),
    Target("seps.trainer", "save_checkpoint", "trainer.save_checkpoint"),
    Target("seps.objective", "batch_similarity", "objective.batch_similarity"),
    Target("seps.objective", "batch_loss", "objective.batch_loss"),
    Target("seps.objective", "similarity_matrix", "alignment.similarity_matrix"),
    Target("seps.objective", "score_from_similarity", "alignment.score_from_similarity"),
    Target("seps.alignment", "align_score", "alignment.align_score"),
    Target("seps.selection", "select_and_aggregate", "selection.select_and_aggregate"),
    Target("seps.selection", "branch_scores", "selection.branch_scores"),
    Target("seps.autodiff", "gradient", "autodiff.gradient"),
    Target("seps.evaluator", "retrieval_eval", "evaluator.retrieval_eval"),
    Target("seps.evaluator", "pairwise_scores", "evaluator.pairwise_scores"),
    Target("seps.evaluator", "recall_at_k", "evaluator.recall_at_k"),
    Target("seps.evaluator", "selection_quality", "evaluator.selection_quality"),
)

# every per-layer metric the traced run reports, with its unit
PER_LAYER_UNITS = {
    "bank.read_s": "s", "bank.bytes": "B", "trainer.load_checkpoint_s": "s",
    "selection.calls": "count", "selection.s": "s", "selection.keep_frac": "ratio",
    "selection.empty_branches": "count",
    "alignment.pairs": "count", "alignment.s": "s",
    "objective.assemble_self_s": "s", "objective.loss_s": "s",
    "objective.active_hinge_frac": "ratio", "objective.final_loss": "loss",
    "autodiff.backward_s": "s", "autodiff.nodes_per_step": "count",
    "trainer.steps": "count", "trainer.optimizer_s": "s", "trainer.checkpoint_s": "s",
    "trainer.fit_self_s": "s",
    "evaluator.pairwise_self_s": "s", "evaluator.recall_s": "s",
    "evaluator.auc_self_s": "s", "evaluator.rsum": "%", "evaluator.auc": "ratio",
    "trace.overhead_frac": "ratio",
}

# spans that each score one image-caption pair
PAIR_SPANS = ("alignment.align_score", "alignment.score_from_similarity")


class MissingTarget(LookupError):
    """A function named in TARGETS does not exist in the library."""


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, list[float]] = defaultdict(list)
        self.call_id: object = SETUP
        self._open: list[int] = []
        self._saved: list[tuple[object, str, Callable]] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.call_id])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        self._open.pop()

    def count(self, name: str, value: float) -> None:
        self.counters[name].append(float(value))

    def wrap(self, fn: Callable, name: str, before: Callable | None = None,
             after: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                hook = tracer.begin(HOOK)
                try:
                    before(tracer, args, kwargs)
                finally:
                    tracer.end(hook)
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                hook = tracer.begin(HOOK)
                try:
                    after(tracer, result, args, kwargs)
                finally:
                    tracer.end(hook)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Patch every target.  A target the library no longer has raises
        MissingTarget before anything is patched: its layer's figures would
        otherwise read 0 and look like a gain."""
        modules = [importlib.import_module(target.module) for target in targets]
        missing = [f"{t.module}.{t.attr}" for t, module in zip(targets, modules)
                   if not hasattr(module, t.attr)]
        if missing:
            raise MissingTarget("trace targets not found: " + ", ".join(missing))
        for target, module in zip(targets, modules):
            original = getattr(module, target.attr)
            before, after = HOOKS.get(target.span, (None, None))
            self._saved.append((module, target.attr, original))
            setattr(module, target.attr, self.wrap(original, target.span, before, after))

    def restore(self) -> None:
        """Put the originals back, last patched first."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        """One JSON object per span, then one per counter."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, call) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "call": call}) + "\n")
            for name, values in self.counters.items():
                fh.write(json.dumps({"counter": name, "values": values}) + "\n")


# ---------------------------------------------------------------------------
# count hooks


def _first(args, kwargs, name: str):
    return args[0] if args else kwargs[name]


def _bank_bytes(tracer: Tracer, args, kwargs) -> None:
    tracer.count("bank.bytes", os.path.getsize(_first(args, kwargs, "path")))


def _tape_nodes(tracer: Tracer, args, kwargs) -> None:
    from seps import autodiff
    tracer.count("autodiff.nodes", len(autodiff.Graph(_first(args, kwargs, "output")).nodes))


def _keep_stats(tracer: Tracer, result, args, kwargs) -> None:
    agg, _, (mask_s, mask_d) = result
    tracer.count("selection.keep_frac", 0.5 * (mask_s.hard.mean() + mask_d.hard.mean()))
    tracer.count("selection.empty_branches", int(agg.empty_sparse) + int(agg.empty_dense))


def _active_hinges(tracer: Tracer, result, args, kwargs) -> None:
    import numpy as np
    batch, cfg = args[0], args[1]
    scores = batch.scores.data
    masked = scores.copy()
    np.fill_diagonal(masked, -np.inf)
    diag = np.diag(scores)
    text = scores[np.arange(len(diag)), np.argmax(masked, axis=1)] - diag + cfg.margin > 0
    image = scores[np.argmax(masked, axis=0), np.arange(len(diag))] - diag + cfg.margin > 0
    tracer.count("objective.active_hinge_frac", (text.sum() + image.sum()) / (2 * len(diag)))


HOOKS = {
    "bank.read_bank": (_bank_bytes, None),
    "autodiff.gradient": (_tape_nodes, None),
    "selection.select_and_aggregate": (None, _keep_stats),
    "objective.batch_loss": (None, _active_hinges),
}


# ---------------------------------------------------------------------------
# analysis


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def outermost(spans: list[list]) -> list[bool]:
    """True for spans with no ancestor in the same layer, so nested calls
    inside one layer are not counted twice."""
    out = []
    for span in spans:
        layer, parent = layer_of(span[NAME]), span[PARENT]
        while parent >= 0 and layer_of(spans[parent][NAME]) != layer:
            parent = spans[parent][PARENT]
        out.append(parent < 0)
    return out


def durations_by_name(spans: list[list]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        if span[CALL] != SETUP:
            out[span[NAME]].append(span[END] - span[START])
    return out


def layer_metrics(spans: list[list], counters: dict[str, list[float]],
                  calls: int) -> dict[str, float]:
    """Per-layer figures; times and counts are per workload call, setup
    figures per setup, ratios are means over the events counted."""
    if calls < 1:
        raise ValueError("no traced workload call")
    selfs = self_times(spans)
    outer = outermost(spans)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    layer: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    setup: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        name, duration = span[NAME], span[END] - span[START]
        if span[CALL] == SETUP:
            setup[name] += duration
            continue
        total[name] += duration
        own[name] += selfs[i]
        count[name] += 1
        if outer[i]:
            layer[layer_of(name)] += duration

    def mean(name: str) -> float:
        values = counters.get(name)
        return statistics.fmean(values) if values else 0.0

    return {
        "bank.read_s": setup["bank.read_bank"],
        "bank.bytes": sum(counters.get("bank.bytes", ())),
        "trainer.load_checkpoint_s": setup["trainer.load_checkpoint"],
        "selection.calls": count["selection.select_and_aggregate"] / calls,
        "selection.s": layer["selection"] / calls,
        "selection.keep_frac": mean("selection.keep_frac"),
        "selection.empty_branches": sum(counters.get("selection.empty_branches", ())) / calls,
        "alignment.pairs": sum(count[name] for name in PAIR_SPANS) / calls,
        "alignment.s": layer["alignment"] / calls,
        "objective.assemble_self_s": own["objective.batch_similarity"] / calls,
        "objective.loss_s": total["objective.batch_loss"] / calls,
        "objective.active_hinge_frac": mean("objective.active_hinge_frac"),
        "autodiff.backward_s": total["autodiff.gradient"] / calls,
        "autodiff.nodes_per_step": mean("autodiff.nodes"),
        "trainer.steps": count["trainer.optimizer_step"] / calls,
        "trainer.optimizer_s": total["trainer.optimizer_step"] / calls,
        "trainer.checkpoint_s": total["trainer.save_checkpoint"] / calls,
        "trainer.fit_self_s": own["trainer.fit"] / calls,
        "evaluator.pairwise_self_s": own["evaluator.pairwise_scores"] / calls,
        "evaluator.recall_s": total["evaluator.recall_at_k"] / calls,
        "evaluator.auc_self_s": own["evaluator.selection_quality"] / calls,
    }
