"""The three benchmark workloads: inputs, set-up, the timed call, checks.

Each workload makes its inputs from the seed in an untimed preparation
step, sets up the way a user would (read the bank, load or initialise the
model), then repeats one public call of the library in a closed loop.  The
library is driven only through `seps.bank`, `seps.trainer` and
`seps.evaluator`, looked up through the module at call time so that the
traced run's wrappers see every call.  `check` recomputes the outputs
through independent reference paths and returns one message per failure.
"""

from __future__ import annotations

import hashlib
import math
import os
from pathlib import Path

import numpy as np

import seps
from seps import alignment, bank, evaluator, selection, trainer
from seps import autodiff as ad
from seps.errors import SepsError

SCORE_TOL = 1e-12   # per-pair oracle vs the evaluator's score matrix
AUC_TOL = 1e-12     # brute-force Mann-Whitney mean vs selection_quality
RSUM_TOL = 1e-9     # rsum vs the sum of its six recalls
ORACLE_CELLS = 48   # score cells recomputed per eval_gallery run

DESK_BANK = dict(n_samples=64, dim=32, n_patches=16, n_relevant_patches=4,
                 n_sparse_words=2, n_dense_words=4, noise_sigma=0.1)
DESK_TRAIN = dict(dim=32, n_patches=16, batch_size=8, epochs=20)
GALLERY_SIZE = 256
EVAL_MODEL_SEED = 0  # the gallery checkpoint is one fixed train_desk fit
VIT_BANK = dict(n_samples=1024, dim=64, n_patches=196, n_relevant_patches=24,
                n_sparse_words=2, n_dense_words=8, concept_count=4096, noise_sigma=0.1)
VIT_MODEL = dict(dim=64, n_patches=196, n_keep=8)


def _write_atomic(path: Path, write) -> None:
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    write(tmp)
    os.replace(tmp, path)


def source_digest() -> str:
    """Hash of the library source, so cached preparation follows the code."""
    digest = hashlib.sha256()
    root = Path(seps.__file__).parent
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class TrainDesk:
    name = "train_desk"
    items = "sample-epochs"
    alias = "train_samples_per_s"
    min_calls = 2  # repeats must agree bitwise
    bank_file = "train.sepb"

    def config(self, seed: int) -> trainer.TrainConfig:
        return trainer.TrainConfig(seed=seed, **DESK_TRAIN)

    def prepare(self, seed: int, work: Path, cache: Path) -> None:
        data = bank.generate_synthetic(bank.SynthConfig(seed=seed, **DESK_BANK))
        bank.write_bank(data, work / self.bank_file)

    def setup(self, seed: int, work: Path) -> dict:
        cfg = self.config(seed)
        data = bank.read_bank(work / self.bank_file)
        trainer.init_params(cfg)  # timed as set-up; each fit initialises its own
        return {"bank": data, "cfg": cfg, "work": work}

    def items_per_call(self, state: dict) -> int:
        return len(state["bank"]) * state["cfg"].epochs

    def call(self, state: dict, index: int):
        path = state["work"] / f"fit-{index}.sepc"
        params, history = trainer.fit(state["bank"], state["cfg"], checkpoint_path=path)
        return params, history, path

    def quality(self, results) -> dict[str, float]:
        return {"objective.final_loss": results[-1][1][-1].loss}

    def check(self, state: dict, results, seed: int) -> list[str]:
        errors = []
        losses = [history[-1].loss for _, history, _ in results]
        if not all(math.isfinite(x) for x in losses):
            errors.append(f"non-finite final loss: {losses}")
        if len(set(losses)) != 1:
            errors.append(f"repeated fits disagree on final loss: {losses}")
        if any(len(history) != state["cfg"].epochs for _, history, _ in results):
            errors.append("history length differs from the epoch count")
        params, _, path = results[-1]
        try:
            reloaded = dict(trainer.load_checkpoint(path).named())
        except SepsError as exc:
            return errors + [f"checkpoint does not reload: {exc}"]
        for name, tensor in params.named():
            stored = tensor.data.astype(np.float32).astype(np.float64)
            if name not in reloaded or not np.array_equal(reloaded[name].data, stored):
                errors.append(f"checkpoint tensor {name} does not reload")
        return errors


class EvalGallery:
    name = "eval_gallery"
    items = "pairs"
    alias = "eval_pairs_per_s"
    min_calls = 2  # a median of two calls, and repeats must agree
    bank_file = "gallery.sepb"
    model_file = "model.sepc"

    def prepare(self, seed: int, work: Path, cache: Path) -> None:
        cached = cache / f"eval-model-{source_digest()}.sepc"
        if not cached.exists():
            desk = TrainDesk()
            data = bank.generate_synthetic(
                bank.SynthConfig(seed=EVAL_MODEL_SEED, **DESK_BANK))
            params, _ = trainer.fit(data, desk.config(EVAL_MODEL_SEED))
            cache.mkdir(parents=True, exist_ok=True)
            _write_atomic(cached, lambda tmp: trainer.save_checkpoint(tmp, params))
        (work / self.model_file).write_bytes(cached.read_bytes())
        # seeds are >= 0, so the gallery never shares the model's bank seed
        cfg = dict(DESK_BANK, n_samples=GALLERY_SIZE)
        gallery = bank.generate_synthetic(
            bank.SynthConfig(seed=EVAL_MODEL_SEED + 1 + seed, **cfg))
        bank.write_bank(gallery, work / self.bank_file)

    def setup(self, seed: int, work: Path) -> dict:
        return {"bank": bank.read_bank(work / self.bank_file),
                "params": trainer.load_checkpoint(work / self.model_file)}

    def items_per_call(self, state: dict) -> int:
        return len(state["bank"]) ** 2

    def call(self, state: dict, index: int):
        captured = []
        original = evaluator.pairwise_scores

        def capture(*args, **kwargs):
            scores = original(*args, **kwargs)
            captured.append(scores)
            return scores

        evaluator.pairwise_scores = capture
        try:
            report = evaluator.retrieval_eval(state["bank"], state["params"])
        finally:
            evaluator.pairwise_scores = original
        return report, captured[-1] if captured else None

    def quality(self, results) -> dict[str, float]:
        return {"evaluator.rsum": results[-1][0].rsum}

    def check(self, state: dict, results, seed: int) -> list[str]:
        reports = [report for report, _ in results]
        captured = [scores for _, scores in results if scores is not None]
        errors = []
        if (any(r != reports[0] for r in reports)
                or any(not np.array_equal(s, captured[0]) for s in captured)):
            errors.append("repeated evaluations disagree")
        # a retrieval_eval that no longer goes through pairwise_scores is
        # checked against a separate, untimed pairwise_scores call
        scores = (captured[-1] if captured
                  else evaluator.pairwise_scores(state["bank"], state["params"]))
        return (errors + check_scores(scores, state["bank"], state["params"], seed)
                + check_report(reports[-1], scores))


class SelectBank:
    name = "select_bank"
    items = "samples"
    alias = "select_samples_per_s"
    min_calls = 2  # repeats must agree
    bank_file = "vit.sepb"
    model_file = "model.sepc"

    def prepare(self, seed: int, work: Path, cache: Path) -> None:
        data = bank.generate_synthetic(bank.SynthConfig(seed=seed, **VIT_BANK))
        bank.write_bank(data, work / self.bank_file)
        params = trainer.init_params(trainer.TrainConfig(seed=seed, **VIT_MODEL))
        trainer.save_checkpoint(work / self.model_file, params)

    def setup(self, seed: int, work: Path) -> dict:
        return {"bank": bank.read_bank(work / self.bank_file),
                "params": trainer.load_checkpoint(work / self.model_file)}

    def items_per_call(self, state: dict) -> int:
        return len(state["bank"])

    def call(self, state: dict, index: int):
        return evaluator.selection_quality(state["bank"], state["params"])

    def quality(self, results) -> dict[str, float]:
        return {"evaluator.auc": results[-1]}

    def check(self, state: dict, results, seed: int) -> list[str]:
        errors = []
        if len(set(results)) != 1:
            errors.append(f"repeated selection_quality calls disagree: {results}")
        auc = results[-1]
        if not 0.0 <= auc <= 1.0:
            errors.append(f"AUC {auc} outside [0, 1]")
        reference = brute_force_auc(state["bank"], state["params"])
        if not abs(auc - reference) <= AUC_TOL:
            errors.append(f"AUC {auc!r} != brute-force {reference!r}")
        return errors


WORKLOADS = {w.name: w for w in (TrainDesk(), EvalGallery(), SelectBank())}


# ---------------------------------------------------------------------------
# reference paths


def oracle_score(image: bank.Sample, caption: bank.Sample, params) -> float:
    """One cell of the score matrix through the per-pair path."""
    with ad.no_grad():
        agg, _, _ = selection.select_and_aggregate(image, params.selection, "eval")
        return alignment.align_score(agg.vectors.data, caption.sparse_tokens,
                                     params.alignment).total.item()


def oracle_cells(n: int, seed: int, count: int = ORACLE_CELLS) -> list[tuple[int, int]]:
    """Up to `count` distinct seeded cells, a third of them on the diagonal."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
    diag = [(int(i), int(i)) for i in rng.choice(n, size=min(n, count // 3), replace=False)]
    rest = [(int(i), int(j)) for i, j in rng.integers(0, n, size=(count - len(diag), 2))]
    return list(dict.fromkeys(diag + rest))


def check_scores(scores: np.ndarray, data: bank.FeatureBank, params, seed: int) -> list[str]:
    n = len(data)
    if scores.shape != (n, n) or not np.all(np.isfinite(scores)):
        return [f"score matrix has shape {scores.shape} or non-finite cells"]
    errors = []
    for i, j in oracle_cells(n, seed):
        expected = oracle_score(data.samples[i], data.samples[j], params)
        if not abs(scores[i, j] - expected) <= SCORE_TOL:
            errors.append(f"S[{i},{j}]={scores[i, j]!r} but the per-pair path gives {expected!r}")
    return errors


def recalls_from_scores(scores: np.ndarray) -> list[float]:
    """Six recalls by counting, per query, the gallery items ranked ahead of
    the true match (higher score, or equal score at a lower index)."""
    out = []
    for matrix in (scores, scores.T):
        n = matrix.shape[0]
        true = np.diag(matrix)[:, None]
        lower = np.arange(n)[None, :] < np.arange(n)[:, None]
        ahead = (matrix > true).sum(axis=1) + ((matrix == true) & lower).sum(axis=1)
        out += [100.0 * int((ahead < min(k, n)).sum()) / n for k in (1, 5, 10)]
    return out


def check_report(report, scores: np.ndarray) -> list[str]:
    fields = [report.i2t_r1, report.i2t_r5, report.i2t_r10,
              report.t2i_r1, report.t2i_r5, report.t2i_r10]
    errors = []
    expected = recalls_from_scores(scores)
    if fields != expected:
        errors.append(f"recalls {fields} but counting the scores gives {expected}")
    if not abs(report.rsum - math.fsum(fields)) <= RSUM_TOL:
        errors.append(f"rsum {report.rsum!r} != sum of recalls {math.fsum(fields)!r}")
    return errors


def mann_whitney_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Share of (relevant, irrelevant) patch pairs ranked correctly, ties
    counting one half, by comparing every pair."""
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (pos.size * neg.size))


def brute_force_auc(data: bank.FeatureBank, params) -> float:
    aucs = []
    with ad.no_grad():
        for sample in data.samples:
            labels = sample.relevance_mask
            if labels is None or labels.min() == labels.max():
                continue
            _, bundle, _ = selection.select_and_aggregate(sample, params.selection, "eval")
            score, _ = selection.branch_scores(bundle, params.selection.beta)
            aucs.append(mann_whitney_auc(score.data, np.asarray(labels)))
    return float(np.mean(aucs))
