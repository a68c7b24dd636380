"""Initialization, AdamW updates, the fit loop, SEPC checkpoints."""

import hashlib
import math
import struct

import numpy as np
import pytest

import composed_alignment as composed
import reference_trainer as reference
from conftest import make_params, mixed_bank

from seps import autodiff as ad
from seps import bank as bank_module
from seps import cli, evaluator, objective, trainer
from seps.bank import SynthConfig, generate_synthetic, read_bank, text_chunk, write_bank
from seps.errors import BankFormatError, ConfigError, DivergenceError
from seps.trainer import (EpochStats, OptimizerState, TrainConfig, _layout, fit,
                          init_params, load_checkpoint, optimizer_step,
                          save_checkpoint)


def tiny_bank(seed=0, n=4):
    return generate_synthetic(SynthConfig(
        n_samples=n, dim=6, n_patches=5, n_relevant_patches=2,
        n_sparse_words=2, n_dense_words=3, concept_count=8, seed=seed))


def tiny_cfg(**overrides) -> TrainConfig:
    base = dict(dim=6, n_patches=5, k_top=2, batch_size=2, epochs=1, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def params_equal(a, b) -> bool:
    return all(np.array_equal(ta.data, tb.data)
               for (_, ta), (_, tb) in zip(a.named(), b.named()))


# ---------------------------------------------------------------------------
# initialization


def test_init_deterministic_under_seed():
    cfg = tiny_cfg(seed=9)
    assert params_equal(init_params(cfg), init_params(cfg))


def test_init_heads_are_zero():
    params = init_params(tiny_cfg())
    assert np.all(params.alignment.p2w.out_w.data == 0.0)
    assert np.all(params.alignment.w2p.out_w.data == 0.0)
    assert params.alignment.p2w.out_b.item() == 0.0


def test_init_weight_magnitudes_bounded():
    params = init_params(tiny_cfg(dim=7, seed=3))
    sel = params.selection
    assert np.abs(sel.pred_w1.data).max() <= 1.0 / math.sqrt(7)
    assert np.abs(sel.pred_w2.data).max() <= 1.0 / math.sqrt(7)
    assert np.abs(sel.agg_sparse_w.data).max() <= 1.0 / math.sqrt(7)
    assert np.all(sel.pred_b1.data == 0.0)
    assert np.all(sel.agg_dense_b.data == 0.0)


# SHA-256 over every named() tensor's name and float64 bytes, for the
# models of test_init_params_bitwise_pinned in their order
INIT_DIGEST = "06dcc55e033ca1b8e73a43643ebe92b5459a837829a78df9235ae463d308c32b"


def test_init_params_bitwise_pinned():
    cfgs = [TrainConfig(dim=6, n_patches=5, n_keep=2, k_top=3, head_hidden=hh, seed=s)
            for hh in (0, 4) for s in (0, 3)] + [TrainConfig()]
    digest = hashlib.sha256()
    for cfg in cfgs:
        for name, t in init_params(cfg).named():
            digest.update(name.encode())
            digest.update(np.asarray(t.data, dtype=np.float64).tobytes())
    assert digest.hexdigest() == INIT_DIGEST


@pytest.mark.parametrize("head_hidden", [0, 4])
def test_named_follows_layout(head_hidden):
    params = make_params(dim=6, n_keep=2, k_top=3, head_hidden=head_hidden)
    assert [(name, t.shape) for name, t in params.named()] == [
        (name, shape) for name, shape, _ in _layout(6, 2, 3, head_hidden)]


# ---------------------------------------------------------------------------
# optimizer


def one_param_setup(theta: float):
    params = make_params(dim=2, n_keep=1, k_top=1)
    tensor = params.selection.pred_b2
    tensor.data = np.asarray(theta)
    return params, tensor


def test_optimizer_hand_example():
    params, tensor = one_param_setup(1.0)
    grads = {tensor: ad.constant(1.0)}
    cfg = TrainConfig(dim=2, n_patches=2, lr=0.1, weight_decay=0.0)
    optimizer_step(params, grads, OptimizerState(), cfg)
    assert tensor.item() == pytest.approx(0.9, abs=1e-6)


def test_optimizer_zero_gradient_fixed_point():
    params = make_params(dim=3, seed=5)
    before = {n: t.data.copy() for n, t in params.named()}
    cfg = TrainConfig(dim=3, n_patches=3, lr=0.1, weight_decay=0.0)
    optimizer_step(params, {}, OptimizerState(), cfg)
    for name, t in params.named():
        np.testing.assert_array_equal(t.data, before[name])


def test_optimizer_pure_decay():
    params, tensor = one_param_setup(2.0)
    cfg = TrainConfig(dim=2, n_patches=2, lr=0.01, weight_decay=0.5)
    optimizer_step(params, {}, OptimizerState(), cfg)
    assert tensor.item() == pytest.approx(2.0 * (1.0 - 0.01 * 0.5), abs=1e-15)


def test_optimizer_rejects_non_finite_gradient():
    params, tensor = one_param_setup(1.0)
    bad = ad.constant(1.0)
    bad.data = np.asarray(np.nan)  # bypass construction check on purpose
    with pytest.raises(DivergenceError, match="divergence detected"):
        optimizer_step(params, {tensor: bad}, OptimizerState(),
                       TrainConfig(dim=2, n_patches=2))


def random_grads(params, rng: np.random.Generator) -> dict:
    """Gradients at scales 1e-6..1e2, about a quarter of them absent and,
    when any are left, one all zero."""
    grads = {p: ad.constant(rng.normal(size=p.shape) * 10.0 ** rng.uniform(-6, 2))
             for p in params.tensors() if rng.random() > 0.25}
    if grads:
        grads[list(grads)[rng.integers(len(grads))]].data[...] = 0.0
    return grads


def flat_moments(state: reference.OptimizerState, params) -> tuple[np.ndarray, np.ndarray]:
    """The reference's per-name moments, concatenated in `_layout` order."""
    names = [name for name, _, _ in _layout(**params.hyper())]
    return tuple(np.concatenate([moment[name].ravel() for name in names])
                 for moment in (state.m, state.v))


@pytest.mark.parametrize("head_hidden", [0, 3])
def test_optimizer_matches_the_per_tensor_reference_bitwise(head_hidden):
    fast, slow = (make_params(dim=5, n_patches=6, n_keep=3, k_top=2, seed=4,
                              head_hidden=head_hidden) for _ in range(2))
    cfg = TrainConfig(dim=5, n_patches=6, lr=1e-2, weight_decay=1e-2)
    state, ref_state = OptimizerState(), reference.OptimizerState()
    rng = np.random.default_rng(head_hidden)
    for _ in range(200):
        grads = random_grads(fast, rng)
        optimizer_step(fast, grads, state, cfg)
        same = {f: s for f, s in zip(fast.tensors(), slow.tensors())}
        reference.optimizer_step(slow, {same[f]: g for f, g in grads.items()}, ref_state, cfg)
        assert state.step == ref_state.step
        for (name, a), (_, b) in zip(fast.named(), slow.named()):
            assert a.shape == b.shape and a.data.tobytes() == b.data.tobytes(), name
        for ours, theirs in zip((state.m, state.v), flat_moments(ref_state, slow)):
            assert ours.tobytes() == theirs.tobytes()


def _nan_in_last_tensor(params, grads, state, cfg):
    grads[params.tensors()[-1]].data[...] = np.nan  # past the construction check
    return cfg


def _square_overflows(params, grads, state, cfg):
    grads[params.tensors()[0]].data[...] = 1e200
    return cfg


def _lr_overflows(params, grads, state, cfg):
    # one step to ~1e300 succeeds; the next one's weight decay overflows
    cfg = TrainConfig(dim=5, n_patches=6, lr=1e300, weight_decay=1e-2)
    optimizer_step(params, grads, OptimizerState(), cfg)
    return cfg


def _vhat_overflows_at_step_one(params, grads, state, cfg):
    # from a fresh state v = 0.001 g^2 stays finite, but v_hat = v / 0.001 does not
    state.step, state.m, state.v = 0, None, None
    grads[params.tensors()[0]].data[...] = 1.4e154
    return cfg


def optimizer_bytes(params, state):
    return ([p.data.tobytes() for p in params.tensors()], state.step,
            [None if x is None else x.tobytes() for x in (state.m, state.v)])


@pytest.mark.parametrize("spoil", [_nan_in_last_tensor, _square_overflows, _lr_overflows,
                                   _vhat_overflows_at_step_one])
def test_divergent_step_changes_nothing(spoil):
    params = make_params(dim=5, n_patches=6, n_keep=3, k_top=2, seed=2, head_hidden=3)
    cfg = TrainConfig(dim=5, n_patches=6, lr=1e-2)
    state = OptimizerState()
    rng = np.random.default_rng(9)
    for _ in range(3):
        optimizer_step(params, random_grads(params, rng), state, cfg)
    grads = {p: ad.constant(rng.normal(size=p.shape)) for p in params.tensors()}
    cfg = spoil(params, grads, state, cfg)
    before = optimizer_bytes(params, state)
    with pytest.raises(DivergenceError, match="divergence detected"):
        optimizer_step(params, grads, state, cfg)
    assert optimizer_bytes(params, state) == before


# ---------------------------------------------------------------------------
# fit loop


def test_fit_zero_lr_is_identity(tmp_path):
    bank = tiny_bank()
    cfg = tiny_cfg(lr=0.0, epochs=3)
    init = init_params(cfg)
    trained, _ = fit(bank, cfg, checkpoint_path=tmp_path / "run.ckpt")
    assert params_equal(init, trained)
    save_checkpoint(tmp_path / "init.ckpt", init)
    assert (tmp_path / "run.ckpt").read_bytes() == (tmp_path / "init.ckpt").read_bytes()


def test_fit_deterministic_history_and_checkpoint(tmp_path):
    bank = tiny_bank(seed=2)
    cfg = tiny_cfg(lr=1e-3, epochs=3, seed=4)
    _, hist_a = fit(bank, cfg, checkpoint_path=tmp_path / "a.ckpt")
    _, hist_b = fit(bank, cfg, checkpoint_path=tmp_path / "b.ckpt")
    assert hist_a == hist_b
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_fit_rejects_small_bank():
    bank = tiny_bank(n=2)
    with pytest.raises(ConfigError):
        fit(bank, tiny_cfg(batch_size=4))


def test_fit_skips_a_lone_trailing_sample(monkeypatch):
    # 9 samples at B=8: each epoch trains its full batch and skips the
    # lone ninth sample, which has no in-batch negative
    steps = []
    step = trainer.optimizer_step
    monkeypatch.setattr(trainer, "optimizer_step", lambda *args: steps.append(step(*args)))
    _, history = fit(tiny_bank(n=9), tiny_cfg(batch_size=8, epochs=2))
    assert len(steps) == len(history) == 2


def test_fit_records_validation_metric():
    bank = tiny_bank(seed=6)
    _, history = fit(bank, tiny_cfg(epochs=2), val_bank=bank)
    assert all(isinstance(h, EpochStats) and h.val_r1 is not None for h in history)


@pytest.mark.parametrize("val, message", [
    (dict(n=16, dim=8), "dimension mismatch between bank and checkpoint"),
    (dict(n=1, dim=6), "retrieval needs at least two samples"),
], ids=["wrong_dim", "one_sample"])
def test_fit_refuses_an_unusable_validation_bank_before_the_first_step(
        val, message, tmp_path, monkeypatch):
    steps = []
    monkeypatch.setattr(trainer, "optimizer_step", lambda *args: steps.append(args))
    val_bank = generate_synthetic(SynthConfig(
        n_samples=val["n"], dim=val["dim"], n_patches=5, n_relevant_patches=2,
        n_sparse_words=2, n_dense_words=3, concept_count=8, seed=1))
    ckpt = tmp_path / "run.ckpt"
    with pytest.raises(ConfigError, match=f"^{message}$"):
        fit(tiny_bank(n=16), tiny_cfg(batch_size=4), val_bank=val_bank, checkpoint_path=ckpt)
    assert steps == [] and not ckpt.exists()


def test_fit_gradient_audit_passes_on_smooth_path():
    bank = tiny_bank(seed=8)
    cfg = tiny_cfg(lr=1e-3, epochs=1, grad_check_every=2, seed=3)
    fit(bank, cfg)  # raises NumericalError if any audited coordinate fails


DESK_BANK = dict(n_samples=64, dim=32, n_patches=16, n_relevant_patches=4,
                 n_sparse_words=2, n_dense_words=4, noise_sigma=0.1)


def count_view_derivations(monkeypatch) -> list:
    """The id of the patches of every `attention_scores` call; deriving a
    sample's `views` makes three such calls on its patches."""
    calls = []
    scores = bank_module.attention_scores

    def counted(patches, embedding):
        calls.append(id(patches))
        return scores(patches, embedding)

    monkeypatch.setattr(bank_module, "attention_scores", counted)
    return calls


def derived_once(calls, *banks) -> bool:
    return sorted(calls) == sorted(3 * [id(s.patches) for b in banks for s in b.samples])


def test_desk_fit_computes_each_sample_views_once(monkeypatch):
    bank = generate_synthetic(SynthConfig(seed=1, **DESK_BANK))
    calls = count_view_derivations(monkeypatch)
    for _ in range(2):  # a second fit on the same bank derives none
        fit(bank, TrainConfig(dim=32, n_patches=16, batch_size=8, epochs=2, seed=1))
        assert derived_once(calls, bank)


def test_fit_audited_every_step_passes_and_reuses_the_views(monkeypatch):
    bank = tiny_bank(seed=8)
    calls = count_view_derivations(monkeypatch)
    fit(bank, tiny_cfg(lr=1e-3, epochs=2, grad_check_every=1, seed=3))  # NumericalError if not
    assert derived_once(calls, bank)


def test_fit_validation_derives_each_validation_sample_views_once(monkeypatch):
    bank, val_bank = tiny_bank(seed=2), tiny_bank(seed=5)
    calls = count_view_derivations(monkeypatch)
    _, history = fit(bank, tiny_cfg(lr=1e-3, epochs=3, seed=4), val_bank=val_bank)
    assert all(stats.val_r1 is not None for stats in history)
    assert derived_once(calls, bank, val_bank)


def test_derived_views_change_no_param_history_or_checkpoint_byte(tmp_path):
    path = tmp_path / "desk.sepb"
    write_bank(generate_synthetic(SynthConfig(seed=2, **dict(DESK_BANK, n_samples=16))), path)
    cfg = TrainConfig(dim=32, n_patches=16, batch_size=8, epochs=2, lr=1e-3, seed=2)
    derived = read_bank(path)
    for sample in derived.samples:
        assert len(sample.views) == 3  # derived before the fit
    held, held_hist = fit(derived, cfg, checkpoint_path=tmp_path / "held.ckpt")
    fresh, fresh_hist = fit(read_bank(path), cfg, checkpoint_path=tmp_path / "fresh.ckpt")
    assert [t.data.tobytes() for t in held.tensors()] == [
        t.data.tobytes() for t in fresh.tensors()]
    assert held_hist == fresh_hist
    assert (tmp_path / "held.ckpt").read_bytes() == (tmp_path / "fresh.ckpt").read_bytes()



def test_fit_after_selection_quality_writes_the_same_bytes(tmp_path):
    # selection_quality derives the views of the scored samples of ragged
    # runs; fit then reads those and derives the rest
    path = tmp_path / "mixed.sepb"
    write_bank(mixed_bank(), path)
    cfg = TrainConfig(dim=16, n_patches=9, n_keep=3, k_top=2, batch_size=4, epochs=2,
                      lr=1e-3, seed=2, grad_check_every=3)
    scored = read_bank(path)
    params = init_params(cfg)
    params.selection.zero_dense_attention = True  # the views do not depend on it
    evaluator.selection_quality(scored, params)
    assert 0 < sum("views" in s.__dict__ for s in scored.samples) < len(scored.samples)
    runs = {}
    for name, data in (("after", scored), ("before", read_bank(path))):
        params, history = fit(data, cfg, checkpoint_path=tmp_path / f"{name}.ckpt")
        runs[name] = ([t.data.tobytes() for t in params.tensors()], history,
                      (tmp_path / f"{name}.ckpt").read_bytes())
    assert runs["after"] == runs["before"]

@pytest.mark.parametrize("seed,head_hidden,grad_check_every", [
    (1, 0, 0), (1, 3, 0), (2, 0, 7), (2, 3, 0)])
def test_sparse_backward_changes_no_param_history_or_checkpoint_byte(
        seed, head_hidden, grad_check_every, tmp_path, monkeypatch):
    bank = generate_synthetic(SynthConfig(seed=seed, **DESK_BANK))
    cfg = TrainConfig(dim=32, n_patches=16, batch_size=8, epochs=3, seed=seed,
                      head_hidden=head_hidden, grad_check_every=grad_check_every)
    sparse, sparse_hist = fit(bank, cfg, checkpoint_path=tmp_path / "sparse.ckpt")
    monkeypatch.setattr(ad, "stack", composed.dense_stack)
    dense, dense_hist = fit(bank, cfg, checkpoint_path=tmp_path / "dense.ckpt")
    assert [t.data.tobytes() for t in sparse.tensors()] == [
        t.data.tobytes() for t in dense.tensors()]
    assert sparse_hist == dense_hist
    assert (tmp_path / "sparse.ckpt").read_bytes() == (tmp_path / "dense.ckpt").read_bytes()


def test_fit_ratio_objective_moves_keep_rate_toward_target():
    # standalone ratio objective on one fixed batch: the combined keep rate
    # moves toward rho within a modest step budget
    bank = tiny_bank(seed=11)
    cfg = tiny_cfg(lr=1e-2, epochs=1, tau=0.5)
    params = init_params(cfg)
    state = OptimizerState()

    def combined_eval_rate() -> float:
        batch = objective.batch_similarity(bank.samples, params.selection,
                                           params.alignment, "eval")
        ks, kd = batch.keep_fractions()
        return ks + kd

    start_gap = abs(0.5 - combined_eval_rate())
    for step in range(80):
        batch = objective.batch_similarity(bank.samples, params.selection,
                                           params.alignment, "train", seed=1, step=step)
        loss = objective.ratio_loss(batch.gates, cfg)
        grads = ad.gradient(loss, params.tensors())
        optimizer_step(params, grads, state, cfg)
    end_gap = abs(0.5 - combined_eval_rate())
    assert end_gap < start_gap


def test_fit_loss_decreases_for_most_seeds():
    # smoke property: 50 steps on one fixed batch do not increase the
    # deterministic (noise-free) batch loss, in at least 19 of 20 trials
    wins = 0
    for seed in range(20):
        bank = generate_synthetic(SynthConfig(
            n_samples=6, dim=8, n_patches=6, n_relevant_patches=2,
            n_sparse_words=2, n_dense_words=3, concept_count=10, seed=100 + seed))
        cfg = TrainConfig(dim=8, n_patches=6, k_top=2, batch_size=6,
                          epochs=50, seed=seed, lr=1e-3)

        def noise_free_loss(params) -> float:
            batch = objective.batch_similarity(
                bank.samples, params.selection, params.alignment, "eval")
            return objective.batch_loss(batch, cfg).item()

        before = noise_free_loss(init_params(cfg))
        trained, _ = fit(bank, cfg)
        if noise_free_loss(trained) <= before:
            wins += 1
    assert wins >= 19


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_quantizes_to_float32(tmp_path):
    params = make_params(dim=5, n_keep=3, k_top=2, seed=7)
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    for (name, orig), (name2, back) in zip(params.named(), loaded.named()):
        assert name == name2
        expected = orig.data.astype(np.float32).astype(np.float64)
        np.testing.assert_array_equal(back.data, expected)
    # hyper scalars ride in the same float32 container as the tensors
    assert loaded.selection.beta == np.float32(params.selection.beta)
    assert loaded.selection.rho == np.float32(params.selection.rho)
    assert loaded.alignment.k_top == params.alignment.k_top


def test_checkpoint_refuses_a_value_that_overflows_float32(tmp_path):
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, make_params(dim=3))
    before = path.read_bytes()
    params = make_params(dim=3, seed=1)
    params.selection.pred_w1.data[0, 0] = 1e39  # finite in float64, not in float32
    with pytest.raises(DivergenceError, match="^divergence detected$"):
        save_checkpoint(path, params)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no .tmp left


def test_checkpoint_bad_magic(tmp_path):
    params = make_params(dim=3)
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, params)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(BankFormatError, match="not a checkpoint"):
        load_checkpoint(path)


def test_checkpoint_truncation(tmp_path):
    params = make_params(dim=3)
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, params)
    path.write_bytes(path.read_bytes()[:-2])
    with pytest.raises(BankFormatError, match="corrupt checkpoint"):
        load_checkpoint(path)


def test_checkpoint_version_gate(tmp_path):
    params = make_params(dim=3)
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, params)
    blob = bytearray(path.read_bytes())
    blob[4] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(BankFormatError, match="unsupported version"):
        load_checkpoint(path)


# a checkpoint whose hyperparameters contradict its tensors or their own
# ranges: each case byte-edits one hyper value of a re-saved, otherwise
# valid checkpoint (dim 6, n_keep 2, k_top 3, head_hidden 0 or 4)
CONTRADICTIONS = {
    "dim_vs_pred_w1_rows": (0, "dim", 7.0),
    "n_keep_vs_agg_columns": (0, "n_keep", 3.0),
    "k_top_vs_linear_head_width": (0, "k_top", 5.0),
    "k_top_vs_hidden_layer_rows": (4, "k_top", 5.0),
    "head_hidden_vs_hidden_layer_width": (4, "head_hidden", 3.0),
    "head_hidden_zero_with_hidden_layer": (4, "head_hidden", 0.0),
    "head_hidden_without_hidden_layer": (0, "head_hidden", 4.0),
    "dim_fractional": (0, "dim", 6.5),
    "k_top_fractional_vs_linear_head_width": (0, "k_top", 3.5),
    "n_keep_negative": (0, "n_keep", -2.0),
    "beta_above_half": (0, "beta", 0.7),
    "tau_zero": (0, "tau", 0.0),
    "rho_above_one": (0, "rho", 1.5),
}


def _set_hyper(path, key: str, value: float) -> None:
    blob = path.read_bytes()
    label = text_chunk(f"hyper.{key}")
    at = blob.index(label) + len(label) + 4  # past the name and the rank-0 word
    path.write_bytes(blob[:at] + struct.pack("<f", value) + blob[at + 4:])


@pytest.mark.parametrize("case", sorted(CONTRADICTIONS))
def test_checkpoint_contradicting_hyperparameter_is_corrupt(case, tmp_path, capsys):
    head_hidden, key, value = CONTRADICTIONS[case]
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, make_params(dim=6, n_keep=2, k_top=3, head_hidden=head_hidden))
    load_checkpoint(path)  # consistent as saved
    _set_hyper(path, key, value)
    with pytest.raises(BankFormatError, match="corrupt checkpoint"):
        load_checkpoint(path)
    bank = tmp_path / "b.sepb"
    assert cli.main(["gen", "--out", str(bank), "--samples", "4", "--dim", "6"]) == 0
    assert cli.main(["eval", "--bank", str(bank), "--checkpoint", str(path)]) == 2
    assert "corrupt checkpoint" in capsys.readouterr().err


def test_checkpoint_with_a_repeated_entry_is_corrupt(tmp_path, capsys):
    # a second pred.b1 entry, appended and counted, must not replace the first
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, make_params(dim=4))
    blob = path.read_bytes()
    count = struct.unpack_from("<I", blob, 8)[0]
    extra = (text_chunk("pred.b1") + struct.pack("<II", 1, 4)
             + np.full(4, 7.0, dtype="<f4").tobytes())
    path.write_bytes(blob[:8] + struct.pack("<I", count + 1) + blob[12:] + extra)
    with pytest.raises(BankFormatError, match="corrupt checkpoint"):
        load_checkpoint(path)
    bank = tmp_path / "b.sepb"
    assert cli.main(["gen", "--out", str(bank), "--samples", "4", "--dim", "4",
                     "--n-patches", "4", "--n-relevant", "2"]) == 0
    assert cli.main(["eval", "--bank", str(bank), "--checkpoint", str(path)]) == 2
    assert "corrupt checkpoint" in capsys.readouterr().err


def test_checkpoint_tensors_contradicting_each_other_are_corrupt(tmp_path):
    params = make_params(dim=6, n_keep=2, k_top=3)
    params.selection.pred_b1 = ad.tensor(np.zeros(5), requires_grad=True)
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, params)
    with pytest.raises(BankFormatError, match="corrupt checkpoint"):
        load_checkpoint(path)
