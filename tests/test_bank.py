"""Feature-bank format, global embeddings, synthetic generation."""

import re
from dataclasses import replace

import numpy as np
import pytest

from seps.bank import (FeatureBank, Sample, SynthConfig, generate_synthetic,
                       global_embedding, read_bank, write_bank)
from seps.errors import BankFormatError, BankInvariantError, ConfigError
from seps.trainer import TrainConfig


def random_bank(rng: np.random.Generator) -> FeatureBank:
    dim = int(rng.integers(1, 6))
    samples = []
    for i in range(int(rng.integers(1, 4))):
        def mat(rows):
            return rng.normal(size=(rows, dim)).astype(np.float32).astype(np.float64)
        n = int(rng.integers(1, 5))
        mask = rng.integers(0, 2, size=n).astype(np.int8) if rng.random() < 0.5 else None
        samples.append(Sample(f"sam-ü{i}", mat(n), mat(int(rng.integers(1, 4))),
                              mat(int(rng.integers(1, 4))), mask))
    return FeatureBank(dim=dim, samples=samples)


def banks_equal(a: FeatureBank, b: FeatureBank) -> bool:
    if a.dim != b.dim or len(a.samples) != len(b.samples):
        return False
    for sa, sb in zip(a.samples, b.samples):
        if sa.sample_id != sb.sample_id:
            return False
        for fa, fb in ((sa.patches, sb.patches), (sa.sparse_tokens, sb.sparse_tokens),
                       (sa.dense_tokens, sb.dense_tokens)):
            if fa.shape != fb.shape or not np.array_equal(fa, fb):
                return False
        if (sa.relevance_mask is None) != (sb.relevance_mask is None):
            return False
        if sa.relevance_mask is not None and not np.array_equal(
                sa.relevance_mask, sb.relevance_mask):
            return False
    return True


def test_roundtrip_two_sample_bank(tmp_path):
    bank = random_bank(np.random.default_rng(0))
    path = tmp_path / "bank.sepb"
    write_bank(bank, path)
    again = read_bank(path)
    assert banks_equal(bank, again)
    # writing the reread bank reproduces the file byte for byte
    path2 = tmp_path / "bank2.sepb"
    write_bank(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_roundtrip_many_random_banks(tmp_path):
    rng = np.random.default_rng(42)
    path = tmp_path / "bank.sepb"
    for _ in range(60):
        bank = random_bank(rng)
        write_bank(bank, path)
        assert banks_equal(bank, read_bank(path))


def test_write_rejects_empty_sample(tmp_path):
    bad = FeatureBank(dim=3, samples=[Sample(
        "s0", np.zeros((0, 3)), np.ones((1, 3)), np.ones((1, 3)))])
    with pytest.raises(BankInvariantError, match="N >= 1 violated"):
        write_bank(bad, tmp_path / "bad.sepb")


@pytest.mark.parametrize("value", [1e39, -1e39, np.inf, np.nan])
def test_write_refuses_values_not_finite_as_float32(value, tmp_path):
    path = tmp_path / "bank.sepb"
    write_bank(random_bank(np.random.default_rng(0)), path)
    before = path.read_bytes()
    bad = random_bank(np.random.default_rng(1))
    bad.samples[-1].dense_tokens[0, 0] = value
    with pytest.raises(BankInvariantError, match="not finite as float32"):
        write_bank(bad, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_write_refuses_mask_outside_binary(tmp_path):
    path = tmp_path / "bank.sepb"
    write_bank(random_bank(np.random.default_rng(0)), path)
    before = path.read_bytes()
    bad = random_bank(np.random.default_rng(1))
    n = bad.samples[0].n_patches
    bad.samples[0] = replace(bad.samples[0], relevance_mask=np.array([2] + [0] * (n - 1)))
    message = f"{bad.samples[0].sample_id}: mask values outside {{0,1}}"
    with pytest.raises(BankInvariantError, match=f"^{re.escape(message)}$"):
        write_bank(bad, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_read_rejects_bad_magic(tmp_path):
    bank = random_bank(np.random.default_rng(1))
    path = tmp_path / "bank.sepb"
    write_bank(bank, path)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(BankFormatError, match="not a feature bank"):
        read_bank(path)


def test_read_rejects_version_mismatch(tmp_path):
    bank = random_bank(np.random.default_rng(2))
    path = tmp_path / "bank.sepb"
    write_bank(bank, path)
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(BankFormatError, match="unsupported version"):
        read_bank(path)


def test_read_rejects_truncation(tmp_path):
    bank = random_bank(np.random.default_rng(3))
    path = tmp_path / "bank.sepb"
    write_bank(bank, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 3])
    with pytest.raises(BankFormatError, match="corrupt bank"):
        read_bank(path)


def test_read_rejects_trailing_garbage(tmp_path):
    bank = random_bank(np.random.default_rng(4))
    path = tmp_path / "bank.sepb"
    write_bank(bank, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(BankFormatError, match="corrupt bank"):
        read_bank(path)


# ---------------------------------------------------------------------------
# global embedding


def test_global_embedding_normalizes_single_row():
    vec = global_embedding(np.array([[3.0, 4.0]]))
    np.testing.assert_array_equal(vec, [0.6, 0.8])


def test_global_embedding_flags_cancellation():
    vec = global_embedding(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert not vec.any()
    assert not np.signbit(vec).any()  # the exact zero vector


def test_global_embedding_matches_hand_computation():
    rng = np.random.default_rng(7)
    tokens = rng.normal(size=(4, 3))
    vec = global_embedding(tokens)
    mean = tokens.mean(axis=0)
    expected = mean / np.linalg.norm(mean)
    np.testing.assert_allclose(vec, expected, atol=1e-12)
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# synthetic banks


def test_synthetic_determinism():
    cfg = SynthConfig(n_samples=6, dim=8, n_patches=5, n_relevant_patches=2,
                      n_sparse_words=2, n_dense_words=3, concept_count=8, seed=9)
    assert banks_equal(generate_synthetic(cfg), generate_synthetic(cfg))


def test_synthetic_zero_noise_copies_concepts_exactly():
    cfg = SynthConfig(n_samples=5, dim=8, n_patches=6, n_relevant_patches=3,
                      n_sparse_words=2, n_dense_words=3, concept_count=10,
                      noise_sigma=0.0, seed=3)
    bank = generate_synthetic(cfg)
    for sample in bank.samples:
        dense = sample.dense_tokens
        relevant = sample.patches[sample.relevance_mask == 1]
        for patch in relevant:
            assert any(np.array_equal(patch, token) for token in dense)
        # a sparse token and its patch are the same vector, so cosine is 1
        token = sample.sparse_tokens[0]
        match = relevant[[np.array_equal(p, token) for p in relevant]]
        assert match.shape[0] >= 1
        cos = float(token @ match[0] / (np.linalg.norm(token) * np.linalg.norm(match[0])))
        assert cos == pytest.approx(1.0, abs=1e-12)


def test_synthetic_mask_cardinality_counting_oracle():
    cfg = SynthConfig(n_samples=10, dim=6, n_patches=7, n_relevant_patches=4,
                      n_sparse_words=1, n_dense_words=2, concept_count=6, seed=5)
    bank = generate_synthetic(cfg)
    for sample in bank.samples:
        count = sum(1 for v in sample.relevance_mask if v == 1)
        assert count == cfg.n_relevant_patches


def test_synthetic_distractors_near_orthogonal_on_average():
    cfg = SynthConfig(n_samples=30, dim=32, n_patches=8, n_relevant_patches=2,
                      n_sparse_words=2, n_dense_words=2, concept_count=16,
                      noise_sigma=0.0, seed=12)
    bank = generate_synthetic(cfg)
    cosines = []
    for sample in bank.samples:
        token = sample.sparse_tokens[0]
        for patch in sample.patches[sample.relevance_mask == 0]:
            cosines.append(token @ patch / (np.linalg.norm(token) * np.linalg.norm(patch)))
    assert abs(float(np.mean(cosines))) < 0.05


def test_synthetic_rejects_small_concept_pool():
    with pytest.raises(ConfigError, match="concept_count"):
        SynthConfig(concept_count=3, n_dense_words=4, n_sparse_words=2)


@pytest.mark.parametrize("sigma", [1e300, 1.7e308])  # float32, then float64 overflows
def test_synthetic_names_a_noise_sigma_that_overflows_float32(sigma):
    with pytest.raises(ConfigError, match="^noise_sigma overflows the float32 features"):
        generate_synthetic(SynthConfig(n_samples=2, dim=8, noise_sigma=sigma))


def test_synthetic_rejects_too_many_relevant():
    with pytest.raises(ConfigError):
        SynthConfig(n_patches=4, n_relevant_patches=5)


@pytest.mark.parametrize("field", ["dim", "n_patches"])
def test_synthetic_and_training_share_the_shape_rule(field):
    with pytest.raises(ConfigError) as synth:
        generate_synthetic(SynthConfig(**{field: 0}))
    with pytest.raises(ConfigError) as train:
        TrainConfig(**{field: 0})
    assert str(synth.value) == str(train.value) == f"{field} must be >= 1, got 0"
