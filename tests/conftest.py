"""Shared builders for tests: parameter sets and hand-constructed samples."""

from dataclasses import replace

import numpy as np
import pytest

from seps import autodiff as ad
from seps.bank import FeatureBank, Sample, SynthConfig, generate_synthetic
from seps.trainer import ModelParams, TrainConfig, init_params


def make_params(dim: int, n_patches: int = 4, n_keep: int = 2, k_top: int = 2,
                beta: float = 0.2, tau: float = 1.0, seed: int = 0,
                head_hidden: int = 0) -> ModelParams:
    cfg = TrainConfig(dim=dim, n_patches=n_patches, n_keep=n_keep, k_top=k_top,
                      beta=beta, tau=tau, seed=seed, head_hidden=head_hidden)
    return init_params(cfg)


def mul(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """Elementwise product of equal-shaped tensors; a finite-difference
    scalariser for tests, not a library op."""
    return ad.Tensor(a.data * b.data, parents=(a, b),
                     vjp=lambda g: (g * b.data, g * a.data), name="mul")


def sum_all(a: ad.Tensor) -> ad.Tensor:
    """Sum of every entry; the finite-difference scalariser for tests."""
    return ad.Tensor(np.sum(a.data), parents=(a,),
                     vjp=lambda g: (np.full(a.shape, g),), name="sum_all")


def finite_difference_check(f, point: ad.Tensor, step: float = ad.FD_STEP) -> float:
    """Max over coordinates of |analytic - central| / max(1, |analytic|) for
    the scalar `f(probe)`, probe a fresh leaf holding `point`'s data.

    Large errors are reported, never masked; a non-finite evaluation raises
    in the Tensor constructor.
    """
    probe = ad.tensor(point.data.copy(), requires_grad=True)
    analytic = ad.gradient(f(probe), [probe])[probe].data
    with ad.no_grad():
        numeric = np.array([ad.central_difference(lambda: f(probe).item(), probe, i, step)
                            for i in range(probe.size)]).reshape(probe.shape)
    denom = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def zero_params(params: ModelParams) -> ModelParams:
    for _, t in params.named():
        t.data = np.zeros_like(t.data)
    return params


def perturb_params(params: ModelParams, seed: int) -> ModelParams:
    """Add N(0, 0.3^2) noise to every tensor, so zero-initialised heads and
    biases carry gradients of their own."""
    rng = np.random.default_rng(seed)
    for _, t in params.named():
        t.data = t.data + 0.3 * rng.normal(size=t.shape)
    return params


def basis_sample(dim: int = 8, relevant=(0, 1), distractor=(4, 5),
                 sample_id: str = "basis") -> Sample:
    """Patches and tokens drawn from the standard basis.

    Relevant patches equal the caption tokens exactly; distractors are
    basis vectors orthogonal to every token, so attention separates the
    two groups with no noise anywhere.
    """
    eye = np.eye(dim)
    patch_idx = list(relevant) + list(distractor)
    mask = np.array([1] * len(relevant) + [0] * len(distractor), dtype=np.int8)
    return Sample(
        sample_id=sample_id,
        patches=eye[patch_idx].copy(),
        sparse_tokens=eye[list(relevant)].copy(),
        dense_tokens=eye[list(relevant)].copy(),
        relevance_mask=mask,
    )


def mixed_bank() -> FeatureBank:
    """Consecutive runs of different patch and word counts, one shape
    recurring after others, with masks missing or single-class mid-run."""
    runs = [dict(seed=31, n_samples=7, n_patches=9, n_sparse_words=2, n_dense_words=4),
            dict(seed=32, n_samples=5, n_patches=12, n_sparse_words=3, n_dense_words=5),
            dict(seed=33, n_samples=4, n_patches=9, n_sparse_words=1, n_dense_words=4),
            dict(seed=34, n_samples=3, n_patches=9, n_sparse_words=2, n_dense_words=4)]
    samples = []
    for run in runs:
        for sample in generate_synthetic(SynthConfig(dim=16, n_relevant_patches=3,
                                                     concept_count=64, **run)).samples:
            samples.append(replace(sample, sample_id=f"{run['seed']}-{sample.sample_id}"))
    for at, mask in ((2, None), (4, np.ones(9, dtype=np.int8)),
                     (8, np.zeros(12, dtype=np.int8)), (13, None)):
        samples[at] = replace(samples[at], relevance_mask=mask)
    return FeatureBank(dim=16, samples=samples)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
