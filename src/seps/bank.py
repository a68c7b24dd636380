"""Feature banks: on-disk format, global embeddings and attention views,
synthetic generation.

The reader and the atomic writer here also serve the SEPC checkpoints,
which share the length-prefixed little-endian layout.

A bank holds per-sample patch features, sparse-text token features,
dense-text token features, and an optional ground-truth relevance mask.
Features are stored float32 on disk ("SEPB" v1, little-endian) and widened
to float64 in memory; the generator emits float32-representable values so
write->read roundtrips are bit-exact.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .autodiff import EPS_NORM
from .errors import BankFormatError, BankInvariantError, ConfigError, check_fields

MAGIC = b"SEPB"
VERSION = 1


def is_binary(mask: np.ndarray) -> bool:
    """The relevance-mask rule: every value is 0 or 1."""
    return bool(((mask == 0) | (mask == 1)).all())


FEATURES = ("patches", "sparse_tokens", "dense_tokens")


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Sample:
    """One image with its co-indexed captions, as precomputed features.
    Frozen, with every array read-only, so `views` cannot go stale: a
    caller's writeable array is copied, a read-only one kept (the caller
    must not write to its memory through another view)."""

    sample_id: str
    patches: np.ndarray        # N x d
    sparse_tokens: np.ndarray  # M x d
    dense_tokens: np.ndarray   # M_d x d
    relevance_mask: np.ndarray | None = None  # length N, values in {0,1}

    def __post_init__(self) -> None:
        for name in (*FEATURES, "relevance_mask"):
            if getattr(self, name) is not None:
                arr = np.asarray(getattr(self, name))
                object.__setattr__(self, name, _frozen(arr.copy()) if arr.flags.writeable else arr)

    @property
    def n_patches(self) -> int:
        return self.patches.shape[0]

    @functools.cached_property
    def views(self) -> tuple[np.ndarray, ...]:
        """Sparse-text, dense-text and image-self attention of every patch;
        derived on first read and kept, the only place views are derived."""
        return tuple(_frozen(attention_scores(self.patches, global_embedding(tokens)))
                     for tokens in (self.sparse_tokens, self.dense_tokens, self.patches))

    def validate(self, dim: int, mask_values: bool = True) -> None:
        for name in FEATURES:
            arr = getattr(self, name)
            if arr.ndim != 2 or arr.shape[0] < 1:
                raise BankInvariantError(f"{self.sample_id}: N >= 1 violated for {name}")
            if arr.shape[1] != dim:
                raise BankInvariantError(f"{self.sample_id}: {name} dim {arr.shape[1]} != {dim}")
        if self.relevance_mask is not None:
            mask = self.relevance_mask
            if mask.shape != (self.patches.shape[0],):
                raise BankInvariantError(f"{self.sample_id}: mask length != N")
            if mask_values and not is_binary(mask):
                raise BankInvariantError(f"{self.sample_id}: mask values outside {{0,1}}")


@dataclass
class FeatureBank:
    dim: int
    samples: list[Sample] = field(default_factory=list)

    def validate(self, mask_values: bool = True) -> None:
        if self.dim < 1:
            raise BankInvariantError("dim must be >= 1")
        if not self.samples:
            raise BankInvariantError("bank has no samples")
        ids = [s.sample_id for s in self.samples]
        if len(set(ids)) != len(ids):
            raise BankInvariantError("duplicate sample ids")
        for sample in self.samples:
            sample.validate(self.dim, mask_values)

    def by_id(self, sample_id: str) -> Sample:
        for sample in self.samples:
            if sample.sample_id == sample_id:
                return sample
        raise BankInvariantError(f"unknown sample id: {sample_id}")

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class SynthConfig:
    n_samples: int = 64
    dim: int = 32
    n_patches: int = 16
    n_relevant_patches: int = 4
    n_sparse_words: int = 2
    n_dense_words: int = 4
    concept_count: int = 256
    noise_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        for small, large in (("n_relevant_patches", "n_patches"),
                             ("n_sparse_words", "n_dense_words"), ("n_dense_words", "concept_count")):
            if getattr(self, small) > getattr(self, large):
                raise ConfigError(f"{small} <= {large} violated")


# ---------------------------------------------------------------------------
# binary io: the length-prefixed little-endian layout shared by SEPB and SEPC


def text_chunk(value: str) -> bytes:
    raw = value.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def write_atomic(path, chunks: list[bytes]) -> None:
    """Write a sibling temp file, then rename it over `path`, so an
    interrupted write leaves the previous file whole."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(chunks))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class Reader:
    """Cursor over a memoryview of a whole file; any malformed read raises
    BankFormatError. A float32 block read as float32 is a view of the file,
    which keeps the whole file alive; widening copies it once."""

    def __init__(self, path, kind: str):
        with open(path, "rb") as fh:
            self.buf = memoryview(fh.read())
        self.pos = 0
        self.kind = kind

    def corrupt(self) -> BankFormatError:
        return BankFormatError(f"corrupt {self.kind}")

    def skip(self, n: int) -> int:
        """Step over n bytes; returns their offset."""
        start = self.pos
        if start + n > len(self.buf):
            raise self.corrupt()
        self.pos += n
        return start

    def take(self, n: int) -> memoryview:
        return self.buf[self.skip(n):self.pos]

    def u32(self) -> int:
        return struct.unpack_from("<I", self.buf, self.skip(4))[0]

    def text(self) -> str:
        try:
            return str(self.take(self.u32()), "utf-8")
        except UnicodeDecodeError:
            raise self.corrupt() from None

    def floats(self, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """float32 block of the given shape, as `dtype`; must be finite."""
        count = math.prod(shape)
        data = np.frombuffer(self.buf, "<f4", count, self.skip(4 * count))
        if not np.isfinite(data).all():
            raise self.corrupt()
        try:  # a zero dim lets the size check pass for any other dims
            return data.astype(dtype, copy=False).reshape(shape)
        except ValueError:
            raise self.corrupt() from None

    def finish(self) -> None:
        if self.pos != len(self.buf):
            raise self.corrupt()


def write_bank(bank: FeatureBank, path) -> None:
    """Refuses features that are not finite as float32, which `read_bank`
    would reject, before anything is written."""
    bank.validate()
    chunks = [MAGIC, struct.pack("<III", VERSION, bank.dim, len(bank.samples))]
    for sample in bank.samples:
        chunks.append(text_chunk(sample.sample_id))
        for arr in (sample.patches, sample.sparse_tokens, sample.dense_tokens):
            with np.errstate(over="ignore"):
                narrowed = np.ascontiguousarray(arr, dtype="<f4")
            if not np.isfinite(narrowed).all():
                raise BankInvariantError(f"{sample.sample_id}: not finite as float32")
            chunks.append(struct.pack("<I", arr.shape[0]))
            chunks.append(narrowed.tobytes())
        if sample.relevance_mask is None:
            chunks.append(struct.pack("<B", 0))
        else:
            chunks.append(struct.pack("<B", 1))
            chunks.append(np.asarray(sample.relevance_mask, dtype=np.uint8).tobytes())
    write_atomic(path, chunks)


def read_bank(path) -> FeatureBank:
    reader = Reader(path, "bank")
    if reader.take(4) != MAGIC:
        raise BankFormatError("not a feature bank")
    if reader.u32() != VERSION:
        raise BankFormatError("unsupported version")
    dim = reader.u32()
    n_samples = reader.u32()
    entries = []
    for _ in range(n_samples):
        sid = reader.text()
        blocks = [reader.floats((reader.u32(), dim), "<f4") for _ in FEATURES]
        mask = None
        flag = reader.take(1)[0]
        if flag == 1:
            mask = _frozen(np.frombuffer(reader.take(len(blocks[0])), np.uint8).astype(np.int8))
        if flag > 1 or (mask is not None and not is_binary(mask)):
            raise reader.corrupt()
        entries.append((sid, blocks, mask))
    reader.finish()
    # a run of samples of one shape holds each field in one buffer, widened by one call, not per block
    samples = []
    for _, run in itertools.groupby(entries, key=lambda e: [b.shape for b in e[1]]):
        run = list(run)
        buffers = [_frozen(np.array(field, np.float64)) for field in zip(*(e[1] for e in run))]
        samples += [Sample(sid, *(buf[at] for buf in buffers), mask)
                    for at, (sid, _, mask) in enumerate(run)]
    bank = FeatureBank(dim=dim, samples=samples)
    bank.validate(mask_values=False)  # the reader has applied is_binary to each mask
    return bank


# ---------------------------------------------------------------------------
# embeddings and synthesis


def global_embedding(tokens: np.ndarray) -> np.ndarray:
    """L2-normalized mean of K x d token rows, one sample's caption or patches.

    A (near-)zero mean is returned as the exact zero vector, never
    normalized.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim != 2 or tokens.shape[0] < 1:
        raise BankInvariantError("global_embedding expects K x d with K >= 1")
    mean = tokens.mean(axis=0)
    norm = np.linalg.norm(mean)
    # ~(norm < eps) rather than norm >= eps, so a NaN norm is divided, not zeroed
    return np.divide(mean, norm, out=np.zeros_like(mean), where=~(norm < EPS_NORM))


def attention_scores(patches: np.ndarray, embedding: np.ndarray) -> np.ndarray:
    """Scaled dot-product attention of N x d patches against a global
    embedding, min-max normalized to [0,1].

    The raw score divides by the feature dimension d; a range that is
    degenerate (below eps_norm) maps every patch to 0.5.
    """
    patches = np.asarray(patches, dtype=np.float64)
    raw = patches @ np.asarray(embedding, dtype=np.float64) / patches.shape[1]
    lo, hi = raw.min(), raw.max()
    return np.where(hi - lo < EPS_NORM, 0.5, (raw - lo) / (hi - lo + EPS_NORM))


def _f32_exact(arr: np.ndarray) -> np.ndarray:
    # round-trip through float32 so the disk format preserves every bit;
    # read-only, so the Sample keeps it rather than a copy
    return _frozen(arr.astype(np.float32).astype(np.float64))


# distractors sit at half the concept amplitude: present, but less salient
# than concept-bearing patches, like background clutter
DISTRACTOR_SCALE = 0.5

_SUBSET_RETRIES = 200


def generate_synthetic(cfg: SynthConfig) -> FeatureBank:
    """Latent-concept bank with known patch relevance.

    Unit concept vectors are drawn once; each sample picks a dense concept
    subset whose first `n_sparse_words` entries form the sparse caption.
    Sparse words are kept globally distinct across samples while the pool
    allows it, so captions stay discriminative.  Relevant patches are noisy
    copies of sample concepts, distractors are isotropic noise at half the
    concept amplitude, and the mask marks the concept-bearing patches.
    Fully deterministic under the seed.
    """
    rng = np.random.default_rng(cfg.seed)
    concepts = rng.normal(size=(cfg.concept_count, cfg.dim))
    concepts /= np.linalg.norm(concepts, axis=1, keepdims=True)

    root = 1.0 / np.sqrt(cfg.dim)
    samples = []
    used_words: set[int] = set()
    for index in range(cfg.n_samples):
        chosen = rng.choice(cfg.concept_count, size=cfg.n_dense_words, replace=False)
        for _ in range(_SUBSET_RETRIES):
            if not used_words.intersection(chosen[:cfg.n_sparse_words].tolist()):
                break
            chosen = rng.choice(cfg.concept_count, size=cfg.n_dense_words, replace=False)
        used_words.update(chosen[:cfg.n_sparse_words].tolist())
        dense = concepts[chosen]
        sparse = concepts[chosen[:cfg.n_sparse_words]]

        patches = np.empty((cfg.n_patches, cfg.dim))
        mask = np.zeros(cfg.n_patches, dtype=np.int8)
        mask[:cfg.n_relevant_patches] = 1
        with np.errstate(over="ignore"):  # an overflow -> ConfigError below
            for k in range(cfg.n_relevant_patches):
                noise = rng.normal(size=cfg.dim) * root * cfg.noise_sigma
                patches[k] = dense[k % cfg.n_dense_words] + noise
            for k in range(cfg.n_relevant_patches, cfg.n_patches):
                patches[k] = rng.normal(size=cfg.dim) * root * DISTRACTOR_SCALE
            order = rng.permutation(cfg.n_patches)
            features = _f32_exact(patches[order])
        if not np.isfinite(features).all():
            raise ConfigError(f"noise_sigma overflows the float32 features, got {cfg.noise_sigma}")
        samples.append(Sample(
            sample_id=f"s{index:05d}",
            patches=features,
            sparse_tokens=_f32_exact(sparse),
            dense_tokens=_f32_exact(dense),
            relevance_mask=_frozen(mask[order]),
        ))
    return FeatureBank(dim=cfg.dim, samples=samples)


def stable_id_hash(sample_id: str) -> int:
    """Deterministic across processes, unlike Python's salted hash()."""
    return zlib.crc32(sample_id.encode("utf-8"))
