"""The shared SEPB/SEPC reader and writer: v1 fixtures, corrupt files,
damaged files against the reference reader, interrupted writes.

`data/tiny_v1.sepb` (3 samples, dim 4, one without a mask, one non-ASCII
id) and `data/tiny_v1.sepc` (dim 4, n_keep 2, k_top 2, head_hidden 2) were
written by the v1 writers before they were merged into one; they pin the
on-disk bytes.
"""

import functools
import struct
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_bank
from conftest import make_params

from seps import bank as bank_module
from seps import cli, trainer
from seps.bank import FeatureBank, read_bank, write_bank
from seps.errors import BankFormatError, NumericalError, SepsError
from seps.trainer import load_checkpoint, save_checkpoint

DATA = Path(__file__).parent / "data"
SEPB = DATA / "tiny_v1.sepb"
SEPC = DATA / "tiny_v1.sepc"
READERS = {"sepb": (SEPB, read_bank), "sepc": (SEPC, load_checkpoint)}


def _reference_load_checkpoint(path):
    with mock.patch.object(trainer, "Reader", reference_bank.Reader):
        return load_checkpoint(path)


REFERENCE = {"sepb": reference_bank.read_bank, "sepc": _reference_load_checkpoint}


def test_v1_bank_fixture_rewrites_identically(tmp_path):
    data = read_bank(SEPB)
    assert [s.sample_id for s in data.samples] == ["s00000", "s00001", "s-ü2"]
    write_bank(data, tmp_path / "again.sepb")
    assert (tmp_path / "again.sepb").read_bytes() == SEPB.read_bytes()


def test_v1_checkpoint_fixture_rewrites_identically(tmp_path):
    params = load_checkpoint(SEPC)
    assert params.selection.dim == 4 and params.alignment.p2w.hid_w.shape == (2, 2)
    save_checkpoint(tmp_path / "again.sepc", params)
    assert (tmp_path / "again.sepc").read_bytes() == SEPC.read_bytes()


def _arrays(loaded) -> list[np.ndarray]:
    if isinstance(loaded, FeatureBank):
        return [a for s in loaded.samples for a in (
            s.patches, s.sparse_tokens, s.dense_tokens, s.relevance_mask) if a is not None]
    return [t.data for _, t in loaded.named()]


def _owner(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


@pytest.mark.parametrize("fmt", sorted(READERS))
def test_loaded_arrays_are_not_views_of_the_file(fmt):
    """One view of the file's bytes would keep the whole file alive: every
    array's base chain must end in an array that owns its memory, where a
    view of the file ends in one whose base is the file's bytes."""
    fixture, reader = READERS[fmt]
    file_view = np.frombuffer(memoryview(fixture.read_bytes()), np.uint8)[4:]
    assert not _owner(file_view).flags.owndata  # the check sees such a view
    arrays = _arrays(reader(fixture))
    assert arrays and all(_owner(a).flags.owndata and a.flags.c_contiguous for a in arrays)
    assert {a.dtype for a in arrays} <= {np.dtype(np.float64), np.dtype(np.int8)}


def _patched(blob: bytes, offset: int, new: bytes) -> bytes:
    out = bytearray(blob)
    out[offset:offset + len(new)] = new
    return bytes(out)


NAN = struct.pack("<f", float("nan"))
# offsets: SEPB sample id at 20, the first sample's mask flag at 134 and
# its first mask byte at 135, the mask-less second sample's flag at 256;
# SEPC first tensor name at 16, its rank at 23 (after the 7-byte
# "pred.w1") and its first float at 35
CORRUPT = {
    "sepb_id_not_utf8": (_patched(SEPB.read_bytes(), 20, b"\xff"), SEPC.read_bytes()),
    "sepb_mask_flag_2": (_patched(SEPB.read_bytes(), 134, b"\x02"), SEPC.read_bytes()),
    "sepb_mask_byte_2": (_patched(SEPB.read_bytes(), 135, b"\x02"), SEPC.read_bytes()),
    "sepb_maskless_flag_2": (_patched(SEPB.read_bytes(), 256, b"\x02"), SEPC.read_bytes()),
    "sepc_name_not_utf8": (SEPB.read_bytes(), _patched(SEPC.read_bytes(), 16, b"\xff")),
    "sepc_rank_9": (SEPB.read_bytes(), _patched(SEPC.read_bytes(), 23, b"\x09")),
    "sepc_nan_weight": (SEPB.read_bytes(), _patched(SEPC.read_bytes(), 35, NAN)),
}


@pytest.mark.parametrize("case", sorted(CORRUPT))
def test_corrupt_file_is_a_format_error_and_exits_two(case, tmp_path, capsys):
    bank_blob, ckpt_blob = CORRUPT[case]
    (tmp_path / "b.sepb").write_bytes(bank_blob)
    (tmp_path / "c.sepc").write_bytes(ckpt_blob)
    reader, path, kind = ((read_bank, tmp_path / "b.sepb", "bank") if case.startswith("sepb")
                          else (load_checkpoint, tmp_path / "c.sepc", "checkpoint"))
    with pytest.raises(BankFormatError, match=f"^corrupt {kind}$"):
        reader(path)
    assert cli.main(["eval", "--bank", str(tmp_path / "b.sepb"),
                     "--checkpoint", str(tmp_path / "c.sepc")]) == 2
    assert "corrupt" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", sorted(READERS))
@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_file_loads_or_raises_format_error(fmt, data, tmp_path):
    fixture, reader = READERS[fmt]
    blob = fixture.read_bytes()
    at = data.draw(st.integers(0, len(blob) - 1), label="offset")
    if data.draw(st.booleans(), label="truncate"):
        damaged = blob[:at]
    else:
        flip = data.draw(st.integers(1, 255), label="xor")
        damaged = _patched(blob, at, bytes([blob[at] ^ flip]))
    path = tmp_path / f"damaged.{fmt}"
    path.write_bytes(damaged)
    got = _outcome(reader, path)
    assert got == _outcome(REFERENCE[fmt], path)
    assert got[0] == "loaded" or not issubclass(got[1], NumericalError), got


def _outcome(reader, path) -> tuple:
    """The exception's class and message, or every loaded id, array, mask
    and knob as bytes, so that equal outcomes are bitwise equal. Any
    exception but a SepsError, such as numpy's ValueError, propagates."""
    try:
        loaded = reader(path)
    except SepsError as exc:
        return "raised", type(exc), str(exc)
    if isinstance(loaded, FeatureBank):
        knobs = [loaded.dim] + [s.sample_id for s in loaded.samples]
    else:
        knobs = [float(v).hex() for v in (
            loaded.selection.beta, loaded.selection.tau, loaded.selection.rho)]
    return "loaded", knobs, [(a.dtype.str, a.shape, a.tobytes()) for a in _arrays(loaded)]


class Interrupted(BaseException):
    """Stands in for a kill arriving in the middle of a write."""


class HalfWriter:
    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data: bytes) -> None:
        self.fh.write(data[:len(data) // 2])
        raise Interrupted()


@pytest.mark.parametrize("fmt", sorted(READERS))
def test_interrupted_write_keeps_previous_file(fmt, tmp_path, monkeypatch):
    fixture, reader = READERS[fmt]
    path = tmp_path / f"target.{fmt}"
    path.write_bytes(fixture.read_bytes())
    if fmt == "sepb":
        smaller = FeatureBank(dim=4, samples=read_bank(SEPB).samples[:2])
        write = functools.partial(write_bank, smaller, path)
    else:
        write = functools.partial(save_checkpoint, path, make_params(dim=3))

    def half_open(file, mode="r", *args, **kwargs):
        return HalfWriter(open(file, mode, *args, **kwargs))

    monkeypatch.setattr(bank_module, "open", half_open, raising=False)
    with pytest.raises(Interrupted):
        write()
    monkeypatch.undo()
    assert path.read_bytes() == fixture.read_bytes()
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # temp file removed
    reader(path)
    write()
    assert path.read_bytes() != fixture.read_bytes()
