"""The copying SEPB/SEPC reader: each `take` copies its bytes out of the
file, and the reader checks each mask with `np.isin`. It is the oracle
that the damaged-file sweep in `test_fileio.py` holds
`seps.bank.read_bank` and `seps.trainer.load_checkpoint` to, outcome for
outcome; it is test code, not a second read path."""

import math
import struct

import numpy as np

from seps.bank import MAGIC, VERSION, FeatureBank, Sample
from seps.errors import BankFormatError


class Reader:
    """Cursor over a whole file; any malformed read raises BankFormatError."""

    def __init__(self, path, kind: str):
        with open(path, "rb") as fh:
            self.blob = fh.read()
        self.pos = 0
        self.kind = kind

    def corrupt(self) -> BankFormatError:
        return BankFormatError(f"corrupt {self.kind}")

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise self.corrupt()
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self) -> str:
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError:
            raise self.corrupt() from None

    def floats(self, shape: tuple[int, ...]) -> np.ndarray:
        """float32 block of the given shape, widened to float64; must be finite."""
        data = np.frombuffer(self.take(4 * math.prod(shape)), dtype="<f4")
        if not np.isfinite(data).all():
            raise self.corrupt()
        try:  # a zero dim lets the size check pass for any other dims
            return data.astype(np.float64).reshape(shape)
        except ValueError:
            raise self.corrupt() from None

    def finish(self) -> None:
        if self.pos != len(self.blob):
            raise self.corrupt()


def read_bank(path) -> FeatureBank:
    reader = Reader(path, "bank")
    if reader.take(4) != MAGIC:
        raise BankFormatError("not a feature bank")
    if reader.u32() != VERSION:
        raise BankFormatError("unsupported version")
    dim = reader.u32()
    n_samples = reader.u32()
    samples = []
    for _ in range(n_samples):
        sid = reader.text()
        mats = [reader.floats((reader.u32(), dim)) for _ in range(3)]
        mask = None
        flag = reader.take(1)[0]
        if flag == 1:
            mask = np.frombuffer(reader.take(mats[0].shape[0]), dtype=np.uint8).astype(np.int8)
        if flag > 1 or (mask is not None and not np.isin(mask, (0, 1)).all()):
            raise reader.corrupt()
        samples.append(Sample(sid, mats[0], mats[1], mats[2], mask))
    reader.finish()
    bank = FeatureBank(dim=dim, samples=samples)
    bank.validate()
    return bank
