"""The boolean-mask logistic: each tail is computed on the entries selected
by `x >= 0` and scattered into a fresh array.  It is the oracle that
`test_autodiff.py` holds `seps.autodiff.sigmoid_np` to, bit for bit; it is
test code, not a second kernel."""

import numpy as np


def sigmoid_np(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
