"""Minimal reverse-mode differentiation substrate on float64 numpy arrays.

Tensors are immutable value holders that record their producing operation;
a Graph is the topologically ordered tape rooted at one output node.  All
kernels are deterministic, reject non-finite results, and use fixed
accumulation order so two identical runs are bitwise identical.

Subgradient conventions: clip passes gradient only strictly inside the
interval's closure, and straight_through forwards a constant while
backpropagating as identity.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import EmptySupportError, GraphError, NonFiniteError, ShapeError


EPS_NORM = 1e-8   # degenerate-range guard for min-max normalization
EPS_LOG = 1e-8    # additive guard before log
FD_STEP = 1e-6    # central-difference step

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (forward values only)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _as_f64(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim > 0 and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)  # keeps 0-d shape intact
    return arr


class Tensor:
    """Float64 array node in a compute graph.

    `parents`/`vjp` are empty for leaves.  `vjp` maps the upstream adjoint
    to one adjoint per parent (None for parents with no gradient path).
    """

    __slots__ = ("data", "parents", "vjp", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None,
                 parents: tuple["Tensor", ...] = (), vjp: Callable | None = None):
        self.data = _as_f64(data)
        if not np.all(np.isfinite(self.data)):
            raise NonFiniteError(f"non-finite values in tensor {name or '<anon>'}")
        self.parents = parents
        self.vjp = vjp
        self.requires_grad = requires_grad
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError("item() on non-scalar tensor")
        return float(self.data.reshape(()))

    def tracked(self) -> bool:
        return self.requires_grad or bool(self.parents)

    def __repr__(self) -> str:
        tag = self.name or ("leaf" if not self.parents else "node")
        return f"Tensor({tag}, shape={self.shape})"


def tensor(data, requires_grad: bool = False, name: str | None = None) -> Tensor:
    return Tensor(data, requires_grad=requires_grad, name=name)


def constant(data, name: str | None = None) -> Tensor:
    return Tensor(data, requires_grad=False, name=name)


def finite(what: str, *arrays: np.ndarray) -> np.ndarray:
    """Raise NonFiniteError, as a Tensor holding any of `arrays` would;
    returns the first array."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise NonFiniteError(f"non-finite values in {what}")
    return arrays[0]


def node(data: np.ndarray, parents: tuple[Tensor, ...], vjp: Callable, name: str) -> Tensor:
    """An op's output: recorded on the tape with `vjp` when a parent is
    tracked and gradients are enabled, a plain constant otherwise."""
    if _grad_enabled and any(p.tracked() for p in parents):
        return Tensor(data, parents=parents, vjp=vjp, name=name)
    return Tensor(data, name=name)


# ---------------------------------------------------------------------------
# elementwise kernels


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape and a.shape != () and b.shape != ():
        raise ShapeError(f"add shapes {a.shape} vs {b.shape}")
    out = a.data + b.data

    def vjp(g):
        ga = g if a.shape == out.shape else np.sum(g)
        gb = g if b.shape == out.shape else np.sum(g)
        return ga, gb

    return node(out, (a, b), vjp, "add")


def neg(a: Tensor) -> Tensor:
    return node(-a.data, (a,), lambda g: (-g,), "neg")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return node(a.data * c, (a,), lambda g: (g * c,), "scale")


def add_scalar(a: Tensor, c: float) -> Tensor:
    return node(a.data + float(c), (a,), lambda g: (g,), "add_scalar")


def log(a: Tensor) -> Tensor:
    ad = a.data
    with np.errstate(divide="ignore", invalid="ignore"):  # -> NonFiniteError
        out = np.log(ad)

    def vjp(g):
        return (g / ad,)

    return node(out, (a,), vjp, "log")


def sigmoid(a: Tensor) -> Tensor:
    """Elementwise logistic function; gradient y*(1-y)."""
    out = sigmoid_np(a.data)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return node(out, (a,), vjp, "sigmoid")


def sigmoid_np(x: np.ndarray) -> np.ndarray:
    # Stable in both tails; never overflows.
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def log_sigmoid(a: Tensor) -> Tensor:
    """log(sigmoid(x)) computed without underflow to -inf."""
    ad = a.data
    out = -np.logaddexp(0.0, -ad)

    def vjp(g):
        return (g * sigmoid_np(-ad),)

    return node(out, (a,), vjp, "log_sigmoid")


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return node(out, (a,), vjp, "tanh")


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes on the closed interval interior."""
    ad = a.data
    out = np.clip(ad, lo, hi)
    gate = (ad >= lo) & (ad <= hi)

    def vjp(g):
        return (g * gate,)

    return node(out, (a,), vjp, "clip")


def straight_through(soft: Tensor, hard: np.ndarray) -> Tensor:
    """Forward the constant `hard`, backpropagate as identity into `soft`."""
    hard = _as_f64(hard)
    if hard.shape != soft.shape:
        raise ShapeError(f"straight_through shapes {hard.shape} vs {soft.shape}")
    return node(hard.copy(), (soft,), lambda g: (g,), "straight_through")


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim not in (1, 2) or ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul shapes {ad.shape} vs {bd.shape}")
    out = ad @ bd

    if bd.ndim == 2:
        def vjp(g):
            return g @ bd.T, ad.T @ g
    else:
        def vjp(g):
            return np.outer(g, bd), ad.T @ g

    return node(out, (a, b), vjp, "matmul")


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError("transpose expects a matrix")
    return node(a.data.T.copy(), (a,), lambda g: (g.T,), "transpose")


def mean_all(a: Tensor) -> Tensor:
    if a.size == 0:
        raise ShapeError("mean of empty tensor")
    shape, n = a.shape, a.size

    def vjp(g):
        return (np.full(shape, g / n),)

    return node(np.mean(a.data), (a,), vjp, "mean_all")


def scale_rows(a: Tensor, s: Tensor) -> Tensor:
    ad, sd = a.data, s.data
    if ad.ndim != 2 or sd.shape != (ad.shape[0],):
        raise ShapeError(f"scale_rows shapes {ad.shape} vs {sd.shape}")
    out = ad * sd[:, None]

    def vjp(g):
        return g * sd[:, None], np.sum(g * ad, axis=1)

    return node(out, (a, s), vjp, "scale_rows")


def add_rowvec(a: Tensor, v: Tensor) -> Tensor:
    """Add v to every row of a (bias over the trailing axis)."""
    ad, vd = a.data, v.data
    if ad.ndim != 2 or vd.shape != (ad.shape[1],):
        raise ShapeError(f"add_rowvec shapes {ad.shape} vs {vd.shape}")

    def vjp(g):
        return g, np.sum(g, axis=0)

    return node(ad + vd[None, :], (a, v), vjp, "add_rowvec")


def add_colvec(a: Tensor, v: Tensor) -> Tensor:
    """Add v_i to every entry of row i."""
    ad, vd = a.data, v.data
    if ad.ndim != 2 or vd.shape != (ad.shape[0],):
        raise ShapeError(f"add_colvec shapes {ad.shape} vs {vd.shape}")

    def vjp(g):
        return g, np.sum(g, axis=1)

    return node(ad + vd[:, None], (a, v), vjp, "add_colvec")


# ---------------------------------------------------------------------------
# structured ops


def softmax_columns(x: Tensor, support: np.ndarray | None = None) -> Tensor:
    """Column-wise softmax over the rows listed in `support`.

    Rows outside the support are exactly zero in the output and receive no
    gradient.  Raises if the support is empty.
    """
    xd = x.data
    if xd.ndim != 2:
        raise ShapeError("softmax_columns expects a matrix")
    n, m = xd.shape
    if n == 0 or m == 0:
        raise ShapeError("softmax_columns on empty matrix")
    if support is None:
        keep = np.ones(n, dtype=bool)
    else:
        keep = np.asarray(support, dtype=bool)
        if keep.shape != (n,):
            raise ShapeError(f"support shape {keep.shape} for {xd.shape} matrix")
    if not keep.any():
        raise EmptySupportError("empty softmax support")

    out = _softmax_columns_np(xd, keep)

    def vjp(g):
        inner = np.sum(g * out, axis=0, keepdims=True)
        return (out * (g - inner),)

    return node(out, (x,), vjp, "softmax_columns")


def _softmax_columns_np(xd: np.ndarray, keep: np.ndarray) -> np.ndarray:
    rows = xd[keep]
    shifted = rows - np.max(rows, axis=0, keepdims=True)
    e = np.exp(shifted)
    w = e / np.sum(e, axis=0, keepdims=True)
    out = np.zeros_like(xd)
    out[keep] = w
    return out


def stack(parts: Sequence[Tensor], shape: tuple[int, ...]) -> Tensor:
    """Assemble scalar tensors into one array of the given shape."""
    parts = tuple(parts)
    if any(p.size != 1 for p in parts):
        raise ShapeError("stack expects scalar tensors")
    if int(np.prod(shape)) != len(parts):
        raise ShapeError(f"stack of {len(parts)} scalars into shape {shape}")
    data = np.array([p.data.reshape(()) for p in parts], dtype=np.float64).reshape(shape)

    def vjp(g):
        flat = g.reshape(-1)
        return tuple(flat[i] for i in range(len(parts)))

    return node(data, parts, vjp, "stack")


# ---------------------------------------------------------------------------
# graph and gradients


class Graph:
    """Topologically ordered tape from leaves to one output node."""

    def __init__(self, output: Tensor):
        self.output = output
        self.nodes = self._toposort(output)

    @staticmethod
    def _toposort(root: Tensor) -> list[Tensor]:
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            # reversed so parents expand in declared order
            for parent in reversed(node.parents):
                if id(parent) not in seen:
                    stack.append((parent, False))
        return order

    def backward(self) -> dict[int, np.ndarray]:
        """Accumulate adjoints in reverse topological order."""
        if self.output.data.shape != ():
            raise GraphError("gradient of non-scalar output")
        adj: dict[int, np.ndarray] = {id(self.output): np.ones(())}
        for node in reversed(self.nodes):
            g = adj.get(id(node))
            if g is None or node.vjp is None:
                continue
            parent_grads = node.vjp(g)
            for parent, pg in zip(node.parents, parent_grads):
                if pg is None or not parent.tracked():
                    continue
                pg = np.asarray(pg, dtype=np.float64)
                key = id(parent)
                if key in adj:
                    adj[key] = adj[key] + pg
                else:
                    adj[key] = pg
        return adj


def gradient(output: Tensor, wrt: Iterable[Tensor] | None = None) -> dict[Tensor, Tensor]:
    """Reverse-mode gradients of a scalar output for every requested leaf.

    Leaves not reached by any path get a zero gradient of matching shape.
    """
    graph = Graph(output)
    adj = graph.backward()
    if wrt is None:
        leaves = [n for n in graph.nodes if n.requires_grad and not n.parents]
    else:
        leaves = list(wrt)
    out: dict[Tensor, Tensor] = {}
    for leaf in leaves:
        g = adj.get(id(leaf))
        if g is None:
            g = np.zeros(leaf.shape)
        elif np.asarray(g).shape != leaf.shape:
            g = np.broadcast_to(g, leaf.shape).copy()
        out[leaf] = constant(g, name="grad")
    return out


def central_difference(loss: Callable[[], float], tensor: Tensor, index: int,
                       step: float = FD_STEP) -> float:
    """Central difference of `loss()` in one flat coordinate of `tensor`,
    whose data is restored afterwards even if `loss` raises."""
    original = tensor.data
    bumped = original.copy().reshape(-1)
    try:
        bumped[index] += step
        tensor.data = bumped.reshape(original.shape)
        hi = loss()
        bumped[index] -= 2.0 * step
        lo = loss()
    finally:
        tensor.data = original
    return (hi - lo) / (2.0 * step)
