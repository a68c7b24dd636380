"""Minimal reverse-mode differentiation substrate on float64 numpy arrays.

Tensors are immutable value holders that record their producing operation;
a Graph is the topologically ordered tape rooted at one output node.  All
kernels are deterministic, reject non-finite results, and use fixed
accumulation order so two identical runs are bitwise identical.  The
backward runs the nodes in the reverse of the order in which they were
created, each numbered by one process-wide counter, so a tensor's adjoint
is its contributions summed left to right in that order (one node's, in
the order of its parents).  Most ops
live next to the model code that uses them, as one `node` each with a
hand-written vjp; this module keeps the few generic ones.

A vjp may return None for a parent whose adjoint is exactly zero (`stack`
does so for each ±0.0 cell): a subgraph no adjoint reaches is skipped with
its vjps, and a leaf only skipped paths reach gets +0.0 from `gradient()`.
Every nonzero gradient keeps its bits: a vjp is linear in its adjoint, so
a zero adjoint yields only ±0.0 terms, and x + (±0.0) == x for x != 0.
Only an entry whose true value is zero can differ, in its sign.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from operator import attrgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import GraphError, NonFiniteError, ShapeError


EPS_NORM = 1e-8   # degenerate-range guard for min-max normalization
EPS_LOG = 1e-8    # additive guard before log
FD_STEP = 1e-6    # central-difference step
_F64 = np.dtype(np.float64)

_grad_enabled = True
_created = itertools.count()  # next() is atomic under the GIL


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
    if type(data) is np.ndarray and data.dtype is _F64 and data.flags.c_contiguous:
        return data  # a kernel's output, as it usually is
    return np.asarray(data, dtype=np.float64, order="C")  # keeps 0-d shape intact


class Tensor:
    """Float64 array node in a compute graph, C-contiguous and finite.

    `parents`/`vjp` are empty for leaves.  `vjp` maps the upstream adjoint
    to one adjoint per parent (None for parents with no gradient path).
    """

    __slots__ = ("data", "parents", "vjp", "requires_grad", "name", "seq")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None,
                 parents: tuple["Tensor", ...] = (), vjp: Callable | None = None):
        self.data = finite(f"tensor {name or '<anon>'}", _as_f64(data))
        self.parents = parents
        self.vjp = vjp
        self.requires_grad = requires_grad
        self.name = name
        self.seq = next(_created)

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
    for a in arrays:
        if not (math.isfinite(a) if a.ndim == 0 else np.isfinite(a).all()):
            raise NonFiniteError(f"non-finite values in {what}")
    return arrays[0]


def node(data: np.ndarray, parents: tuple[Tensor, ...], vjp: Callable, name: str) -> Tensor:
    """An op's output: recorded on the tape with `vjp` when a parent is
    tracked and gradients are enabled, a plain constant otherwise."""
    return finite_node(finite(f"tensor {name}", _as_f64(data)), parents, vjp, name)


def finite_node(data: np.ndarray, parents: tuple[Tensor, ...], vjp: Callable,
                name: str) -> Tensor:
    """`node` without Tensor's check, for a value checked or finite by construction."""
    t = Tensor.__new__(Tensor)
    t.data, t.name, t.requires_grad, t.parents, t.vjp, t.seq = (
        _as_f64(data), name, False, (), None, next(_created))
    if _grad_enabled:
        for p in parents:
            if p.requires_grad or p.parents:
                t.parents, t.vjp = parents, vjp
                break
    return t


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


def sigmoid(a: Tensor) -> Tensor:
    """Elementwise logistic function; gradient y*(1-y)."""
    out = sigmoid_np(a.data)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return finite_node(out, (a,), vjp, "sigmoid")  # of a finite tensor: in [0, 1]


def sigmoid_np(x: np.ndarray) -> np.ndarray:
    # never overflows: min(x, -x) is -|x|, and a NaN keeps its bits
    e = np.exp(np.minimum(x, -x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def straight_through(soft: Tensor, hard: np.ndarray) -> Tensor:
    """Forward the constant `hard`, backpropagate as identity into `soft`."""
    hard = _as_f64(hard)
    if hard.shape != soft.shape:
        raise ShapeError(f"straight_through shapes {hard.shape} vs {soft.shape}")
    return node(hard.copy(), (soft,), lambda g: (g,), "straight_through")


# ---------------------------------------------------------------------------
# structured ops


def stack(parts: Sequence[Tensor], shape: tuple[int, ...]) -> Tensor:
    """Assemble scalar tensors into one array of the given shape.

    The backward hands each part its cell of the upstream adjoint, or None
    where that cell is ±0.0, so that part's subgraph is skipped.
    """
    parts = tuple(parts)
    if any(p.size != 1 for p in parts):
        raise ShapeError("stack expects scalar tensors")
    if int(np.prod(shape)) != len(parts):
        raise ShapeError(f"stack of {len(parts)} scalars into shape {shape}")
    data = np.array([p.data.reshape(()) for p in parts], dtype=np.float64).reshape(shape)

    def vjp(g):
        return tuple(None if cell == 0.0 else cell for cell in g.reshape(-1))

    return node(data, parts, vjp, "stack")


# ---------------------------------------------------------------------------
# graph and gradients


class Graph:
    """The nodes one output reaches, in creation order, leaves included."""

    def __init__(self, output: Tensor):
        self.output = output
        self.nodes = self._toposort(output)

    @staticmethod
    def _toposort(root: Tensor) -> list[Tensor]:
        # every node the root reaches, in creation order: parents come first
        seen, stack = {root}, [root]
        while stack:
            for parent in stack.pop().parents:
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        return sorted(seen, key=attrgetter("seq"))

    def backward(self) -> dict[int, np.ndarray]:
        """Accumulate adjoints in reverse creation order; a None vjp
        entry adds nothing, and a node no adjoint reaches is skipped."""
        if self.output.data.shape != ():
            raise GraphError("gradient of non-scalar output")
        adj: dict[int, np.ndarray] = {id(self.output): np.ones(())}
        for node in reversed(self.nodes):
            g = adj.get(id(node))
            if g is None or node.vjp is None:
                continue
            parent_grads = node.vjp(g)
            for parent, pg in zip(node.parents, parent_grads):
                if pg is None or not (parent.requires_grad or parent.parents):
                    continue
                key = id(parent)
                prev = adj.get(key)
                adj[key] = np.asarray(pg, dtype=np.float64) if prev is None else prev + pg
        return adj


def gradient(output: Tensor, wrt: Iterable[Tensor] | None = None) -> dict[Tensor, Tensor]:
    """Reverse-mode gradients of a scalar output for every requested leaf.

    Leaves not reached by any path, or reached only through adjoints a vjp
    dropped as exactly zero, get a +0.0 gradient of matching shape.
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
