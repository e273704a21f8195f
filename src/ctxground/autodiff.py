"""Minimal deterministic tensor engine with reverse-mode automatic differentiation.

A tensor is a numpy array (float32 or float64) plus, when it requires a
gradient, a graph node: the gradient slot and graph edge, which links
parent nodes and a backward function but not the values. Each backward
function closes over exactly the arrays it reads: `linear` and
`feed_forward` their input, reading the weights through their tensors
(`feed_forward` also its first GEMM's output), `mul` an operand
only when the other one needs a gradient, `dropout` its bool mask,
`layer_norm` the normalized input and inverse deviation; `add`,
`reshape`, `transpose`, `sum`, `mean` and `take_rows` keep no input
values. So an output that no backward reads dies when the forward
drops its tensor. `layer_norm` and `feed_forward` run one row-blocked
chain; a graph only keeps what their backward reads at full size.
`backward` replays the graph in reverse topological order once and
releases each op node, with its gradient and saved arrays, right after
its turn. The ops: broadcasting add and multiply, fused linear
layers, masked softmax, fused multi-head attention, layer norm (with an
optional residual operand), the fused GELU feed-forward block, dropout,
binary cross entropy on logits, gathers and reductions.

Non-finite results are an error, never silent: every op validates its
output and raises :class:`NonFiniteError` on NaN/Inf. Every tensor
operand of an op has the output's dtype; a mix raises TypeError.
"""

from __future__ import annotations

import math
import weakref
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.array_utils import normalize_axis_tuple
from scipy.special import erf

__all__ = [
    "Tensor",
    "Node",
    "ShapeError",
    "NonFiniteError",
    "no_grad",
    "constant",
    "parameter",
    "linear",
    "softmax_lastdim",
    "attention",
    "layer_norm",
    "bce_with_logits",
    "dropout",
    "feed_forward",
    "take_rows",
    "backward",
    "topo_order",
    "zero_grads",
    "arena_view",
    "arena_slots",
    "zeros_arena",
    "finite_diff_check",
]

_FLOAT_DTYPES = (np.float32, np.float64)


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible; names both shapes."""


class NonFiniteError(ArithmeticError):
    """Raised when an operation produces NaN or Inf."""


# Grad mode is per thread (and per asyncio task): a `no_grad` block in one
# thread never stops graph recording in another.
_grad_enabled: ContextVar[bool] = ContextVar("ctxground_grad_enabled", default=True)


@contextmanager
def no_grad():
    """Disable graph recording inside the block (forward-only evaluation)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values in output of {op}")


class Node:
    """A gradient slot and graph edge: a leaf's (a parameter's) without
    parents or backward function, an op's with both. It keeps its tensor's
    shape and dtype for `_first_grad`, never its values."""

    __slots__ = ("grad", "parked", "parents", "backward_fn", "shape", "dtype", "__weakref__")

    def __init__(self, values: np.ndarray, parents: tuple[Node, ...] = (),
                 backward_fn: Callable[[np.ndarray], None] | None = None):
        self.grad = self.parked = None
        self.parents, self.backward_fn = parents, backward_fn
        self.shape, self.dtype = values.shape, values.dtype


class Tensor:
    """N-dimensional array with a graph node when it requires a gradient.

    Only leaf parameters' values are updated in place (by the optimizer,
    between graphs). `grad` reads and writes the node's slot: a leaf's
    accumulates across backward calls until cleared; an op node holds a
    gradient only while `backward` runs."""

    __slots__ = ("values", "node", "__weakref__")

    def __init__(self, values, requires_grad: bool = False, dtype=None):
        arr = np.asarray(values, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        _check_finite(arr, "tensor")
        self.values: np.ndarray = arr
        self.node: Node | None = Node(arr) if requires_grad else None

    # -- introspection -------------------------------------------------

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        if self.node is not None or g is not None:  # a constant's can only be set to None
            self.node.grad = g

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    def item(self) -> float:
        return float(self.values)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"

    # -- operators -------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(_as_tensor(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(_as_tensor(other, self.dtype), self)

    def sum(self, axis=None):
        return tsum(self, axis)

    def mean(self):
        return tmean(self)

    def reshape(self, shape: tuple[int, ...]):
        return reshape(self, shape)

    def transpose(self, axes: Sequence[int]):
        return transpose(self, axes)


def constant(values, dtype=None) -> Tensor:
    """Tensor that never requires a gradient."""
    return Tensor(values, requires_grad=False, dtype=dtype)


def parameter(values, dtype=None) -> Tensor:
    """Leaf tensor tracked by the optimizer."""
    return Tensor(values, requires_grad=True, dtype=dtype)


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype), requires_grad=False)


def _recording(parents: tuple[Tensor, ...]) -> bool:
    """Whether an op over `parents` records a graph node."""
    return _grad_enabled.get() and any(p.node is not None for p in parents)


def _make(out_values: np.ndarray, op: str, parents: tuple[Tensor, ...],
          backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """The op's output, checked for non-finite values, with its node if recorded."""
    _check_finite(out_values, op)
    return _attach(out_values, op, parents, backward_fn)


def _attach(values: np.ndarray, op: str, parents: tuple[Tensor, ...],
            backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """A tensor around `values`, which the caller has checked; its node,
    if recorded, links the parents' nodes, not the parents. Every parent
    must have the output's dtype: an op never mixes float32 and float64."""
    for p in parents:
        if p.values.dtype != values.dtype:
            raise TypeError(f"{op} mixes dtypes: a {p.values.dtype} operand "
                            f"for a {values.dtype} output")
    out = Tensor.__new__(Tensor)
    out.values = values
    nodes = tuple(p.node for p in parents if p.node is not None) if _grad_enabled.get() else ()
    out.node = Node(values, nodes, backward_fn) if nodes else None
    return out


def _first_grad(node: Node) -> np.ndarray:
    """The array for `node`'s first gradient in a backward, set as its
    `grad`: the one `zero_grads` parked on it, else a new one in C order.
    The caller writes every element."""
    parked, node.parked = node.parked, None
    node.grad = np.empty(node.shape, node.dtype) if parked is None else parked
    return node.grad


def _accumulate(node: Node | None, g: np.ndarray, fresh: bool = False) -> None:
    """Add `g` into `node.grad`; nothing without a node. `fresh` says that
    nothing else holds `g`'s memory: an op node (never a leaf) then takes
    `g` itself as its first gradient."""
    if node is None:
        return
    if node.grad is None:
        if fresh and node.backward_fn is not None:
            node.grad = g
        else:
            np.copyto(_first_grad(node), g)
    else:
        node.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape`, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- arithmetic ----------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    na, nb = a.node, b.node

    def backward_fn(g):
        if na is not None:
            _accumulate(na, _unbroadcast(g, na.shape))
        if nb is not None:
            _accumulate(nb, _unbroadcast(g, nb.shape))

    return _make(a.values + b.values, "add", (a, b), backward_fn)


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    na, nb = a.node, b.node
    # Each side's gradient reads the other side's values, so an operand
    # whose partner needs no gradient is not kept.
    av = a.values if nb is not None else None
    bv = b.values if na is not None else None

    def backward_fn(g):
        if na is not None:
            _accumulate(na, _unbroadcast(g * bv, na.shape), fresh=True)
        if nb is not None:
            _accumulate(nb, _unbroadcast(g * av, nb.shape), fresh=True)

    return _make(a.values * b.values, "mul", (a, b), backward_fn)


# Eigen's `generic_fast_erf_float`: erf(z) = z * P(z^2) / Q(z^2) for z
# clamped to [-4, 4], beyond which float32 erf is +-1. Coefficients from
# the highest degree down: P has degree 6 in z^2, Q degree 4. float32
# scalars, which a ufunc takes with less work than Python floats.
_ERF_P = np.array([-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
                   -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
                   -1.60960333262415e-02], np.float32)
_ERF_Q = np.array([-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
                   -7.37332916720468e-03, -1.42647390514189e-02], np.float32)


def _horner(z2: np.ndarray, coefs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The polynomial with `coefs` (highest degree first) at `z2`, in `out`."""
    np.multiply(z2, coefs[0], out=out)
    for c in coefs[1:-1]:
        out += c
        out *= z2
    out += coefs[-1]
    return out


def _gelu_cdf(x: np.ndarray, work: np.ndarray) -> np.ndarray:
    """0.5 * (1 + erf(x / sqrt(2))) of the flat array `x`, in `work[0]`.

    `work` is [3, >= x.size] of `x`'s dtype. float64 takes scipy's erf.
    float32 takes Eigen's clamped rational erf through the other two rows,
    its result clamped to [-1, 1] so that the cdf stays in [0, 1]; its
    cdf is within 3e-7 of the exact one."""
    cdf, z2, p = work[:, :x.size]
    np.divide(x, math.sqrt(2.0), out=cdf)
    if cdf.dtype == np.float64:
        erf(cdf, out=cdf)
    else:
        cdf.clip(-4.0, 4.0, out=cdf)  # np.clip's one pass, without its dispatch wrapper
        np.multiply(cdf, cdf, out=z2)
        _horner(z2, _ERF_P, p)
        p *= cdf
        np.divide(p, _horner(z2, _ERF_Q, cdf), out=cdf)
        cdf.clip(-1.0, 1.0, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def _gelu_slope(x: np.ndarray, cdf: np.ndarray, out: np.ndarray) -> np.ndarray:
    """GELU's derivative cdf + x * exp(-0.5 * x * x) / sqrt(2 pi), in `out`."""
    d = np.multiply(x, -0.5, out=out)
    d *= x
    np.exp(d, out=d)
    d /= math.sqrt(2.0 * math.pi)
    d *= x
    d += cdf
    return d


# -- reductions and shape ops ---------------------------------------------


def tsum(a: Tensor, axis=None) -> Tensor:
    na = a.node

    def backward_fn(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        _accumulate(na, np.broadcast_to(g, na.shape))

    return _make(a.values.sum(axis=axis), "sum", (a,), backward_fn)


def tmean(a: Tensor) -> Tensor:
    """Mean over every element."""
    count = a.values.size
    na = a.node

    def backward_fn(g):
        _accumulate(na, np.broadcast_to(g / count, na.shape))

    return _make(a.values.mean(), "mean", (a,), backward_fn)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    na = a.node

    def backward_fn(g):
        _accumulate(na, g.reshape(na.shape))

    return _make(a.values.reshape(shape), "reshape", (a,), backward_fn)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = normalize_axis_tuple(tuple(axes), a.values.ndim)
    if len(axes) != a.values.ndim:
        raise ShapeError(f"transpose axes {axes} are not a permutation of {a.values.ndim} axes")
    inverse = tuple(np.argsort(axes))
    na = a.node

    def backward_fn(g):
        _accumulate(na, np.transpose(g, inverse))

    return _make(np.transpose(a.values, axes), "transpose", (a,), backward_fn)


def take_rows(a: Tensor, indices) -> Tensor:
    """Gather slices along axis 0; backward scatter-adds into the source.
    The indices must be integers; an empty list gathers nothing."""
    idx = np.asarray(indices)
    if idx.size and idx.dtype.kind not in "iu":
        raise IndexError(f"take_rows indices must be integers, got dtype {idx.dtype}")
    idx = idx.astype(np.intp, copy=False)
    if idx.ndim != 1:
        raise ShapeError(f"take_rows expects a 1-d index array, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise IndexError(
            f"take_rows index out of range for axis of size {a.shape[0]}"
        )
    na = a.node

    def backward_fn(g):
        if na.grad is None:
            _first_grad(na).fill(0)
        np.add.at(na.grad, idx, g)

    return _make(a.values[idx], "take_rows", (a,), backward_fn)


# -- model-facing fused ops ------------------------------------------------


def _rows(x: np.ndarray) -> np.ndarray:
    """`x` with its leading axes folded into one: [..., k] -> [rows, k]."""
    return x if x.ndim == 2 else x.reshape(math.prod(x.shape[:-1]), x.shape[-1])


def _affine(x: np.ndarray, weight: Tensor, bias: Tensor | None,
            out: np.ndarray | None = None) -> np.ndarray:
    """`x @ weight + bias` as [rows, n], the leading axes of `x` folded
    into one GEMM (into `out` when given) and the bias added in place."""
    values = np.matmul(_rows(x), weight.values, out=out)
    if bias is not None:
        values += bias.values
    return values


def _affine_backward(x: np.ndarray, weight: Tensor, bias: Node | None, g: np.ndarray,
                     input_grad: bool) -> np.ndarray | None:
    """Accumulate the weight and bias gradients of `x @ weight + bias` from
    its output gradient `g`, the bias's into its node `bias` (None when it
    has none); return the input gradient as [rows, k] when `input_grad`
    asks for it. The bias gradient is reduced over `g`'s own leading axes,
    as `add` reduces it."""
    g2 = _rows(g)
    gx = g2 @ weight.values.T if input_grad else None
    w = weight.node
    if w is not None:
        x_rows = _rows(x).T
        if w.grad is None:
            np.matmul(x_rows, g2, out=_first_grad(w))
        else:
            w.grad += x_rows @ g2
    if bias is not None:
        _accumulate(bias, _unbroadcast(g, bias.shape))
    return gx


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """`x @ weight + bias` as one node: [..., k] @ [k, n] -> [..., n].

    The leading axes of `x` fold into one GEMM, forward and in both
    gradient products. The bias is added in place into the GEMM output and
    its gradient is reduced as `add` reduces it, so values and gradients
    equal those of `linear(x, weight) + bias` bit for bit."""
    if weight.values.ndim != 2 or x.values.ndim < 1 or x.shape[-1] != weight.shape[0]:
        raise ShapeError(f"linear shapes disagree: {x.shape} @ {weight.shape}")
    if bias is not None and bias.shape != weight.shape[1:]:
        raise ShapeError(f"linear bias shape {bias.shape} does not match {weight.shape}")
    values = _affine(x.values, weight, bias).reshape(x.shape[:-1] + weight.shape[1:])
    xv, nx, nb = x.values, x.node, None if bias is None else bias.node

    def backward_fn(g):
        gx = _affine_backward(xv, weight, nb, g, nx is not None)
        if gx is not None:
            _accumulate(nx, gx.reshape(nx.shape), fresh=True)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(values, "linear", parents, backward_fn)


# Elements per GELU block of `feed_forward`, forward and backward.
_GELU_BLOCK = 1 << 15
# Most hidden elements per row block of `feed_forward`.
_FFN_BLOCK = 1 << 22


def feed_forward(x: Tensor, w_in: Tensor, b_in: Tensor, w_out: Tensor, b_out: Tensor) -> Tensor:
    """`linear(gelu(linear(x, w_in, b_in)), w_out, b_out)` as one node:
    [..., d] -> [..., n] through a hidden width f (`w_in` is [d, f]).

    One chain runs in both modes, in near-equal row blocks of at most
    `_FFN_BLOCK` hidden elements: the first GEMM, GELU in blocks of
    `_GELU_BLOCK` elements, the second GEMM into the block's output rows,
    each output checked as it is made. GELU's cdf and erf temporaries live
    in one `_GELU_BLOCK` scratch. A recorded node keeps the input and the
    first GEMM's output `h` at full size, and GELU writes into one reused
    row block; its backward rebuilds the cdf from `h` block by block with
    the same chain. Without a node, GELU runs in place in one reused row
    block. Values and gradients equal the unfused chain's bit for bit if
    OpenBLAS computes each output row the same whatever the row count,
    which numpy does not promise: blocks of half of `_FFN_BLOCK` or more
    stay off its kernels for products of at most 100^3 multiply-adds and
    numpy's one-row gemv, and the tests check the rest on the machine
    that runs them."""
    if (w_in.values.ndim != 2 or w_out.values.ndim != 2 or x.values.ndim < 1
            or x.shape[-1] != w_in.shape[0] or b_in.shape != w_in.shape[1:]
            or w_out.shape[0] != w_in.shape[1] or b_out.shape != w_out.shape[1:]):
        raise ShapeError(f"feed_forward shapes disagree: {x.shape} through {w_in.shape} + "
                         f"{b_in.shape}, then {w_out.shape} + {b_out.shape}")
    parents = (x, w_in, b_in, w_out, b_out)
    record = _recording(parents)
    xv, xr = x.values, _rows(x.values)
    rows, f = xr.shape[0], w_in.shape[1]
    blocks = max(1, -(-rows * f // _FFN_BLOCK))
    bounds = [rows * i // blocks for i in range(blocks + 1)]
    step = -(-rows // blocks)  # rows of the longest block
    h = np.empty((rows if record else step, f), xr.dtype)
    act = np.empty(step * f, xr.dtype) if record else h.reshape(-1)
    work = np.empty((3, min(step * f, _GELU_BLOCK)), xr.dtype)
    out = np.empty((rows, w_out.shape[1]), xr.dtype)
    for lo, hi in zip(bounds, bounds[1:]):
        hb = h[lo:hi] if record else h[:hi - lo]
        _affine(xr[lo:hi], w_in, b_in, out=hb)
        hb, ab = hb.reshape(-1), act[:hb.size]
        for s in range(0, hb.size, _GELU_BLOCK):
            e = min(s + _GELU_BLOCK, hb.size)
            # A non-finite GEMM output gives a non-finite GELU and a finite
            # one a finite GELU, so this check stands for both of theirs.
            _check_finite(np.multiply(hb[s:e], _gelu_cdf(hb[s:e], work), out=ab[s:e]),
                          "feed_forward")
        _check_finite(_affine(ab.reshape(hi - lo, f), w_out, b_out, out=out[lo:hi]),
                      "feed_forward")
    nx, nb_in, nb_out = x.node, b_in.node, b_out.node
    hidden_grad = _recording((x, w_in, b_in))

    def backward_fn(g):
        # The node's one backward takes `h` and turns it into GELU's output
        # in place once each block's cdf and slope are made, so a second
        # call must not find it.
        nonlocal h
        if h is None:
            raise ValueError("feed_forward: backward already ran through this node")
        hidden, h = h, None
        ga = _rows(g) @ w_out.values.T if hidden_grad else None
        flat = hidden.reshape(-1)
        work = np.empty((3, min(flat.size, _GELU_BLOCK)), hidden.dtype)
        for s in range(0, flat.size, _GELU_BLOCK):
            hb = flat[s:s + _GELU_BLOCK]
            cb = _gelu_cdf(hb, work)
            if ga is not None:
                ga.reshape(-1)[s:s + hb.size] *= _gelu_slope(hb, cb, work[1, :hb.size])
            hb *= cb
        _affine_backward(hidden, w_out, nb_out, g, False)
        del hidden
        if ga is None:
            return
        gx = _affine_backward(xv, w_in, nb_in, ga.reshape(xv.shape[:-1] + (f,)), nx is not None)
        if gx is not None:
            _accumulate(nx, gx.reshape(nx.shape), fresh=True)

    return _attach(out.reshape(x.shape[:-1] + w_out.shape[1:]), "feed_forward", parents,
                   backward_fn)


def _softmax(z: np.ndarray, mask) -> np.ndarray:
    """Last-axis softmax of `z`; where the boolean `mask` is False, exactly 0."""
    if mask is not None:
        if not mask.any(axis=-1).all():
            raise ValueError("softmax: fully masked row")
        z = np.where(mask, z, -np.inf)
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_backward(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient through `p = _softmax(z)` given the gradient `g` of `p`."""
    inner = (g * p).sum(axis=-1, keepdims=True)
    return p * (g - inner)


def softmax_lastdim(a: Tensor, mask=None) -> Tensor:
    """Softmax over the last axis, computed with max-subtraction.

    `mask` (boolean, broadcastable to `a`) marks positions eligible to
    receive probability; masked positions get exactly 0. A row with no
    unmasked position has no defined distribution and raises.
    """
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), a.shape)
    out_values = _softmax(a.values, mask)
    na = a.node

    def backward_fn(g):
        _accumulate(na, _softmax_backward(out_values, g), fresh=True)

    return _make(out_values, "softmax_lastdim", (a,), backward_fn)


def attention(q: Tensor, k: Tensor, v: Tensor, key_mask, num_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over [batch, seq, d] inputs
    as one node; `key_mask` ([batch, seq]) marks the keys that may receive
    attention. Forward and backward run the numpy operations of the unfused
    chain in its order, so values and gradients are bit-identical to it."""
    batch, seq, d = q.shape
    key_mask = np.asarray(key_mask, dtype=bool)
    if k.shape != q.shape or v.shape != q.shape or key_mask.shape != (batch, seq) \
            or d % num_heads:
        raise ShapeError(f"attention shapes disagree: q/k/v {q.shape}/{k.shape}/{v.shape}, "
                         f"key mask {key_mask.shape}, {num_heads} heads")
    split, shape = (batch, seq, num_heads, d // num_heads), q.shape

    def heads(x: np.ndarray) -> np.ndarray:  # [b, s, d] -> [b, h, s, d/h]
        return x.reshape(split).transpose(0, 2, 1, 3)

    def merge(x: np.ndarray) -> np.ndarray:  # [b, h, s, d/h] -> [b, s, d]
        return x.transpose(0, 2, 1, 3).reshape(shape)

    qh, kh, vh = heads(q.values), heads(k.values), heads(v.values)
    nq, nk, nv = q.node, k.node, v.node
    scale = np.asarray(1.0 / math.sqrt(split[-1]), dtype=q.dtype)
    p = _softmax(np.matmul(qh, kh.swapaxes(-1, -2)) * scale, key_mask[:, None, None, :])

    def backward_fn(g):
        do = np.ascontiguousarray(heads(g))
        dl = _softmax_backward(p, np.matmul(do, vh.swapaxes(-1, -2))) * scale
        if nq is not None:
            _accumulate(nq, merge(np.matmul(dl, kh)), fresh=True)
        if nk is not None:
            _accumulate(nk, merge(np.matmul(qh.swapaxes(-1, -2), dl).swapaxes(-1, -2)), fresh=True)
        if nv is not None:
            _accumulate(nv, merge(np.matmul(p.swapaxes(-1, -2), do)), fresh=True)

    return _make(merge(np.matmul(p, vh)), "attention", (q, k, v), backward_fn)


# Elements per row block of `layer_norm`, and the eps added to its variance.
_NORM_BLOCK = 1 << 16
_NORM_EPS = 1e-5


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, residual: Tensor | None = None) -> Tensor:
    """Normalize the last axis of `a` (plus `residual`, broadcast as `add`
    broadcasts) to zero mean / unit variance, with eps `_NORM_EPS`, then affine; one node.

    One chain runs in both modes, in place in the `a + residual` array (a
    copy of `a` without a residual) and in row blocks of at most
    `_NORM_BLOCK` elements, each squared into one block-sized temporary
    and checked. A recorded node keeps that array (the normalized input)
    and every row's inverse deviation, and the affine goes into a new
    output; without one, the affine runs in place too. No input's values
    are written."""
    parents = (a, gain, bias) if residual is None else (a, residual, gain, bias)
    x = a.values.copy() if residual is None else a.values + residual.values
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm affine shapes {gain.shape}/{bias.shape} "
                         f"do not match last dim {d}")
    record = _recording(parents)
    rows = _rows(x)  # normalized in place, block by block
    out = np.empty(rows.shape, rows.dtype) if record else rows
    inv = np.empty((rows.shape[0], 1), x.dtype) if record else None
    step = max(1, _NORM_BLOCK // max(d, 1))
    for lo in range(0, rows.shape[0], step):
        block = rows[lo:lo + step]
        # add.reduce / d equals .mean bit for bit and skips numpy's Python-level _mean.
        block -= np.add.reduce(block, axis=-1, keepdims=True) / d
        var = np.add.reduce(block * block, axis=-1, keepdims=True) / d
        block *= np.divide(1.0, np.sqrt(var + _NORM_EPS),
                           out=None if inv is None else inv[lo:lo + step])
        affine = np.multiply(block, gain.values, out=out[lo:lo + step])
        affine += bias.values
        _check_finite(affine, "layer_norm")
    xhat = rows.reshape(x.shape)
    na, nr, nbias = a.node, None if residual is None else residual.node, bias.node

    def backward_fn(g):
        lead = tuple(range(g.ndim - 1))
        _accumulate(gain.node, (g * xhat).sum(axis=lead))
        _accumulate(nbias, g.sum(axis=lead))
        dxhat = g * gain.values
        m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / d
        m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d
        dx = inv.reshape(m1.shape) * (dxhat - m1 - xhat * m2)
        if nr is not None:
            _accumulate(nr, _unbroadcast(dx, nr.shape))
        if na is not None:
            _accumulate(na, _unbroadcast(dx, na.shape), fresh=True)

    return _attach(out.reshape(x.shape), "layer_norm", parents, backward_fn)


def bce_with_logits(logits: Tensor, targets) -> Tensor:
    """Elementwise binary cross entropy on logits, numerically stable.

    Computes max(z, 0) - z*t + log(1 + exp(-|z|)) per element; the caller
    owns any reduction. Targets must be 0/1.
    """
    t = np.asarray(targets.values if isinstance(targets, Tensor) else targets,
                   dtype=logits.dtype)
    if t.shape != logits.shape:
        raise ShapeError(f"bce_with_logits shapes disagree: {logits.shape} vs {t.shape}")
    if not np.isin(t, (0.0, 1.0)).all():
        raise ValueError("bce_with_logits targets must be 0 or 1")
    z, nz = logits.values, logits.node
    values = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))

    def backward_fn(g):
        sig = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)),
                       np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(np.minimum(z, 0.0))))
        _accumulate(nz, g * (sig - t), fresh=True)

    return _make(values, "bce_with_logits", (logits,), backward_fn)


# Uniform draws per block of `dropout`'s mask.
_DRAW_BLOCK = 1 << 16


def dropout(a: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    """Zero elements with probability `p` and rescale survivors by 1/(1-p).

    Identity, drawing nothing, when `rng` is None or `p` is 0. The mask
    is drawn from `rng`, so callers control reproducibility by seeding
    and by call order. It is drawn in blocks of `_DRAW_BLOCK` elements of
    one stream, which give the bits of a single draw of the whole shape.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if rng is None or p == 0.0:
        return a
    keep = np.empty(a.shape, bool)  # a multiply casts it to the tensor's dtype
    flat, draw = keep.reshape(-1), np.empty(min(keep.size, _DRAW_BLOCK))
    for s in range(0, flat.size, _DRAW_BLOCK):
        u = rng.random(out=draw[:flat.size - s])
        np.greater_equal(u, p, out=flat[s:s + u.size])
    scale = 1.0 / (1.0 - p)
    na = a.node

    def backward_fn(g):
        d = g * keep
        d *= scale
        _accumulate(na, d, fresh=True)

    out = a.values * keep
    out *= scale
    return _make(out, "dropout", (a,), backward_fn)


# -- backward pass ---------------------------------------------------------


def topo_order(root: Tensor) -> list[Node]:
    """The graph nodes behind `root`, in topological order (parents before
    children); none for a tensor without a node."""
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [] if root.node is None else [(root.node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _released(g: np.ndarray) -> None:
    """The backward function of every op node of a graph that `backward`
    has run through. `backward` refuses a graph that reaches one."""
    raise AssertionError("backward reached a released graph")


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss, accumulating into the leaves'
    `.grad` slots. Right after its turn in the reverse topological order,
    each op node drops its gradient and lets go of its parents and its
    backward function, and with it the arrays that function saved. A
    later backward through a released node raises ValueError before it
    writes a gradient."""
    if loss.values.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not depend on any tensor requiring gradients")
    order = topo_order(loss)
    if any(node.backward_fn is _released for node in order):
        raise ValueError("the graph was released by an earlier backward; run the forward again")
    loss.grad = np.ones_like(loss.values)
    for node in reversed(order):
        if node.backward_fn is not None:
            if node.grad is not None:
                node.backward_fn(node.grad)
            node.grad, node.parents, node.backward_fn = None, (), _released


def zero_grads(tensors: Iterable[Tensor]) -> None:
    """Clear each tensor's `.grad`. The array stays parked on the tensor's
    node and the next backward writes the tensor's first gradient into it,
    so a caller that keeps a gradient array across this call must copy it.
    Nodes with no array to park, as before a first step, get `zeros_arena`."""
    bare = []
    for t in tensors:
        if t.grad is not None:
            t.node.parked, t.node.grad = t.grad, None
        elif t.node is not None and t.node.parked is None:
            bare.append(t.node)
    for node, view in zip(bare, zeros_arena((node.shape, node.dtype) for node in bare)):
        node.parked = view


# (arena, element offset, weak reference) of each live `arena_view`, by id;
# an entry goes with its view, so it is never stale.
_SLOTS: dict[int, tuple] = {}


def arena_view(arena: np.ndarray, offset: int, shape: tuple) -> np.ndarray:
    """The `shape` view at element `offset` of the flat array `arena`;
    `arena_slots` finds its place while it lives."""
    view = arena[offset:offset + math.prod(shape)].reshape(shape)
    _SLOTS[id(view)] = (arena, offset, weakref.ref(view, lambda _, k=id(view): _SLOTS.pop(k, None)))
    return view


def arena_slots(arrays) -> list[tuple | None]:
    """(arena, element offset, ...) of each of `arrays` that is an
    `arena_view`; None for any other array."""
    return list(map(_SLOTS.get, map(id, arrays)))


def zeros_arena(specs) -> list[np.ndarray]:
    """Zeroed C-order arrays of the (shape, dtype) pairs `specs`, in order:
    consecutive `arena_view`s of one flat array when they share a dtype."""
    specs = list(specs)
    if len({dtype for _, dtype in specs}) != 1:
        return [np.zeros(shape, dtype) for shape, dtype in specs]
    starts = np.cumsum([0] + [math.prod(shape) for shape, _ in specs]).tolist()
    arena = np.zeros(starts[-1], specs[0][1])
    return [arena_view(arena, lo, shape) for lo, (shape, _) in zip(starts, specs)]


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between backward gradients and central differences.

    `f` maps `x` to a scalar tensor and must be deterministic across
    calls. Evaluations run in the tensor's own precision; use float64
    for meaningful results. Relative error uses max(|a|, |b|, 1e-8) as
    denominator.
    """
    x.grad = None
    out = f(x)
    if out.values.size != 1:
        raise ValueError("finite_diff_check expects a scalar-valued function")
    if out.requires_grad:
        backward(out)
    analytic = np.zeros_like(x.values) if x.grad is None else x.grad.copy()
    x.grad = None

    numeric = np.zeros_like(x.values)
    values = x.values  # perturbed in place, whatever its memory layout
    with no_grad():
        for i in np.ndindex(values.shape):
            orig = values[i]
            values[i] = orig + h
            f_plus = float(f(x).values)
            values[i] = orig - h
            f_minus = float(f(x).values)
            values[i] = orig
            numeric[i] = (f_plus - f_minus) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())
