"""Minimal deterministic tensor engine with reverse-mode automatic differentiation.

Tensors wrap numpy arrays (float32 or float64) and record the operations
applied to them so that `backward` can replay the graph in reverse
topological order, once: it drops each op node's gradient after use and
releases the graph when it returns. The op set is what the grounding
model needs: broadcasting add and multiply, fused linear layers, masked
softmax, fused multi-head attention, layer norm (with an optional
residual operand), GELU, dropout, binary cross entropy on logits, gathers
and reductions.
The model never calls `matmul`, which takes numpy's broadcast product,
a 2-d right operand too; it stays as the unfused reference that the
attention tests compare the fused op against.

Non-finite results are an error, never silent: every op validates its
output and raises :class:`NonFiniteError` on NaN/Inf.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "ShapeError",
    "NonFiniteError",
    "no_grad",
    "constant",
    "parameter",
    "matmul",
    "linear",
    "softmax_lastdim",
    "attention",
    "layer_norm",
    "bce_with_logits",
    "dropout",
    "gelu",
    "take_rows",
    "backward",
    "topo_order",
    "zero_grads",
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


class Tensor:
    """N-dimensional array with an optional gradient slot.

    `values` is immutable by convention once the tensor has entered a
    graph; only leaf parameters are updated in place (by the optimizer,
    between graphs). A leaf's `grad` accumulates additively across
    backward calls until cleared; an op node holds a gradient only while
    `backward` runs. `zero_grads` parks the cleared array on the tensor,
    and the next backward writes the tensor's first gradient into it.
    """

    __slots__ = ("values", "requires_grad", "grad", "_parked", "_parents", "_backward_fn",
                 "__weakref__")

    def __init__(self, values, requires_grad: bool = False, dtype=None):
        arr = np.asarray(values, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        _check_finite(arr, "tensor")
        self.values: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parked: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None

    # -- introspection -------------------------------------------------

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

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
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


def _make(out_values: np.ndarray, op: str, parents: tuple[Tensor, ...],
          backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    _check_finite(out_values, op)
    out = Tensor.__new__(Tensor)
    out.values = out_values
    out.grad = out._parked = None
    if _grad_enabled.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward_fn = None
    return out


def _first_grad(t: Tensor) -> np.ndarray:
    """The array for `t`'s first gradient in a backward, set as `t.grad`:
    the one `zero_grads` parked on `t`, else a new one. Its contents are
    stale or uninitialised; the caller writes every element."""
    parked, t._parked = t._parked, None
    t.grad = np.empty_like(t.values) if parked is None else parked
    return t.grad


def _accumulate(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add `g` into `t.grad`. `fresh` says that nothing else holds `g`'s
    memory: an op node (never a leaf) then takes `g` itself as its first
    gradient instead of a copy, when the copy would have `g`'s layout."""
    if not t.requires_grad:
        return
    if t.grad is None:
        if (fresh and t._backward_fn is not None and g.dtype == t.dtype
                and g.flags.c_contiguous and t.values.flags.c_contiguous):
            t.grad = g
        else:
            np.copyto(_first_grad(t), g)
    else:
        t.grad += g


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

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _make(a.values + b.values, "add", (a, b), backward_fn)


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.values, a.shape), fresh=True)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.values, b.shape), fresh=True)

    return _make(a.values * b.values, "mul", (a, b), backward_fn)


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit, exact erf form."""
    x = a.values
    # 0.5 * (1 + erf(x / sqrt(2))), through one temporary
    cdf = np.divide(x, math.sqrt(2.0))
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5

    def backward_fn(g):
        # g * (cdf + x * exp(-0.5 * x * x) / sqrt(2 pi)), through one temporary
        d = np.multiply(x, -0.5)
        d *= x
        np.exp(d, out=d)
        d /= math.sqrt(2.0 * math.pi)
        d *= x
        d += cdf
        d *= g
        _accumulate(a, d, fresh=True)

    return _make(x * cdf, "gelu", (a,), backward_fn)


# -- reductions and shape ops ---------------------------------------------


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def backward_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.shape))

    return _make(a.values.sum(axis=axis, keepdims=keepdims), "sum", (a,), backward_fn)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.values.size if axis is None else a.values.shape[axis]

    def backward_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g / count, a.shape))

    return _make(a.values.mean(axis=axis, keepdims=keepdims), "mean", (a,), backward_fn)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    def backward_fn(g):
        _accumulate(a, g.reshape(a.shape))

    return _make(a.values.reshape(shape), "reshape", (a,), backward_fn)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward_fn(g):
        _accumulate(a, np.transpose(g, inverse))

    return _make(np.transpose(a.values, axes), "transpose", (a,), backward_fn)


def take_rows(a: Tensor, indices) -> Tensor:
    """Gather slices along axis 0; backward scatter-adds into the source."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"take_rows expects a 1-d index array, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise IndexError(
            f"take_rows index out of range for axis of size {a.shape[0]}"
        )

    def backward_fn(g):
        if not a.requires_grad:
            return
        if a.grad is None:
            _first_grad(a).fill(0)
        np.add.at(a.grad, idx, g)

    return _make(a.values[idx], "take_rows", (a,), backward_fn)


# -- model-facing fused ops ------------------------------------------------


def _rows(x: np.ndarray) -> np.ndarray:
    """`x` with its leading axes folded into one: [..., k] -> [rows, k]."""
    return x if x.ndim == 2 else x.reshape(math.prod(x.shape[:-1]), x.shape[-1])


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
    values = _rows(x.values) @ weight.values
    if x.values.ndim != 2:
        values = values.reshape(x.shape[:-1] + weight.shape[1:])
    if bias is not None:
        in_place = np.result_type(values, bias.values) == values.dtype
        values = np.add(values, bias.values, out=values if in_place else None)

    def backward_fn(g):
        g2 = _rows(g)
        if x.requires_grad:
            _accumulate(x, (g2 @ weight.values.T).reshape(x.shape), fresh=True)
        if weight.requires_grad:
            x_rows = _rows(x.values).T
            if weight.grad is None:
                np.matmul(x_rows, g2, out=_first_grad(weight))
            else:
                weight.grad += x_rows @ g2
        if bias is not None and bias.requires_grad:
            _accumulate(bias, _unbroadcast(g, bias.shape))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(values, "linear", parents, backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """numpy's broadcast matrix product [..., m, k] @ [..., k, n] -> [..., m, n]."""
    b = _as_tensor(b, a.dtype)
    if a.values.ndim < 2 or b.values.ndim < 2:
        raise ShapeError(
            f"matmul needs at least 2-d operands, got {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    try:
        values = np.matmul(a.values, b.values)
    except ValueError as exc:
        raise ShapeError(f"matmul batch shapes not broadcastable: {a.shape} vs {b.shape}") from exc

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(np.matmul(g, b.values.swapaxes(-1, -2)), a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.matmul(a.values.swapaxes(-1, -2), g), b.shape))

    return _make(values, "matmul", (a, b), backward_fn)


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

    def backward_fn(g):
        _accumulate(a, _softmax_backward(out_values, g), fresh=True)

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
    split = (batch, seq, num_heads, d // num_heads)

    def heads(x: np.ndarray) -> np.ndarray:  # [b, s, d] -> [b, h, s, d/h]
        return x.reshape(split).transpose(0, 2, 1, 3)

    def merge(x: np.ndarray) -> np.ndarray:  # [b, h, s, d/h] -> [b, s, d]
        return x.transpose(0, 2, 1, 3).reshape(q.shape)

    qh, kh, vh = heads(q.values), heads(k.values), heads(v.values)
    scale = np.asarray(1.0 / math.sqrt(split[-1]), dtype=q.dtype)
    p = _softmax(np.matmul(qh, kh.swapaxes(-1, -2)) * scale, key_mask[:, None, None, :])

    def backward_fn(g):
        do = np.ascontiguousarray(heads(g))
        dl = _softmax_backward(p, np.matmul(do, vh.swapaxes(-1, -2))) * scale
        if q.requires_grad:
            _accumulate(q, merge(np.matmul(dl, kh)), fresh=True)
        if k.requires_grad:
            _accumulate(k, merge(np.matmul(qh.swapaxes(-1, -2), dl).swapaxes(-1, -2)), fresh=True)
        if v.requires_grad:
            _accumulate(v, merge(np.matmul(p.swapaxes(-1, -2), do)), fresh=True)

    return _make(merge(np.matmul(p, vh)), "attention", (q, k, v), backward_fn)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, residual: Tensor | None = None,
               eps: float = 1e-5) -> Tensor:
    """Normalize the last axis of `a` (plus `residual`, broadcast as `add`
    broadcasts) to zero mean / unit variance, then affine; one node."""
    x = a.values if residual is None else a.values + residual.values
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match last dim {d}"
        )
    # add.reduce / d equals .mean bit for bit and skips numpy's Python-level _mean.
    mu = np.add.reduce(x, axis=-1, keepdims=True) / d
    centered = x - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv

    def backward_fn(g):
        lead = tuple(range(g.ndim - 1))
        _accumulate(gain, (g * xhat).sum(axis=lead))
        _accumulate(bias, g.sum(axis=lead))
        dxhat = g * gain.values
        m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / d
        m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d
        dx = inv * (dxhat - m1 - xhat * m2)
        if residual is not None:
            _accumulate(residual, _unbroadcast(dx, residual.shape))
        _accumulate(a, _unbroadcast(dx, a.shape), fresh=True)

    inputs = (a,) if residual is None else (a, residual)
    return _make(xhat * gain.values + bias.values, "layer_norm", (*inputs, gain, bias),
                 backward_fn)


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
    z = logits.values
    values = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))

    def backward_fn(g):
        sig = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)),
                       np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(np.minimum(z, 0.0))))
        _accumulate(logits, g * (sig - t), fresh=True)

    return _make(values, "bce_with_logits", (logits,), backward_fn)


def dropout(a: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    """Zero elements with probability `p` and rescale survivors by 1/(1-p).

    Identity, drawing nothing, when `rng` is None or `p` is 0. The mask
    is drawn from `rng`, so callers control reproducibility by seeding
    and by call order.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if rng is None or p == 0.0:
        return a
    keep = rng.random(a.shape) >= p  # bool; a multiply casts it to the tensor's dtype
    scale = 1.0 / (1.0 - p)

    def backward_fn(g):
        d = g * keep
        d *= scale
        _accumulate(a, d, fresh=True)

    out = a.values * keep
    out *= scale
    return _make(out, "dropout", (a,), backward_fn)


# -- backward pass ---------------------------------------------------------


def topo_order(root: Tensor) -> list[Tensor]:
    """Graph nodes in topological order (parents before children)."""
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
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _released(g: np.ndarray) -> None:
    """The backward function of every op node of a graph that `backward`
    has run through. `backward` refuses a graph that reaches one."""
    raise AssertionError("backward reached a released graph")


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss, accumulating into the leaves'
    `.grad` slots, and release the graph.

    Each op node's gradient is dropped once its backward function has
    used it. When the pass ends, every op node lets go of its parents and
    its backward function, so the activations those held die once the
    caller drops the output. A later backward through any released node
    raises ValueError before it writes a gradient."""
    if loss.values.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not depend on any tensor requiring gradients")
    order = topo_order(loss)
    if any(node._backward_fn is _released for node in order):
        raise ValueError("the graph was released by an earlier backward; run the forward again")
    loss.grad = np.ones_like(loss.values)
    for node in reversed(order):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)
            node.grad = None
    for node in order:
        if node._backward_fn is not None:
            node._parents, node._backward_fn = (), _released


def zero_grads(tensors: Iterable[Tensor]) -> None:
    """Clear each tensor's `.grad`. The array stays parked on the tensor and
    the next backward writes the tensor's first gradient into it, so a
    caller that keeps a gradient array across this call must copy it."""
    for t in tensors:
        if t.grad is not None:
            t._parked = t.grad
            t.grad = None


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
    flat = x.values.reshape(-1)
    numeric_flat = numeric.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(f(x).values)
            flat[i] = orig - h
            f_minus = float(f(x).values)
            flat[i] = orig
            numeric_flat[i] = (f_plus - f_minus) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())
