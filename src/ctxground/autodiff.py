"""Minimal deterministic tensor engine with reverse-mode automatic differentiation.

Tensors wrap numpy arrays (float32 or float64) and record the operations
applied to them so that `backward` can replay the graph in reverse
topological order. The op set is exactly what the grounding model needs:
broadcasting add and multiply, batched matmul, fused linear layers, masked
softmax, layer norm, GELU, dropout, binary cross entropy on logits,
gathers and reductions.

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
    between graphs). `grad` accumulates additively across backward calls
    until cleared. `zero_grads` keeps the cleared array as a spare, which
    the next backward's first gradient for the tensor is written into.
    """

    __slots__ = ("values", "requires_grad", "grad", "_spare", "_parents", "_backward_fn")

    def __init__(self, values, requires_grad: bool = False, dtype=None):
        arr = np.asarray(values, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        _check_finite(arr, "tensor")
        self.values: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._spare: np.ndarray | None = None
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

    def swap_last_axes(self):
        order = list(range(self.values.ndim))
        order[-2], order[-1] = order[-1], order[-2]
        return transpose(self, order)


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
    out.grad = out._spare = None
    if _grad_enabled.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward_fn = None
    return out


def _take_spare(t: Tensor, dtype) -> np.ndarray | None:
    """The array `zero_grads` kept from `t`'s last gradient, if it can take
    a fresh gradient of `t` computed in `dtype`; it leaves the tensor."""
    spare = t._spare
    if spare is None or spare.shape != t.shape or spare.dtype != t.dtype or spare.dtype != dtype:
        return None
    t._spare = None
    return spare


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad += g
    elif (spare := _take_spare(t, g.dtype)) is not None:
        np.copyto(spare, g)  # equals 0 + g; only the sign of a zero may differ
        t.grad = spare
    else:
        t.grad = np.zeros_like(t.values)
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
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _make(a.values + b.values, "add", (a, b), backward_fn)


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)

    def backward_fn(g):
        _accumulate(a, _unbroadcast(g * b.values, a.shape))
        _accumulate(b, _unbroadcast(g * a.values, b.shape))

    return _make(a.values * b.values, "mul", (a, b), backward_fn)


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit, exact erf form."""
    x = a.values
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))

    def backward_fn(g):
        pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        _accumulate(a, g * (cdf + x * pdf))

    return _make(x * cdf, "gelu", (a,), backward_fn)


# -- reductions and shape ops ---------------------------------------------


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def backward_fn(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.shape).copy())

    return _make(a.values.sum(axis=axis, keepdims=keepdims), "sum", (a,), backward_fn)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.values.size if axis is None else a.values.shape[axis]

    def backward_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g / count, a.shape).copy())

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
            spare = _take_spare(a, a.dtype)
            if spare is not None:
                spare.fill(0)
            a.grad = np.zeros_like(a.values) if spare is None else spare
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
    equal those of `matmul(x, weight) + bias` bit for bit."""
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
            _accumulate(x, (g2 @ weight.values.T).reshape(x.shape))
        if weight.requires_grad:
            x_rows = _rows(x.values).T
            spare = None if weight.grad is not None else _take_spare(
                weight, np.result_type(x_rows, g2))
            if spare is None:
                _accumulate(weight, x_rows @ g2)
            else:  # the same GEMM, written straight into the spare
                weight.grad = np.matmul(x_rows, g2, out=spare)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, _unbroadcast(g, bias.shape))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(values, "linear", parents, backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product [..., m, k] @ [..., k, n] -> [..., m, n].

    A 2-d right operand (a linear layer's weight) goes through `linear`.
    """
    b = _as_tensor(b, a.dtype)
    if a.values.ndim < 2 or b.values.ndim < 2:
        raise ShapeError(
            f"matmul needs at least 2-d operands, got {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    if b.values.ndim == 2:
        return linear(a, b)

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


def softmax_lastdim(a: Tensor, mask=None) -> Tensor:
    """Softmax over the last axis, computed with max-subtraction.

    `mask` (boolean, broadcastable to `a`) marks positions eligible to
    receive probability; masked positions get exactly 0. A row with no
    unmasked position has no defined distribution and raises.
    """
    if mask is not None:
        mask_arr = np.broadcast_to(np.asarray(mask, dtype=bool), a.shape)
        if not mask_arr.any(axis=-1).all():
            raise ValueError("softmax_lastdim: fully masked row")
        z = np.where(mask_arr, a.values, -np.inf)
    else:
        z = a.values
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    out_values = e / e.sum(axis=-1, keepdims=True)

    def backward_fn(g):
        inner = (g * out_values).sum(axis=-1, keepdims=True)
        _accumulate(a, out_values * (g - inner))

    return _make(out_values, "softmax_lastdim", (a,), backward_fn)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match last dim {d}"
        )
    mu = a.values.mean(axis=-1, keepdims=True)
    centered = a.values - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv

    def backward_fn(g):
        lead = tuple(range(g.ndim - 1))
        _accumulate(gain, (g * xhat).sum(axis=lead))
        _accumulate(bias, g.sum(axis=lead))
        dxhat = g * gain.values
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accumulate(a, inv * (dxhat - m1 - xhat * m2))

    return _make(xhat * gain.values + bias.values, "layer_norm", (a, gain, bias), backward_fn)


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
        _accumulate(logits, g * (sig - t))

    return _make(values, "bce_with_logits", (logits,), backward_fn)


def dropout(a: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Zero elements with probability `p` and rescale survivors by 1/(1-p).

    Identity in inference mode. The mask is drawn from `rng`, so callers
    control reproducibility by seeding and by call order.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return a
    keep = (rng.random(a.shape) >= p).astype(a.dtype)
    scale = 1.0 / (1.0 - p)

    def backward_fn(g):
        _accumulate(a, g * keep * scale)

    return _make(a.values * keep * scale, "dropout", (a,), backward_fn)


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


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss, accumulating into `.grad` slots."""
    if loss.values.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not depend on any tensor requiring gradients")
    order = topo_order(loss)
    loss.grad = np.ones_like(loss.values)
    for node in reversed(order):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


def zero_grads(tensors: Iterable[Tensor]) -> None:
    """Clear each tensor's `.grad`. The array is kept as the tensor's spare
    and the next backward writes the tensor's first gradient into it, so a
    caller that keeps a gradient array across this call must copy it."""
    for t in tensors:
        if t.grad is not None:
            t._spare = t.grad
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
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise NonFiniteError("finite_diff_check: non-finite function value")
            numeric_flat[i] = (f_plus - f_minus) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())
