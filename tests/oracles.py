"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (scalar loops, no vectorization)
and imports nothing from the package under test, except `matmul`,
`gelu` and `layer_norm_chain`: graph ops built from the engine's own
primitives, which the fused `attention`, `feed_forward` and the
row-blocked `layer_norm` are tested against as whole-array chains.
"""

import math

import numpy as np

from ctxground.autodiff import (
    ShapeError,
    Tensor,
    _accumulate,
    _as_tensor,
    _gelu_cdf,
    _gelu_slope,
    _make,
    _unbroadcast,
)


def softmax_ref(row):
    """Scalar softmax with max subtraction."""
    m = max(row)
    exps = [math.exp(v - m) for v in row]
    s = sum(exps)
    return [e / s for e in exps]


def layer_norm_ref(vec, gain, bias, eps):
    n = len(vec)
    mu = sum(vec) / n
    var = sum((v - mu) ** 2 for v in vec) / n
    return [(v - mu) / math.sqrt(var + eps) * g + b
            for v, g, b in zip(vec, gain, bias)]


def matmul_ref(a, b):
    """Triple-loop 2-d matrix product."""
    n, k = len(a), len(a[0])
    m = len(b[0])
    out = [[0.0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            out[i][j] = sum(a[i][t] * b[t][j] for t in range(k))
    return out


def bce_ref(z, t):
    """Stable scalar binary cross entropy on a logit."""
    return max(z, 0.0) - z * t + math.log1p(math.exp(-abs(z)))


def gelu_ref(x):
    return 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))


def iou_ref(a, b):
    """Scalar corner-form IoU."""
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def iou_cell_count(a, b):
    """IoU of integer-coordinate boxes by counting unit grid cells."""
    lo_x = min(a[0], b[0])
    hi_x = max(a[2], b[2])
    lo_y = min(a[1], b[1])
    hi_y = max(a[3], b[3])
    inter = union = 0
    for i in range(int(lo_x), int(hi_x)):
        for j in range(int(lo_y), int(hi_y)):
            in_a = a[0] <= i < a[2] and a[1] <= j < a[3]
            in_b = b[0] <= i < b[2] and b[1] <= j < b[3]
            inter += in_a and in_b
            union += in_a or in_b
    return inter / union if union else 0.0


def positives_ref(proposals, gt_boxes, threshold=0.5):
    """1.0 for each proposal whose scalar IoU with some ground-truth box
    reaches `threshold`, else 0.0: a phrase's supervision target row."""
    return [float(any(iou_ref(p, gt) >= threshold for gt in gt_boxes)) for p in proposals]


def rank_ref(scores, valid):
    """Descending-score ranking over valid indices, index tiebreak,
    via repeated selection instead of a sort."""
    remaining = [i for i in range(len(scores)) if valid[i]]
    out = []
    while remaining:
        best = remaining[0]
        for i in remaining[1:]:
            if scores[i] > scores[best]:
                best = i
        out.append(best)
        remaining.remove(best)
    return out


def hit_ref(ranking, proposals, gt_boxes, k, threshold):
    for idx in ranking[:k]:
        for gt in gt_boxes:
            if iou_ref(proposals[idx], gt) >= threshold:
                return True
    return False


def recall_ref(entities, k, threshold):
    """entities: iterable of (ranking, proposals, gt_boxes) triples."""
    entities = list(entities)
    hits = 0
    for ranking, proposals, gt_boxes in entities:
        hits += hit_ref(ranking, proposals, gt_boxes, k, threshold)
    return 100.0 * hits / len(entities)


def upper_bound_ref(entities, threshold):
    entities = list(entities)
    hits = 0
    for _, proposals, gt_boxes in entities:
        found = False
        for p in proposals:
            for gt in gt_boxes:
                if iou_ref(p, gt) >= threshold:
                    found = True
        hits += found
    return 100.0 * hits / len(entities)


def adam_ref(param, grad, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One scalar Adam update; returns (new_param, new_m, new_v)."""
    m = beta1 * m + (1 - beta1) * grad
    v = beta2 * v + (1 - beta2) * grad * grad
    mhat = m / (1 - beta1 ** step)
    vhat = v / (1 - beta2 ** step)
    return param - lr * mhat / (math.sqrt(vhat) + eps), m, v


def prototype_table(seed, vocab_size, d_feat):
    """The per-token-id prototype features the synthetic generator plants:
    the first draw of `np.random.default_rng(seed)`."""
    return np.random.default_rng(seed).normal(0.0, 1.0, (vocab_size, d_feat))


def attention_ref(x, wq, bq, wk, wv, bv, wo, bo, num_heads):
    """Loop-based multi-head self-attention on a single [seq, d] input.

    Weight layout matches the package convention (y = x @ W + b); the
    key projection carries no bias.
    """
    x = np.asarray(x, dtype=np.float64)
    seq, d = x.shape
    dh = d // num_heads
    q = np.asarray(matmul_ref(x.tolist(), wq)) + np.asarray(bq)
    k = np.asarray(matmul_ref(x.tolist(), wk))
    v = np.asarray(matmul_ref(x.tolist(), wv)) + np.asarray(bv)
    ctx = np.zeros((seq, d))
    for h in range(num_heads):
        sl = slice(h * dh, (h + 1) * dh)
        qh, kh, vh = q[:, sl], k[:, sl], v[:, sl]
        for i in range(seq):
            logits = [float(qh[i] @ kh[j]) / math.sqrt(dh) for j in range(seq)]
            weights = softmax_ref(logits)
            for j in range(seq):
                ctx[i, sl] += weights[j] * vh[j]
    return np.asarray(matmul_ref(ctx.tolist(), wo)) + np.asarray(bo)


# -- unfused graph ops ---------------------------------------------------------


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
    av, bv, na, nb = a.values, b.values, a.node, b.node

    def backward_fn(g):
        if na is not None:
            _accumulate(na, _unbroadcast(np.matmul(g, bv.swapaxes(-1, -2)), na.shape))
        if nb is not None:
            _accumulate(nb, _unbroadcast(np.matmul(av.swapaxes(-1, -2), g), nb.shape))

    return _make(values, "matmul", (a, b), backward_fn)


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit, exact erf form: the unfused reference of
    `feed_forward`'s GELU, through the same cdf and gradient chains."""
    x, na = a.values, a.node
    cdf = _gelu_cdf(x.reshape(-1), np.empty((3, x.size), x.dtype)).reshape(x.shape)

    def backward_fn(g):
        _accumulate(na, g * _gelu_slope(x, cdf, np.empty_like(x)), fresh=True)

    return _make(x * cdf, "gelu", (a,), backward_fn)


def layer_norm_chain(a: Tensor, gain: Tensor, bias: Tensor, residual: Tensor | None = None,
                     eps: float = 1e-5) -> Tensor:
    """Layer norm of `a` (plus `residual`) over whole arrays, through `mu`,
    `centered`, `var`, `inv` and `xhat * gain + bias`, as one graph op:
    the reference of the row-blocked `layer_norm`."""
    x = a.values if residual is None else a.values + residual.values
    d = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) / d
    centered = x - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    na, nr = a.node, None if residual is None else residual.node

    def backward_fn(g):
        lead = tuple(range(g.ndim - 1))
        _accumulate(gain.node, (g * xhat).sum(axis=lead))
        _accumulate(bias.node, g.sum(axis=lead))
        dxhat = g * gain.values
        m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / d
        m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d
        dx = inv * (dxhat - m1 - xhat * m2)
        if nr is not None:
            _accumulate(nr, _unbroadcast(dx, nr.shape))
        if na is not None:
            _accumulate(na, _unbroadcast(dx, na.shape), fresh=True)

    parents = (a, gain, bias) if residual is None else (a, residual, gain, bias)
    return _make(xhat * gain.values + bias.values, "layer_norm", parents, backward_fn)
