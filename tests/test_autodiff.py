import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from ctxground import autodiff
from ctxground.autodiff import (
    NonFiniteError,
    ShapeError,
    Tensor,
    attention,
    backward,
    bce_with_logits,
    constant,
    dropout,
    feed_forward,
    finite_diff_check,
    layer_norm,
    linear,
    no_grad,
    parameter,
    softmax_lastdim,
    take_rows,
    topo_order,
    zero_grads,
)

from oracles import bce_ref, gelu, gelu_ref, layer_norm_ref, matmul, matmul_ref, softmax_ref


def fdcheck(f, x, tol=1e-6, h=1e-5):
    err = finite_diff_check(f, x, h)
    assert err < tol, f"finite-difference mismatch: {err}"


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def saved_arrays(t):
    """The arrays that the backward function of `t`'s node closes over."""
    return [c.cell_contents for c in t.node.backward_fn.__closure__
            if isinstance(c.cell_contents, np.ndarray)]


# -- matmul --------------------------------------------------------------------


def test_matmul_identity():
    a = constant([[1.0, 0.0], [0.0, 1.0]])
    b = constant([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(matmul(a, b).values, b.values)


def test_matmul_row_times_column():
    out = matmul(constant([[1.0, 2.0]]), constant([[3.0], [4.0]]))
    assert out.values.tolist() == [[1 * 3 + 2 * 4]]


def test_matmul_zero_annihilates():
    z = constant(np.zeros((3, 4)))
    b = constant(np.arange(20.0).reshape(4, 5))
    assert not matmul(z, b).values.any()


def test_matmul_matches_loop_reference():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 6))
    b = rng.normal(size=(6, 3))
    got = matmul(constant(a), constant(b)).values
    np.testing.assert_allclose(got, matmul_ref(a.tolist(), b.tolist()), atol=1e-12)


def test_matmul_batched_broadcast():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(2, 3, 4, 5))
    b = rng.normal(size=(5, 6))
    out = matmul(constant(a), constant(b))
    assert out.shape == (2, 3, 4, 6)
    np.testing.assert_allclose(out.values, a @ b)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(constant(np.ones((2, 3))), constant(np.ones((2, 3))))


def test_matmul_gradients():
    rng = np.random.default_rng(2)
    a = parameter(rng.normal(size=(3, 4)))
    b = parameter(rng.normal(size=(4, 2)))
    w = rng.normal(size=(3, 2))
    fdcheck(lambda t: (matmul(t, b) * w).sum(), a)
    fdcheck(lambda t: (matmul(a, t) * w).sum(), b)


def test_matmul_batched_gradients():
    rng = np.random.default_rng(3)
    a = parameter(rng.normal(size=(2, 3, 4)))
    b = parameter(rng.normal(size=(4, 5)))
    w = rng.normal(size=(2, 3, 5))
    fdcheck(lambda t: (matmul(t, b) * w).sum(), a)
    fdcheck(lambda t: (matmul(a, t) * w).sum(), b)


@pytest.mark.parametrize("lead", [(2, 3), (2, 2, 3)], ids=["BSk", "BHSk"])
@pytest.mark.parametrize("trainable", ["left", "right", "both"])
def test_matmul_folded_weight_gradients(lead, trainable):
    # A 2-d right operand takes numpy's broadcast product in both directions;
    # the weight's gradient sums the per-batch products over the leading axes.
    rng = np.random.default_rng(4)
    make_a = parameter if trainable in ("left", "both") else constant
    make_b = parameter if trainable in ("right", "both") else constant
    a = make_a(rng.normal(size=lead + (4,)))
    b = make_b(rng.normal(size=(4, 5)))
    w = rng.normal(size=lead + (5,))
    np.testing.assert_allclose(matmul(a, b).values, np.matmul(a.values, b.values),
                               rtol=1e-12, atol=1e-12)
    if a.requires_grad:
        fdcheck(lambda t: (matmul(t, b) * w).sum(), a)
    if b.requires_grad:
        fdcheck(lambda t: (matmul(a, t) * w).sum(), b)
    a.grad = b.grad = None
    backward((matmul(a, b) * w).sum())
    assert (a.grad is not None) == a.requires_grad
    assert (b.grad is not None) == b.requires_grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_bias_equals_linear_plus_bias_bit_for_bit(dtype):
    # The fused bias is one node; values and every gradient match the two-node graph exactly.
    rng = np.random.default_rng(8)
    x0, w0, b0 = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)
    g = rng.normal(size=(2, 3, 5))

    def run(fused):
        x, w, b = (parameter(v, dtype=dtype) for v in (x0, w0, b0))
        out = linear(x, w, b) if fused else linear(x, w) + b
        loss = (out * g).sum()
        nodes = len(topo_order(loss))
        backward(loss)
        return out.values, [x.grad, w.grad, b.grad], nodes

    fused, fused_grads, fused_nodes = run(True)
    plain, plain_grads, plain_nodes = run(False)
    assert fused.dtype == dtype and fused.shape == (2, 3, 5)
    assert np.array_equal(fused, plain)
    for a, b in zip(fused_grads, plain_grads):
        assert a.dtype == dtype and np.array_equal(a, b)
    assert fused_nodes == plain_nodes - 1


def test_linear_gradients_and_shapes():
    rng = np.random.default_rng(9)
    x = parameter(rng.normal(size=(2, 3, 4)))
    w = parameter(rng.normal(size=(4, 5)))
    b = parameter(rng.normal(size=5))
    g = rng.normal(size=(2, 3, 5))
    fdcheck(lambda t: (linear(t, w, b) * g).sum(), x)
    fdcheck(lambda t: (linear(x, t, b) * g).sum(), w)
    fdcheck(lambda t: (linear(x, w, t) * g).sum(), b)
    with pytest.raises(ShapeError):
        linear(x, w, parameter(np.zeros(4)))
    with pytest.raises(ShapeError):
        linear(x, parameter(np.zeros((3, 5))))


# -- softmax -------------------------------------------------------------------


def test_softmax_symmetry():
    out = softmax_lastdim(constant([0.0, 0.0]))
    np.testing.assert_allclose(out.values, [0.5, 0.5])


def test_softmax_against_scalar_reference():
    out = softmax_lastdim(constant([1.0, 2.0, 3.0])).values
    np.testing.assert_allclose(out, softmax_ref([1.0, 2.0, 3.0]), atol=1e-12)
    np.testing.assert_allclose(out, [0.09003, 0.24473, 0.66524], atol=1e-5)


def test_softmax_single_unmasked_position():
    out = softmax_lastdim(constant([5.0, 5.0]), mask=np.array([True, False]))
    assert out.values.tolist() == [1.0, 0.0]


def test_softmax_fully_masked_row_raises():
    x = constant(np.zeros((2, 3)))
    mask = np.array([[True, True, True], [False, False, False]])
    with pytest.raises(ValueError, match="fully masked"):
        softmax_lastdim(x, mask=mask)


@settings(deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
def test_softmax_rows_sum_to_one(row):
    out = softmax_lastdim(constant(row)).values
    assert abs(out.sum() - 1.0) < 1e-6
    assert ((out >= 0) & (out <= 1)).all()


def test_softmax_masked_positions_exactly_zero():
    rng = np.random.default_rng(4)
    x = constant(rng.normal(size=(5, 7)))
    mask = rng.random((5, 7)) < 0.6
    mask[:, 0] = True
    out = softmax_lastdim(x, mask=mask).values
    assert (out[~mask] == 0.0).all()
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)


def test_softmax_gradient():
    rng = np.random.default_rng(5)
    x = parameter(rng.normal(size=(3, 5)))
    w = rng.normal(size=(3, 5))
    fdcheck(lambda t: (softmax_lastdim(t) * w).sum(), x)
    mask = rng.random((3, 5)) < 0.7
    mask[:, 2] = True
    fdcheck(lambda t: (softmax_lastdim(t, mask=mask) * w).sum(), x)


# -- layer norm -----------------------------------------------------------------


def test_layer_norm_constant_vector_collapses_to_bias():
    gain = constant(np.ones(4))
    bias = constant(np.full(4, 0.25))
    out = layer_norm(constant(np.full(4, 7.0)), gain, bias, eps=1e-5)
    np.testing.assert_allclose(out.values, 0.25)


def test_layer_norm_two_point_example():
    out = layer_norm(constant([1.0, 3.0]), constant(np.ones(2)), constant(np.zeros(2)),
                     eps=1e-12)
    np.testing.assert_allclose(out.values, [-1.0, 1.0], atol=1e-6)


def test_layer_norm_zero_gain_broadcasts_bias():
    rng = np.random.default_rng(6)
    x = constant(rng.normal(size=(3, 4)))
    out = layer_norm(x, constant(np.zeros(4)), constant(np.arange(4.0)), eps=1e-5)
    np.testing.assert_allclose(out.values, np.tile(np.arange(4.0), (3, 1)))


def test_layer_norm_against_scalar_reference():
    rng = np.random.default_rng(7)
    vec = rng.normal(size=6)
    gain = rng.normal(size=6)
    bias = rng.normal(size=6)
    out = layer_norm(constant(vec), constant(gain), constant(bias), eps=1e-5).values
    np.testing.assert_allclose(out, layer_norm_ref(vec, gain, bias, 1e-5), atol=1e-12)


def test_layer_norm_shape_mismatch():
    with pytest.raises(ShapeError):
        layer_norm(constant(np.ones((2, 4))), constant(np.ones(3)), constant(np.zeros(3)))


def test_layer_norm_gradients():
    rng = np.random.default_rng(8)
    x = parameter(rng.normal(size=(2, 5)))
    gain = parameter(rng.normal(size=5))
    bias = parameter(rng.normal(size=5))
    w = rng.normal(size=(2, 5))

    def f(_):
        return (layer_norm(x, gain, bias, eps=1e-5) * w).sum()

    fdcheck(f, x)
    fdcheck(f, gain)
    fdcheck(f, bias)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 6, 16), (4, 50, 64)])
def test_layer_norm_means_equal_numpy_mean(dtype, shape):
    # The op takes its means as add.reduce / d; this is numpy's .mean bit for bit.
    rng = np.random.default_rng(9)
    x, gain, bias = (rng.normal(size=n).astype(dtype) for n in (shape, shape[-1], shape[-1]))
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    inv = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + 1e-5)
    out = layer_norm(constant(x), constant(gain), constant(bias)).values
    assert out.tobytes() == (centered * inv * gain + bias).tobytes()


# 2100 rows of 96 run in four row blocks of the forward-only layer norm,
# the last one partial; 3 x 350 rows in two.
_NORM_SHAPES = [(2100, 96), (3, 350, 96)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", _NORM_SHAPES)
@pytest.mark.parametrize("with_residual", [False, True])
def test_forward_only_layer_norm_equals_graph_mode_bit_for_bit(dtype, shape, with_residual):
    # The 3-d residual is [s, d] against a [b, s, d] input, broadcast as add broadcasts.
    rng = np.random.default_rng(25)
    d = shape[-1]
    assert math.prod(shape[:-1]) > autodiff._NORM_BLOCK // d
    arrays = [rng.normal(loc=3.0, size=n) for n in (shape, shape[-2:], d, d)]
    x, r, gain, bias = (parameter(a, dtype=dtype) for a in arrays)
    residual = r if with_residual else None
    recorded = layer_norm(x, gain, bias, residual=residual)
    before = [x.values.copy(), r.values.copy()]
    with no_grad():
        fused = layer_norm(x, gain, bias, residual=residual)
    frozen = [constant(t.values) for t in (x, gain, bias)]  # no input requires a gradient
    plain = layer_norm(*frozen, residual=constant(r.values) if with_residual else None)
    assert recorded.node is not None and fused.node is None and plain.node is None
    assert same_bits(fused.values, recorded.values)
    assert same_bits(plain.values, recorded.values)
    assert same_bits(x.values, before[0]) and same_bits(r.values, before[1])


@pytest.mark.parametrize("wide", ["gain", "bias"])
def test_forward_only_layer_norm_with_a_wider_affine_promotes_as_graph_mode_bit_for_bit(wide):
    # A float64 gain or bias over a float32 input cannot run in the input's
    # array; the output is float64, as in graph mode.
    rng = np.random.default_rng(28)
    x = parameter(rng.normal(size=(3, 350, 96)), dtype=np.float32)
    gain, bias = (parameter(rng.normal(size=96), dtype=np.float64 if wide == name
                            else np.float32) for name in ("gain", "bias"))
    recorded = layer_norm(x, gain, bias)
    with no_grad():
        fused = layer_norm(x, gain, bias)
    assert fused.dtype == np.float64 and same_bits(fused.values, recorded.values)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_forward_only_layer_norm_raises_on_a_non_finite_row_in_a_later_block(bad):
    rng = np.random.default_rng(26)
    x = constant(rng.normal(size=(2100, 96)))
    x.values[-1, 5] = bad  # past the constructor's check; in the last row block
    with pytest.raises(NonFiniteError, match="layer_norm"):
        layer_norm(x, constant(np.ones(96)), constant(np.zeros(96)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("with_residual", [False, True])
def test_forward_only_layer_norm_holds_one_output_and_one_row_block(dtype, with_residual):
    # The output is the x + residual array (a copy of x without a residual),
    # normalized in place; each row block's squares are the only other
    # array of its size, and each dies before the next is made. The rest
    # is a few kB: the block's row statistics and array headers.
    rng = np.random.default_rng(27)
    rows, d = 1024, 512
    x, r = (constant(rng.normal(size=(rows, d)), dtype=dtype) for _ in range(2))
    gain, bias = constant(np.ones(d), dtype=dtype), constant(np.zeros(d), dtype=dtype)
    scratch = (autodiff._NORM_BLOCK // d) * d * np.dtype(dtype).itemsize
    assert scratch * 8 <= x.values.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = layer_norm(x, gain, bias, residual=r if with_residual else None)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.shape == (rows, d)
    assert peak < out.values.nbytes + scratch + 4096


# -- fused attention and residual layer norm -------------------------------------------------


def _unfused_attention(q, k, v, key_mask, num_heads):
    batch, seq, d = q.shape

    def split(t):
        return t.reshape((batch, seq, num_heads, d // num_heads)).transpose((0, 2, 1, 3))

    scale = 1.0 / math.sqrt(d // num_heads)
    logits = matmul(split(q), split(k).transpose((0, 1, 3, 2))) * scale
    probs = softmax_lastdim(logits, key_mask[:, None, None, :])
    return matmul(probs, split(v)).transpose((0, 2, 1, 3)).reshape((batch, seq, d))


def _padded_key_mask():
    mask = np.ones((3, 5), bool)
    mask[1, 3:] = False
    mask[2, 1:] = False
    return mask


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_equals_unfused_chain_bit_for_bit(dtype):
    rng = np.random.default_rng(21)
    q0, k0, v0, g = (rng.normal(size=(3, 5, 8)) for _ in range(4))

    def run(op):
        q, k, v = (parameter(a, dtype=dtype) for a in (q0, k0, v0))
        out = op(q, k, v, _padded_key_mask(), 2)
        backward((out * g).sum())
        return [out.values, q.grad, k.grad, v.grad]

    for fused, plain in zip(run(attention), run(_unfused_attention)):
        assert fused.dtype == dtype and fused.tobytes() == plain.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_residual_layer_norm_equals_add_then_layer_norm_bit_for_bit(dtype):
    # The residual is [s, d] against a [b, s, d] input, so its gradient is unbroadcast.
    rng = np.random.default_rng(22)
    arrays = [rng.normal(size=n) for n in ((3, 4, 6), (4, 6), 6, 6)]
    g = rng.normal(size=(3, 4, 6))

    def run(fused):
        x, r, gain, bias = (parameter(a, dtype=dtype) for a in arrays)
        out = (layer_norm(x, gain, bias, residual=r) if fused
               else layer_norm(x + r, gain, bias))
        backward((out * g).sum())
        return [out.values, x.grad, r.grad, gain.grad, bias.grad]

    for fused, plain in zip(run(True), run(False)):
        assert fused.dtype == dtype and fused.tobytes() == plain.tobytes()


def test_attention_gradients():
    rng = np.random.default_rng(23)
    q, k, v = (parameter(rng.normal(size=(3, 5, 4))) for _ in range(3))
    w = rng.normal(size=(3, 5, 4))

    def f(_):
        return (attention(q, k, v, _padded_key_mask(), 2) * w).sum()

    for t in (q, k, v):
        fdcheck(f, t)


def test_residual_layer_norm_gradients():
    rng = np.random.default_rng(24)
    x, r, gain, bias = (parameter(rng.normal(size=n)) for n in ((2, 3, 5), (3, 5), 5, 5))
    w = rng.normal(size=(2, 3, 5))

    def f(_):
        return (layer_norm(x, gain, bias, residual=r) * w).sum()

    for t in (x, r, gain, bias):
        fdcheck(f, t)


def test_attention_rejects_a_fully_masked_row_and_bad_shapes():
    q = constant(np.ones((2, 3, 4)))
    mask = np.ones((2, 3), bool)
    mask[1] = False
    with pytest.raises(ValueError, match="fully masked row"):
        attention(q, q, q, mask, 2)
    with pytest.raises(ShapeError):
        attention(q, q, q, np.ones((2, 3), bool), 3)
    with pytest.raises(ShapeError):
        attention(q, q, q, np.ones((3, 2), bool), 2)


# -- bce ------------------------------------------------------------------------


def test_bce_midpoint():
    out = bce_with_logits(constant([0.0]), np.array([1.0]))
    np.testing.assert_allclose(out.values, math.log(2.0))
    np.testing.assert_allclose(out.values, 0.693147, atol=1e-6)


def test_bce_saturated_correct_is_tiny_and_finite():
    out = bce_with_logits(constant([100.0]), np.array([1.0])).values
    assert np.isfinite(out).all()
    assert out[0] < 1e-10


def test_bce_negative_logit_zero_target():
    out = bce_with_logits(constant([-2.0]), np.array([0.0])).values
    np.testing.assert_allclose(out[0], math.log1p(math.exp(-2.0)))
    np.testing.assert_allclose(out[0], 0.126928, atol=1e-6)


def test_bce_matches_reference_elementwise():
    rng = np.random.default_rng(9)
    z = rng.normal(scale=5, size=12)
    t = (rng.random(12) < 0.5).astype(float)
    out = bce_with_logits(constant(z), t).values
    np.testing.assert_allclose(out, [bce_ref(zi, ti) for zi, ti in zip(z, t)], atol=1e-12)


def test_bce_rejects_non_binary_targets():
    with pytest.raises(ValueError, match="0 or 1"):
        bce_with_logits(constant([0.0]), np.array([0.5]))


@settings(deadline=None)
@given(st.floats(-1e4, 1e4), st.sampled_from([0.0, 1.0]))
def test_bce_finite_and_nonnegative(z, t):
    out = bce_with_logits(constant([z]), np.array([t])).values
    assert np.isfinite(out).all()
    assert out[0] >= 0.0


def test_bce_gradient():
    rng = np.random.default_rng(10)
    z = parameter(rng.normal(size=(3, 4)))
    t = (rng.random((3, 4)) < 0.5).astype(float)
    fdcheck(lambda u: bce_with_logits(u, t).sum(), z)


# -- dropout ---------------------------------------------------------------------


def test_dropout_inference_is_identity():
    x = constant(np.arange(6.0))
    assert dropout(x, 0.4, rng=None) is x


def test_dropout_p_zero_is_identity():
    x = constant(np.arange(6.0))
    assert dropout(x, 0.0, rng=np.random.default_rng(0)) is x


@pytest.mark.parametrize("p", [1.0, 1.5, -0.1])
def test_dropout_rejects_bad_probability(p):
    with pytest.raises(ValueError):
        dropout(constant([1.0]), p, rng=np.random.default_rng(0))


def test_dropout_zero_fraction_concentrates():
    x = constant(np.ones(10_000))
    out = dropout(x, 0.5, rng=np.random.default_rng(42)).values
    zero_fraction = (out == 0.0).mean()
    assert abs(zero_fraction - 0.5) < 0.02


def test_dropout_scales_survivors():
    x = constant(np.ones(1000))
    out = dropout(x, 0.25, rng=np.random.default_rng(3)).values
    survivors = out[out != 0.0]
    np.testing.assert_allclose(survivors, 1.0 / 0.75)


def test_dropout_deterministic_under_seed():
    x = constant(np.ones(100))
    a = dropout(x, 0.4, rng=np.random.default_rng(7)).values
    b = dropout(x, 0.4, rng=np.random.default_rng(7)).values
    assert np.array_equal(a, b)


def test_dropout_gradient_with_fixed_mask():
    x = parameter(np.linspace(-1, 1, 12).reshape(3, 4))
    fdcheck(lambda t: dropout(t, 0.5, np.random.default_rng(5)).sum(), x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_keeps_a_bool_mask_with_the_float_mask_values(dtype):
    # A multiply casts the bool mask to the tensor's dtype, so values and
    # gradients are those of the mask in that dtype, bit for bit.
    rng = np.random.default_rng(8)
    x = parameter(rng.normal(size=(5, 7)), dtype=dtype)
    g = rng.normal(size=(5, 7)).astype(dtype)
    out = dropout(x, 0.3, np.random.default_rng(12))
    held = saved_arrays(out)
    assert [a.dtype for a in held] == [np.dtype(bool)]
    keep = (np.random.default_rng(12).random((5, 7)) >= 0.3).astype(dtype)
    scale = 1.0 / (1.0 - 0.3)
    assert same_bits(out.values, x.values * keep * scale)
    backward((out * constant(g)).sum())
    assert same_bits(x.grad, g * keep * scale)


# -- gelu and misc ops -------------------------------------------------------------


def test_gelu_matches_reference():
    xs = np.linspace(-4, 4, 17)
    out = gelu(constant(xs)).values
    np.testing.assert_allclose(out, [gelu_ref(v) for v in xs], atol=1e-12)


def test_gelu_gradient():
    x = parameter(np.linspace(-3, 3, 10))
    fdcheck(lambda t: gelu(t).sum(), x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_in_place_chain_equals_the_plain_formula(dtype):
    # The forward and backward chains run through one temporary each; they
    # give the values of the expressions below bit for bit, in the tails too.
    rng = np.random.default_rng(13)
    xs = np.concatenate([np.linspace(-12, 12, 241), rng.normal(scale=4.0, size=300)])
    x = parameter(xs, dtype=dtype)
    g = rng.normal(size=xs.shape).astype(dtype)
    v = x.values
    cdf = 0.5 * (1.0 + erf(v / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi)
    out = gelu(x)
    assert same_bits(out.values, v * cdf)
    backward((out * constant(g)).sum())
    assert same_bits(x.grad, g * (cdf + v * pdf))


# -- fused feed-forward ----------------------------------------------------------------


def _ffn_params(rng, d, f, n, dtype):
    return [parameter(rng.normal(scale=0.5, size=shape), dtype=dtype)
            for shape in ((d, f), (f,), (f, n), (n,))]


def _ffn_chain(x, w_in, b_in, w_out, b_out):
    return linear(gelu(linear(x, w_in, b_in)), w_out, b_out)


def _ffn_grads(op, x, params, g, passes=1):
    """Values of `op` and the gradients of its five inputs after `passes`
    backward passes of the loss sum(op(...) * g)."""
    for t in (x, *params):
        t.grad = None
    for _ in range(passes):
        out = op(x, *params)
        backward((out * constant(g)).sum())
    return out.values, [t.grad.copy() for t in (x, *params)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(7,), (2, 5)])
def test_feed_forward_equals_the_unfused_chain_bit_for_bit(dtype, lead):
    rng = np.random.default_rng(40)
    x = parameter(rng.normal(size=lead + (6,)), dtype=dtype)
    params = _ffn_params(rng, 6, 24, 5, dtype)
    g = rng.normal(size=lead + (5,)).astype(dtype)
    fused, fused_grads = _ffn_grads(feed_forward, x, params, g)
    chain, chain_grads = _ffn_grads(_ffn_chain, x, params, g)
    assert same_bits(fused, chain)
    for a, b in zip(fused_grads, chain_grads):
        assert same_bits(a, b)


@pytest.mark.parametrize("wide", [0, 1, 2, 3, 4])
def test_feed_forward_promotes_dtypes_as_linear_does(wide):
    # One float64 input among float32 ones; the unfused chain casts each
    # node's gradient to that node's dtype, and so must the fused op.
    rng = np.random.default_rng(49)
    x = parameter(rng.normal(size=(2, 3, 6)), dtype=np.float64 if wide == 0 else np.float32)
    params = [parameter(t.values, dtype=np.float64 if i + 1 == wide else np.float32)
              for i, t in enumerate(_ffn_params(rng, 6, 12, 5, np.float32))]
    g = rng.normal(size=(2, 3, 5))
    fused, fused_grads = _ffn_grads(feed_forward, x, params, g)
    chain, chain_grads = _ffn_grads(_ffn_chain, x, params, g)
    assert same_bits(fused, chain) and fused.dtype == np.float64
    for a, b in zip(fused_grads, chain_grads):
        assert same_bits(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_feed_forward_input_with_a_second_consumer(dtype):
    # As in an encoder layer: the input also enters the residual layer norm.
    rng = np.random.default_rng(41)
    x = parameter(rng.normal(size=(2, 3, 6)), dtype=dtype)
    params = _ffn_params(rng, 6, 16, 6, dtype)
    gain, bias = parameter(np.ones(6), dtype=dtype), parameter(np.zeros(6), dtype=dtype)

    def block(op):
        return lambda x, *p: layer_norm(op(x, *p), gain, bias, residual=x)

    g = rng.normal(size=(2, 3, 6)).astype(dtype)
    fused, fused_grads = _ffn_grads(block(feed_forward), x, params, g)
    chain, chain_grads = _ffn_grads(block(_ffn_chain), x, params, g)
    assert same_bits(fused, chain)
    for a, b in zip(fused_grads, chain_grads):
        assert same_bits(a, b)


def test_feed_forward_gradients_accumulate_over_two_backward_passes():
    rng = np.random.default_rng(42)
    x = parameter(rng.normal(size=(4, 6)), dtype=np.float32)
    params = _ffn_params(rng, 6, 16, 3, np.float32)
    g = rng.normal(size=(4, 3)).astype(np.float32)
    _, once = _ffn_grads(feed_forward, x, params, g)
    _, fused = _ffn_grads(feed_forward, x, params, g, passes=2)
    _, chain = _ffn_grads(_ffn_chain, x, params, g, passes=2)
    for a, b, one in zip(fused, chain, once):
        assert same_bits(a, b)
        assert same_bits(a, one + one)


def test_feed_forward_gradient_by_finite_differences():
    rng = np.random.default_rng(43)
    x = parameter(rng.normal(size=(2, 3, 4)))
    params = _ffn_params(rng, 4, 8, 3, np.float64)
    w = rng.normal(size=(2, 3, 3))
    for t in (x, *params):
        fdcheck(lambda _: (feed_forward(x, *params) * w).sum(), t)


def test_feed_forward_without_a_graph_runs_over_several_blocks_bit_for_bit():
    # 3 x 7 x 3300 hidden elements: more than one block, the last one partial.
    rng = np.random.default_rng(44)
    f = 3300
    assert 3 * 7 * f > autodiff._GELU_BLOCK and (3 * 7 * f) % autodiff._GELU_BLOCK
    x = parameter(rng.normal(size=(3, 7, 8)), dtype=np.float32)
    params = _ffn_params(rng, 8, f, 5, np.float32)
    recorded = feed_forward(x, *params)
    with no_grad():
        fused = feed_forward(x, *params)
        chain = _ffn_chain(x, *params)
    frozen = [constant(t.values) for t in (x, *params)]  # no input requires a gradient
    assert not fused.requires_grad and fused.node is None
    assert same_bits(fused.values, chain.values)
    assert same_bits(feed_forward(*frozen).values, chain.values)
    assert same_bits(recorded.values, chain.values)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("recorded", [True, False])
def test_feed_forward_raises_on_a_non_finite_input(bad, recorded):
    rng = np.random.default_rng(45)
    x = parameter(rng.normal(size=(2, 3, 4)))
    x.values[1, 2, 0] = bad  # past the constructor's check
    params = _ffn_params(rng, 4, 8, 3, np.float64)
    with pytest.raises(NonFiniteError, match="feed_forward"):
        if recorded:
            feed_forward(x, *params)
        else:
            with no_grad():
                feed_forward(x, *params)


def test_feed_forward_records_one_node_that_keeps_no_gelu_output():
    rng = np.random.default_rng(46)
    x = parameter(rng.normal(size=(5, 4)))
    params = _ffn_params(rng, 4, 8, 3, np.float64)
    out = feed_forward(x, *params)
    assert out.node.parents == tuple(t.node for t in (x, *params))
    held = saved_arrays(out)
    # The input, the GEMM output and the cdf: no GELU output, and not the
    # output itself.
    assert sorted(a.shape for a in held) == [(5, 4), (5, 8), (5, 8)]
    assert any(a is x.values for a in held)


def test_feed_forward_rejects_mismatched_shapes():
    rng = np.random.default_rng(47)
    x = parameter(rng.normal(size=(5, 4)))
    w_in, b_in, w_out, b_out = _ffn_params(rng, 4, 8, 3, np.float64)
    for args in ((w_in, b_in, w_out, parameter(np.zeros(4))),
                 (w_in, parameter(np.zeros(3)), w_out, b_out),
                 (w_in, b_in, parameter(np.zeros((7, 3))), b_out),
                 (parameter(np.zeros((5, 8))), b_in, w_out, b_out)):
        with pytest.raises(ShapeError, match="feed_forward"):
            feed_forward(x, *args)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_feed_forward_without_a_graph_holds_one_hidden_array(dtype):
    # The first GEMM's output is the only [rows, f] array: GELU runs in it
    # through a block-sized scratch, and the second GEMM writes [rows, n].
    rng = np.random.default_rng(48)
    rows, f = 256, 2048
    x = constant(rng.normal(size=(rows, 4)), dtype=dtype)
    params = [constant(t.values) for t in _ffn_params(rng, 4, f, 4, dtype)]
    hidden = rows * f * np.dtype(dtype).itemsize
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = feed_forward(x, *params)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.shape == (rows, 4)
    assert peak < 2 * hidden


def _ffn_row_blocks(monkeypatch, rows, f, count):
    """Shrink the forward-only row blocks so that `rows` rows of hidden
    width `f` run in `count` blocks of unequal size; return their sizes."""
    monkeypatch.setattr(autodiff, "_FFN_BLOCK", -(-rows * f // count))
    assert -(-rows * f // autodiff._FFN_BLOCK) == count and rows % count
    return [rows * (i + 1) // count - rows * i // count for i in range(count)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_only_feed_forward_row_blocks_equal_the_graph_node_bit_for_bit(
        monkeypatch, dtype):
    # 3 x 151 rows in 4 blocks of 113 or 114 rows; each block's GEMMs stay
    # large enough for OpenBLAS's general kernels, as the model's do.
    rng = np.random.default_rng(50)
    sizes = _ffn_row_blocks(monkeypatch, 3 * 151, 512, 4)
    assert len(set(sizes)) == 2
    x = parameter(rng.normal(size=(3, 151, 48)), dtype=dtype)
    params = _ffn_params(rng, 48, 512, 40, dtype)
    recorded = feed_forward(x, *params)
    with no_grad():
        fused = feed_forward(x, *params)
    plain = feed_forward(*(constant(t.values) for t in (x, *params)))
    assert fused.node is None and plain.node is None
    assert same_bits(fused.values, recorded.values)
    assert same_bits(plain.values, recorded.values)


@pytest.mark.parametrize("wide", [0, 1, 2, 3, 4])
def test_forward_only_feed_forward_promotes_dtypes_as_the_graph_node_bit_for_bit(
        monkeypatch, wide):
    # One float64 input among float32 ones, over three row blocks.
    rng = np.random.default_rng(51)
    _ffn_row_blocks(monkeypatch, 400, 384, 3)
    x = parameter(rng.normal(size=(400, 48)), dtype=np.float64 if wide == 0 else np.float32)
    params = [parameter(t.values, dtype=np.float64 if i + 1 == wide else np.float32)
              for i, t in enumerate(_ffn_params(rng, 48, 384, 40, np.float32))]
    recorded = feed_forward(x, *params)
    with no_grad():
        fused = feed_forward(x, *params)
    assert fused.dtype == np.float64
    assert same_bits(fused.values, recorded.values)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_forward_only_feed_forward_raises_on_a_non_finite_row_in_a_later_block(
        monkeypatch, bad):
    rng = np.random.default_rng(52)
    _ffn_row_blocks(monkeypatch, 400, 384, 3)
    x = constant(rng.normal(size=(400, 48)))
    x.values[-1, 7] = bad  # past the constructor's check; in the last row block
    params = [constant(t.values) for t in _ffn_params(rng, 48, 384, 40, np.float64)]
    with pytest.raises(NonFiniteError, match="feed_forward"):
        feed_forward(x, *params)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_only_feed_forward_holds_one_hidden_row_block(monkeypatch, dtype):
    # Across 8 row blocks the call holds the output, one [block rows, f]
    # hidden array, GELU's block-sized scratch and the blocks' finiteness
    # masks: less than the output, the input and one hidden row block.
    rng = np.random.default_rng(53)
    rows, f = 2048, 1024
    sizes = _ffn_row_blocks(monkeypatch, rows + 3, f, 8)
    x = constant(rng.normal(size=(rows + 3, 64)), dtype=dtype)
    params = [constant(t.values) for t in _ffn_params(rng, 64, f, 64, dtype)]
    hidden_block = max(sizes) * f * np.dtype(dtype).itemsize
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = feed_forward(x, *params)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.shape == (rows + 3, 64)
    assert peak < out.values.nbytes + x.values.nbytes + hidden_block


def test_elementwise_gradients():
    rng = np.random.default_rng(11)
    x = parameter(rng.normal(size=(2, 3)) + 3.0)
    xv = x.values.copy()
    fdcheck(lambda t: (1.0 + (t * t + 2.0 * t) * (1.0 / 7.0) + t * -1.0).sum(), x)
    assert np.array_equal(x.values, xv)


def test_broadcast_add_gradient():
    x = parameter(np.random.default_rng(12).normal(size=(4, 3)))
    b = parameter(np.random.default_rng(13).normal(size=3))
    fdcheck(lambda t: ((x + b) * (x + b)).sum(), b)
    fdcheck(lambda t: ((t + b) * (t + b)).sum(), x)


def test_reshape_transpose_gradients():
    x = parameter(np.random.default_rng(14).normal(size=(2, 3, 4)))
    w = np.random.default_rng(15).normal(size=(4, 3, 2))
    fdcheck(lambda t: (t.reshape(2, 12).reshape(2, 3, 4).transpose((2, 1, 0)) * w).sum(), x)



@pytest.mark.parametrize("axes", [(-1, 0), (1, -2)])
def test_transpose_negative_axes_on_a_square_input(axes):
    # argsort of the raw axes once gave the identity as the inverse here.
    x = parameter(np.random.default_rng(18).normal(size=(3, 3)))
    w = np.random.default_rng(19).normal(size=(3, 3))
    assert np.array_equal(x.transpose(axes).values, x.values.T)
    fdcheck(lambda t: (t.transpose(axes) * w).sum(), x)


def test_transpose_negative_axes_on_a_3d_input():
    x = parameter(np.random.default_rng(20).normal(size=(2, 3, 4)))
    w = np.random.default_rng(21).normal(size=(4, 2, 3))
    assert x.transpose((-1, 0, -2)).shape == (4, 2, 3)
    fdcheck(lambda t: (t.transpose((-1, 0, -2)) * w).sum(), x)


@pytest.mark.parametrize("axes", [(0, 0), (0,), (0, 2), (-3, 0), (0, 1, 2)])
def test_transpose_refuses_axes_that_are_not_a_permutation(axes):
    with pytest.raises(ValueError):
        parameter(np.ones((2, 3))).transpose(axes)


@pytest.mark.parametrize("axis", [(0, 1), (0, -1), (-1, 1), 1, -3])
@pytest.mark.parametrize("keepdims", [False, True])
def test_mean_over_axes_is_sum_over_count(axis, keepdims):
    x = parameter(np.random.default_rng(22).normal(size=(2, 3, 4)))
    count = math.prod(x.shape[a] for a in np.atleast_1d(axis))
    np.testing.assert_allclose(x.mean(axis=axis, keepdims=keepdims).values,
                               x.values.sum(axis=axis, keepdims=keepdims) / count,
                               rtol=1e-15)
    w = np.random.default_rng(23).normal(size=x.values.mean(axis=axis, keepdims=keepdims).shape)
    fdcheck(lambda t: (t.mean(axis=axis, keepdims=keepdims) * w).sum(), x)

def test_take_rows_gather_and_duplicate_accumulation():
    x = parameter(np.arange(12.0).reshape(4, 3))
    out = take_rows(x, np.array([2, 0, 2]))
    assert out.values.tolist() == [[6, 7, 8], [0, 1, 2], [6, 7, 8]]
    backward(out.sum())
    np.testing.assert_array_equal(x.grad, [[1, 1, 1], [0, 0, 0], [2, 2, 2], [0, 0, 0]])


def test_take_rows_out_of_range():
    with pytest.raises(IndexError):
        take_rows(constant(np.ones((2, 2))), np.array([2]))


def test_take_rows_gradient():
    x = parameter(np.random.default_rng(16).normal(size=(5, 3)))
    idx = np.array([0, 3, 3, 1])
    w = np.random.default_rng(17).normal(size=(4, 3))
    fdcheck(lambda t: (take_rows(t, idx) * w).sum(), x)


# -- backward pass ----------------------------------------------------------------


def test_backward_sum_gives_ones():
    x = parameter(np.arange(6.0).reshape(2, 3))
    backward(x.sum())
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_hand_differentiated_square():
    x = parameter([1.0, 2.0])
    backward((x * x).sum())
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_backward_unused_parameter_has_no_gradient():
    x = parameter([1.0, 2.0])
    unused = parameter([3.0])
    backward((x * x).sum())
    assert unused.grad is None  # training treats missing gradients as zeros


def test_backward_double_use_accumulates_exactly_twice():
    def grad_of(n_terms):
        x = parameter([1.0, 2.0, 3.0])
        terms = (x * x).sum()
        total = terms
        for _ in range(n_terms - 1):
            total = total + (x * x).sum()
        backward(total)
        return x.grad

    np.testing.assert_array_equal(grad_of(2), 2.0 * grad_of(1))


def test_backward_accumulates_across_calls():
    x = parameter([1.0, 2.0])
    backward((x * x).sum())
    first = x.grad.copy()
    backward((x * x).sum())
    np.testing.assert_array_equal(x.grad, 2.0 * first)


def test_zero_grads_keeps_gradient_arrays_for_the_next_backward():
    # The first gradient of the next backward lands in the array zero_grads
    # parked, whichever op writes it: the linear weight GEMM, the take_rows
    # scatter, or a plain accumulation (the bias and the gain); each holds
    # the values of freshly allocated gradients.
    rng = np.random.default_rng(21)
    start = [rng.normal(size=s) for s in ((6, 4), (4, 3), (3,), (3,))]

    def loss(table, w, b, gain, idx):
        return (linear(take_rows(table, idx), w, b) * gain).sum()

    params = [parameter(v, dtype=np.float32) for v in start]
    extra = parameter([2.0], dtype=np.float32)
    backward(loss(*params, [0, 4, 4, 2]) * extra)
    first = [p.grad for p in params]
    zero_grads(params + [extra])
    assert all(p.grad is None for p in params + [extra])
    backward(loss(*params, [1, 1, 5]))
    fresh = [parameter(v, dtype=np.float32) for v in start]
    backward(loss(*fresh, [1, 1, 5]))
    for p, kept, f in zip(params, first, fresh):
        assert p.grad is kept
        assert np.array_equal(p.grad, f.grad)
    assert extra.grad is None  # not reached by the second graph


def test_backward_rejects_non_scalar_loss():
    x = parameter(np.ones(3))
    with pytest.raises(ValueError, match="scalar"):
        backward(x * 2.0)


def _linear_gelu_loss(rng):
    w = parameter(rng.normal(size=(4, 3)))
    b = parameter(np.zeros(3))
    h = gelu(linear(constant(rng.normal(size=(5, 4))), w, b))
    return w, b, h, (h * 2.0).sum()


def test_backward_keeps_leaf_gradients_and_releases_the_graph():
    w, b, h, loss = _linear_gelu_loss(np.random.default_rng(30))
    nodes = topo_order(loss)
    ops = [n for n in nodes if n.backward_fn is not None]
    assert len(ops) == 4  # linear, gelu, mul, sum
    backward(loss)
    for node in ops:
        assert node.grad is None and node.parents == ()
        assert node.backward_fn is autodiff._released
    for leaf in (w, b):
        assert leaf.grad is not None and leaf.node.backward_fn is None
    assert topo_order(loss) == [loss.node]


def test_intermediate_tensors_die_when_backward_returns():
    # The caller keeps the loss, as train_step does until its next forward,
    # and drops the layer output; the graph behind the loss is gone.
    # gelu's node keeps the linear output's array and the cdf (the multiply
    # by a constant keeps no array); all of them die with the graph.
    w, b, h, loss = _linear_gelu_loss(np.random.default_rng(31))
    saved = saved_arrays(h)
    assert len(saved) == 2
    refs = [weakref.ref(h), weakref.ref(h.node), weakref.ref(h.node.parents[0]),
            weakref.ref(h.values), *(weakref.ref(a) for a in saved)]
    del h, saved
    backward(loss)
    assert [r() for r in refs] == [None] * 6
    assert w.grad is not None and loss.grad is None


@pytest.mark.parametrize("linear_first", [True, False])
def test_a_multiply_by_a_constant_keeps_no_array_of_the_other_operand(linear_first):
    # Each side's gradient reads only the other side's values: in
    # linear(...) * const the linear output's array dies with its tensor,
    # and the weight gradient equals the one of a graph that kept it.
    rng = np.random.default_rng(36)
    x, w0, c = rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=(5, 3))

    def run(other):
        w = parameter(w0)
        h = linear(constant(x), w)
        out = h * other if linear_first else other * h
        held = weakref.ref(h.values)
        del h
        return w, out, held

    w, out, held = run(constant(c))
    assert held() is None
    assert [a.shape for a in saved_arrays(out)] == [(5, 3)]
    backward(out.sum())
    w_kept, out_kept, held_kept = run(parameter(c))  # both sides need gradients
    assert held_kept() is not None
    backward(out_kept.sum())
    assert same_bits(w.grad, w_kept.grad)


def test_a_second_backward_on_a_released_graph_raises_before_writing():
    x = parameter([1.0, 2.0])
    h = x * x
    loss = h.sum()
    backward(loss)
    first = x.grad.copy()
    with pytest.raises(ValueError, match="released by an earlier backward"):
        backward(loss)
    with pytest.raises(ValueError, match="released by an earlier backward"):
        backward((h * 3.0 + x).sum())  # a new graph through a released node
    assert np.array_equal(x.grad, first)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_peak_stays_within_the_forward_plus_two_activations(dtype):
    # Without freeing, every op node's gradient stays until backward returns
    # (about 14 activations here). With it, the peak over what the forward
    # retained is the leaves' gradients, two activations (the gradient in
    # use and the one being made) and one ufunc buffer, through which a
    # multiply casts dropout's bool mask.
    rng = np.random.default_rng(32)
    rows, width = 4096, 32
    weights = [parameter(rng.normal(size=(width, width)) / 8, dtype=dtype) for _ in range(4)]
    biases = [parameter(np.zeros(width), dtype=dtype) for _ in range(4)]
    h = constant(rng.normal(size=(rows, width)), dtype=dtype)
    activation = h.values.nbytes
    drop_rng = np.random.default_rng(33)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for w, b in zip(weights, biases):
            h = dropout(gelu(linear(h, w, b)), 0.1, drop_rng)
        loss = h.sum()
        del h
        retained = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    leaf_grads = sum(p.grad.nbytes for p in weights + biases)
    buffer = np.getbufsize() * np.dtype(dtype).itemsize
    assert peak <= retained + leaf_grads + 2 * activation + buffer


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_recorded_forward_keeps_only_the_linear_inputs_and_the_masks(dtype):
    # Backward reads each linear's input and each dropout's bool mask, and
    # no output: a linear output dies once dropout has masked it, a
    # dropout output once the next linear (or the sum) has read it. A graph
    # whose edges held tensors kept 2 activations per layer, besides the
    # masks; this one keeps one, the input (allocated before) included.
    rng = np.random.default_rng(34)
    rows, width, layers = 4096, 32, 4
    weights = [parameter(rng.normal(size=(width, width)) / 8, dtype=dtype) for _ in range(layers)]
    biases = [parameter(np.zeros(width), dtype=dtype) for _ in range(layers)]
    x = constant(rng.normal(size=(rows, width)), dtype=dtype)
    activation, mask = x.values.nbytes, rows * width
    drop_rng = np.random.default_rng(35)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        h = x
        for w, b in zip(weights, biases):
            h = dropout(linear(h, w, b), 0.1, drop_rng)
        loss = h.sum()
        del h
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    kept = (layers - 1) * activation + layers * mask
    assert kept <= retained < kept + activation // 8  # the rest: nodes and closures
    backward(loss)
    assert all(p.grad is not None for p in weights + biases)


def test_topo_order_visits_each_node_once():
    x = parameter([1.0])
    a = x * 2.0
    b = x * 3.0
    c = a + b
    order = topo_order(c)
    assert len(order) == len({id(n) for n in order})
    backward(c)
    np.testing.assert_array_equal(x.grad, [5.0])


def test_no_grad_suppresses_graph_recording():
    x = parameter(np.ones(3))
    with no_grad():
        y = (x * 2.0).sum()
    assert not y.requires_grad
    with pytest.raises(ValueError):
        backward(y)


def test_no_grad_in_one_thread_leaves_another_recording():
    inside, release = threading.Event(), threading.Event()
    seen_inside = []

    def evaluator():
        with no_grad():
            seen_inside.append((parameter(np.ones(2)) * 2.0).requires_grad)
            inside.set()
            release.wait(timeout=10)

    thread = threading.Thread(target=evaluator)
    thread.start()
    try:
        assert inside.wait(timeout=10)
        x = parameter(np.ones(3))
        y = (x * 2.0).sum()
        assert y.requires_grad
        backward(y)
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen_inside == [False]


# -- error conditions ----------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflow_raises_non_finite():
    big = constant(np.array([3e38], dtype=np.float32))
    with pytest.raises(NonFiniteError, match="mul"):
        big * 10.0  # beyond float32's largest finite value


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_division_by_zero_raises_non_finite():
    with pytest.raises(NonFiniteError, match="mean"):
        constant(np.zeros((2, 0))).mean(axis=1)  # 0 / 0 per row


def test_nan_input_rejected_at_creation():
    with pytest.raises(NonFiniteError):
        Tensor([np.nan])


# -- finite differences ----------------------------------------------------------------


def test_finite_diff_quadratic_is_nearly_exact():
    x = parameter(np.linspace(-2, 2, 7))
    err = finite_diff_check(lambda t: (t * t).sum(), x, h=1e-5)
    assert err < 1e-7


def test_finite_diff_constant_function_is_zero():
    x = parameter(np.ones(4))
    err = finite_diff_check(lambda t: constant(5.0), x, h=1e-5)
    assert err == 0.0


def test_finite_diff_rejects_non_scalar():
    x = parameter(np.ones(4))
    with pytest.raises(ValueError):
        finite_diff_check(lambda t: t * 1.0, x)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_finite_diff_propagates_non_finite():
    # Finite at x = 1, overflowing float64 at the perturbed point x + h = 2.
    x = parameter([1.0])
    with pytest.raises(NonFiniteError):
        finite_diff_check(lambda t: (t * 1e308).sum(), x, h=1.0)


# -- determinism -------------------------------------------------------------------------


def test_forward_and_gradients_bit_identical_across_runs():
    def run():
        rng = np.random.default_rng(123)
        x = parameter(rng.normal(size=(4, 4)))
        y = dropout(gelu(matmul(x, x)), 0.3, rng)
        loss = softmax_lastdim(y).sum()
        backward(loss)
        return loss.values.copy(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)
