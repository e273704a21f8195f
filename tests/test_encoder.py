import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxground.autodiff import backward, constant, no_grad, parameter, topo_order
from ctxground.encoder import (
    BranchConfig,
    BranchInput,
    check_boxes,
    LinearParams,
    SpatialMLP,
    default_image_config,
    default_text_config,
    embed_tokens,
    encode_branch,
    encoder_layer,
    init_image_branch,
    init_text_branch,
    model_label,
    multi_head_self_attention,
    normalize_boxes,
    spatial_embed,
)
from ctxground.model import named_parameters

from oracles import attention_ref, layer_norm_ref


def text_setup(seq=5, d=8, layers=2, heads=2, vocab=11, seed=0, dropout=0.0):
    cfg = BranchConfig(num_layers=layers, num_heads=heads, hidden_dim=d,
                       dropout_p=dropout, max_positions=16)
    params = init_text_branch(cfg, vocab, np.random.default_rng(seed),
                              dtype=np.float64, std=0.3)
    return cfg, params


def image_setup(d=8, layers=1, heads=2, d_feat=6, seed=0, use_spatial=True, dropout=0.0):
    cfg = BranchConfig(num_layers=layers, num_heads=heads, hidden_dim=d,
                       dropout_p=dropout, use_spatial=use_spatial)
    params = init_image_branch(cfg, d_feat, np.random.default_rng(seed),
                               dtype=np.float64, std=0.3)
    return cfg, params


def random_image_input(rng, batch=2, objects=4, d_feat=6, size=100.0, pad=0):
    feats = rng.normal(size=(batch, objects + pad, d_feat))
    boxes = np.zeros((batch, objects + pad, 4))
    boxes[..., :2] = rng.uniform(0, size / 2, (batch, objects + pad, 2))
    boxes[..., 2:] = boxes[..., :2] + rng.uniform(1, size / 2, (batch, objects + pad, 2))
    mask = np.zeros((batch, objects + pad), dtype=bool)
    mask[:, :objects] = True
    feats[~mask] = 0.0
    boxes[~mask] = (0, 0, 1, 1)
    return BranchInput(valid_mask=mask, features=feats, boxes=boxes,
                       sizes=np.full((batch, 2), size))


# -- configuration -----------------------------------------------------------------


def test_config_requires_divisible_heads():
    with pytest.raises(ValueError, match="divisible"):
        BranchConfig(num_layers=1, num_heads=3, hidden_dim=8)


def test_config_ffn_defaults_to_four_x():
    cfg = BranchConfig(num_layers=1, num_heads=2, hidden_dim=10)
    assert cfg.ffn_dim == 40


def test_config_rejects_bad_dropout():
    with pytest.raises(ValueError):
        BranchConfig(num_layers=1, num_heads=1, hidden_dim=4, dropout_p=1.0)


def test_default_text_config_is_bert_base_shaped():
    cfg = default_text_config()
    assert (cfg.num_layers, cfg.num_heads, cfg.hidden_dim) == (12, 12, 768)
    assert cfg.ffn_dim == 3072


def test_default_image_config_shape_and_label():
    cfg = default_image_config()
    assert (cfg.num_layers, cfg.num_heads, cfg.hidden_dim) == (1, 2, 2048)
    assert cfg.use_spatial is True
    assert model_label(cfg) == "L1-H2-abs"


def test_model_label_round_trip():
    for cfg, label in [
        (BranchConfig(num_layers=3, num_heads=2, hidden_dim=8, use_spatial=False), "L3-H2"),
        (BranchConfig(num_layers=6, num_heads=4, hidden_dim=8, use_spatial=True), "L6-H4-abs"),
    ]:
        assert model_label(cfg) == label


def test_branch_config_dict_round_trip():
    cfg = BranchConfig(num_layers=2, num_heads=2, hidden_dim=8, dropout_p=0.1,
                       max_positions=32)
    assert BranchConfig.from_dict(cfg.to_dict()) == cfg
    # unset optional fields are left out of the dict and parse back as unset
    bare = {"num_layers": 1, "num_heads": 2, "hidden_dim": 8, "ffn_dim": 32, "dropout_p": 0.4}
    assert BranchConfig(num_layers=1, num_heads=2, hidden_dim=8).to_dict() == bare
    assert BranchConfig.from_dict(bare) == BranchConfig(num_layers=1, num_heads=2, hidden_dim=8)


# -- box normalization ----------------------------------------------------------------


def test_normalize_box_full_image():
    np.testing.assert_allclose(normalize_boxes(np.array([[[0, 0, 640, 480]]]), [[640, 480]]),
                               [[[0, 0, 1, 1, 1]]])


def test_normalize_box_quarter():
    np.testing.assert_allclose(normalize_boxes(np.array([[[0, 0, 320, 240]]]), [[640, 480]]),
                               [[[0, 0, 0.5, 0.5, 0.25]]])


def test_normalize_box_translation_preserves_area_component():
    a = normalize_boxes(np.array([[[10, 20, 110, 120]]]), [[640, 480]])[0, 0]
    b = normalize_boxes(np.array([[[50, 60, 150, 160]]]), [[640, 480]])[0, 0]
    assert not np.allclose(a[:4], b[:4])
    assert a[4] == b[4]


# `normalize_boxes` validates nothing; `check_boxes` refuses a box before it
# reaches the branch.
def test_normalize_box_rejects_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        check_boxes(np.array([[[10, 10, 10, 20]]]), "box", (100, 100))


def test_normalize_box_rejects_out_of_bounds():
    with pytest.raises(ValueError, match="bounds"):
        check_boxes(np.array([[[-1, 0, 10, 10]]]), "box", (100, 100))


@settings(deadline=None)
@given(st.integers(1, 638), st.integers(1, 478),
       st.integers(0, 637), st.integers(0, 477))
def test_normalize_box_components_in_unit_range(w_extent, h_extent, x1, y1):
    x1 = min(x1, 639 - w_extent)
    y1 = min(y1, 479 - h_extent)
    out = normalize_boxes(np.array([[[x1, y1, x1 + w_extent, y1 + h_extent]]]), [[640, 480]])
    assert out.shape == (1, 1, 5)
    assert ((out >= 0) & (out <= 1)).all()


# -- embeddings --------------------------------------------------------------------------


def test_embed_single_token_matches_manual_layer_norm():
    cfg, params = text_setup()
    emb = params.embeddings
    out = embed_tokens(np.array([[3]]), emb)
    manual = layer_norm_ref(
        (emb.token_table.values[3] + emb.position_table.values[0]).tolist(),
        emb.norm.gain.values.tolist(), emb.norm.bias.values.tolist(), 1e-5)
    np.testing.assert_allclose(out.values[0, 0], manual, atol=1e-12)


def test_embed_same_token_differs_by_position():
    _, params = text_setup()
    out = embed_tokens(np.array([[5, 5]]), params.embeddings)
    assert not np.allclose(out.values[0, 0], out.values[0, 1])


def test_embed_is_deterministic_in_inference():
    _, params = text_setup()
    a = embed_tokens(np.array([[1, 2, 3]]), params.embeddings)
    b = embed_tokens(np.array([[1, 2, 3]]), params.embeddings)
    assert np.array_equal(a.values, b.values)


def test_embed_rejects_out_of_vocab():
    _, params = text_setup(vocab=11)
    with pytest.raises(ValueError, match="vocab"):
        embed_tokens(np.array([[11]]), params.embeddings)


def test_embed_rejects_too_long_sequence():
    _, params = text_setup()
    with pytest.raises(ValueError, match="max positions"):
        embed_tokens(np.zeros((1, 17), dtype=int), params.embeddings)


# -- spatial MLP ------------------------------------------------------------------------


def test_spatial_embed_zero_weights_returns_bias():
    bias_value = np.arange(4.0)
    mlp = SpatialMLP(
        fc1=LinearParams(weight=constant(np.zeros((5, 4))), bias=constant(np.zeros(4))),
        fc2=LinearParams(weight=constant(np.zeros((4, 4))), bias=constant(bias_value)),
    )
    for box in [(0, 0, 1, 1, 1), (0.2, 0.3, 0.9, 0.4, 0.1)]:
        np.testing.assert_allclose(spatial_embed(np.array(box), mlp).values, bias_value)


def test_spatial_embed_records_one_op_node():
    rng = np.random.default_rng(9)
    mlp = SpatialMLP(fc1=LinearParams(parameter(rng.normal(size=(5, 8))), parameter(np.zeros(8))),
                     fc2=LinearParams(parameter(rng.normal(size=(8, 8))), parameter(np.zeros(8))))
    out = spatial_embed(rng.uniform(size=(2, 3, 5)), mlp)
    assert out.shape == (2, 3, 8)
    assert [n for n in topo_order(out) if n._backward_fn is not None] == [out]


def test_spatial_embed_distinguishes_boxes_under_random_weights():
    a, b = normalize_boxes(np.array([[[0, 0, 50, 50], [50, 50, 100, 100]]]), [[100, 100]])[0]
    for seed in range(10):
        rng = np.random.default_rng(seed)
        mlp = SpatialMLP(
            fc1=LinearParams(weight=constant(rng.normal(size=(5, 8))),
                             bias=constant(rng.normal(size=8))),
            fc2=LinearParams(weight=constant(rng.normal(size=(8, 8))),
                             bias=constant(rng.normal(size=8))),
        )
        assert not np.allclose(spatial_embed(a, mlp).values, spatial_embed(b, mlp).values)


# -- attention ---------------------------------------------------------------------------


def test_attention_single_key_reduces_to_projections():
    cfg, params = text_setup(seq=1, d=4, layers=1, heads=2)
    attn = params.layers[0].attention
    x = constant(np.random.default_rng(1).normal(size=(1, 1, 4)))
    out = multi_head_self_attention(x, np.array([[True]]), cfg, attn)
    value = x.values @ attn.value.weight.values + attn.value.bias.values
    expected = value @ attn.output.weight.values + attn.output.bias.values
    np.testing.assert_allclose(out.values, expected, atol=1e-12)


def test_attention_matches_loop_reference():
    cfg, params = text_setup(d=4, layers=1, heads=2)
    attn = params.layers[0].attention
    x = np.random.default_rng(2).normal(size=(3, 4))
    got = multi_head_self_attention(constant(x[None]), np.ones((1, 3), bool), cfg, attn).values[0]
    want = attention_ref(
        x,
        attn.query.weight.values.tolist(), attn.query.bias.values.tolist(),
        attn.key.weight.values.tolist(),
        attn.value.weight.values.tolist(), attn.value.bias.values.tolist(),
        attn.output.weight.values.tolist(), attn.output.bias.values.tolist(),
        num_heads=2,
    )
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_attention_permutation_equivariance():
    cfg, params = text_setup(d=8, layers=1, heads=2)
    attn = params.layers[0].attention
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 8))
    perm = rng.permutation(5)
    mask = np.ones((1, 5), bool)
    base = multi_head_self_attention(constant(x[None]), mask, cfg, attn).values[0]
    permuted = multi_head_self_attention(constant(x[perm][None]), mask, cfg, attn).values[0]
    np.testing.assert_allclose(permuted, base[perm], atol=1e-12)


def test_attention_masked_keys_are_ignored():
    cfg, params = text_setup(d=8, layers=1, heads=2)
    attn = params.layers[0].attention
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4, 8))
    mask = np.array([[True, True, True, False]])
    base = multi_head_self_attention(constant(x[None]), mask, cfg, attn).values[0]
    x2 = x.copy()
    x2[3] = rng.normal(size=8) * 100
    moved = multi_head_self_attention(constant(x2[None]), mask, cfg, attn).values[0]
    np.testing.assert_array_equal(base[:3], moved[:3])


def test_attention_rejects_fully_masked():
    cfg, params = text_setup(d=4, layers=1, heads=1)
    with pytest.raises(ValueError, match="masked"):
        multi_head_self_attention(constant(np.ones((1, 2, 4))), np.zeros((1, 2), bool),
                                  cfg, params.layers[0].attention)


# -- encoder layer ------------------------------------------------------------------------


def test_encoder_layer_zero_weights_is_double_layer_norm():
    cfg, params = text_setup(d=4, layers=1, heads=2)
    layer = params.layers[0]
    for lin in (layer.attention.query, layer.attention.key, layer.attention.value,
                layer.attention.output, layer.ffn_in, layer.ffn_out):
        lin.weight.values[:] = 0.0
        if lin.bias is not None:
            lin.bias.values[:] = 0.0
    x = np.random.default_rng(5).normal(size=(3, 4))
    out = encoder_layer(constant(x[None]), np.ones((1, 3), bool), cfg, layer).values[0]
    ones, zeros = np.ones(4), np.zeros(4)
    want = [layer_norm_ref(layer_norm_ref(row, ones, zeros, 1e-5), ones, zeros, 1e-5)
            for row in x.tolist()]
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_encoder_layer_records_eight_op_nodes():
    # q/k/v projections, attention, output projection, residual norm, the
    # feed-forward block, residual norm; the leaves are the input and the
    # parameters.
    cfg, params = text_setup(d=8, layers=1, heads=2)
    layer = params.layers[0]
    x = parameter(np.random.default_rng(7).normal(size=(2, 4, 8)))
    out = encoder_layer(x, np.ones((2, 4), bool), cfg, layer)
    assert len(topo_order(out)) - len(named_parameters(layer)) - 1 == 8


def test_encoder_layer_without_a_graph_holds_one_ffn_array():
    # A forward-only layer keeps no second [rows, ffn_dim] array alive: GELU
    # runs in place in the first FFN GEMM's output.
    rng = np.random.default_rng(8)
    cfg = BranchConfig(num_layers=1, num_heads=2, hidden_dim=4, ffn_dim=4096,
                       dropout_p=0.0, max_positions=64)
    layer = init_text_branch(cfg, 5, rng, dtype=np.float64, std=0.3).layers[0]
    x = constant(rng.normal(size=(2, 64, 4)))
    hidden = 2 * 64 * cfg.ffn_dim * 8
    with no_grad():
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = encoder_layer(x, np.ones((2, 64), bool), cfg, layer)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert out.shape == (2, 64, 4)
    assert peak < 2 * hidden


def test_encoder_layer_gradient_reaches_every_parameter():
    cfg, params = text_setup(d=8, layers=1, heads=2)
    layer = params.layers[0]
    x = parameter(np.random.default_rng(6).normal(size=(1, 4, 8)))
    out = encoder_layer(x, np.ones((1, 4), bool), cfg, layer)
    backward((out * out).sum())
    for name, tensor in named_parameters(layer).items():
        assert tensor.grad is not None, name
        assert np.abs(tensor.grad).max() > 0, name


def test_single_layer_stack_equals_one_layer_call():
    cfg, params = text_setup(seq=4, d=8, layers=1, heads=2)
    ids = np.array([[1, 2, 3, 4]])
    mask = np.ones((1, 4), bool)
    inp = BranchInput(valid_mask=mask, token_ids=ids)
    full = encode_branch(inp, cfg, params).values
    embedded = embed_tokens(ids, params.embeddings)
    manual = encoder_layer(embedded, mask, cfg, params.layers[0]).values
    np.testing.assert_array_equal(full, manual)


# -- encode_branch ---------------------------------------------------------------------------


def test_encode_accepts_reference_shapes():
    # full-scale branch shapes are constructible; no forward at that size
    default_text_config()
    default_image_config()


def test_encode_batch_independence():
    cfg, params = text_setup()
    ids = np.array([[1, 2, 3], [4, 5, 6]])
    mask = np.ones((2, 3), bool)
    both = encode_branch(BranchInput(valid_mask=mask, token_ids=ids), cfg, params).values
    solo = encode_branch(BranchInput(valid_mask=mask[:1], token_ids=ids[:1]), cfg, params).values
    np.testing.assert_allclose(both[0], solo[0], atol=1e-6)


def test_encode_padding_invariance_text():
    cfg, params = text_setup()
    ids = np.array([[1, 2, 3]])
    mask = np.ones((1, 3), bool)
    base = encode_branch(BranchInput(valid_mask=mask, token_ids=ids), cfg, params).values
    padded_ids = np.array([[1, 2, 3, 0, 0]])
    padded_mask = np.array([[True, True, True, False, False]])
    padded = encode_branch(BranchInput(valid_mask=padded_mask, token_ids=padded_ids),
                           cfg, params).values
    np.testing.assert_allclose(padded[:, :3], base, atol=1e-6)


def test_encode_padding_invariance_image():
    cfg, params = image_setup()
    rng = np.random.default_rng(7)
    base_in = random_image_input(rng, batch=1, objects=4)
    padded_in = BranchInput(
        valid_mask=np.concatenate([base_in.valid_mask, np.zeros((1, 2), bool)], axis=1),
        features=np.concatenate([base_in.features, np.zeros((1, 2, 6))], axis=1),
        boxes=np.concatenate([base_in.boxes, np.tile((0.0, 0.0, 1.0, 1.0), (1, 2, 1))], axis=1),
        sizes=base_in.sizes,
    )
    base = encode_branch(base_in, cfg, params).values
    padded = encode_branch(padded_in, cfg, params).values
    np.testing.assert_allclose(padded[:, :4], base, atol=1e-6)


@pytest.mark.parametrize("use_spatial", [True, False])
def test_encode_image_permutation_equivariance(use_spatial):
    cfg, params = image_setup(use_spatial=use_spatial)
    rng = np.random.default_rng(8)
    inp = random_image_input(rng, batch=1, objects=5)
    perm = rng.permutation(5)
    permuted = BranchInput(valid_mask=inp.valid_mask[:, perm],
                           features=inp.features[:, perm],
                           boxes=inp.boxes[:, perm], sizes=inp.sizes)
    base = encode_branch(inp, cfg, params).values
    moved = encode_branch(permuted, cfg, params).values
    np.testing.assert_allclose(moved[0], base[0][perm], atol=1e-5)


def test_encode_image_without_spatial_ignores_boxes():
    cfg, params = image_setup(use_spatial=False)
    rng = np.random.default_rng(9)
    inp = random_image_input(rng, batch=1, objects=4)
    other_boxes = inp.boxes.copy()
    other_boxes[0, 0] = (3, 3, 60, 60)
    moved = BranchInput(valid_mask=inp.valid_mask, features=inp.features,
                        boxes=other_boxes, sizes=inp.sizes)
    np.testing.assert_array_equal(encode_branch(inp, cfg, params).values,
                                  encode_branch(moved, cfg, params).values)


def test_encode_image_with_spatial_uses_boxes():
    cfg, params = image_setup(use_spatial=True)
    rng = np.random.default_rng(10)
    inp = random_image_input(rng, batch=1, objects=4)
    other_boxes = inp.boxes.copy()
    other_boxes[0, 0] = (3, 3, 60, 60)
    moved = BranchInput(valid_mask=inp.valid_mask, features=inp.features,
                        boxes=other_boxes, sizes=inp.sizes)
    assert not np.allclose(encode_branch(inp, cfg, params).values,
                           encode_branch(moved, cfg, params).values)


def test_encode_text_positional_sensitivity():
    cfg, params = text_setup()
    mask = np.ones((1, 3), bool)
    a = encode_branch(BranchInput(valid_mask=mask, token_ids=np.array([[1, 2, 3]])),
                      cfg, params).values
    b = encode_branch(BranchInput(valid_mask=mask, token_ids=np.array([[2, 1, 3]])),
                      cfg, params).values
    assert not np.allclose(a, b)


def test_encode_branch_rejects_mismatched_params():
    cfg, params = text_setup()
    inp = random_image_input(np.random.default_rng(0), batch=1, objects=3)
    with pytest.raises(TypeError):
        encode_branch(inp, cfg, params)


def test_branch_input_validation():
    with pytest.raises(ValueError, match="valid position"):
        BranchInput(valid_mask=np.zeros((1, 3), bool), token_ids=np.zeros((1, 3), int))
    with pytest.raises(ValueError, match="exactly one"):
        BranchInput(valid_mask=np.ones((1, 3), bool))
    with pytest.raises(ValueError, match="degenerate"):
        BranchInput(valid_mask=np.ones((1, 1), bool),
                    features=np.zeros((1, 1, 4)),
                    boxes=np.array([[[5.0, 5.0, 5.0, 9.0]]]),
                    sizes=np.array([[10.0, 10.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_branch_input_rejects_non_finite_box(bad):
    boxes = np.array([[[1.0, 1.0, 5.0, 5.0], [2.0, 2.0, 6.0, 6.0]]])
    boxes[0, 1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        BranchInput(valid_mask=np.ones((1, 2), bool), features=np.zeros((1, 2, 4)),
                    boxes=boxes, sizes=np.array([[10.0, 10.0]]))


def test_check_boxes_positive_form():
    size = (10.0, 10.0)
    good = np.array([[0.0, 0.0, 10.0, 10.0], [2.0, 3.0, 4.0, 5.0]])
    assert np.array_equal(check_boxes(good, "box", size), good)
    for box, message in (([np.nan, 0, 5, 5], "non-finite"), ([0, 0, np.inf, 5], "non-finite"),
                         ([5, 0, 5, 5], "degenerate"), ([0, 6, 5, 5], "degenerate"),
                         ([-1, 0, 5, 5], "bounds"), ([0, 0, 5, 11], "bounds")):
        with pytest.raises(ValueError, match=message):
            check_boxes(np.array([good[0], box]), "box", size)
    with pytest.raises(ValueError, match="non-finite"):
        check_boxes([np.nan, 0.0, 1.0, 1.0])
    # unchecked slots may hold anything; the bounds follow each sample's size
    boxes = np.array([[[0.0, 0.0, 8.0, 8.0], [np.nan] * 4], [[0.0, 0.0, 12.0, 12.0], [5.0, 5.0, 5.0, 5.0]]])
    valid = np.array([[True, False], [True, False]])
    check_boxes(boxes, "box", np.array([[[8.0, 8.0]], [[12.0, 12.0]]]), valid)
    with pytest.raises(ValueError, match=r"outside image bounds \(8.0, 8.0\)"):
        check_boxes(boxes[::-1], "box", np.array([[[8.0, 8.0]], [[12.0, 12.0]]]), valid)
