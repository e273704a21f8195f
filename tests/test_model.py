import numpy as np
import pytest

from ctxground.autodiff import backward, constant, take_rows
from ctxground.data import SyntheticSpec, collate_batch, generate_synthetic
from ctxground.encoder import BranchConfig
from ctxground.head import cross_modal_logits, extract_entity_states, grounding_loss, rank_objects
from ctxground.model import GroundingModel, ModelConfig, default_model_config


def tiny_config(dropout=0.0):
    return ModelConfig(
        vocab_size=12, feature_dim=6, d_joint=8,
        text=BranchConfig(num_layers=1, num_heads=2, hidden_dim=8,
                          dropout_p=dropout, max_positions=10),
        image=BranchConfig(num_layers=1, num_heads=2, hidden_dim=8,
                           dropout_p=dropout, use_spatial=True),
    )


def tiny_batch(num_samples=3, seed=4, dtype=np.float64):
    spec = SyntheticSpec(seed=seed, num_samples=num_samples, vocab_size=12,
                         tokens_per_sample=5, objects_per_sample=4,
                         entities_per_sample=2, d_feat=6, entity_vocab_size=4,
                         image_size=32)
    return collate_batch(generate_synthetic(spec), feature_dtype=dtype)


def tiny_model(dropout=0.0, seed=0, dtype=np.float64):
    return GroundingModel.initialize(tiny_config(dropout), seed=seed, dtype=dtype,
                                     init_std=0.3)


def test_default_model_config_reference_values():
    cfg = default_model_config()
    assert cfg.vocab_size == 30522
    assert cfg.feature_dim == 2048
    assert cfg.d_joint == 768
    assert (cfg.text.num_layers, cfg.text.num_heads, cfg.text.hidden_dim) == (12, 12, 768)
    assert (cfg.image.num_layers, cfg.image.num_heads, cfg.image.hidden_dim) == (1, 2, 2048)


def test_model_config_dict_round_trip():
    cfg = tiny_config(dropout=0.2)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


def test_named_parameters_are_stable_and_unique():
    model = tiny_model()
    names = list(model.named_parameters())
    assert names == list(tiny_model().named_parameters())
    assert len(names) == len(set(names))
    assert "text.embeddings.token_table" in names
    assert "head.query.weight" in names
    # input projection present because feature_dim != hidden_dim
    assert "image.input_proj.weight" in names


def test_no_input_projection_when_dims_match():
    cfg = ModelConfig(
        vocab_size=12, feature_dim=8, d_joint=8,
        text=BranchConfig(num_layers=1, num_heads=2, hidden_dim=8, max_positions=10),
        image=BranchConfig(num_layers=1, num_heads=2, hidden_dim=8, use_spatial=False),
    )
    model = GroundingModel.initialize(cfg, seed=0)
    names = model.named_parameters()
    assert not any(n.startswith("image.input_proj") for n in names)
    assert not any(n.startswith("image.spatial") for n in names)


def test_initialization_deterministic_in_seed():
    a = tiny_model(seed=3).named_parameters()
    b = tiny_model(seed=3).named_parameters()
    c = tiny_model(seed=4).named_parameters()
    assert all(np.array_equal(a[n].values, b[n].values) for n in a)
    assert any(not np.array_equal(a[n].values, c[n].values) for n in a)


def test_batch_loss_matches_per_sample_grounding_loss():
    model = tiny_model()
    batch = tiny_batch()
    loss, logits = model.batch_loss(batch, training=False)
    per_entity = []
    for e in range(logits.entity_count):
        single = grounding_loss(
            type(logits)(scores=take_rows(logits.scores, [e]),
                         object_mask=logits.object_mask[e:e + 1]),
            batch.targets[e:e + 1])
        per_entity.append(single.item())
    np.testing.assert_allclose(loss.item(), np.mean(per_entity), atol=1e-12)


def test_forward_deterministic_without_dropout():
    model = tiny_model()
    batch = tiny_batch()
    a, _ = model.batch_loss(batch, training=False)
    b, _ = model.batch_loss(batch, training=False)
    assert a.item() == b.item()


def test_gradients_bit_identical_across_runs():
    def run():
        model = tiny_model(seed=6)
        batch = tiny_batch()
        loss, _ = model.batch_loss(batch, training=True, rng=np.random.default_rng(5))
        backward(loss)
        return {n: t.grad.copy() for n, t in model.named_parameters().items()
                if t.grad is not None}

    g1, g2 = run(), run()
    assert set(g1) == set(g2)
    for name in g1:
        assert np.array_equal(g1[name], g2[name]), name


def test_dropout_seed_changes_training_loss():
    model = tiny_model(dropout=0.4)
    batch = tiny_batch()
    a, _ = model.batch_loss(batch, training=True, rng=np.random.default_rng(0))
    b, _ = model.batch_loss(batch, training=True, rng=np.random.default_rng(0))
    c, _ = model.batch_loss(batch, training=True, rng=np.random.default_rng(1))
    assert a.item() == b.item()
    assert a.item() != c.item()


def test_padded_object_features_do_not_affect_outputs():
    model = tiny_model()
    batch = tiny_batch(num_samples=2, seed=8)
    # force ragged object counts by dropping one proposal from sample 0
    records = generate_synthetic(SyntheticSpec(
        seed=8, num_samples=2, vocab_size=12, tokens_per_sample=5,
        objects_per_sample=4, entities_per_sample=2, d_feat=6,
        entity_vocab_size=4, image_size=32))
    records[0].proposals = records[0].proposals[:3]
    records[0].features = records[0].features[:3]
    records[0].phrases = [p for p in records[0].phrases
                          if (records[0].proposals == p.gt_boxes[0]).all(1).any()]
    assert records[0].phrases
    batch = collate_batch(records, feature_dtype=np.float64)
    assert not batch.object_mask[0, 3]

    loss_a, logits_a = model.batch_loss(batch, training=False)
    rank_a = logits_a.scores.values.copy()

    batch.features[0, 3] = 99.0  # padded slot
    loss_b, logits_b = model.batch_loss(batch, training=False)
    assert loss_a.item() == loss_b.item()
    for a, b, m in zip(rank_a, logits_b.scores.values, logits_b.object_mask):
        assert np.array_equal(a[m], b[m])


def ragged_records():
    """Three samples with 4/6/3 objects, 2/3/1 entities and 5/7/4 tokens."""
    shapes = [(4, 2, 5), (6, 3, 7), (3, 1, 4)]
    return [generate_synthetic(SyntheticSpec(
        seed=20 + i, num_samples=1, vocab_size=12, tokens_per_sample=tokens,
        objects_per_sample=objects, entities_per_sample=entities, d_feat=6,
        entity_vocab_size=4, image_size=32))[0]
        for i, (objects, entities, tokens) in enumerate(shapes)]


def test_batched_scores_match_per_sample_head_on_ragged_batch():
    records = ragged_records()
    batch = collate_batch(records, feature_dtype=np.float64)
    model = tiny_model()
    logits = model.batch_scores(batch, training=False)
    assert logits.scores.shape == (6, 6) and logits.object_mask.shape == (6, 6)
    text_hidden, image_hidden = model.encode(batch, training=False)
    for b, record in enumerate(records):
        lo, hi = batch.sample_offsets[b], batch.sample_offsets[b + 1]
        o = record.num_objects
        first = np.zeros(hi - lo, dtype=int)  # each sample on its own, as a batch of 1
        entities = extract_entity_states(constant(text_hidden.values[b:b + 1]),
                                         batch.spans[lo:hi], first)
        single = cross_modal_logits(entities, constant(image_hidden.values[b:b + 1, :o]),
                                    np.ones((1, o), bool), model.params.head, first)
        np.testing.assert_allclose(logits.scores.values[lo:hi, :o], single.scores.values,
                                   rtol=0, atol=1e-12)
        assert (logits.object_mask[lo:hi].sum(axis=1) == o).all()


def test_padded_objects_never_rank_and_never_get_a_positive_target():
    records = ragged_records()
    batch = collate_batch(records, feature_dtype=np.float64)
    batch.features[~batch.object_mask] = 50.0
    logits = tiny_model().batch_scores(batch, training=False)
    assert not batch.targets[~logits.object_mask].any()
    assert batch.targets.sum(axis=1).min() >= 1
    for e in range(logits.entity_count):
        ranking = rank_objects(logits, e)
        assert sorted(ranking) == np.flatnonzero(logits.object_mask[e]).tolist()


def test_batch_without_entities_raises():
    records = generate_synthetic(SyntheticSpec(
        seed=8, num_samples=1, vocab_size=12, tokens_per_sample=5,
        objects_per_sample=4, entities_per_sample=2, d_feat=6,
        entity_vocab_size=4, image_size=32))
    records[0].phrases = []
    batch = collate_batch(records, feature_dtype=np.float64)
    model = tiny_model()
    with pytest.raises(ValueError, match="no entities"):
        model.batch_loss(batch, training=False)


def test_model_label_comes_from_image_branch():
    assert tiny_model().label == "L1-H2-abs"
