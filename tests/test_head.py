import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxground.autodiff import constant, finite_diff_check, parameter
from ctxground.data import PhraseSpan
from ctxground.encoder import LinearParams, random_params
from ctxground.head import (
    GroundingLogits,
    HeadParams,
    build_head,
    cross_modal_logits,
    extract_entity_states,
    grounding_loss,
    per_entity_bce,
    rank_objects,
)

from oracles import bce_ref, rank_ref

BOX = np.array([[0.0, 0.0, 10.0, 10.0]])


def span(last, first=None, typ="people"):
    return PhraseSpan(first_token=last if first is None else first,
                      last_token=last, entity_type=typ, gt_boxes=BOX)


def make_head(d_text, d_image, d_joint, seed=0, std=0.4):
    return build_head(d_text, d_image, d_joint,
                      random_params(np.random.default_rng(seed), np.float64, std))


def one_sample_logits(entities, objects, mask, head):
    """Scores of every entity against one sample's objects, as a batch of 1."""
    return cross_modal_logits(entities, constant(np.asarray(objects)[None]),
                              np.asarray(mask)[None], head,
                              np.zeros(entities.shape[0], dtype=int))


def extract_one(hidden, spans):
    """Entity states of one [seq, d] sample, as a batch of 1."""
    return extract_entity_states(constant(hidden[None]), spans, np.zeros(len(spans), dtype=int))


def make_logits(scores, mask=None):
    scores = np.asarray(scores, dtype=np.float64)
    mask = np.ones(scores.shape[1], bool) if mask is None else np.asarray(mask, bool)
    return GroundingLogits(scores=constant(scores), object_mask=mask)


# -- phrase spans -------------------------------------------------------------------


def test_span_validation():
    with pytest.raises(ValueError, match="invalid span"):
        PhraseSpan(first_token=3, last_token=2, entity_type="people", gt_boxes=BOX)
    with pytest.raises(ValueError, match="ground-truth"):
        PhraseSpan(first_token=0, last_token=0, entity_type="people",
                   gt_boxes=np.zeros((0, 4)))


# -- entity extraction ---------------------------------------------------------------


def test_extract_single_token_phrase():
    hidden = np.arange(20.0).reshape(5, 4)
    out = extract_one(hidden, [span(2)])
    np.testing.assert_array_equal(out.values, hidden[2:3])


def test_extract_uses_last_token_only():
    hidden = np.arange(24.0).reshape(6, 4)
    out = extract_one(hidden, [span(5, first=3)])
    np.testing.assert_array_equal(out.values[0], hidden[5])


def test_extract_shared_last_token_gives_identical_rows():
    hidden = np.random.default_rng(0).normal(size=(6, 4))
    out = extract_one(hidden, [span(4, first=2), span(4, first=4)])
    np.testing.assert_array_equal(out.values[0], out.values[1])


def test_extract_out_of_range_raises():
    with pytest.raises(ValueError, match="out of range"):
        extract_one(np.zeros((3, 4)), [span(3)])


# -- cross-modal scores ------------------------------------------------------------------


def test_zero_projections_give_zero_scores():
    head = HeadParams(
        query=LinearParams(weight=constant(np.zeros((4, 8))), bias=constant(np.zeros(8))),
        key=LinearParams(weight=constant(np.zeros((6, 8))), bias=constant(np.zeros(8))),
    )
    logits = one_sample_logits(constant(np.ones((2, 4))), np.ones((3, 6)),
                               np.ones(3, bool), head)
    assert not logits.scores.values.any()


def test_scores_match_hand_dot_products():
    head = make_head(3, 2, 4, seed=1)
    entities = np.random.default_rng(2).normal(size=(1, 3))
    objects = np.random.default_rng(3).normal(size=(2, 2))
    logits = one_sample_logits(constant(entities), objects, np.ones(2, bool), head)
    q = entities @ head.query.weight.values + head.query.bias.values
    for o in range(2):
        k = objects[o] @ head.key.weight.values + head.key.bias.values
        want = float(q[0] @ k) / math.sqrt(4)
        np.testing.assert_allclose(logits.scores.values[0, o], want, atol=1e-12)


def test_object_permutation_permutes_columns():
    head = make_head(4, 5, 8, seed=4)
    rng = np.random.default_rng(5)
    entities = constant(rng.normal(size=(3, 4)))
    objects = rng.normal(size=(6, 5))
    perm = rng.permutation(6)
    base = one_sample_logits(entities, objects, np.ones(6, bool), head)
    moved = one_sample_logits(entities, objects[perm], np.ones(6, bool), head)
    np.testing.assert_allclose(moved.scores.values, base.scores.values[:, perm], atol=1e-12)


def test_no_valid_objects_raises():
    head = make_head(4, 5, 8)
    with pytest.raises(ValueError, match="valid objects"):
        one_sample_logits(constant(np.ones((1, 4))), np.ones((2, 5)),
                          np.zeros(2, bool), head)


@pytest.mark.parametrize("entity_sample, index", [([0, -1], -1), ([0, 2], 2)],
                         ids=["negative", "past-the-batch"])
def test_entity_sample_out_of_range_raises(entity_sample, index):
    head = make_head(4, 5, 8)
    objects = constant(np.ones((2, 3, 5)))
    with pytest.raises(ValueError, match=f"index {index} out of range for a batch of 2"):
        cross_modal_logits(constant(np.ones((2, 4))), objects, np.ones((2, 3), bool), head,
                           entity_sample)


def test_mismatched_joint_dims_rejected():
    with pytest.raises(ValueError, match="joint"):
        HeadParams(
            query=LinearParams(weight=constant(np.zeros((4, 8))), bias=constant(np.zeros(8))),
            key=LinearParams(weight=constant(np.zeros((4, 6))), bias=constant(np.zeros(6))),
        )


# -- loss ----------------------------------------------------------------------------------


def test_all_zero_logits_all_negative_targets():
    logits = make_logits(np.zeros((1, 4)))
    loss = grounding_loss(logits, np.zeros((1, 4)))
    np.testing.assert_allclose(loss.item(), math.log(2.0), atol=1e-9)
    np.testing.assert_allclose(loss.item(), 0.693147, atol=1e-6)


def test_saturated_multi_positive_loss_is_tiny():
    logits = make_logits([[10.0, 10.0, -10.0]])
    loss = grounding_loss(logits, np.array([[1.0, 1.0, 0.0]]))
    assert loss.item() < 1e-3


def test_two_entity_loss_is_mean_of_singles():
    rng = np.random.default_rng(6)
    scores = rng.normal(size=(2, 5))
    targets = (rng.random((2, 5)) < 0.4).astype(float)
    a = grounding_loss(make_logits(scores[:1]), targets[:1]).item()
    b = grounding_loss(make_logits(scores[1:]), targets[1:]).item()
    both = grounding_loss(make_logits(scores), targets).item()
    np.testing.assert_allclose(both, (a + b) / 2.0, atol=1e-12)


def test_loss_matches_scalar_reference():
    rng = np.random.default_rng(7)
    scores = rng.normal(scale=3, size=(3, 4))
    targets = (rng.random((3, 4)) < 0.5).astype(float)
    want = np.mean([
        np.mean([bce_ref(scores[e, o], targets[e, o]) for o in range(4)])
        for e in range(3)
    ])
    got = grounding_loss(make_logits(scores), targets).item()
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_duplicated_entity_leaves_loss_unchanged():
    rng = np.random.default_rng(8)
    scores = rng.normal(size=(2, 4))
    targets = (rng.random((2, 4)) < 0.5).astype(float)
    base = grounding_loss(make_logits(scores), targets).item()
    dup_scores = np.concatenate([scores, scores], axis=0)
    dup_targets = np.concatenate([targets, targets], axis=0)
    dup = grounding_loss(make_logits(dup_scores), dup_targets).item()
    np.testing.assert_allclose(dup, base, atol=1e-12)


def test_masked_columns_do_not_contribute():
    mask = np.array([True, True, False])
    targets = np.array([[1.0, 0.0, 0.0]])
    a = per_entity_bce(make_logits([[2.0, -1.0, 5.0]], mask), targets).values
    b = per_entity_bce(make_logits([[2.0, -1.0, -993.0]], mask), targets).values
    assert np.array_equal(a, b)
    want = (bce_ref(2.0, 1.0) + bce_ref(-1.0, 0.0)) / 2.0
    np.testing.assert_allclose(a[0], want, atol=1e-12)


def test_positive_target_on_masked_object_rejected():
    mask = np.array([True, False])
    with pytest.raises(ValueError, match="masked"):
        per_entity_bce(make_logits([[0.0, 0.0]], mask), np.array([[0.0, 1.0]]))


def test_empty_entities_raise():
    logits = make_logits(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="entities"):
        grounding_loss(logits, np.zeros((0, 3)))


def test_loss_gradient_matches_finite_differences():
    head = make_head(6, 5, 8, seed=9)
    rng = np.random.default_rng(10)
    entities = parameter(rng.normal(size=(3, 6)))
    objects = parameter(rng.normal(size=(1, 4, 5)))  # one sample's objects
    mask = np.array([[True, True, True, False]])
    targets = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0]], dtype=float)

    def f(_):
        logits = cross_modal_logits(entities, objects, mask, head, np.zeros(3, dtype=int))
        return grounding_loss(logits, targets)

    for t in (entities, objects, head.query.weight, head.query.bias,
              head.key.weight, head.key.bias):
        assert finite_diff_check(f, t, 1e-5) < 1e-6


# -- ranking ---------------------------------------------------------------------------------


def test_rank_basic_ordering():
    assert rank_objects(make_logits([[0.1, 0.9, 0.5]]), 0) == [1, 2, 0]


def test_rank_tie_break_by_index():
    assert rank_objects(make_logits([[0.5, 0.5, 0.5]]), 0) == [0, 1, 2]


def test_rank_constant_shift_invariance():
    scores = np.array([[0.3, -0.2, 0.8, 0.1]])
    base = rank_objects(make_logits(scores), 0)
    shifted = rank_objects(make_logits(scores + 5.0), 0)
    assert base == shifted


def test_rank_excludes_masked_objects():
    mask = np.array([True, False, True])
    assert rank_objects(make_logits([[0.1, 9.0, 0.5]], mask), 0) == [2, 0]


def test_rank_entity_out_of_range():
    with pytest.raises(IndexError):
        rank_objects(make_logits([[0.0, 1.0]]), 1)


def test_rank_matches_selection_reference():
    rng = np.random.default_rng(11)
    for _ in range(25):
        scores = rng.normal(size=(1, 7))
        mask = rng.random(7) < 0.8
        if not mask.any():
            mask[0] = True
        got = rank_objects(make_logits(scores, mask), 0)
        assert got == rank_ref(scores[0].tolist(), mask.tolist())


@settings(deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=2, max_size=8))
def test_rank_invariant_under_strictly_increasing_transforms(scores):
    # integer scores keep the transforms exactly order-preserving in floats
    row = np.array([scores], dtype=np.float64)
    base = rank_objects(make_logits(row), 0)
    assert rank_objects(make_logits(3.0 * row + 1.0), 0) == base
    assert rank_objects(make_logits(np.tanh(row * 0.1)), 0) == base


# -- design rationale: BCE supports multiple positives --------------------------------------


def test_bce_saturation_beats_softmax_on_multi_positive():
    targets = np.array([[1.0, 1.0, 0.0]])
    for magnitude in (5.0, 10.0, 20.0):
        scores = np.array([[magnitude, magnitude, -magnitude]])
        loss = grounding_loss(make_logits(scores), targets).item()
        assert loss < bce_ref(5.0, 1.0) * 2  # shrinks as logits saturate
    saturated = grounding_loss(make_logits([[40.0, 40.0, -40.0]]), targets).item()
    assert saturated < 1e-3

    def softmax_ce(scores):
        # over-objects softmax with mean negative log-likelihood of positives:
        # probability mass must split between the two true objects
        z = np.asarray(scores, dtype=np.float64)
        p = np.exp(z - z.max())
        p /= p.sum()
        return -(math.log(p[0]) + math.log(p[1])) / 2.0

    rng = np.random.default_rng(12)
    best = min(softmax_ce(rng.normal(scale=s, size=3))
               for s in (0.1, 1.0, 10.0, 100.0) for _ in range(50))
    assert best >= math.log(2.0) - 1e-9
