import hashlib
import json
import tempfile
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxground.data import (
    ENTITY_TYPES,
    DatasetError,
    FormatError,
    PhraseSpan,
    SampleRecord,
    SyntheticSpec,
    collate_batch,
    generate_synthetic,
    iou,
    iou_matrix,
    label_positives,
    load_feature_file,
    parse_dataset,
    write_dataset,
    write_feature_file,
)

from fuzzing import mutate
from oracles import iou_cell_count, iou_ref, positives_ref, prototype_table


def make_record(image_id="img-0", num_objects=3, num_tokens=5, d_feat=4, seed=0):
    rng = np.random.default_rng(seed)
    boxes = np.zeros((num_objects, 4))
    boxes[:, 0] = np.arange(num_objects) * 10.0
    boxes[:, 1] = 5.0
    boxes[:, 2] = boxes[:, 0] + 8.0
    boxes[:, 3] = 15.0
    return SampleRecord(
        image_id=image_id,
        width=100, height=100,
        token_ids=rng.integers(0, 9, num_tokens),
        phrases=[PhraseSpan(first_token=0, last_token=1, entity_type="people",
                            gt_boxes=boxes[:1].copy())],
        proposals=boxes,
        features=rng.normal(size=(num_objects, d_feat)).astype(np.float32),
    )


# -- iou ----------------------------------------------------------------------------


def test_iou_identical_boxes():
    assert iou((0, 0, 5, 5), (0, 0, 5, 5)) == 1.0


def test_iou_disjoint_boxes():
    assert iou((0, 0, 2, 2), (3, 3, 5, 5)) == 0.0


def test_iou_known_overlap():
    # intersection 2, union 6
    np.testing.assert_allclose(iou((0, 0, 2, 2), (1, 0, 3, 2)), 1.0 / 3.0)
    np.testing.assert_allclose(iou((0, 0, 2, 2), (1, 0, 3, 2)), 0.333333, atol=1e-6)


def test_iou_rejects_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        iou((0, 0, 0, 5), (0, 0, 5, 5))


box_coords = st.tuples(st.integers(0, 30), st.integers(0, 30),
                       st.integers(1, 12), st.integers(1, 12)).map(
    lambda t: (t[0], t[1], t[0] + t[2], t[1] + t[3]))


@settings(deadline=None, max_examples=150)
@given(box_coords, box_coords)
def test_iou_symmetry_range_and_pixel_oracle(a, b):
    ab = iou(a, b)
    assert ab == iou(b, a)
    assert 0.0 <= ab <= 1.0
    assert iou(a, a) == 1.0
    assert abs(ab - iou_cell_count(a, b)) < 1e-9


def test_iou_matrix_matches_scalar():
    rng = np.random.default_rng(1)
    a = np.zeros((4, 4))
    b = np.zeros((3, 4))
    for arr in (a, b):
        arr[:, :2] = rng.uniform(0, 20, (len(arr), 2))
        arr[:, 2:] = arr[:, :2] + rng.uniform(1, 20, (len(arr), 2))
    m = iou_matrix(a, b)
    for i in range(4):
        for j in range(3):
            np.testing.assert_allclose(m[i, j], iou_ref(a[i], b[j]), atol=1e-12)


# -- supervision labels ------------------------------------------------------------------


def test_label_positives_exact_match():
    gt = np.array([[0, 0, 10, 10]])
    proposals = np.array([[0, 0, 10, 10], [50, 50, 60, 60]])
    np.testing.assert_array_equal(label_positives(proposals, gt), [1.0, 0.0])


def test_label_positives_all_disjoint():
    gt = np.array([[0, 0, 5, 5]])
    proposals = np.array([[10, 10, 20, 20], [30, 30, 40, 40]])
    assert not label_positives(proposals, gt).any()


def test_label_positives_multiple_gt_boxes():
    gt = np.array([[0, 0, 10, 10], [50, 50, 60, 60]])
    proposals = np.array([[0, 0, 10, 10], [50, 50, 60, 60], [80, 80, 90, 90]])
    np.testing.assert_array_equal(label_positives(proposals, gt), [1.0, 1.0, 0.0])


def test_label_positives_counts_an_iou_of_exactly_one_half():
    gt = np.array([[0, 0, 10, 10]])
    proposals = np.array([[0, 0, 10, 5], [0, 0, 10, 4.9]])  # IoU 0.5 and 0.49
    np.testing.assert_array_equal(label_positives(proposals, gt), [1.0, 0.0])


def test_label_positives_requires_proposals():
    gt = np.array([[0, 0, 5, 5]])
    with pytest.raises(ValueError, match="proposals"):
        label_positives(np.zeros((0, 4)), gt)


# -- GRND container -------------------------------------------------------------------------


def test_feature_file_round_trip(tmp_path):
    matrix = np.random.default_rng(3).normal(size=(7, 5)).astype(np.float32)
    path = tmp_path / "x.grnd"
    write_feature_file(path, matrix)
    loaded = load_feature_file(path)
    assert loaded.dtype == np.float32
    assert np.array_equal(loaded, matrix)


def test_feature_file_empty_matrix(tmp_path):
    path = tmp_path / "empty.grnd"
    write_feature_file(path, np.zeros((0, 6), dtype=np.float32))
    assert load_feature_file(path).shape == (0, 6)


def test_feature_file_bad_magic(tmp_path):
    path = tmp_path / "bad.grnd"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(FormatError, match="magic"):
        load_feature_file(path)


def test_feature_file_bad_version(tmp_path):
    path = tmp_path / "ver.grnd"
    good = tmp_path / "good.grnd"
    write_feature_file(good, np.ones((1, 1), dtype=np.float32))
    blob = bytearray(good.read_bytes())
    blob[4] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="version"):
        load_feature_file(path)


def test_feature_file_truncated(tmp_path):
    good = tmp_path / "good.grnd"
    write_feature_file(good, np.ones((2, 3), dtype=np.float32))
    bad = tmp_path / "trunc.grnd"
    bad.write_bytes(good.read_bytes()[:-4])
    with pytest.raises(FormatError, match="payload"):
        load_feature_file(bad)


def test_feature_file_trailing_bytes(tmp_path):
    good = tmp_path / "good.grnd"
    write_feature_file(good, np.ones((2, 3), dtype=np.float32))
    bad = tmp_path / "extra.grnd"
    bad.write_bytes(good.read_bytes() + b"xx")
    with pytest.raises(FormatError, match="payload"):
        load_feature_file(bad)


# -- JSONL annotations ------------------------------------------------------------------------


def test_dataset_round_trip_inline(tmp_path):
    records = [make_record(f"img-{i}", seed=i) for i in range(3)]
    path = tmp_path / "data.jsonl"
    write_dataset(records, path, feature_storage="inline")
    assert parse_dataset(path) == records


def test_dataset_round_trip_feature_files(tmp_path):
    records = [make_record(f"img-{i}", seed=i) for i in range(3)]
    path = tmp_path / "data.jsonl"
    write_dataset(records, path, feature_storage="files")
    assert (tmp_path / "features" / "img-0.grnd").exists()
    assert parse_dataset(path) == records


@pytest.mark.parametrize("image_id", ["../../escaped", "a/b"])
def test_feature_files_reject_image_id_that_is_a_path(tmp_path, image_id):
    out = tmp_path / "ds" / "data.jsonl"
    with pytest.raises(ValueError, match="plain file name"):
        write_dataset([make_record(image_id)], out, feature_storage="files")
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


def test_double_round_trip_is_identity(tmp_path):
    records = generate_synthetic(SyntheticSpec(
        seed=5, num_samples=4, vocab_size=12, tokens_per_sample=5,
        objects_per_sample=4, entities_per_sample=2, d_feat=6,
        entity_vocab_size=4, image_size=32))
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_dataset(records, p1)
    first = parse_dataset(p1)
    write_dataset(first, p2)
    assert parse_dataset(p2) == first == records


def test_empty_file_is_empty_dataset(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert parse_dataset(path) == []


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_dataset([make_record()], path)
    path.write_text(path.read_text() + "{not json\n")
    with pytest.raises(DatasetError, match=r":2: malformed JSON"):
        parse_dataset(path)


def test_invalid_box_names_image(tmp_path):
    record = make_record("img-X")
    path = tmp_path / "bad.jsonl"
    write_dataset([record], path)
    obj = json.loads(path.read_text())
    obj["boxes"][0] = [5, 5, 5, 9]  # x2 <= x1
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(DatasetError, match="img-X"):
        parse_dataset(path)


@pytest.mark.parametrize("where", ["proposal", "gt box"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_box_in_jsonl_rejected(tmp_path, where, bad):
    # json writes NaN/Infinity and reads them back as floats
    path = tmp_path / "bad.jsonl"
    write_dataset([make_record("img-N")], path)
    obj = json.loads(path.read_text())
    box = obj["boxes"][0] if where == "proposal" else obj["phrases"][0]["gt_boxes"][0]
    box[1] = bad
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(DatasetError, match="img-N"):
        parse_dataset(path)


@pytest.mark.parametrize("storage", ["inline", "files"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_feature_rejected_naming_the_line(tmp_path, storage, bad):
    # Inline JSONL and a GRND payload both carry NaN/Inf as floats; the
    # record refuses them instead of a forward pass failing far away.
    path = tmp_path / "bad.jsonl"
    write_dataset([make_record("img-0"), make_record("img-F", seed=1)], path, storage)
    if storage == "inline":
        lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        obj["features"][2][1] = bad
        path.write_text(f"{lines[0]}\n{json.dumps(obj)}\n")
    else:
        features = make_record("img-F", seed=1).features.copy()
        features[2, 1] = bad
        write_feature_file(tmp_path / "features" / "img-F.grnd", features)
    with pytest.raises(DatasetError, match=r":2: .*'img-F'.*non-finite feature .* proposal 2"):
        parse_dataset(path)


@pytest.mark.parametrize("old,new", [
    pytest.param('"first": 0', '"first": 1e999', id="first-1e999"),
    pytest.param('"width": 100', '"width": 1e999', id="width-1e999"),
    pytest.param('"tokens": [', '"tokens": [' + str(10**30) + ", ", id="token-id-10**30"),
    pytest.param(None, "[" * 100000, id="nested-100000"),
])
def test_unrepresentable_or_deeply_nested_line_raises_dataset_error(tmp_path, old, new):
    # An int or int64 overflow and a too-deep JSON nesting name the line.
    path = tmp_path / "bad.jsonl"
    write_dataset([make_record()], path)
    good = path.read_text()
    bad = new if old is None else good.replace(old, new, 1)
    assert bad != good
    path.write_text(good + bad.rstrip("\n") + "\n")
    with pytest.raises(DatasetError, match=r":2: "):
        parse_dataset(path)


def _set(key, value):
    return lambda obj: obj.update({key: value})


def _set_phrase(key, value):
    return lambda obj: obj["phrases"][0].update({key: value})


def _set_token(value):
    return lambda obj: obj["tokens"].__setitem__(0, value)


def _set_coordinate(value, gt=False):
    return lambda obj: (obj["phrases"][0]["gt_boxes"] if gt else obj["boxes"])[0].__setitem__(
        2, value)


def _set_feature(value):
    return lambda obj: obj["features"][1].__setitem__(0, value)


@pytest.mark.parametrize("edit, field", [
    pytest.param(_set_token(1.7), "tokens", id="token-1.7"),
    pytest.param(_set_token(True), "tokens", id="token-true"),
    pytest.param(_set_phrase("first", 0.9), "first", id="first-0.9"),
    pytest.param(_set_phrase("last", "1"), "last", id="last-string"),
    pytest.param(_set("width", 64.9), "width", id="width-64.9"),
    pytest.param(_set("width", True), "width", id="width-true"),
    pytest.param(_set("height", True), "height", id="height-true"),
    pytest.param(_set("image_id", 7), "image_id", id="image-id-7"),
    pytest.param(_set_coordinate("5"), "boxes", id="box-string"),
    pytest.param(_set_coordinate(True), "boxes", id="box-true"),
    pytest.param(_set_coordinate(None), "boxes", id="box-null"),
    pytest.param(_set_coordinate("5", gt=True), "gt_boxes", id="gt-box-string"),
    pytest.param(_set_coordinate(True, gt=True), "gt_boxes", id="gt-box-true"),
    pytest.param(_set_feature("0.5"), "features", id="feature-string"),
    pytest.param(_set_feature(None), "features", id="feature-null"),
])
def test_jsonl_numbers_and_strings_are_not_coerced(tmp_path, edit, field):
    path = tmp_path / "bad.jsonl"
    write_dataset([make_record()], path)
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(DatasetError, match=f":1: .*field '{field}'"):
        parse_dataset(path)


_FUZZ_FILES = {}


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_parse_dataset_fuzz_raises_only_dataset_or_format_error(data):
    if not _FUZZ_FILES:
        with tempfile.TemporaryDirectory() as tmp:
            write_dataset([make_record(f"img-{i}", seed=i) for i in range(2)],
                          Path(tmp) / "data.jsonl", feature_storage="files")
            for name in ("data.jsonl", "features/img-0.grnd", "features/img-1.grnd"):
                _FUZZ_FILES[name] = (Path(tmp) / name).read_bytes()
    target = data.draw(st.sampled_from(["data.jsonl", "features/img-0.grnd"]))
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "features").mkdir()
        for name, blob in _FUZZ_FILES.items():
            (Path(tmp) / name).write_bytes(mutate(data, blob) if name == target else blob)
        try:
            parse_dataset(Path(tmp) / "data.jsonl")
        except (DatasetError, FormatError):
            pass


def test_span_outside_tokens_rejected(tmp_path):
    record = make_record()
    path = tmp_path / "bad.jsonl"
    write_dataset([record], path)
    obj = json.loads(path.read_text())
    obj["phrases"][0]["last"] = 99
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(DatasetError, match="token range"):
        parse_dataset(path)


def test_feature_count_mismatch_rejected(tmp_path):
    record = make_record()
    path = tmp_path / "bad.jsonl"
    write_dataset([record], path)
    obj = json.loads(path.read_text())
    obj["features"] = obj["features"][:-1]
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(DatasetError, match="feature rows"):
        parse_dataset(path)


def test_unknown_entity_type_rejected(tmp_path):
    record = make_record()
    path = tmp_path / "bad.jsonl"
    write_dataset([record], path)
    obj = json.loads(path.read_text())
    obj["phrases"][0]["type"] = "chair"
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(DatasetError, match="entity type"):
        parse_dataset(path)


def test_entity_type_vocabulary_is_fixed():
    assert ENTITY_TYPES == ("people", "clothing", "bodyparts", "animals",
                            "vehicles", "instruments", "scene", "other")


# -- collation -----------------------------------------------------------------------------


def test_collate_single_record_masks_cover_extents():
    record = make_record(num_objects=3, num_tokens=5)
    batch = collate_batch([record])
    assert batch.text_mask.all() and batch.object_mask.all()
    assert batch.token_ids.shape == (1, 5)
    assert batch.features.shape == (1, 3, 4)


def test_collate_pads_to_batch_maxima():
    a = make_record("a", num_objects=2, num_tokens=3, seed=1)
    b = make_record("b", num_objects=4, num_tokens=6, seed=2)
    batch = collate_batch([a, b])
    assert batch.token_ids.shape == (2, 6)
    assert batch.features.shape == (2, 4, 4)
    assert batch.text_mask[0].sum() == 3 and batch.object_mask[0].sum() == 2
    assert not batch.token_ids[0, 3:].any()
    assert not batch.features[0, 2:].any()


def test_collate_slicing_recovers_originals():
    records = [make_record("a", 2, 3, seed=1), make_record("b", 4, 6, seed=2)]
    batch = collate_batch(records)
    for i, record in enumerate(records):
        s, o = batch.text_mask[i].sum(), batch.object_mask[i].sum()
        lo, hi = np.searchsorted(batch.span_sample, (i, i + 1))
        assert np.array_equal(batch.token_ids[i, :s], record.token_ids)
        assert np.array_equal(batch.features[i, :o], record.features)
        assert np.array_equal(batch.boxes[i, :o], record.proposals)
        assert batch.spans[lo:hi] == list(record.phrases)
        assert tuple(batch.sizes[i]) == (record.width, record.height)


def test_collate_targets_match_per_record_labels():
    records = [make_record("a", 2, 3, seed=1), make_record("b", 4, 6, seed=2)]
    batch = collate_batch(records)
    for i, record in enumerate(records):
        targets = batch.targets[batch.span_sample == i]
        for row, phrase in zip(targets, record.phrases):
            want = positives_ref(record.proposals, phrase.gt_boxes)
            np.testing.assert_array_equal(row[:record.num_objects], want)
            assert not row[record.num_objects:].any()


def test_phrase_ious_are_best_iou_per_proposal_and_cached():
    record = make_record(num_objects=4)
    record = replace(record, phrases=record.phrases + (PhraseSpan(
        first_token=2, last_token=3, entity_type="scene",
        gt_boxes=np.array([[12.0, 5.0, 18.0, 15.0], [20.0, 5.0, 26.0, 13.0]])),))
    ious = record.phrase_ious
    assert ious.shape == (2, 4)
    for row, phrase in zip(ious, record.phrases):
        np.testing.assert_array_equal(row, iou_matrix(record.proposals, phrase.gt_boxes).max(axis=1))
    assert record.phrase_ious is ious


def test_replaced_proposals_or_phrases_give_new_targets():
    record = make_record(num_objects=3)          # the phrase's gt box is proposal 0
    np.testing.assert_array_equal(collate_batch([record]).targets, [[1, 0, 0]])
    record = replace(record, proposals=record.proposals[::-1].copy())
    np.testing.assert_array_equal(collate_batch([record]).targets, [[0, 0, 1]])
    record = replace(record, phrases=[PhraseSpan(first_token=0, last_token=0,
                                                 entity_type="people",
                                                 gt_boxes=record.proposals[1:2].copy())])
    np.testing.assert_array_equal(collate_batch([record]).targets, [[0, 1, 0]])


@pytest.mark.parametrize("kind", ["record", "phrase"])
def test_record_and_phrase_fields_cannot_be_reassigned(kind):
    record = make_record()
    value = record if kind == "record" else record.phrases[0]
    for f in fields(value):
        with pytest.raises(FrozenInstanceError):
            setattr(value, f.name, getattr(value, f.name))


def test_proposals_outside_the_image_are_refused_after_construction_too():
    record = make_record(num_objects=4)
    outside = np.array([[0.0, 0.0, 1e9, 1e9]] * 4)
    with pytest.raises(FrozenInstanceError):
        record.proposals = outside
    with pytest.raises(ValueError, match="outside"):
        replace(record, proposals=outside)
    np.testing.assert_array_equal(collate_batch([record]).targets, [[1, 0, 0, 0]])


def test_collate_rejects_empty_and_mixed_dims():
    with pytest.raises(ValueError, match="empty"):
        collate_batch([])
    a = make_record("a", d_feat=4)
    b = make_record("b", d_feat=5)
    with pytest.raises(ValueError, match="feature dims"):
        collate_batch([a, b])


# -- synthetic generator ------------------------------------------------------------------------


SPEC = SyntheticSpec(seed=9, num_samples=6, vocab_size=20, tokens_per_sample=7,
                     objects_per_sample=6, entities_per_sample=2, d_feat=5,
                     entity_vocab_size=4, noise_scale=0.05, image_size=64)


def test_synthetic_deterministic_in_seed():
    assert generate_synthetic(SPEC) == generate_synthetic(SPEC)


def test_synthetic_differs_across_seeds():
    other = SyntheticSpec(**{**SPEC.to_dict(), "seed": 10})
    assert generate_synthetic(SPEC) != generate_synthetic(other)


def test_synthetic_zero_noise_plants_exact_prototypes():
    spec = SyntheticSpec(**{**SPEC.to_dict(), "noise_scale": 0.0})
    protos = prototype_table(spec.seed, spec.vocab_size, spec.d_feat).astype(np.float32)
    for record in generate_synthetic(spec):
        for phrase in record.phrases:
            tid = record.token_ids[phrase.last_token]
            positives = np.array(positives_ref(record.proposals, phrase.gt_boxes), dtype=bool)
            assert positives.any()
            for o in np.flatnonzero(positives):
                np.testing.assert_array_equal(record.features[o], protos[tid])


def test_synthetic_every_entity_has_qualifying_proposal():
    for record in generate_synthetic(SPEC):
        for phrase in record.phrases:
            best = iou_matrix(record.proposals, phrase.gt_boxes).max()
            assert best >= 0.5


def test_synthetic_proposals_are_pairwise_disjoint():
    for record in generate_synthetic(SPEC):
        m = iou_matrix(record.proposals, record.proposals)
        np.fill_diagonal(m, 0.0)
        assert m.max() == 0.0


def test_synthetic_entity_ids_come_from_pool():
    for record in generate_synthetic(SPEC):
        for phrase in record.phrases:
            assert record.token_ids[phrase.last_token] < SPEC.entity_vocab_size


def test_synthetic_spec_validation():
    base = SPEC.to_dict()
    with pytest.raises(ValueError, match="entities"):
        SyntheticSpec(**{**base, "entities_per_sample": 8})
    with pytest.raises(ValueError, match="positives"):
        SyntheticSpec(**{**base, "objects_per_sample": 1})
    with pytest.raises(ValueError, match="distractor"):
        SyntheticSpec(**{**base, "entity_vocab_size": 2})
    with pytest.raises(ValueError, match="noise"):
        SyntheticSpec(**{**base, "noise_scale": -1.0})
    with pytest.raises(ValueError, match="grid"):
        SyntheticSpec(**{**base, "image_size": 4})


@pytest.mark.parametrize("noise", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_synthetic_spec_refuses_non_finite_noise(noise):
    with pytest.raises(ValueError, match="noise_scale must be finite"):
        SyntheticSpec(**{**SPEC.to_dict(), "noise_scale": noise})


def _records_sha256(records) -> str:
    digest = hashlib.sha256()
    for r in records:
        digest.update(json.dumps([r.image_id, r.width, r.height,
                                  [[p.first_token, p.last_token, p.entity_type]
                                   for p in r.phrases]]).encode("utf-8"))
        digest.update(np.ascontiguousarray(r.token_ids, "<i8"))
        digest.update(np.ascontiguousarray(r.proposals, "<f8"))
        digest.update(np.ascontiguousarray(r.features, "<f4"))
        for p in r.phrases:
            digest.update(np.ascontiguousarray(p.gt_boxes, "<f8"))
    return digest.hexdigest()


def test_synthetic_records_of_the_ac4_spec_are_pinned():
    # The AC-4 overfit data, byte for byte: a change to the generator's
    # draws or their order changes this digest.
    spec = SyntheticSpec(seed=7, num_samples=64, vocab_size=50, tokens_per_sample=6,
                         objects_per_sample=8, entities_per_sample=2, d_feat=32,
                         entity_vocab_size=3, noise_scale=0.05, image_size=128)
    records = generate_synthetic(spec)
    assert all(len(p.gt_boxes) == 1 for r in records for p in r.phrases)
    assert (_records_sha256(records)
            == "e75eac6ef23fc3af3186de07fc7c38553855f9005d0f00234a6c6a054a0151e5")


def test_synthetic_spec_dict_round_trip():
    assert SyntheticSpec.from_dict(SPEC.to_dict()) == SPEC
