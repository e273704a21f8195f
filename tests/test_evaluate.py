import json

import numpy as np
import pytest

from ctxground.data import ENTITY_TYPES, SampleRecord, SyntheticSpec, generate_synthetic
from ctxground.encoder import BranchConfig
from ctxground.evaluate import (
    CSV_SUMMARY_HEADER,
    CSV_TYPE_HEADER,
    EntityResult,
    EvalReport,
    FULL_SCALE_PER_TYPE_REFERENCE,
    FULL_SCALE_REFERENCE,
    TypeRecall,
    collect_entity_results,
    emit_report,
    evaluate,
    load_report,
    per_type_breakdown,
    recall_at_k,
    upper_bound,
)
from ctxground.head import PhraseSpan
from ctxground.model import GroundingModel, ModelConfig

from oracles import recall_ref, upper_bound_ref


def result(ranking, proposals, gt, typ="people"):
    return EntityResult(ranking=ranking, proposals=np.asarray(proposals, float),
                        gt_boxes=np.asarray(gt, float).reshape(-1, 4), entity_type=typ)


GT = [[0.0, 0.0, 10.0, 10.0]]
HIT_SET = [[0, 0, 10, 10], [50, 50, 60, 60], [70, 70, 90, 90]]


def tiny_model_and_records(num_samples=8, model_seed=0, data_seed=4):
    spec = SyntheticSpec(seed=data_seed, num_samples=num_samples, vocab_size=12,
                         tokens_per_sample=5, objects_per_sample=4,
                         entities_per_sample=2, d_feat=6, entity_vocab_size=4,
                         image_size=32)
    records = generate_synthetic(spec)
    cfg = ModelConfig(
        vocab_size=12, feature_dim=6, d_joint=8,
        text=BranchConfig(num_layers=1, num_heads=2, hidden_dim=8,
                          dropout_p=0.0, max_positions=10),
        image=BranchConfig(num_layers=1, num_heads=2, hidden_dim=8,
                           dropout_p=0.0, use_spatial=True),
    )
    model = GroundingModel.initialize(cfg, seed=model_seed, dtype=np.float64,
                                      init_std=0.3)
    return model, records


# -- hits and recall ------------------------------------------------------------------


def hit_at(ranking, proposals, gt, k):
    """Whether any of the top-k ranked proposals overlaps a gt box."""
    return result(ranking, proposals, gt).first_hit() < k


def test_hit_when_top_proposal_matches():
    assert hit_at([0, 1, 2], HIT_SET, GT, k=1)


def test_miss_when_all_disjoint():
    proposals = [[50, 50, 60, 60], [70, 70, 90, 90]]
    for k in (1, 5, 10):
        assert not hit_at([0, 1], proposals, GT, k=k)


def test_hit_monotone_in_k():
    ranking = [1, 2, 0]  # correct proposal ranked last
    assert not hit_at(ranking, HIT_SET, GT, k=1)
    assert hit_at(ranking, HIT_SET, GT, k=5)
    assert hit_at(ranking, HIT_SET, GT, k=10)


def test_hit_any_gt_box_counts():
    gt = [[70.0, 70.0, 90.0, 90.0], [0.0, 0.0, 10.0, 10.0]]
    assert hit_at([2], HIT_SET, gt, k=1)


def test_recall_all_hits_and_half_hits():
    hit = result([0], HIT_SET, GT)
    miss = result([1], HIT_SET, GT)
    assert recall_at_k([hit, hit], 1) == 100.0
    assert recall_at_k([hit, miss], 1) == 50.0


def test_recall_counts_phrase_occurrences():
    hit = result([0], HIT_SET, GT)
    miss = result([1], HIT_SET, GT)
    np.testing.assert_allclose(recall_at_k([hit, hit, miss], 1), 200.0 / 3.0)


def test_recall_empty_split_raises():
    with pytest.raises(ValueError, match="empty"):
        recall_at_k([], 1)


def test_upper_bound_examples():
    qualifying = result([1], HIT_SET, GT)       # ranked wrong but proposal exists
    hopeless = result([0], HIT_SET[1:], GT)     # nothing overlaps
    assert upper_bound([qualifying]) == 100.0
    assert upper_bound([hopeless]) == 0.0
    assert upper_bound([qualifying, hopeless]) == 50.0


def test_per_type_single_type_matches_overall():
    rs = [result([0], HIT_SET, GT, typ="scene"), result([1], HIT_SET, GT, typ="scene")]
    table = per_type_breakdown(rs)
    assert table["scene"] == TypeRecall(recall_at_1=50.0, count=2)
    assert sum(t.count for t in table.values()) == 2
    assert set(table) == set(ENTITY_TYPES)


def test_per_type_rejects_unknown_tag():
    with pytest.raises(ValueError, match="unknown"):
        per_type_breakdown([result([0], HIT_SET, GT, typ="chair")])


# -- brute-force oracle agreement --------------------------------------------------------


def random_split(rng, samples=6, max_objects=8, max_entities=4):
    entities = []
    for _ in range(samples):
        o = int(rng.integers(1, max_objects + 1))
        proposals = np.zeros((o, 4))
        proposals[:, :2] = rng.uniform(0, 50, (o, 2))
        proposals[:, 2:] = proposals[:, :2] + rng.uniform(1, 40, (o, 2))
        for _ in range(int(rng.integers(1, max_entities + 1))):
            g = int(rng.integers(1, 3))
            gt = np.zeros((g, 4))
            gt[:, :2] = rng.uniform(0, 50, (g, 2))
            gt[:, 2:] = gt[:, :2] + rng.uniform(1, 40, (g, 2))
            scores = rng.normal(size=o)
            ranking = sorted(range(o), key=lambda i: (-scores[i], i))
            entities.append(result(ranking, proposals, gt,
                                   typ=str(rng.choice(ENTITY_TYPES))))
    return entities


def test_metrics_match_brute_force_oracle():
    rng = np.random.default_rng(21)
    for _ in range(10):
        split = random_split(rng)
        triples = [(r.ranking, r.proposals.tolist(), r.gt_boxes.tolist())
                   for r in split]
        for k in (1, 5, 10):
            assert recall_at_k(split, k) == recall_ref(triples, k, 0.5)
        assert upper_bound(split) == upper_bound_ref(triples, 0.5)
        values = [recall_at_k(split, k) for k in (1, 5, 10)] + [upper_bound(split)]
        assert values == sorted(values)


def test_first_hit_rank_drives_every_k():
    r = result([1, 2, 0], HIT_SET, GT)  # the qualifying proposal is ranked third
    assert r.first_hit() == 2
    assert [recall_at_k([r], k) for k in (1, 2, 3)] == [0.0, 0.0, 100.0]
    assert result([1, 2], HIT_SET, GT).first_hit() == float("inf")  # never ranked


def random_boxes(rng, n):
    boxes = np.zeros((n, 4))
    boxes[:, :2] = rng.uniform(0, 60, (n, 2))
    boxes[:, 2:] = boxes[:, :2] + rng.uniform(1, 50, (n, 2))
    return boxes


def oracle_records(rng):
    """An AC-5 micro-split (1-8 proposals, 1-4 phrases of 1-2 boxes per
    sample) as records the tiny model can score."""
    records = []
    for s in range(int(rng.integers(1, 11))):
        objects = int(rng.integers(1, 9))
        phrases = [PhraseSpan(first_token=e, last_token=e, entity_type=str(rng.choice(ENTITY_TYPES)),
                              gt_boxes=random_boxes(rng, int(rng.integers(1, 3))))
                   for e in range(int(rng.integers(1, 5)))]
        records.append(SampleRecord(
            image_id=f"oracle-{s}", width=120, height=120, token_ids=rng.integers(0, 12, 5),
            phrases=phrases, proposals=random_boxes(rng, objects),
            features=rng.normal(size=(objects, 6)).astype(np.float32)))
    return records


def test_evaluate_agrees_with_metric_primitives_on_oracle_splits():
    # Results as evaluate builds them (IoU rows from the record cache) score
    # exactly like rebuilt ones that recompute the rows, and like the oracle.
    model, _ = tiny_model_and_records()
    rng = np.random.default_rng(55)
    for _ in range(20):
        records = oracle_records(rng)
        report = evaluate(model, records, split="synthetic")
        results = collect_entity_results(model, records)
        bare = [EntityResult(ranking=r.ranking, proposals=r.proposals, gt_boxes=r.gt_boxes,
                             entity_type=r.entity_type) for r in results]
        for r, b in zip(results, bare):
            assert np.array_equal(r.ious, b.ious)
        triples = [(r.ranking, r.proposals.tolist(), r.gt_boxes.tolist()) for r in bare]
        for k, got in ((1, report.recall_at_1), (5, report.recall_at_5), (10, report.recall_at_10)):
            assert got == round(recall_at_k(bare, k), 2) == round(recall_ref(triples, k, 0.5), 2)
        assert report.upper_bound == round(upper_bound(bare), 2) == round(
            upper_bound_ref(triples, 0.5), 2)
        assert report.per_type == per_type_breakdown(bare)


# -- report ---------------------------------------------------------------------------------


def make_report():
    per_type = {t: TypeRecall(recall_at_1=0.0, count=0) for t in ENTITY_TYPES}
    per_type["people"] = TypeRecall(recall_at_1=50.0, count=2)
    return EvalReport(split="dev", recall_at_1=50.0, recall_at_5=100.0,
                      recall_at_10=100.0, upper_bound=100.0, per_type=per_type,
                      total_entities=2, model_label="L1-H2-abs")


def test_report_validates_metric_ordering():
    with pytest.raises(ValueError, match="ordering"):
        EvalReport(split="dev", recall_at_1=60.0, recall_at_5=50.0,
                   recall_at_10=70.0, upper_bound=80.0,
                   per_type={t: TypeRecall(0.0, 0) for t in ENTITY_TYPES},
                   total_entities=0, model_label="L1-H1")


def test_report_validates_type_counts():
    with pytest.raises(ValueError, match="counts"):
        EvalReport(split="dev", recall_at_1=0.0, recall_at_5=0.0,
                   recall_at_10=0.0, upper_bound=0.0,
                   per_type={t: TypeRecall(0.0, 0) for t in ENTITY_TYPES},
                   total_entities=5, model_label="L1-H1")


def test_report_json_round_trip(tmp_path):
    report = make_report()
    path = tmp_path / "report.json"
    emit_report(report, "json", path)
    assert load_report(path) == report
    keys = list(json.loads(path.read_text()))
    assert keys == ["split", "recall_at_1", "recall_at_5", "recall_at_10",
                    "upper_bound", "per_type", "total_entities", "model_label"]


def test_report_csv_layout(tmp_path):
    path = tmp_path / "report.csv"
    emit_report(make_report(), "csv", path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_SUMMARY_HEADER)
    assert lines[1].startswith("L1-H2-abs,dev,50.00,100.00,100.00,100.00")
    assert lines[3] == ",".join(CSV_TYPE_HEADER)
    assert len(lines) == 4 + len(ENTITY_TYPES)


def test_emit_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError, match="format"):
        emit_report(make_report(), "yaml", tmp_path / "x")


def test_full_scale_reference_constants_are_consistent():
    for split in ("dev", "test"):
        ref = FULL_SCALE_REFERENCE[split]
        assert (ref["recall_at_1"] <= ref["recall_at_5"]
                <= ref["recall_at_10"] <= ref["upper_bound"])
    assert set(FULL_SCALE_PER_TYPE_REFERENCE) == set(ENTITY_TYPES)


# -- model evaluation --------------------------------------------------------------------------


def test_evaluate_is_deterministic():
    model, records = tiny_model_and_records()
    a = evaluate(model, records, split="synthetic")
    b = evaluate(model, records, split="synthetic")
    assert a == b


def test_evaluate_metric_ordering_and_upper_bound():
    model, records = tiny_model_and_records()
    report = evaluate(model, records, split="synthetic")
    assert (report.recall_at_1 <= report.recall_at_5
            <= report.recall_at_10 <= report.upper_bound == 100.0)
    assert report.total_entities == sum(len(r.phrases) for r in records)
    assert report.model_label == "L1-H2-abs"


def test_evaluate_rejects_empty_and_unknown_split():
    model, records = tiny_model_and_records()
    with pytest.raises(ValueError, match="empty"):
        evaluate(model, [], split="dev")
    with pytest.raises(ValueError, match="split"):
        evaluate(model, records, split="training")


@pytest.mark.parametrize("batch_size", [0, -1])
def test_evaluate_and_collect_refuse_a_batch_size_below_one(batch_size):
    model, records = tiny_model_and_records()
    for run in (evaluate, collect_entity_results):
        with pytest.raises(ValueError, match=f"batch_size must be at least 1, got {batch_size}"):
            run(model, records, batch_size=batch_size)


def test_evaluate_batch_size_does_not_change_results():
    model, records = tiny_model_and_records(num_samples=7)
    a = evaluate(model, records, split="synthetic", batch_size=2)
    b = evaluate(model, records, split="synthetic", batch_size=32)
    assert a == b


def test_proposal_permutation_leaves_metrics_identical():
    model, records = tiny_model_and_records(num_samples=6)
    base = evaluate(model, records, split="synthetic")
    rng = np.random.default_rng(9)
    permuted = []
    for r in records:
        perm = rng.permutation(r.num_objects)
        permuted.append(type(r)(
            image_id=r.image_id, width=r.width, height=r.height,
            token_ids=r.token_ids.copy(),
            phrases=[type(p)(first_token=p.first_token, last_token=p.last_token,
                             entity_type=p.entity_type, gt_boxes=p.gt_boxes.copy())
                     for p in r.phrases],
            proposals=r.proposals[perm], features=r.features[perm]))
    moved = evaluate(model, permuted, split="synthetic")
    assert base == moved


def test_random_model_recall_matches_chance_rate():
    # with one planted positive among O objects and an untrained model,
    # R@1 concentrates near 100/O across seeds; a large noise scale makes
    # object features exchangeable, so top-1 is uniform over the objects
    objects = 8
    rates = []
    for seed in range(20):
        spec = SyntheticSpec(seed=100 + seed, num_samples=16, vocab_size=12,
                             tokens_per_sample=5, objects_per_sample=objects,
                             entities_per_sample=2, d_feat=6, entity_vocab_size=12,
                             noise_scale=4.0, image_size=64)
        records = generate_synthetic(spec)
        cfg = ModelConfig(
            vocab_size=12, feature_dim=6, d_joint=8,
            text=BranchConfig(num_layers=1, num_heads=2, hidden_dim=8,
                              dropout_p=0.0, max_positions=10),
            image=BranchConfig(num_layers=1, num_heads=2, hidden_dim=8,
                               dropout_p=0.0, use_spatial=True),
        )
        model = GroundingModel.initialize(cfg, seed=seed, dtype=np.float64,
                                          init_std=0.3)
        rates.append(evaluate(model, records, split="synthetic").recall_at_1)
    mean_rate = float(np.mean(rates))
    assert abs(mean_rate - 100.0 / objects) < 5.0


def test_collect_entity_results_aligns_with_records():
    model, records = tiny_model_and_records(num_samples=3)
    results = collect_entity_results(model, records)
    expected_types = [p.entity_type for r in records for p in r.phrases]
    assert [r.entity_type for r in results] == expected_types
    for res, rec in zip(results[:2], [records[0]] * 2):
        assert np.array_equal(res.proposals, rec.proposals)
        assert sorted(res.ranking) == list(range(rec.num_objects))
