"""Recall@K evaluation, the detector upper bound, and per-entity-type
breakdowns, plus report emission in JSON and CSV.

An entity counts as hit at K when any of its top-K ranked proposals
overlaps any of its ground-truth boxes with IoU >= 0.5. Entities with
no qualifying proposal at all stay in the denominator (they are exactly
the gap to the upper bound). Every metric is reported as a percentage
with two decimal places.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .autodiff import no_grad
from .data import ENTITY_TYPES, IOU_THRESHOLD, SampleRecord, collate_batch, iou_matrix
from .head import rank_objects
from .model import GroundingModel

__all__ = [
    "EntityResult",
    "TypeRecall",
    "EvalReport",
    "recall_at_k",
    "upper_bound",
    "per_type_breakdown",
    "collect_entity_results",
    "evaluate",
    "emit_report",
    "load_report",
    "FULL_SCALE_REFERENCE",
    "FULL_SCALE_PER_TYPE_REFERENCE",
]

REPORT_SPLITS = ("dev", "test", "synthetic")

# Published full-scale Flickr30K Entities accuracy for the default
# L1-H2-abs configuration on Bottom-Up detector features. Desk-scale
# runs (random text-branch init, synthetic data) do not reproduce
# these; they are reference points for documentation and sanity only.
FULL_SCALE_REFERENCE = {
    "test": {"recall_at_1": 71.36, "recall_at_5": 84.76,
             "recall_at_10": 86.49, "upper_bound": 87.45},
    "dev": {"recall_at_1": 69.8, "recall_at_5": 84.22,
            "recall_at_10": 86.21, "upper_bound": 86.97},
}
FULL_SCALE_PER_TYPE_REFERENCE = {
    "people": (81.95, 5656),
    "clothing": (76.5, 2306),
    "bodyparts": (46.27, 523),
    "animals": (82.05, 518),
    "vehicles": (79.0, 400),
    "instruments": (35.8, 162),
    "scene": (70.23, 1619),
    "other": (53.53, 3374),
}

CSV_SUMMARY_HEADER = ["model_label", "split", "recall_at_1", "recall_at_5",
                      "recall_at_10", "upper_bound", "total_entities"]
CSV_TYPE_HEADER = ["entity_type", "recall_at_1", "count"]


@dataclass
class EntityResult:
    """Everything needed to score one phrase occurrence; `ious` (each
    proposal's best IoU against the ground-truth boxes) is computed from
    `proposals` and `gt_boxes` when it is not given."""

    ranking: list[int]        # valid proposal indices, best first
    proposals: np.ndarray     # [objects, 4] boxes of this entity's sample
    gt_boxes: np.ndarray      # [boxes, 4]
    entity_type: str
    ious: Optional[np.ndarray] = field(default=None, repr=False)  # [objects]
    _hit: Optional[float] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.ious is None:
            self.ious = iou_matrix(self.proposals, self.gt_boxes).max(axis=1)

    def first_hit(self) -> float:
        """0-based rank of the first ranked proposal with IoU >= 0.5
        (:data:`IOU_THRESHOLD`), or inf when none qualifies; computed once."""
        if self._hit is None:
            ranked = self.ious[np.asarray(self.ranking, dtype=np.intp)]
            hits = np.flatnonzero(ranked >= IOU_THRESHOLD)
            self._hit = int(hits[0]) if hits.size else math.inf
        return self._hit


@dataclass(frozen=True)
class TypeRecall:
    recall_at_1: float
    count: int


@dataclass
class EvalReport:
    split: str
    recall_at_1: float
    recall_at_5: float
    recall_at_10: float
    upper_bound: float
    per_type: dict[str, TypeRecall]
    total_entities: int
    model_label: str

    def __post_init__(self):
        if not (0.0 <= self.recall_at_1 <= self.recall_at_5
                <= self.recall_at_10 <= self.upper_bound <= 100.0):
            raise ValueError(
                "metric ordering violated: "
                f"{self.recall_at_1} <= {self.recall_at_5} <= "
                f"{self.recall_at_10} <= {self.upper_bound} <= 100"
            )
        if sum(t.count for t in self.per_type.values()) != self.total_entities:
            raise ValueError("per-type counts do not sum to the total entity count")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        per_type = {name: TypeRecall(**v) for name, v in d["per_type"].items()}
        return cls(**{**d, "per_type": per_type})


# -- metric primitives ---------------------------------------------------------


def recall_at_k(results, k: int) -> float:
    """Percentage of entities hit at K; phrase occurrences are not deduplicated."""
    results = list(results)
    if not results:
        raise ValueError("cannot compute recall on an empty split")
    hits = sum(r.first_hit() < k for r in results)
    return 100.0 * hits / len(results)


def upper_bound(results) -> float:
    """Best recall any ranker could reach over these proposals: the share
    of entities with at least one qualifying proposal at any rank."""
    results = list(results)
    if not results:
        raise ValueError("cannot compute the upper bound on an empty split")
    hits = sum(bool(r.ious.size) and r.ious.max() >= IOU_THRESHOLD for r in results)
    return 100.0 * hits / len(results)


def per_type_breakdown(results) -> dict[str, TypeRecall]:
    """Recall@1 restricted to each of the eight entity types, with counts."""
    results = list(results)
    grouped: dict[str, list[EntityResult]] = {t: [] for t in ENTITY_TYPES}
    for r in results:
        if r.entity_type not in grouped:
            raise ValueError(f"unknown entity type {r.entity_type!r}")
        grouped[r.entity_type].append(r)
    out = {}
    for t in ENTITY_TYPES:
        if grouped[t]:
            out[t] = TypeRecall(recall_at_1=round(recall_at_k(grouped[t], 1), 2),
                                count=len(grouped[t]))
        else:
            out[t] = TypeRecall(recall_at_1=0.0, count=0)
    return out


# -- model evaluation ------------------------------------------------------------


def collect_entity_results(model: GroundingModel, records: list[SampleRecord],
                           batch_size: int = 32) -> list[EntityResult]:
    """Run inference (dropout off, no graph) and rank every phrase's proposals."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    results: list[EntityResult] = []
    with no_grad():
        for lo in range(0, len(records), batch_size):
            chunk = records[lo:lo + batch_size]
            logits = model.batch_scores(collate_batch(chunk))
            entity = itertools.count()
            for record in chunk:
                for span, ious in zip(record.phrases, record.phrase_ious):
                    results.append(EntityResult(
                        ranking=rank_objects(logits, next(entity)),
                        proposals=record.proposals,
                        gt_boxes=span.gt_boxes,
                        entity_type=span.entity_type,
                        ious=ious,
                    ))
    return results


def evaluate(model: GroundingModel, records: list[SampleRecord], split: str = "test",
             batch_size: int = 32) -> EvalReport:
    """Deterministic full evaluation of a split."""
    if split not in REPORT_SPLITS:
        raise ValueError(f"split must be one of {REPORT_SPLITS}, got {split!r}")
    if not records:
        raise ValueError("cannot evaluate an empty split")
    results = collect_entity_results(model, records, batch_size)
    return EvalReport(
        split=split,
        recall_at_1=round(recall_at_k(results, 1), 2),
        recall_at_5=round(recall_at_k(results, 5), 2),
        recall_at_10=round(recall_at_k(results, 10), 2),
        upper_bound=round(upper_bound(results), 2),
        per_type=per_type_breakdown(results),
        total_entities=len(results),
        model_label=model.label,
    )


# -- emission ---------------------------------------------------------------------


def emit_report(report: EvalReport, fmt: str, path) -> None:
    """Write a report; JSON uses fixed keys, CSV mirrors the summary and
    per-type table layouts."""
    path = Path(path)
    if fmt == "json":
        path.write_text(json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")
    elif fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_SUMMARY_HEADER)
            writer.writerow([
                report.model_label, report.split,
                f"{report.recall_at_1:.2f}", f"{report.recall_at_5:.2f}",
                f"{report.recall_at_10:.2f}", f"{report.upper_bound:.2f}",
                report.total_entities,
            ])
            writer.writerow([])
            writer.writerow(CSV_TYPE_HEADER)
            for name in ENTITY_TYPES:
                t = report.per_type[name]
                writer.writerow([name, f"{t.recall_at_1:.2f}", t.count])
    else:
        raise ValueError(f"unknown report format {fmt!r} (expected json or csv)")


def load_report(path) -> EvalReport:
    """Inverse of the JSON emission."""
    return EvalReport.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
