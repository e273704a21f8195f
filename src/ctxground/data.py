"""Sample records and their rules (phrase spans, box checks, the padding
box, IoU), dataset ingestion, supervision targets, batching, and the
synthetic desk-scale generator. This is the package's leaf module: it
imports no other ctxground module, and the config type checks live here
because every config module imports it.

Annotation files are JSONL, one sample per line; RoI feature matrices
travel either inline or in sidecar GRND binary files. Supervision marks
a proposal positive for a phrase when it overlaps any of the phrase's
ground-truth boxes with IoU >= 0.5 (max over boxes, not their union).
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "ENTITY_TYPES",
    "IOU_THRESHOLD",
    "PAD_BOX",
    "DatasetError",
    "FormatError",
    "PhraseSpan",
    "SampleRecord",
    "Batch",
    "SyntheticSpec",
    "check_boxes",
    "iou",
    "iou_matrix",
    "label_positives",
    "parse_dataset",
    "write_dataset",
    "load_feature_file",
    "write_feature_file",
    "collate_batch",
    "generate_synthetic",
]

# The eight entity categories used for the per-type recall breakdown.
ENTITY_TYPES = ("people", "clothing", "bodyparts", "animals",
                "vehicles", "instruments", "scene", "other")

IOU_THRESHOLD = 0.5

# Padded object slots still flow through the embedding stage, so they
# carry a harmless unit box instead of a degenerate one.
PAD_BOX = (0.0, 0.0, 1.0, 1.0)

GRND_MAGIC = b"GRND"
GRND_VERSION = 1
_GRND_HEADER = struct.Struct("<4sBII")


class DatasetError(ValueError):
    """Invalid annotation data; the message carries line/image context."""


class FormatError(ValueError):
    """Corrupt or mismatched binary container."""


# -- geometry ------------------------------------------------------------------


def check_boxes(boxes, name: str = "box", sizes=None, valid=None) -> np.ndarray:
    """Validate corner-form rectangles [..., 4]; returns them as float64.

    A box passes when its coordinates are finite, x2 > x1 and y2 > y1,
    and, given `sizes` ((width, height), broadcastable to the boxes'
    leading axes), when x1, y1 >= 0, x2 <= width and y2 <= height. The
    tests are written in positive form, so a NaN coordinate fails them.
    Only the boxes marked in `valid` are checked; the first failing box
    raises ValueError.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    lo, hi = boxes[..., :2], boxes[..., 2:]
    ok = (hi > lo) & np.isfinite(boxes).all(axis=-1, keepdims=True)
    if sizes is not None:
        ok &= (lo >= 0) & (hi <= np.asarray(sizes, dtype=np.float64))
    ok = ok.all(axis=-1)
    if valid is not None:
        ok |= ~np.asarray(valid, dtype=bool)
    if ok.all():
        return boxes
    i = np.unravel_index(np.argmin(ok), ok.shape)
    box = tuple(float(v) for v in boxes[i])
    if not np.isfinite(box).all():
        raise ValueError(f"non-finite {name} {box}")
    if not (hi[i] > lo[i]).all():
        raise ValueError(f"degenerate {name} {box}")
    size = tuple(float(v) for v in np.broadcast_to(sizes, hi.shape)[i])
    raise ValueError(f"{name} {box} outside image bounds {size}")


def iou(a, b) -> float:
    """Intersection over union of two corner-form rectangles, in [0, 1]."""
    return float(iou_matrix(check_boxes(a), check_boxes(b))[0, 0])


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two box sets -> [len(a), len(b)]."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return inter / (area_a[:, None] + area_b[None, :] - inter)


def label_positives(proposals: np.ndarray, gt_boxes: np.ndarray) -> np.ndarray:
    """Binary vector marking proposals whose best IoU against any
    ground-truth box reaches :data:`IOU_THRESHOLD`."""
    proposals = np.reshape(proposals, (-1, 4))
    if proposals.shape[0] == 0:
        raise ValueError("no proposals to label")
    best = iou_matrix(check_boxes(proposals, "proposal"),
                      check_boxes(np.reshape(gt_boxes, (-1, 4)), "gt box")).max(axis=1)
    return (best >= IOU_THRESHOLD).astype(np.float64)


# -- records -------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PhraseSpan:
    """One annotated phrase: a token span, an entity type tag, and the
    ground-truth boxes it refers to (possibly several). Frozen, like `SampleRecord`."""

    first_token: int
    last_token: int
    entity_type: str
    gt_boxes: np.ndarray  # [num_boxes, 4] pixel rectangles

    def __post_init__(self):
        if not 0 <= self.first_token <= self.last_token:
            raise ValueError(
                f"invalid span ({self.first_token}, {self.last_token})"
            )
        object.__setattr__(self, "gt_boxes", np.asarray(self.gt_boxes, np.float64).reshape(-1, 4))
        if self.gt_boxes.shape[0] == 0:
            raise ValueError("phrase needs at least one ground-truth box")

    def __eq__(self, other):
        if not isinstance(other, PhraseSpan):
            return NotImplemented
        return (self.first_token == other.first_token
                and self.last_token == other.last_token
                and self.entity_type == other.entity_type
                and np.array_equal(self.gt_boxes, other.gt_boxes))


@dataclass(frozen=True, eq=False)
class SampleRecord:
    """One caption-image pair with phrases, proposals, and RoI features.

    A record is a value: it is validated once, when it is built, and its
    fields cannot be reassigned; `dataclasses.replace` gives a changed,
    re-validated copy. The arrays are not copied, so a caller must not
    edit them in place. `phrase_ious` is computed on first use."""

    image_id: str
    width: int
    height: int
    token_ids: np.ndarray     # [seq] int64
    phrases: tuple[PhraseSpan, ...]
    proposals: np.ndarray     # [objects, 4] float64
    features: np.ndarray      # [objects, d_feat] float32

    def __post_init__(self):
        object.__setattr__(self, "token_ids", np.asarray(self.token_ids, dtype=np.int64))
        object.__setattr__(self, "proposals",
                           np.asarray(self.proposals, dtype=np.float64).reshape(-1, 4))
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float32))
        object.__setattr__(self, "phrases", tuple(self.phrases))
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"invalid image size {self.width}x{self.height}")
        if self.token_ids.ndim != 1 or self.token_ids.size == 0:
            raise ValueError("token_ids must be a non-empty 1-d sequence")
        if (self.token_ids < 0).any():
            raise ValueError("negative token id")
        if self.proposals.shape[0] == 0:
            raise ValueError("record needs at least one proposal")
        if self.features.ndim != 2 or self.features.shape[0] != self.proposals.shape[0]:
            raise ValueError(
                f"feature rows {self.features.shape} do not match {self.proposals.shape[0]} proposals"
            )
        if not np.isfinite(self.features).all():
            row = np.argmin(np.isfinite(self.features).all(axis=1))
            raise ValueError(f"non-finite feature value for proposal {row}")
        for phrase in self.phrases:
            if phrase.last_token >= self.token_ids.size:
                raise ValueError(
                    f"phrase span ({phrase.first_token}, {phrase.last_token}) "
                    f"outside token range {self.token_ids.size}"
                )
            if phrase.entity_type not in ENTITY_TYPES:
                raise ValueError(f"unknown entity type {phrase.entity_type!r}")
        check_boxes(np.concatenate([self.proposals, *(p.gt_boxes for p in self.phrases)]),
                    "proposal or gt box", (self.width, self.height))

    @cached_property
    def phrase_ious(self) -> np.ndarray:
        """[phrases, objects]: each proposal's best IoU against the
        phrase's ground-truth boxes (max over boxes, not their union)."""
        rows = [iou_matrix(self.proposals, p.gt_boxes).max(axis=1) for p in self.phrases]
        return np.reshape(rows, (len(rows), self.num_objects))

    @property
    def num_objects(self) -> int:
        return self.proposals.shape[0]

    def __eq__(self, other):
        if not isinstance(other, SampleRecord):
            return NotImplemented
        return (self.image_id == other.image_id
                and self.width == other.width
                and self.height == other.height
                and np.array_equal(self.token_ids, other.token_ids)
                and self.phrases == other.phrases
                and np.array_equal(self.proposals, other.proposals)
                and np.array_equal(self.features, other.features))


# -- binary feature container ----------------------------------------------------


def write_feature_file(path, matrix: np.ndarray) -> None:
    """Write an [objects, dim] float32 matrix in the GRND container."""
    arr = np.ascontiguousarray(np.asarray(matrix, dtype="<f4"))
    if arr.ndim != 2:
        raise ValueError(f"feature matrix must be 2-d, got shape {arr.shape}")
    rows, dim = arr.shape
    with open(path, "wb") as fh:
        fh.write(_GRND_HEADER.pack(GRND_MAGIC, GRND_VERSION, rows, dim))
        fh.write(arr.tobytes())


def load_feature_file(path) -> np.ndarray:
    """Read a GRND container back into an [objects, dim] float32 matrix.
    The header is checked against the file's size before anything is
    allocated; the payload is then read once, straight into the matrix."""
    with open(path, "rb") as fh:
        header = fh.read(_GRND_HEADER.size)
        if len(header) < _GRND_HEADER.size:
            raise FormatError(f"{path}: truncated header")
        magic, version, rows, dim = _GRND_HEADER.unpack(header)
        if magic != GRND_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != GRND_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        size = os.fstat(fh.fileno()).st_size - _GRND_HEADER.size
        if size != rows * dim * 4:
            raise FormatError(
                f"{path}: payload size {size} does not match {rows}x{dim} float32 matrix"
            )
        matrix = np.empty((rows, dim), dtype="<f4")
        if fh.readinto(matrix) != matrix.nbytes:  # the file shrank since fstat
            raise FormatError(f"{path}: truncated payload")
    return matrix


# -- JSONL annotations -------------------------------------------------------------


def _typed(obj: dict, key: str, kind: type):
    """`obj[key]`, of type `kind` exactly: JSON `true` and `1.0` are no `int`."""
    if type(obj[key]) is not kind:
        raise TypeError(f"field {key!r} is not a JSON {kind.__name__}: {obj[key]!r}")
    return obj[key]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_count(x) -> bool:
    return _is_int(x) and x >= 0


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_fields(config, check, what: str, names) -> None:
    """Raise ValueError naming the first of `config`'s fields `names`
    whose value fails `check`. None passes where it is the default."""
    defaults = {f.name: f.default for f in fields(config)}
    for name in names:
        value = getattr(config, name)
        if not (check(value) or (value is None and defaults[name] is None)):
            raise ValueError(f"{name} must be {what}, got {value!r}")


def _coordinates(obj: dict, key: str) -> list:
    """`obj[key]`, a list of boxes, if every coordinate is a JSON number: no `true`, no string."""
    if not set(map(type, [v for box in obj[key] for v in box])) <= {int, float}:
        raise TypeError(f"field {key!r} is not a list of boxes of JSON numbers")
    return obj[key]


def _record_from_json(obj: dict, base_dir: Path) -> SampleRecord:
    features = obj["features"]
    if isinstance(features, str):
        features = load_feature_file(base_dir / features)
    elif np.asarray(features).dtype.kind not in "iuf":  # a string, null or bool among them
        raise TypeError("field 'features' is not a matrix of JSON numbers")
    tokens = obj["tokens"]
    if type(tokens) is not list or any(type(t) is not int for t in tokens):
        raise TypeError(f"field 'tokens' is not a list of integers: {tokens!r}")
    phrases = [
        PhraseSpan(first_token=_typed(p, "first", int), last_token=_typed(p, "last", int),
                   entity_type=_typed(p, "type", str),
                   gt_boxes=_coordinates(p, "gt_boxes"))
        for p in obj["phrases"]
    ]
    return SampleRecord(
        image_id=_typed(obj, "image_id", str),
        width=_typed(obj, "width", int),
        height=_typed(obj, "height", int),
        token_ids=np.asarray(tokens, dtype=np.int64),
        phrases=phrases,
        proposals=_coordinates(obj, "boxes"),
        features=np.asarray(features, dtype=np.float32),
    )


def parse_dataset(path) -> list[SampleRecord]:
    """Load and validate a JSONL annotation file; fails fast with the
    offending line number (and image id when known)."""
    path = Path(path)
    base_dir = path.parent
    records: list[SampleRecord] = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, too deeply nested
                raise DatasetError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
            image_id = obj.get("image_id", "<unknown>") if isinstance(obj, dict) else "<unknown>"
            # OverflowError: a number too large for an int or an int64;
            # OSError: a feature file that cannot be read.
            try:
                records.append(_record_from_json(obj, base_dir))
            except (KeyError, TypeError, ValueError, OverflowError, OSError) as exc:
                raise DatasetError(
                    f"{path}:{lineno}: invalid record for image {image_id!r}: {exc}"
                ) from exc
    return records


def _record_to_json(record: SampleRecord, features_field) -> dict:
    return {
        "image_id": record.image_id,
        "width": record.width,
        "height": record.height,
        "tokens": [int(t) for t in record.token_ids],
        "phrases": [
            {
                "first": p.first_token,
                "last": p.last_token,
                "type": p.entity_type,
                "gt_boxes": [[float(v) for v in box] for box in p.gt_boxes],
            }
            for p in record.phrases
        ],
        "boxes": [[float(v) for v in box] for box in record.proposals],
        "features": features_field,
    }


def write_dataset(records, path, feature_storage: str = "inline") -> None:
    """Emit records as JSONL. With ``feature_storage="files"`` the float32
    matrices go to sidecar GRND files under ``features/`` next to the
    JSONL, referenced by relative path, and each image id must be a plain
    file name; otherwise they are inlined."""
    if feature_storage not in ("inline", "files"):
        raise ValueError(f"unknown feature storage mode {feature_storage!r}")
    path = Path(path)
    if feature_storage == "files":
        ids = [r.image_id for r in records]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate image ids cannot share feature files")
        # Each id names a file in `features/`, so it must not hold a path.
        for image_id in ids:
            if image_id in ("", ".", "..") or Path(image_id).name != image_id:
                raise ValueError(f"image id {image_id!r} is not a plain file name")
        feature_dir = path.parent / "features"
        feature_dir.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            if feature_storage == "files":
                rel = f"features/{record.image_id}.grnd"
                write_feature_file(path.parent / rel, record.features)
                field = rel
            else:
                field = [[float(v) for v in row] for row in record.features]
            fh.write(json.dumps(_record_to_json(record, field)) + "\n")


# -- batching --------------------------------------------------------------------


@dataclass
class Batch:
    """Padded arrays plus a flattened phrase list with per-sample offsets.

    Padding never aliases valid data: masks delimit the real extents,
    padded token slots hold id 0, padded object slots hold zero features
    and the unit pad box.
    """

    token_ids: np.ndarray      # [batch, seq] int64
    text_mask: np.ndarray      # [batch, seq] bool
    features: np.ndarray       # [batch, objects, d_feat]
    boxes: np.ndarray          # [batch, objects, 4]
    sizes: np.ndarray          # [batch, 2] (width, height)
    object_mask: np.ndarray    # [batch, objects] bool
    spans: list[PhraseSpan]    # flattened across the batch
    span_sample: np.ndarray    # [total_entities] sample index per span
    targets: np.ndarray        # [total_entities, objects] 0/1

    @property
    def size(self) -> int:
        return self.token_ids.shape[0]

    @property
    def num_entities(self) -> int:
        return len(self.spans)


def collate_batch(records) -> Batch:
    """Pad token and object axes to the batch maxima, build masks, and
    mark each phrase's proposals whose cached best IoU reaches 0.5
    (:data:`IOU_THRESHOLD`) as its supervision targets."""
    records = list(records)
    if not records:
        raise ValueError("cannot collate an empty batch")
    d_feat = records[0].features.shape[1]
    for r in records:
        if r.features.shape[1] != d_feat:
            raise ValueError(
                f"inconsistent feature dims in batch: {r.features.shape[1]} vs {d_feat}"
            )
    batch = len(records)
    max_seq = max(r.token_ids.size for r in records)
    max_obj = max(r.num_objects for r in records)
    offsets = np.cumsum([0] + [len(r.phrases) for r in records])

    token_ids = np.zeros((batch, max_seq), dtype=np.int64)
    text_mask = np.zeros((batch, max_seq), dtype=bool)
    features = np.zeros((batch, max_obj, d_feat), dtype=np.float32)
    boxes = np.tile(np.asarray(PAD_BOX, dtype=np.float64), (batch, max_obj, 1))
    sizes = np.zeros((batch, 2), dtype=np.float64)
    object_mask = np.zeros((batch, max_obj), dtype=bool)
    targets = np.zeros((offsets[-1], max_obj), dtype=np.float64)

    for b, r in enumerate(records):
        s, o = r.token_ids.size, r.num_objects
        token_ids[b, :s] = r.token_ids
        text_mask[b, :s] = True
        features[b, :o] = r.features
        boxes[b, :o] = r.proposals
        sizes[b] = (r.width, r.height)
        object_mask[b, :o] = True
        targets[offsets[b]:offsets[b + 1], :o] = r.phrase_ious >= IOU_THRESHOLD

    return Batch(
        token_ids=token_ids,
        text_mask=text_mask,
        features=features,
        boxes=boxes,
        sizes=sizes,
        object_mask=object_mask,
        spans=[p for r in records for p in r.phrases],
        span_sample=np.repeat(np.arange(batch), np.diff(offsets)),
        targets=targets,
    )


# -- synthetic data ----------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator parameters for a desk-scale dataset with planted
    text-object correspondence.

    Each token id owns a prototype feature vector. Entities are drawn
    from a small pool of the first `entity_vocab_size` ids (captions
    keep a limited entity vocabulary, like real data); each entity gets
    one planted positive object, its prototype plus noise, and the other
    objects get pool prototypes absent from the caption, so they act as
    hard negatives. Filler token ids come from the rest of the vocab."""

    seed: int
    num_samples: int
    vocab_size: int
    tokens_per_sample: int
    objects_per_sample: int
    entities_per_sample: int
    d_feat: int
    entity_vocab_size: int | None = None  # defaults to min(8, vocab_size)
    noise_scale: float = 0.05
    image_size: int = 128

    def __post_init__(self):
        _check_fields(self, _is_count, "a non-negative integer", ("seed",))
        _check_fields(self, _is_int, "an integer",
                      ("num_samples", "vocab_size", "tokens_per_sample",
                       "objects_per_sample", "entities_per_sample", "d_feat",
                       "entity_vocab_size", "image_size"))
        _check_fields(self, _is_number, "a number", ("noise_scale",))
        if min(self.num_samples, self.vocab_size, self.tokens_per_sample,
               self.objects_per_sample, self.entities_per_sample, self.d_feat) < 1:
            raise ValueError("all synthetic sizes must be positive")
        if self.entity_vocab_size is None:
            object.__setattr__(self, "entity_vocab_size", min(8, self.vocab_size))
        if self.entities_per_sample > self.tokens_per_sample:
            raise ValueError("more entities than tokens per sample")
        if self.entities_per_sample > self.objects_per_sample:
            raise ValueError("not enough objects for the planted positives")
        if not self.entities_per_sample < self.entity_vocab_size <= self.vocab_size:
            raise ValueError(
                "entity_vocab_size must leave at least one distractor id and fit the vocab"
            )
        if not 0 <= self.noise_scale < math.inf:  # positive form: NaN fails
            raise ValueError("noise_scale must be finite and non-negative")
        grid = math.ceil(math.sqrt(self.objects_per_sample))
        if self.image_size < 4 * grid:
            raise ValueError(f"image_size {self.image_size} too small for {grid}x{grid} grid")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticSpec":
        return cls(**d)


def _grid_boxes(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Jittered boxes, one per disjoint grid cell, so proposals never
    overlap each other (upper bound is decided purely by the planting)."""
    grid = math.ceil(math.sqrt(spec.objects_per_sample))
    cell = spec.image_size / grid
    r, c = np.divmod(np.arange(spec.objects_per_sample), grid)
    jx, jy, kx, ky = (rng.random((spec.objects_per_sample, 4)) * 0.2).T
    return np.stack([c + 0.05 + jx, r + 0.05 + jy, c + 0.95 - kx, r + 0.95 - ky], axis=1) * cell


def generate_synthetic(spec: SyntheticSpec) -> list[SampleRecord]:
    """Deterministic in the seed; each entity's ground truth is its one
    planted proposal's box (IoU 1.0), so the detector upper bound is
    100% by construction."""
    rng = np.random.default_rng(spec.seed)
    protos = rng.normal(0.0, 1.0, (spec.vocab_size, spec.d_feat))
    pool = np.arange(spec.entity_vocab_size)
    filler_lo = spec.entity_vocab_size if spec.entity_vocab_size < spec.vocab_size else 0
    records = []
    for s in range(spec.num_samples):
        entity_tids = rng.choice(pool, spec.entities_per_sample, replace=False)
        token_ids = rng.integers(filler_lo, spec.vocab_size, spec.tokens_per_sample)
        positions = np.sort(rng.choice(spec.tokens_per_sample, spec.entities_per_sample,
                                       replace=False))
        token_ids[positions] = entity_tids

        boxes = _grid_boxes(spec, rng)
        # planted[j] is entity j's one positive object.
        planted = rng.choice(spec.objects_per_sample, spec.entities_per_sample, replace=False)
        planted_of = {int(obj): j for j, obj in enumerate(planted)}

        distractor_pool = np.setdiff1d(pool, entity_tids)
        features = np.empty((spec.objects_per_sample, spec.d_feat), dtype=np.float64)
        for o in range(spec.objects_per_sample):
            if o in planted_of:
                proto = protos[entity_tids[planted_of[o]]]
            else:
                proto = protos[rng.choice(distractor_pool)]
            features[o] = proto + spec.noise_scale * rng.normal(0.0, 1.0, spec.d_feat)

        phrases = [PhraseSpan(first_token=int(positions[j]), last_token=int(positions[j]),
                              entity_type=str(rng.choice(ENTITY_TYPES)),
                              gt_boxes=boxes[planted[j:j + 1]])
                   for j in range(spec.entities_per_sample)]

        records.append(SampleRecord(
            image_id=f"synthetic-{s:05d}",
            width=spec.image_size,
            height=spec.image_size,
            token_ids=token_ids,
            phrases=phrases,
            proposals=boxes,
            features=features.astype(np.float32),
        ))
    return records
