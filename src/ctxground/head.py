"""Cross-modal grounding head.

Entity representations (the text hidden state at each phrase's last
token) act as queries, object hidden states as keys; their scaled dot
products are the correspondence scores. Training treats each
(entity, object) pair as an independent binary decision, so one entity
can match several objects without the positives competing; ranking just
sorts the raw scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .autodiff import Tensor, bce_with_logits, linear, take_rows
from .data import PhraseSpan
from .encoder import LinearParams, ParamMaker, _init_linear

__all__ = [
    "GroundingLogits",
    "HeadParams",
    "build_head",
    "extract_entity_states",
    "cross_modal_logits",
    "per_entity_bce",
    "grounding_loss",
    "rank_objects",
]


@dataclass
class GroundingLogits:
    """Entity x object scores: row e against the objects of entity e's
    sample. `object_mask` ([entities, objects], or [objects] for every
    row) marks real objects; the loss and the ranking read no other."""

    scores: Tensor                # [entities, objects]
    object_mask: np.ndarray       # [entities, objects] bool
    entity_count: int = field(init=False)

    def __post_init__(self):
        mask = np.asarray(self.object_mask, dtype=bool)
        if mask.shape not in (self.scores.shape, self.scores.shape[1:]):
            raise ValueError(
                f"object mask {mask.shape} does not match score columns {self.scores.shape}"
            )
        self.object_mask = np.broadcast_to(mask, self.scores.shape)
        self.entity_count = self.scores.shape[0]


@dataclass
class HeadParams:
    """Learned projections into the shared scoring space."""

    query: LinearParams  # d_text -> d_joint
    key: LinearParams    # d_image -> d_joint

    def __post_init__(self):
        if self.query.weight.shape[1] != self.key.weight.shape[1]:
            raise ValueError("query and key must project into the same joint dimension")

    @property
    def d_joint(self) -> int:
        return self.query.weight.shape[1]


def build_head(d_text: int, d_image: int, d_joint: int, make: ParamMaker) -> HeadParams:
    """Head whose parameter tensors come from `make`."""
    return HeadParams(query=_init_linear(make, d_text, d_joint),
                      key=_init_linear(make, d_image, d_joint))


def extract_entity_states(text_hidden: Tensor, spans: Sequence[PhraseSpan],
                          span_sample) -> Tensor:
    """Row i is the hidden state at spans[i].last_token (last-subword
    rule) of sample span_sample[i]; one gather over the [batch*seq, d]
    text states."""
    batch, seq_len, d = text_hidden.shape
    last = np.fromiter((s.last_token for s in spans), dtype=np.intp, count=len(spans))
    if last.size and last.max() >= seq_len:
        raise ValueError(
            f"span last token {int(last.max())} out of range for sequence of length {seq_len}"
        )
    sample = np.asarray(span_sample, dtype=np.intp)
    return take_rows(text_hidden.reshape((batch * seq_len, d)), sample * seq_len + last)


def cross_modal_logits(entities: Tensor, objects: Tensor, object_mask,
                       params: HeadParams, entity_sample) -> GroundingLogits:
    """Scaled dot products between projected entities and the projected
    objects ([batch, objects, d] with a [batch, objects] mask) of each
    entity's sample `entity_sample[e]`. All queries meet all keys in one
    product; each row keeps its block."""
    num_objects = objects.shape[-2]
    object_mask = np.asarray(object_mask, dtype=bool).reshape(-1, num_objects)
    if not object_mask.any(axis=1).all():
        raise ValueError("no valid objects to score against")
    batch = object_mask.shape[0]
    objects = objects.reshape((batch * num_objects, objects.shape[-1]))
    sample = np.asarray(entity_sample, dtype=np.intp)
    outside = sample[(sample < 0) | (sample >= batch)]
    if outside.size:
        raise ValueError(f"entity sample index {int(outside[0])} out of range "
                         f"for a batch of {batch}")
    q = linear(entities, params.query.weight, params.query.bias)
    k = linear(objects, params.key.weight, params.key.bias)
    every = linear(q, k.transpose((1, 0))).reshape((entities.shape[0] * batch, num_objects))
    own = take_rows(every, np.arange(sample.size) * batch + sample)
    return GroundingLogits(scores=own * (1.0 / math.sqrt(params.d_joint)),
                           object_mask=object_mask[sample])


def per_entity_bce(logits: GroundingLogits, targets) -> Tensor:
    """Mean binary cross entropy over each entity's valid objects -> [entities]."""
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != logits.scores.shape:
        raise ValueError(
            f"targets shape {targets.shape} does not match scores {logits.scores.shape}"
        )
    if ((targets > 0) & ~logits.object_mask).any():
        raise ValueError("positive target on a masked object")
    mask = logits.object_mask.astype(logits.scores.dtype)
    elementwise = bce_with_logits(logits.scores, targets * mask)
    return (elementwise * mask).sum(axis=1) * (1.0 / logits.object_mask.sum(axis=1))


def grounding_loss(logits: GroundingLogits, targets) -> Tensor:
    """Per-entity mean BCE, averaged over entities. Entities with no
    positive object still contribute all-negative rows."""
    if logits.entity_count == 0:
        raise ValueError("no entities to ground")
    return per_entity_bce(logits, targets).mean()


def rank_objects(logits: GroundingLogits, entity: int) -> list[int]:
    """Valid object indices by descending score; ties broken by ascending index."""
    if not 0 <= entity < logits.entity_count:
        raise IndexError(f"entity {entity} out of range ({logits.entity_count} entities)")
    order = np.argsort(-logits.scores.values[entity], kind="stable")
    return order[logits.object_mask[entity][order]].tolist()
