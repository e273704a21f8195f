"""Full grounding model: text branch + image branch + cross-modal head,
with parameter bookkeeping shared by the optimizer and checkpoints.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, is_dataclass
from typing import Optional

import numpy as np

from .autodiff import Tensor
from .data import Batch, _check_fields, _is_int
from .encoder import (
    INIT_STD,
    BranchConfig,
    BranchInput,
    ImageBranchParams,
    ParamMaker,
    TextBranchParams,
    build_image_branch,
    build_text_branch,
    default_image_config,
    default_text_config,
    encode_branch,
    model_label,
    random_params,
)
from .head import (
    GroundingLogits,
    HeadParams,
    build_head,
    cross_modal_logits,
    extract_entity_states,
    grounding_loss,
)

__all__ = ["ModelConfig", "ModelParams", "GroundingModel", "named_parameters", "default_model_config"]

DEFAULT_VOCAB_SIZE = 30522
DEFAULT_FEATURE_DIM = 2048


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    feature_dim: int
    text: BranchConfig
    image: BranchConfig
    d_joint: int = 768

    def __post_init__(self):
        _check_fields(self, _is_int, "an integer", ("vocab_size", "feature_dim", "d_joint"))
        if self.vocab_size < 1 or self.feature_dim < 1 or self.d_joint < 1:
            raise ValueError("vocab_size, feature_dim and d_joint must be positive")
        if self.text.max_positions is None:
            raise ValueError("text branch needs max_positions")
        if self.text.use_spatial is not None:
            raise ValueError(f"the text branch reads no use_spatial, got {self.text.use_spatial!r}")
        if self.image.max_positions is not None:
            raise ValueError(
                f"the image branch reads no max_positions, got {self.image.max_positions!r}")

    def to_dict(self) -> dict:
        return {**asdict(self), "text": self.text.to_dict(), "image": self.image.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**{**d, "text": BranchConfig.from_dict(d["text"]),
                      "image": BranchConfig.from_dict(d["image"])})


def default_model_config() -> ModelConfig:
    """Default full-scale configuration (text 12/12/768, image L1-H2-abs)."""
    return ModelConfig(
        vocab_size=DEFAULT_VOCAB_SIZE,
        feature_dim=DEFAULT_FEATURE_DIM,
        text=default_text_config(),
        image=default_image_config(),
    )


@dataclass
class ModelParams:
    text: TextBranchParams
    image: ImageBranchParams
    head: HeadParams


def _walk(obj, prefix: str, out: list[tuple[str, Tensor]]) -> None:
    if isinstance(obj, Tensor):
        out.append((prefix, obj))
    elif is_dataclass(obj):
        for f in fields(obj):
            _walk(getattr(obj, f.name), f"{prefix}.{f.name}" if prefix else f.name, out)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            _walk(item, f"{prefix}.{i}", out)
    # strings, None, numpy arrays: nothing to collect


def named_parameters(params: ModelParams) -> dict[str, Tensor]:
    """Flat name -> tensor map in a fixed traversal order (field order)."""
    out: list[tuple[str, Tensor]] = []
    _walk(params, "", out)
    return dict(out)


class GroundingModel:
    """Bundles configuration and parameters. A forward given `rng` applies
    dropout with masks drawn from it (text branch first); without `rng`
    it is a pure function of the parameters."""

    def __init__(self, config: ModelConfig, params: ModelParams):
        self.config = config
        self.params = params

    @classmethod
    def build(cls, config: ModelConfig, make: ParamMaker) -> "GroundingModel":
        """Model of `config` whose parameter tensors come from `make`,
        called in `named_parameters` order."""
        text = build_text_branch(config.text, config.vocab_size, make)
        image = build_image_branch(config.image, config.feature_dim, make)
        head = build_head(config.text.hidden_dim, config.image.hidden_dim, config.d_joint, make)
        return cls(config, ModelParams(text=text, image=image, head=head))

    @classmethod
    def initialize(cls, config: ModelConfig, seed: int, dtype=np.float32,
                   init_std: float = INIT_STD) -> "GroundingModel":
        """Fresh model: normal(0, init_std) weights drawn from one
        generator seeded with `seed`, zero biases, unit gains."""
        return cls.build(config, random_params(np.random.default_rng(seed), dtype, init_std))

    @property
    def label(self) -> str:
        return model_label(self.config.image)

    def named_parameters(self) -> dict[str, Tensor]:
        return named_parameters(self.params)

    def encode(self, batch: Batch, rng: Optional[np.random.Generator] = None
               ) -> tuple[Tensor, Tensor]:
        if batch.features.shape[-1] != self.config.feature_dim:
            raise ValueError(f"object features are {batch.features.shape[-1]} wide, but "
                             f"the model expects feature_dim {self.config.feature_dim}")
        text_in = BranchInput(valid_mask=batch.text_mask, token_ids=batch.token_ids)
        image_in = BranchInput(valid_mask=batch.object_mask, features=batch.features,
                               boxes=batch.boxes, sizes=batch.sizes)
        text_hidden = encode_branch(text_in, self.config.text, self.params.text, rng)
        image_hidden = encode_branch(image_in, self.config.image, self.params.image, rng)
        return text_hidden, image_hidden

    def batch_scores(self, batch: Batch, rng: Optional[np.random.Generator] = None
                     ) -> GroundingLogits:
        """Grounding logits of every entity in the batch, in span order:
        row e scores entity e against the objects of its own sample."""
        text_hidden, image_hidden = self.encode(batch, rng)
        entities = extract_entity_states(text_hidden, batch.spans, batch.span_sample)
        return cross_modal_logits(entities, image_hidden, batch.object_mask,
                                  self.params.head, batch.span_sample)

    def batch_loss(self, batch: Batch, rng: Optional[np.random.Generator] = None
                   ) -> tuple[Tensor, GroundingLogits]:
        """Mean per-entity BCE over every entity in the batch."""
        logits = self.batch_scores(batch, rng)
        return grounding_loss(logits, batch.targets), logits
