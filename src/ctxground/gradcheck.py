"""End-to-end gradient verification on toy models.

Builds a small model with every architectural feature enabled (input
projection, spatial embedding, padding-free batch) and compares
reverse-mode gradients of the full grounding loss against central
finite differences, parameter tensor by parameter tensor, in float64.
"""

from __future__ import annotations

import numpy as np

from .autodiff import finite_diff_check
from .data import Batch, SyntheticSpec, collate_batch, generate_synthetic
from .encoder import BranchConfig
from .model import GroundingModel, ModelConfig

__all__ = ["TOLERANCE", "toy_config", "toy_setup", "run_gradcheck"]

TOLERANCE = 1e-4  # the max relative error below which `ctxground gradcheck` passes


def toy_config(preset: str = "full") -> tuple[ModelConfig, SyntheticSpec]:
    """Model/data shapes for gradient checks.

    `full`: 2-layer text and 1-layer image branch (d=8, 2 heads each,
    joint dim 8) on a sample with 6 tokens, 3 entities, 4 objects.
    `quick`: single-head single-layer variant for smoke tests.
    """
    if preset == "full":
        model = ModelConfig(
            vocab_size=13,
            feature_dim=12,
            d_joint=8,
            text=BranchConfig(num_layers=2, num_heads=2, hidden_dim=8, max_positions=8),
            image=BranchConfig(num_layers=1, num_heads=2, hidden_dim=8, use_spatial=True),
        )
        data = SyntheticSpec(seed=11, num_samples=1, vocab_size=13,
                             tokens_per_sample=6, objects_per_sample=4,
                             entities_per_sample=3, d_feat=12,
                             noise_scale=0.25, image_size=64)
    elif preset == "quick":
        model = ModelConfig(
            vocab_size=7,
            feature_dim=4,
            d_joint=4,
            text=BranchConfig(num_layers=1, num_heads=1, hidden_dim=4, max_positions=6),
            image=BranchConfig(num_layers=1, num_heads=1, hidden_dim=4, use_spatial=True),
        )
        data = SyntheticSpec(seed=11, num_samples=1, vocab_size=7,
                             tokens_per_sample=4, objects_per_sample=3,
                             entities_per_sample=2, d_feat=4,
                             noise_scale=0.25, image_size=16)
    else:
        raise ValueError(f"unknown gradcheck preset {preset!r}")
    return model, data


def toy_setup(preset: str = "full") -> tuple[GroundingModel, Batch]:
    """Float64 toy model (parameter seed 0) plus one collated batch.

    Weights are drawn wider than the training init (std 0.5 vs 0.02) so
    no parameter sits at a degenerate near-zero-gradient point where the
    relative-error denominator floor would measure only rounding noise.
    """
    model_cfg, data_spec = toy_config(preset)
    model = GroundingModel.initialize(model_cfg, seed=0, dtype=np.float64,
                                      init_std=0.5)
    records = generate_synthetic(data_spec)
    batch = collate_batch(records)
    return model, batch


def run_gradcheck(model: GroundingModel, batch: Batch, h: float = 1e-5) -> dict[str, float]:
    """Max relative error per parameter tensor for the full grounding loss.

    No generator is passed, so dropout is off and the loss is the
    deterministic function of the parameters that central differences need.
    """
    def loss_fn(_):
        return model.batch_loss(batch)[0]

    return {
        name: finite_diff_check(loss_fn, tensor, h)
        for name, tensor in model.named_parameters().items()
    }
