"""Contextual phrase grounding at desk scale.

Two transformer encoder branches (text tokens with learned positions,
detector RoI features with an optional spatial embedding) feed a
cross-modal attention head that scores every phrase against every
region; training uses per-entity mean binary cross entropy so one
phrase can match several regions. Everything runs on an internal
reverse-mode autodiff engine and is verified by gradient checks,
invariant suites, and synthetic-data overfitting.
"""

from .autodiff import Tensor, backward, finite_diff_check, no_grad
from .data import (
    ENTITY_TYPES,
    SampleRecord,
    SyntheticSpec,
    collate_batch,
    generate_synthetic,
    iou,
    label_positives,
    load_feature_file,
    parse_dataset,
    write_dataset,
    write_feature_file,
)
from .encoder import (
    BranchConfig,
    default_image_config,
    default_text_config,
    model_label,
)
from .evaluate import EvalReport, emit_report, evaluate, load_report, recall_at_k, upper_bound
from .head import GroundingLogits, HeadParams, PhraseSpan, grounding_loss, rank_objects
from .model import GroundingModel, ModelConfig, default_model_config
from .training import (
    Checkpoint,
    TrainConfig,
    fit,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)

__version__ = "0.1.0"
