"""The two contextual branches: token/positional embeddings for text,
RoI features plus a spatial MLP for image regions, each followed by a
stack of multi-head self-attention encoder layers.

Both branches share the same post-norm encoder block (residual, then
layer norm, GELU feed-forward). The text branch adds a learned
positional table; the image branch optionally adds a spatial embedding
computed from each region's normalized location and size, so object
order carries no information (permutation equivariance).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from .autodiff import (
    Node,
    Tensor,
    attention,
    constant,
    dropout,
    feed_forward,
    layer_norm,
    linear,
    take_rows,
    zeros_arena,
)
from .data import _check_fields, _is_int, _is_number, check_boxes

__all__ = [
    "BranchConfig",
    "default_text_config",
    "default_image_config",
    "model_label",
    "LinearParams",
    "LayerNormParams",
    "AttentionParams",
    "EncoderLayerParams",
    "TextEmbeddings",
    "SpatialMLP",
    "TextBranchParams",
    "ImageBranchParams",
    "BranchInput",
    "ParamMaker",
    "fresh",
    "unset_params",
    "build_text_branch",
    "build_image_branch",
    "init_text_branch",
    "init_image_branch",
    "embed_tokens",
    "normalize_boxes",
    "spatial_embed",
    "multi_head_self_attention",
    "encoder_layer",
    "encode_branch",
]

INIT_STD = 0.02


@dataclass(frozen=True)
class BranchConfig:
    """Shape of one encoder branch.

    `max_positions` applies to the text branch only; `use_spatial`
    (whether the absolute spatial embedding is added) to the image
    branch only, and `ModelConfig` refuses either one set on the other
    branch. `ffn_dim` defaults to 4x the hidden size.
    """

    num_layers: int
    num_heads: int
    hidden_dim: int
    ffn_dim: Optional[int] = None
    dropout_p: float = 0.4
    max_positions: Optional[int] = None
    use_spatial: Optional[bool] = None

    def __post_init__(self):
        _check_fields(self, _is_int, "an integer",
                      ("num_layers", "num_heads", "hidden_dim", "ffn_dim", "max_positions"))
        _check_fields(self, _is_number, "a number", ("dropout_p",))
        _check_fields(self, lambda x: isinstance(x, bool), "true or false", ("use_spatial",))
        if self.num_layers < 1 or self.num_heads < 1 or self.hidden_dim < 1:
            raise ValueError("layers, heads and hidden_dim must be positive")
        if self.hidden_dim % self.num_heads != 0:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}"
            )
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.ffn_dim is None:
            object.__setattr__(self, "ffn_dim", 4 * self.hidden_dim)
        elif self.ffn_dim < 1:
            raise ValueError("ffn_dim must be positive")
        if self.max_positions is not None and self.max_positions < 1:
            raise ValueError("max_positions must be positive")

    def to_dict(self) -> dict:
        """Every field except an unset optional one (`max_positions`,
        `use_spatial`)."""
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_dict(cls, d: dict) -> "BranchConfig":
        return cls(**d)


def default_text_config() -> BranchConfig:
    """BERT-base-shaped text branch: 12 layers, 12 heads, 768 wide."""
    return BranchConfig(num_layers=12, num_heads=12, hidden_dim=768,
                        ffn_dim=3072, max_positions=512)


def default_image_config() -> BranchConfig:
    """Best-performing image branch: 1 layer, 2 heads, 2048 wide, spatial on."""
    return BranchConfig(num_layers=1, num_heads=2, hidden_dim=2048,
                        ffn_dim=8192, use_spatial=True)


def model_label(image_cfg: BranchConfig) -> str:
    """Run label `L{layers}-H{heads}[-abs]` derived from the image branch."""
    label = f"L{image_cfg.num_layers}-H{image_cfg.num_heads}"
    if image_cfg.use_spatial:
        label += "-abs"
    return label


# -- parameter containers ----------------------------------------------------


@dataclass
class LinearParams:
    weight: Tensor                 # [in, out]
    bias: Optional[Tensor] = None  # [out]


@dataclass
class LayerNormParams:
    gain: Tensor
    bias: Tensor


@dataclass
class AttentionParams:
    query: LinearParams
    key: LinearParams
    value: LinearParams
    output: LinearParams


@dataclass
class EncoderLayerParams:
    attention: AttentionParams
    attention_norm: LayerNormParams
    ffn_in: LinearParams
    ffn_out: LinearParams
    ffn_norm: LayerNormParams


@dataclass
class TextEmbeddings:
    token_table: Tensor     # [vocab, d]
    position_table: Tensor  # [max_positions, d]
    norm: LayerNormParams


@dataclass
class SpatialMLP:
    """Two-layer MLP mapping a normalized 5-d box descriptor to the branch width."""

    fc1: LinearParams  # 5 -> hidden
    fc2: LinearParams  # hidden -> d


@dataclass
class TextBranchParams:
    embeddings: TextEmbeddings
    layers: list[EncoderLayerParams] = field(default_factory=list)


@dataclass
class ImageBranchParams:
    input_proj: Optional[LinearParams]  # present iff feature_dim != hidden_dim
    spatial: Optional[SpatialMLP]       # present iff use_spatial
    embed_norm: LayerNormParams
    layers: list[EncoderLayerParams] = field(default_factory=list)


# Builds one parameter tensor of the given shape. `fill` names the value a
# fresh model starts from: "normal" (a random weight), "zeros" (a bias) or
# "ones" (a layer-norm gain). Builders call it in field order, which is
# also the order of `named_parameters`.
ParamMaker = Callable[[tuple, str], Tensor]


def fresh(build: Callable[[ParamMaker], object], rng: np.random.Generator, dtype=np.float32,
          std: float = INIT_STD):
    """`build(make)` with fresh values: normal(0, std) weights drawn from
    `rng` in build order, zero biases and unit gains, written straight
    into the parameters' `zeros_arena` once `build` has made them."""
    made, unset = [], unset_params()  # (placeholder, fill) in build order

    def make(shape, fill):
        made.append((unset(shape, fill), fill))
        return made[-1][0]

    built = build(make)
    for (t, fill), view in zip(made, zeros_arena((t.shape, dtype) for t, _ in made)):
        if fill == "normal":
            view[...] = rng.normal(0.0, std, view.shape)
        elif fill == "ones":
            view.fill(1)
        t.values, t.node = view, Node(view)
    return built


def unset_params() -> ParamMaker:
    """Placeholders for a model whose values and nodes are assigned right
    after it is built: each tensor is a read-only zero-stride view of one
    float32 zero, so building draws nothing and allocates nothing the
    size of the model."""
    def make(shape, fill):
        tensor = Tensor.__new__(Tensor)
        tensor.values = np.ndarray(shape, np.float32, bytes(4), strides=(0,) * len(shape))
        tensor.node = None
        return tensor
    return make


def _init_linear(make: ParamMaker, fan_in: int, fan_out: int,
                 with_bias: bool = True) -> LinearParams:
    return LinearParams(weight=make((fan_in, fan_out), "normal"),
                        bias=make((fan_out,), "zeros") if with_bias else None)


def _init_layer_norm(make: ParamMaker, dim: int) -> LayerNormParams:
    return LayerNormParams(gain=make((dim,), "ones"), bias=make((dim,), "zeros"))


def _init_encoder_layer(make: ParamMaker, cfg: BranchConfig) -> EncoderLayerParams:
    d = cfg.hidden_dim
    return EncoderLayerParams(
        attention=AttentionParams(
            query=_init_linear(make, d, d),
            # A key bias is inert under softmax (it shifts every logit in
            # a row equally), so the attention keeps none.
            key=_init_linear(make, d, d, with_bias=False),
            value=_init_linear(make, d, d),
            output=_init_linear(make, d, d),
        ),
        attention_norm=_init_layer_norm(make, d),
        ffn_in=_init_linear(make, d, cfg.ffn_dim),
        ffn_out=_init_linear(make, cfg.ffn_dim, d),
        ffn_norm=_init_layer_norm(make, d),
    )


def build_text_branch(cfg: BranchConfig, vocab_size: int, make: ParamMaker) -> TextBranchParams:
    """Text branch whose parameter tensors come from `make`."""
    if cfg.max_positions is None:
        raise ValueError("text branch config needs max_positions")
    d = cfg.hidden_dim
    embeddings = TextEmbeddings(
        token_table=make((vocab_size, d), "normal"),
        position_table=make((cfg.max_positions, d), "normal"),
        norm=_init_layer_norm(make, d),
    )
    layers = [_init_encoder_layer(make, cfg) for _ in range(cfg.num_layers)]
    return TextBranchParams(embeddings=embeddings, layers=layers)


def build_image_branch(cfg: BranchConfig, feature_dim: int, make: ParamMaker) -> ImageBranchParams:
    """Image branch whose parameter tensors come from `make`; a learned
    input projection is added only when the incoming RoI feature width
    differs from the branch width."""
    d = cfg.hidden_dim
    input_proj = None if feature_dim == d else _init_linear(make, feature_dim, d)
    spatial = None
    if cfg.use_spatial:
        spatial = SpatialMLP(fc1=_init_linear(make, 5, d), fc2=_init_linear(make, d, d))
    embed_norm = _init_layer_norm(make, d)
    layers = [_init_encoder_layer(make, cfg) for _ in range(cfg.num_layers)]
    return ImageBranchParams(input_proj=input_proj, spatial=spatial,
                             embed_norm=embed_norm, layers=layers)


def init_text_branch(cfg: BranchConfig, vocab_size: int, rng: np.random.Generator,
                     dtype=np.float32, std: float = INIT_STD) -> TextBranchParams:
    """Randomly initialized text branch (normal, std 0.02); no pretrained import."""
    return fresh(lambda make: build_text_branch(cfg, vocab_size, make), rng, dtype, std)


def init_image_branch(cfg: BranchConfig, feature_dim: int, rng: np.random.Generator,
                      dtype=np.float32, std: float = INIT_STD) -> ImageBranchParams:
    """Randomly initialized image branch (normal, std 0.02)."""
    return fresh(lambda make: build_image_branch(cfg, feature_dim, make), rng, dtype, std)


# -- inputs -------------------------------------------------------------------


@dataclass
class BranchInput:
    """One padded batch for a single branch.

    Text mode: `token_ids` is [batch, seq] ints. Image mode: `features`
    is [batch, objects, feature_dim], `boxes` [batch, objects, 4] in
    pixels and `sizes` [batch, 2] as (width, height). `valid_mask`
    delimits real positions in either mode.
    """

    valid_mask: np.ndarray
    token_ids: Optional[np.ndarray] = None
    features: Optional[np.ndarray] = None
    boxes: Optional[np.ndarray] = None
    sizes: Optional[np.ndarray] = None

    def __post_init__(self):
        self.valid_mask = np.asarray(self.valid_mask, dtype=bool)
        if not self.valid_mask.any(axis=-1).all():
            raise ValueError("every sequence needs at least one valid position")
        if (self.token_ids is None) == (self.features is None):
            raise ValueError("provide exactly one of token_ids (text) or features (image)")
        if self.features is not None:
            if self.boxes is None or self.sizes is None:
                raise ValueError("image input needs boxes and sizes")
            self.features = np.asarray(self.features)
            self.sizes = np.asarray(self.sizes, dtype=np.float64)
            self.boxes = check_boxes(self.boxes, "box", self.sizes[:, None, :], self.valid_mask)
        else:
            self.token_ids = np.asarray(self.token_ids, dtype=np.int64)

    @property
    def is_text(self) -> bool:
        return self.token_ids is not None


def normalize_boxes(boxes: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Scale-free 5-d descriptors of [batch, objects, 4] boxes in images of
    [batch, 2] sizes: corners over image size plus relative area. Nothing
    is validated here: a `BranchInput` has checked its boxes, and padded
    slots carry :data:`data.PAD_BOX`."""
    boxes = np.asarray(boxes, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.float64)[:, None, :]
    w, h = sizes[..., 0], sizes[..., 1]
    area = (boxes[..., 2] - boxes[..., 0]) * (boxes[..., 3] - boxes[..., 1]) / (w * h)
    return np.concatenate([boxes / np.tile(sizes, 2), area[..., None]], axis=-1)


# -- forward ------------------------------------------------------------------

def _linear(x: Tensor, p: LinearParams) -> Tensor:
    return linear(x, p.weight, p.bias)


def spatial_embed(nbox, mlp: SpatialMLP) -> Tensor:
    """Embed normalized box descriptors ([..., 5]) into the branch width."""
    x = constant(np.asarray(nbox, dtype=np.float64), dtype=mlp.fc1.weight.dtype)
    return feed_forward(x, mlp.fc1.weight, mlp.fc1.bias, mlp.fc2.weight, mlp.fc2.bias)


def embed_tokens(ids, embeddings: TextEmbeddings, rng: Optional[np.random.Generator] = None,
                 dropout_p: float = 0.0) -> Tensor:
    """Token + learned positional embedding, layer norm, then dropout
    (drawn from `rng`; none without it).

    `ids` is a [batch, seq] array; position index is the 0-based offset
    within the sequence.
    """
    ids = np.asarray(ids, dtype=np.int64)
    batch, seq = ids.shape
    vocab = embeddings.token_table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise ValueError(f"token id out of range for vocab of size {vocab}")
    if seq > embeddings.position_table.shape[0]:
        raise ValueError(
            f"sequence length {seq} exceeds max positions {embeddings.position_table.shape[0]}"
        )
    d = embeddings.token_table.shape[1]
    tok = take_rows(embeddings.token_table, ids.reshape(-1)).reshape((batch, seq, d))
    pos = take_rows(embeddings.position_table, np.arange(seq))
    x = layer_norm(tok, embeddings.norm.gain, embeddings.norm.bias, residual=pos)
    return dropout(x, dropout_p, rng)


def multi_head_self_attention(x: Tensor, mask: np.ndarray, cfg: BranchConfig,
                              params: AttentionParams) -> Tensor:
    """Scaled dot-product self-attention with `cfg.num_heads` parallel heads
    over [batch, seq, d] states.

    `mask` ([batch, seq]) marks valid key positions; masked positions
    receive zero attention everywhere. Outputs at masked query positions
    are unspecified and must not be read downstream.
    """
    if x.shape[-1] != cfg.hidden_dim:
        raise ValueError(
            f"input width {x.shape[-1]} does not match config hidden_dim {cfg.hidden_dim}")
    ctx = attention(_linear(x, params.query), _linear(x, params.key),
                    _linear(x, params.value), mask, cfg.num_heads)
    return _linear(ctx, params.output)


def encoder_layer(x: Tensor, mask: np.ndarray, cfg: BranchConfig, params: EncoderLayerParams,
                  rng: Optional[np.random.Generator] = None) -> Tensor:
    """Post-norm encoder block: residual attention, then residual GELU FFN,
    with dropout on each residual branch when given `rng`."""
    attn = dropout(multi_head_self_attention(x, mask, cfg, params.attention),
                   cfg.dropout_p, rng)
    x = layer_norm(attn, params.attention_norm.gain, params.attention_norm.bias, residual=x)
    ffn = dropout(feed_forward(x, params.ffn_in.weight, params.ffn_in.bias,
                               params.ffn_out.weight, params.ffn_out.bias), cfg.dropout_p, rng)
    return layer_norm(ffn, params.ffn_norm.gain, params.ffn_norm.bias, residual=x)


def encode_branch(inputs: BranchInput, cfg: BranchConfig, params,
                  rng: Optional[np.random.Generator] = None) -> Tensor:
    """Run the full branch: embedding stage, then `cfg.num_layers` encoder layers.

    Dropout (`cfg.dropout_p`) runs exactly when `rng` is given, with the
    masks drawn from it in a fixed order. Returns final hidden states
    [batch, seq, hidden_dim]; values at padded positions are unspecified.
    """
    if inputs.is_text:
        if not isinstance(params, TextBranchParams):
            raise TypeError("text input requires TextBranchParams")
        x = embed_tokens(inputs.token_ids, params.embeddings, rng, cfg.dropout_p)
    else:
        if not isinstance(params, ImageBranchParams):
            raise TypeError("image input requires ImageBranchParams")
        feats = constant(inputs.features,
                         dtype=params.embed_norm.gain.dtype)
        x = _linear(feats, params.input_proj) if params.input_proj is not None else feats
        if cfg.use_spatial and params.spatial is None:
            raise ValueError("use_spatial set but no spatial MLP parameters")
        # The spatial embedding is passed as a temporary: no local keeps it
        # alive while the encoder layers run.
        x = layer_norm(x, params.embed_norm.gain, params.embed_norm.bias, residual=(
            spatial_embed(normalize_boxes(inputs.boxes, inputs.sizes), params.spatial)
            if cfg.use_spatial else None))
        x = dropout(x, cfg.dropout_p, rng)
    if len(params.layers) != cfg.num_layers:
        raise ValueError(
            f"parameter stack has {len(params.layers)} layers, config says {cfg.num_layers}"
        )
    for layer in params.layers:
        x = encoder_layer(x, inputs.valid_mask, cfg, layer, rng)
    return x
