"""Adam training loop with global-norm gradient clipping, gradient
accumulation, early stopping on dev recall@1, and bit-exact checkpoints.

The default protocol: learning rate 5e-5, clip 0.25, effective batch
256 as 2 accumulated micro-batches of 128, dropout 0.4, at most 10
epochs with early stopping. One seeded generator drives shuffling and
dropout in a fixed order, so a (seed, data, config) triple reproduces a
run exactly, including across a checkpoint/resume split.
"""

from __future__ import annotations

import contextvars
import json
import math
import os
import struct
import threading
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .autodiff import NonFiniteError, Tensor, backward, zero_grads
from .data import FormatError, SampleRecord, collate_batch
from .encoder import unset_params
from .evaluate import evaluate
from .model import GroundingModel, ModelConfig

__all__ = [
    "TrainConfig",
    "AdamState",
    "StepMetrics",
    "Checkpoint",
    "FitResult",
    "global_norm",
    "clip_global_norm",
    "adam_step",
    "train_step",
    "fit",
    "save_checkpoint",
    "load_checkpoint",
    "LAST_CHECKPOINT",
    "BEST_CHECKPOINT",
]

GCKP_MAGIC = b"GCKP"
GCKP_VERSION = 1
_GCKP_HEADER = struct.Struct("<4sBI")

LAST_CHECKPOINT = "last.gckp"
BEST_CHECKPOINT = "best.gckp"


@dataclass(frozen=True)
class TrainConfig:
    """Optimization protocol. `batch_size` is the effective batch;
    each optimizer step accumulates `accumulation_steps` micro-batches
    of `batch_size // accumulation_steps` samples.

    `dropout_p` is only the default for branch dropout: a run config's
    branches inherit it unless they set their own, and :func:`fit`
    applies the dropout in the model's branch configs."""

    learning_rate: float = 5e-5
    clip_norm: float = 0.25
    batch_size: int = 256
    accumulation_steps: int = 2
    max_epochs: int = 10
    patience: int = 3
    seed: int = 0
    dropout_p: float = 0.4

    def __post_init__(self):
        if self.learning_rate <= 0 or self.clip_norm <= 0:
            raise ValueError("learning_rate and clip_norm must be positive")
        if self.batch_size < 1 or self.accumulation_steps < 1 or self.max_epochs < 1:
            raise ValueError("batch_size, accumulation_steps and max_epochs must be positive")
        if self.batch_size % self.accumulation_steps != 0:
            raise ValueError(
                f"batch_size {self.batch_size} not divisible by "
                f"accumulation_steps {self.accumulation_steps}"
            )
        if self.patience < 0:
            raise ValueError("patience must be non-negative")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must be in [0, 1)")

    @property
    def micro_batch_size(self) -> int:
        return self.batch_size // self.accumulation_steps

    def to_dict(self) -> dict:
        return {**asdict(self), "micro_batch_size": self.micro_batch_size}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        d.pop("micro_batch_size", None)  # derived field
        return cls(**d)


@dataclass
class AdamState:
    """First/second-moment accumulators mirroring the parameter map."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def init(cls, named_params: dict[str, Tensor]) -> "AdamState":
        """Zero moments at step 0 with the default betas and eps."""
        return cls(
            m={n: np.zeros_like(t.values) for n, t in named_params.items()},
            v={n: np.zeros_like(t.values) for n, t in named_params.items()},
        )


@dataclass
class StepMetrics:
    loss: float        # mean of the micro-batch losses
    grad_norm: float   # global L2 norm before clipping
    clip_scale: float  # factor the gradients were clipped by; 1.0 if not clipped


# Elements per pass of the blocked norm loop: its float64 buffer stays in
# cache. The float64 partial sums, and so every clip scale, depend on it.
_BLOCK = 1 << 15
# Elements per pass of the Adam loop. Each ufunc call hands the GIL between
# the two Adam threads; at `_BLOCK` elements those handoffs ate the second
# thread's gain.
_ADAM_BLOCK = 1 << 17


def global_norm(grads: dict[str, np.ndarray]) -> float:
    """The global L2 norm of all gradients.

    Squares are summed in float64, block by block. A non-finite partial
    sum means the gradient holds a NaN or Inf (finite float32 squares
    cannot overflow a float64 sum), which raises naming the parameter."""
    buf = np.empty(_BLOCK, dtype=np.float64)
    total = 0.0
    for name, g in grads.items():
        flat = g.reshape(-1)
        sq = 0.0
        for lo in range(0, flat.size, _BLOCK):
            chunk = buf[:min(_BLOCK, flat.size - lo)]
            chunk[...] = flat[lo:lo + _BLOCK]
            sq += float(np.dot(chunk, chunk))
        if not math.isfinite(sq):
            raise NonFiniteError(f"non-finite gradient for parameter {name!r}")
        total += sq
    return math.sqrt(total)


def _clip_scale(norm: float, max_norm: float) -> float:
    return max_norm / norm if norm > max_norm else 1.0


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float
                     ) -> tuple[dict[str, np.ndarray], float]:
    """Scale all gradients jointly, in place, so their global L2 norm is
    at most `max_norm`; direction is never changed. Returns `grads` and
    the pre-clip norm (see `global_norm`)."""
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    norm = global_norm(grads)
    scale = _clip_scale(norm, max_norm)
    if scale != 1.0:
        for g in grads.values():
            g *= scale
    return grads, norm


def adam_step(named_params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState, lr: float, grad_scale: float = 1.0) -> AdamState:
    """One bias-corrected Adam update, applied in place.

    Parameters, moments and gradients are streamed in cache-sized blocks
    through two scratch blocks, with the operations of the textbook
    formula in the same order, so the result is bit-identical to
    evaluating it on whole arrays. A `grad_scale` other than 1.0 first
    multiplies each gradient block in place, while it is in cache, by the
    same float multiply with which `clip_global_norm` scales the whole
    gradient. Parameters, moments and gradients share one dtype, and
    parameters and moments must be C-contiguous so that their flat views
    write through; every parameter is checked before any update, so a
    refused call changes nothing.

    The parameters' blocks form one list, cut where the running element
    count first reaches half: the caller's thread updates the head while
    a helper thread, started for this call and joined before it returns
    or raises, updates the tail. The update is elementwise, so the cut
    changes no value. Each block's update is checked for NaN/Inf before
    it is applied; when both halves hit one, the error of the earlier
    parameter is raised."""
    step = state.step + 1
    beta1, beta2 = float(state.beta1), float(state.beta2)
    scalars = (beta1, 1.0 - beta1, beta2, 1.0 - beta2, 1.0 - beta1 ** step,
               float(lr), 1.0 - beta2 ** step, float(state.eps), float(grad_scale))
    # The scalars as 0-d arrays of each parameter dtype: the values the
    # ufuncs would round Python floats to, at less dispatch cost per call.
    typed: dict[np.dtype, tuple[np.ndarray, ...]] = {}
    blocks = []  # (name, p, m, v, g) views of at most `_ADAM_BLOCK` elements
    total = 0
    for name, p in named_params.items():
        pv, m, v, g = p.values, state.m[name], state.v[name], grads[name]
        if g.shape != pv.shape:
            raise ValueError(f"gradient shape {g.shape} does not match {name!r} {pv.shape}")
        if not pv.dtype == m.dtype == v.dtype == g.dtype:
            raise ValueError(f"parameter, moments and gradient of {name!r} differ in dtype: "
                             f"{pv.dtype}, {m.dtype}, {v.dtype}, {g.dtype}")
        if not (pv.flags.c_contiguous and m.flags.c_contiguous and v.flags.c_contiguous):
            raise ValueError(f"parameter {name!r} and its Adam moments must be C-contiguous")
        if pv.dtype not in typed:
            typed[pv.dtype] = tuple(np.array(x, dtype=pv.dtype) for x in scalars)
        pf, mf, vf, gf = pv.reshape(-1), m.reshape(-1), v.reshape(-1), g.reshape(-1)
        for lo in range(0, pf.size, _ADAM_BLOCK):
            hi = lo + _ADAM_BLOCK
            blocks.append((name, pf[lo:hi], mf[lo:hi], vf[lo:hi], gf[lo:hi]))
        total += pf.size
    state.step = step
    scaled = float(grad_scale) != 1.0
    # Small models and one-CPU processes run serially.
    if total < 2 * _ADAM_BLOCK or len(os.sched_getaffinity(0)) < 2:
        _adam_blocks(blocks, typed, scaled)
        return state
    done = 0
    for cut, (_, pb, *_) in enumerate(blocks, 1):
        done += pb.size
        if 2 * done >= total:
            break
    context, failed = contextvars.copy_context(), []

    def tail() -> None:
        # In the caller's context, so that its `np.errstate` holds here too.
        try:
            context.run(_adam_blocks, blocks[cut:], typed, scaled)
        except BaseException as exc:
            failed.append(exc)

    helper = threading.Thread(target=tail, name="ctxground-adam")
    helper.start()
    try:
        _adam_blocks(blocks[:cut], typed, scaled)
    finally:
        helper.join()  # nothing returns or raises while the helper still writes
    if failed:
        raise failed[0]
    return state


def _adam_blocks(blocks: list[tuple], typed: dict, scaled: bool) -> None:
    """Apply the Adam update to each (name, p, m, v, g) block of flat
    views through one scratch per dtype sized to the largest block."""
    width = max((pb.size for _, pb, *_ in blocks), default=0)
    scratch = {pb.dtype: np.empty((2, width), dtype=pb.dtype) for _, pb, *_ in blocks}
    for name, pb, mb, vb, gb in blocks:
        b1, one_minus_b1, b2, one_minus_b2, correct1, rate, correct2, eps, scale = typed[pb.dtype]
        s1, s2 = scratch[pb.dtype][:, :pb.size]
        if scaled:
            np.multiply(gb, scale, out=gb)
        # m = beta1 * m + (1 - beta1) * g
        np.multiply(mb, b1, out=mb)
        np.multiply(gb, one_minus_b1, out=s1)
        np.add(mb, s1, out=mb)
        # v = beta2 * v + (1 - beta2) * (g * g)
        np.multiply(vb, b2, out=vb)
        np.multiply(gb, gb, out=s1)
        np.multiply(s1, one_minus_b2, out=s1)
        np.add(vb, s1, out=vb)
        # update = lr * (m / correct1) / (sqrt(v / correct2) + eps)
        np.divide(mb, correct1, out=s1)
        np.multiply(s1, rate, out=s1)
        np.divide(vb, correct2, out=s2)
        np.sqrt(s2, out=s2)
        np.add(s2, eps, out=s2)
        np.divide(s1, s2, out=s1)
        if not np.isfinite(s1).all():
            raise NonFiniteError(f"non-finite Adam update for parameter {name!r}")
        np.subtract(pb, s1, out=pb)


def train_step(micro_batches, model: GroundingModel, state: AdamState,
               cfg: TrainConfig, rng: np.random.Generator) -> StepMetrics:
    """Accumulate gradients over the group, average, clip, and update.

    Gradients are summed over the micro-batches and divided by the group
    size (normally `cfg.accumulation_steps`; the trailing group of an
    epoch may be smaller). The clip scale is applied inside the Adam
    pass, with the same result as `clip_global_norm` before `adam_step`."""
    micro_batches = list(micro_batches)
    if not micro_batches:
        raise ValueError("train_step needs at least one micro-batch")
    named = model.named_parameters()
    zero_grads(named.values())
    losses = []
    for mb in micro_batches:
        loss, _ = model.batch_loss(mb, rng=rng)
        backward(loss)
        losses.append(loss.item())
    # The accumulated gradients are averaged, clipped and consumed in place.
    grads = {n: np.zeros_like(t.values) if t.grad is None else t.grad
             for n, t in named.items()}
    if len(micro_batches) > 1:
        scale = 1.0 / len(micro_batches)
        for g in grads.values():
            g *= scale
    norm = global_norm(grads)
    clip = _clip_scale(norm, cfg.clip_norm)
    adam_step(named, grads, state, cfg.learning_rate, grad_scale=clip)
    zero_grads(named.values())
    return StepMetrics(loss=float(np.mean(losses)), grad_norm=norm, clip_scale=clip)


# -- checkpoints -----------------------------------------------------------------


@dataclass
class Checkpoint:
    """Everything needed to evaluate (params + config) or resume
    (plus optimizer and rng state)."""

    params: dict[str, np.ndarray]   # float32 payloads, fixed order
    config: dict
    epoch: int
    best_metric: float
    best_epoch: int
    rng_state: Optional[dict] = None
    history: list[dict] = field(default_factory=list)
    optimizer: Optional[AdamState] = None


# GCKP manifest keys, in field order; the array fields go to the payload.
_CHECKPOINT_KEYS = [f.name for f in fields(Checkpoint) if f.name != "params"]
_ADAM_KEYS = [f.name for f in fields(AdamState) if f.name not in ("m", "v")]


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Binary container: magic, version, length-prefixed JSON manifest
    (config, progress, rng state, tensor directory), then the float32
    payloads back to back. Offsets are bytes from the payload start.
    Each array is written straight from its own memory (a C-contiguous
    little-endian array without a copy), so a save holds no second copy
    of the model. A checkpoint that `load_checkpoint` would refuse raises
    FormatError before anything is written."""
    opt = ckpt.optimizer
    tensors: list[tuple[str, np.ndarray]] = list(ckpt.params.items())
    if opt is not None:
        tensors += [(f"adam.{k}.{n}", a) for k in "mv" for n, a in getattr(opt, k).items()]
    directory = []
    offset = 0
    for name, arr in tensors:
        if arr.dtype != np.float32:
            raise ValueError(
                f"checkpoint payloads must be float32, {name!r} is {arr.dtype}"
            )
        directory.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.nbytes
    manifest = {k: getattr(ckpt, k) for k in _CHECKPOINT_KEYS}
    if opt is not None:
        manifest["optimizer"] = {k: getattr(opt, k) for k in _ADAM_KEYS}
    _check_manifest(manifest, [(name, arr.shape) for name, arr in tensors], path)
    manifest["tensors"] = directory
    payload = json.dumps(manifest).encode("utf-8")
    # Written beside the target and swapped in whole: a crash mid-write
    # leaves the previous checkpoint at `path` intact.
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_GCKP_HEADER.pack(GCKP_MAGIC, GCKP_VERSION, len(payload)))
            fh.write(payload)
            for _, arr in tensors:
                fh.write(np.ascontiguousarray(arr, dtype="<f4"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_count(x) -> bool:
    return _is_int(x) and x >= 0


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_pcg64_state(state: dict) -> bool:
    """The field types of a PCG64 state, which numpy does not check: it
    truncates a float `state` or `inc` and keeps a `has_uint32` of 2."""
    words = state.get("state")
    has_uint32 = state.get("has_uint32")
    return (isinstance(words, dict) and _is_int(words.get("state")) and _is_int(words.get("inc"))
            and _is_int(has_uint32) and has_uint32 in (0, 1) and _is_count(state.get("uinteger")))


def _check_manifest(manifest: dict, shapes: list[tuple[str, tuple]], where) -> None:
    """Validate the fields of a GCKP manifest other than its tensor
    directory, and the (name, shape) pairs of its tensors: names are
    unique and the Adam moments match the parameters. Both
    `save_checkpoint` and `load_checkpoint` call it; anything malformed
    raises FormatError."""
    def bad(message):
        return FormatError(f"{where}: {message}")

    for key, check, what in (("config", lambda x: isinstance(x, dict), "an object"),
                             ("epoch", _is_count, "a non-negative integer"),
                             ("best_metric", _is_number, "a number"),
                             ("best_epoch", _is_count, "a non-negative integer")):
        if key not in manifest:
            raise bad(f"manifest has no {key!r}")
        if not check(manifest[key]):
            raise bad(f"manifest {key!r} is not {what}")
    if not isinstance(manifest.get("rng_state"), (dict, type(None))):
        raise bad("manifest 'rng_state' is not an object")
    if not isinstance(manifest.get("history", []), list):
        raise bad("manifest 'history' is not a list")
    by_name = dict(shapes)
    if len(by_name) != len(shapes):
        raise bad("duplicate tensor names")

    params = [n for n in by_name if not n.startswith("adam.")]
    opt = manifest.get("optimizer")
    if opt is None:
        if len(params) != len(by_name):
            raise bad("Adam moment tensors without an optimizer block")
        return
    if not isinstance(opt, dict):
        raise bad("manifest 'optimizer' is not an object")
    # beta = 1 would zero Adam's bias correction 1 - beta**step.
    def is_beta(x):
        return _is_number(x) and 0 <= x < 1

    for key, check, what in (("step", _is_count, "a non-negative integer"),
                             ("beta1", is_beta, "a number in [0, 1)"),
                             ("beta2", is_beta, "a number in [0, 1)"),
                             ("eps", lambda x: _is_number(x) and 0 < x < math.inf,
                              "a finite positive number")):
        if not check(opt.get(key)):
            raise bad(f"optimizer {key!r} is missing or not {what}")
    # With unique names, three per parameter, the moments are exactly
    # adam.m.<param> and adam.v.<param> when every parameter has both.
    if len(by_name) != 3 * len(params):
        raise bad("Adam moment tensors do not match the parameters")
    for param in params:
        shape = by_name[param]
        for name in (f"adam.m.{param}", f"adam.v.{param}"):
            if by_name.get(name) != shape:
                raise bad(f"Adam moment {name!r} is missing or not shaped like "
                          f"parameter {param!r} {list(shape)}")


def load_checkpoint(path) -> Checkpoint:
    """Read a GCKP file. The manifest is validated first; then each
    tensor is read once, straight from its offset into the fresh
    float32 array that the returned checkpoint holds. A malformed or
    truncated file raises FormatError."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(_GCKP_HEADER.size)
        if len(header) < _GCKP_HEADER.size:
            raise FormatError(f"{path}: truncated header")
        magic, version, manifest_len = _GCKP_HEADER.unpack(header)
        if magic != GCKP_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != GCKP_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        start = _GCKP_HEADER.size + manifest_len
        if start > size:
            raise FormatError(f"{path}: truncated manifest")
        try:
            manifest = json.loads(fh.read(manifest_len).decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, too deeply nested
            raise FormatError(f"{path}: corrupt manifest: {exc}") from exc
        if not isinstance(manifest, dict) or not isinstance(manifest.get("tensors"), list):
            raise FormatError(f"{path}: manifest is not an object with a 'tensors' list")
        entries = []  # (name, shape, offset)
        for i, entry in enumerate(manifest["tensors"]):
            if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
                raise FormatError(f"{path}: tensor entry {i} has no string name")
            name, shape, offset = entry["name"], entry.get("shape"), entry.get("offset")
            if not isinstance(shape, list) or not all(_is_count(d) for d in shape):
                raise FormatError(f"{path}: tensor {name!r} shape {shape!r} is not a list "
                                  f"of non-negative integers")
            if not _is_count(offset):
                raise FormatError(f"{path}: tensor {name!r} offset {offset!r} is not a "
                                  f"non-negative integer")
            if offset + 4 * math.prod(shape) > size - start:
                raise FormatError(f"{path}: truncated payload for tensor {name!r}")
            entries.append((name, tuple(shape), offset))
        _check_manifest(manifest, [(name, shape) for name, shape, _ in entries], path)

        arrays: dict[str, np.ndarray] = {}
        for name, shape, offset in entries:
            try:
                arr = np.empty(shape, dtype="<f4")
            except ValueError as exc:  # a zero-size shape beyond numpy's limits
                raise FormatError(f"{path}: tensor {name!r}: {exc}") from exc
            fh.seek(start + offset)
            if fh.readinto(arr) != arr.nbytes:
                raise FormatError(f"{path}: truncated payload for tensor {name!r}")
            arrays[name] = arr

    # A missing key keeps the field's default; a key naming no field is ignored.
    found = {k: manifest[k] for k in _CHECKPOINT_KEYS if k in manifest}
    opt = found.get("optimizer")
    if opt is not None:
        moments = {k: {n[len(f"adam.{k}."):]: a for n, a in arrays.items()
                       if n.startswith(f"adam.{k}.")} for k in "mv"}
        found["optimizer"] = AdamState(
            **moments, **{k: opt[k] for k in _ADAM_KEYS if k in opt})
    params = {n: a for n, a in arrays.items() if not n.startswith("adam.")}
    return Checkpoint(params=params, **found)


def model_from_checkpoint(ckpt: Checkpoint) -> GroundingModel:
    """Rebuild a model from a checkpoint's config snapshot and parameters,
    with no random initialization.

    The model takes ownership of the checkpoint's float32 arrays: they
    become its parameter values without a copy, so an in-place update of
    the model (an optimizer step) also changes `ckpt.params`."""
    try:
        config = ModelConfig.from_dict(ckpt.config["model"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"checkpoint config does not describe a model: {exc!r}") from exc
    model = GroundingModel.build(config, unset_params(np.float32))
    _restore_params(model, ckpt.params)
    return model


def _restore_params(model: GroundingModel, params: dict[str, np.ndarray]) -> None:
    """Make `params` the model's parameter values. An array of the
    parameter's dtype that is C-contiguous and writable is adopted as it
    is; any other is converted with one copy. Names and shapes are
    checked before any parameter changes."""
    named = model.named_parameters()
    if set(named) != set(params):
        missing = set(named) ^ set(params)
        raise ValueError(f"checkpoint parameter names do not match the model: {sorted(missing)}")
    for name, tensor in named.items():
        if params[name].shape != tensor.shape:
            raise ValueError(
                f"checkpoint shape {params[name].shape} does not match {name!r} {tensor.shape}"
            )
    for name, tensor in named.items():
        arr = params[name]
        if not (arr.dtype == tensor.dtype and arr.flags.c_contiguous and arr.flags.writeable):
            arr = np.array(arr, dtype=tensor.dtype, order="C")
        tensor.values = arr
        tensor.grad = None


# -- the fit loop -----------------------------------------------------------------


def _flat(config: dict, prefix: str = "") -> dict:
    """A nested config snapshot as {dotted key: value}."""
    out = {}
    for key, value in config.items():
        out.update(_flat(value, f"{prefix}{key}.") if isinstance(value, dict)
                   else {prefix + key: value})
    return out


@dataclass
class FitResult:
    best: Checkpoint
    history: list[dict]


def fit(model: GroundingModel, train_records: list[SampleRecord],
        dev_records: list[SampleRecord], cfg: TrainConfig,
        checkpoint_dir=None, resume: bool = False,
        log=None) -> FitResult:
    """Train with seeded shuffling and per-epoch dev evaluation; keep the
    checkpoint with the best dev recall@1 and stop after `patience`
    epochs without improvement.

    With `checkpoint_dir`, an epoch that improves dev recall@1 writes
    `best.gckp` (its parameters, with the history up to that epoch), and
    every epoch then writes `last.gckp` (full resume state), each
    atomically; `resume=True` picks up from those files and reproduces
    the uninterrupted run exactly.
    """
    if not train_records or not dev_records:
        raise ValueError("train and dev sets must be non-empty")
    named = model.named_parameters()
    rng = np.random.default_rng(cfg.seed)
    state = AdamState.init(named)
    config_snapshot = {"model": model.config.to_dict(), "train": cfg.to_dict()}
    history: list[dict] = []
    best: Optional[Checkpoint] = None  # set by epoch 0 or by resume
    start_epoch = 0

    if checkpoint_dir is not None:
        for name, t in named.items():  # before any step: GCKP payloads are float32 only
            if t.dtype != np.float32:
                raise ValueError(f"checkpoints need float32 parameters, {name!r} is {t.dtype}")
        checkpoint_dir = Path(checkpoint_dir)
        checkpoint_dir.mkdir(parents=True, exist_ok=True)
    if resume:
        if checkpoint_dir is None:
            raise ValueError("resume requires a checkpoint_dir")
        # Both files are read and checked before the model changes, so a
        # refused resume leaves the caller's parameters as they were.
        last = load_checkpoint(checkpoint_dir / LAST_CHECKPOINT)
        if last.optimizer is None or last.rng_state is None:
            raise ValueError("checkpoint lacks optimizer/rng state; cannot resume")
        best = load_checkpoint(checkpoint_dir / BEST_CHECKPOINT)
        if best.best_epoch != last.best_epoch:
            raise ValueError(
                f"{checkpoint_dir}: {BEST_CHECKPOINT} holds epoch {best.best_epoch} but "
                f"{LAST_CHECKPOINT} expects epoch {last.best_epoch}; the pair is inconsistent "
                f"(interrupted between the two writes?) and cannot be resumed"
            )
        # A resume may extend a run or change its stopping rule; nothing else.
        saved, now = _flat(last.config), _flat(config_snapshot)
        changed = [key for key in {**now, **saved} if saved.get(key) != now.get(key)
                   and key not in ("train.max_epochs", "train.patience")]
        if changed:
            raise ValueError(f"{checkpoint_dir}: cannot resume with a changed config: "
                             f"{changed[0]} differs from the checkpoint's")
        where = checkpoint_dir / LAST_CHECKPOINT
        if not _is_pcg64_state(last.rng_state):
            raise FormatError(f"{where}: 'rng_state' is not a PCG64 state: a field is "
                              f"missing or not an integer in range")
        try:
            rng.bit_generator.state = last.rng_state
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"{where}: 'rng_state' is not a PCG64 state: {exc!r}") from exc
        _restore_params(model, last.params)
        state = last.optimizer
        history = best.history = list(last.history)
        start_epoch = last.epoch + 1

    micro = cfg.micro_batch_size
    for epoch in range(start_epoch, cfg.max_epochs):
        order = rng.permutation(len(train_records))
        step_losses = []
        # A step collates only its own micro-batches: one step's padded copy at a time.
        for lo in range(0, len(order), cfg.batch_size):
            group = [collate_batch([train_records[i] for i in order[j:j + micro]])
                     for j in range(lo, min(lo + cfg.batch_size, len(order)), micro)]
            step_losses.append(train_step(group, model, state, cfg, rng).loss)
        train_loss = float(np.mean(step_losses))

        dev_r1 = evaluate(model, dev_records, split="dev").recall_at_1
        history.append({"epoch": epoch, "train_loss": train_loss,
                        "dev_recall_at_1": dev_r1})
        if log is not None:
            log(f"epoch {epoch}: train_loss={train_loss:.6f} dev_R@1={dev_r1:.2f}")

        # `last` is the commit point: it is written only once `best`
        # agrees with it, and resume checks that the pair agrees.
        if best is None or dev_r1 > best.best_metric:
            # `history` is the live list, so the returned `best` ends with all epochs.
            best = Checkpoint(
                params={n: t.values.copy() for n, t in named.items()},
                config=config_snapshot, epoch=epoch, best_metric=dev_r1,
                best_epoch=epoch, history=history,
            )
            if checkpoint_dir is not None:
                save_checkpoint(best, checkpoint_dir / BEST_CHECKPOINT)
        if checkpoint_dir is not None:
            # The write is synchronous, so the live arrays need no copy.
            save_checkpoint(Checkpoint(
                params={n: t.values for n, t in named.items()}, config=config_snapshot,
                epoch=epoch, best_metric=best.best_metric, best_epoch=best.best_epoch,
                rng_state=rng.bit_generator.state, history=history, optimizer=state,
            ), checkpoint_dir / LAST_CHECKPOINT)

        if epoch - best.best_epoch > cfg.patience:
            break

    return FitResult(best=best, history=history)
