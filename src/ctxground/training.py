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
import hashlib
import json
import math
import os
import struct
import threading
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .autodiff import Node, NonFiniteError, Tensor, backward, zero_grads
from .data import (FormatError, SampleRecord, _check_fields, _is_count, _is_int, _is_number,
                   collate_batch)
from .encoder import unset_params
from .evaluate import evaluate
from .model import GroundingModel, ModelConfig

__all__ = [
    "TrainConfig",
    "ADAM_CONSTANTS",
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
        _check_fields(self, _is_number, "a number", ("learning_rate", "clip_norm", "dropout_p"))
        _check_fields(self, _is_int, "an integer",
                      ("batch_size", "accumulation_steps", "max_epochs", "patience"))
        _check_fields(self, _is_count, "a non-negative integer", ("seed",))
        # Positive form, so a NaN fails: JSON configs may hold NaN and Infinity.
        if not (0 < self.learning_rate < math.inf and 0 < self.clip_norm < math.inf):
            raise ValueError("learning_rate and clip_norm must be finite and positive")
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
        micro = d.pop("micro_batch_size", None)  # derived: checked, not stored
        cfg = cls(**d)
        if micro is not None and micro != cfg.micro_batch_size:
            raise ValueError(f"micro_batch_size {micro} disagrees with batch_size // "
                             f"accumulation_steps = {cfg.micro_batch_size}")
        return cfg


# Adam's betas and eps (Kingma & Ba) for every run; a checkpoint must hold these.
ADAM_CONSTANTS = {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8}


@dataclass
class AdamState:
    """First/second-moment accumulators mirroring the parameter map."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def init(cls, named_params: dict[str, Tensor]) -> "AdamState":
        """Zero moments at step 0."""
        return cls(
            m={n: np.zeros_like(t.values) for n, t in named_params.items()},
            v={n: np.zeros_like(t.values) for n, t in named_params.items()},
        )


@dataclass
class StepMetrics:
    loss: float        # mean of the micro-batch losses
    grad_norm: float   # global L2 norm before clipping
    clip_scale: float  # factor the gradients were clipped by; 1.0 if not clipped


# Elements per block of the norm and Adam passes. The norm's float64 partial
# sums, one per block of the gradients' concatenation, and so every clip
# scale depend on it. Each ufunc call hands the GIL between the two threads;
# at 1 << 15 elements those handoffs ate the second thread's gain.
_BLOCK = 1 << 17


def _layout(sizes) -> list[list[tuple[str, int, int]]]:
    """The arrays of the (name, size) pairs `sizes`, in order, as one
    concatenation cut into blocks of `_BLOCK` elements, each a list of
    (name, lo, hi) flat ranges; a block may span arrays, and every block
    but the last is full. The norm and Adam passes both walk it."""
    blocks, start = [], 0
    for name, size in sizes:
        lo = 0
        while lo < size:
            offset = (start + lo) % _BLOCK
            if offset == 0:
                blocks.append([])
            hi = min(size, lo + _BLOCK - offset)
            blocks[-1].append((name, lo, hi))
            lo = hi
        start += size
    return blocks


def _in_halves(work, blocks: list) -> list:
    """`work` applied to the `_layout` blocks `blocks` in two halves: the
    caller's thread runs it on the first `(len + 1) // 2` blocks (at least
    half the elements) while a helper thread, started for this call in a
    copy of the caller's `contextvars` context (so its `np.errstate` holds
    there too), runs it on the rest. The helper is joined before this
    returns or raises, and an error of the head is raised before one of
    the tail. Returns the results in block order: `[head, tail]`, or
    `[work(blocks)]` when the process may use only one CPU or the blocks
    hold fewer than two `_BLOCK`s of elements."""
    elements = sum(hi - lo for block in blocks for _, lo, hi in block)
    if elements < 2 * _BLOCK or len(os.sched_getaffinity(0)) < 2:
        return [work(blocks)]
    cut = (len(blocks) + 1) // 2
    context, tail, failed = contextvars.copy_context(), [], []

    def run_tail() -> None:
        try:
            tail.append(context.run(work, blocks[cut:]))
        except BaseException as exc:
            failed.append(exc)

    helper = threading.Thread(target=run_tail, name="ctxground-halves")
    helper.start()
    try:
        head = work(blocks[:cut])
    finally:
        helper.join()  # nothing returns or raises while the helper still writes
    if failed:
        raise failed[0]
    return [head, tail[0]]


def global_norm(grads: dict[str, np.ndarray]) -> float:
    """The global L2 norm of all gradients; nothing is written to them.

    The gradients are taken in `grads` order as one concatenation, cut
    into the blocks of `_layout`, so a block may span parameters. Each
    block is gathered into a float64 buffer, its squares are summed by
    `np.einsum`, which calls no BLAS, and the block sums are added in
    block order; the norm therefore depends neither on the BLAS thread
    count nor on where `_in_halves` cuts the blocks. A non-finite total
    means a gradient holds a NaN or Inf (finite float32 squares cannot
    overflow a float64 sum), which raises naming the first such
    parameter."""
    flat = {name: g.reshape(-1) for name, g in grads.items()}
    blocks = _layout((name, g.size) for name, g in flat.items())
    total = 0.0
    for part in _in_halves(lambda part: _norm_blocks(part, flat), blocks):
        for partial in part:
            total += partial
    if not math.isfinite(total):
        for name, g in grads.items():
            if not np.isfinite(g).all():
                raise NonFiniteError(f"non-finite gradient for parameter {name!r}")
        raise NonFiniteError("the squared global gradient norm overflows float64")
    return math.sqrt(total)


def _norm_blocks(blocks: list, flat: dict[str, np.ndarray]) -> list[float]:
    """The float64 sum of squares of each `_layout` block of the flat
    gradients `flat`, each gathered by one `np.concatenate` into a buffer."""
    buf = np.empty(sum(hi - lo for _, lo, hi in blocks[0]) if blocks else 0,
                   dtype=np.float64)  # the largest block
    partials = []
    for block in blocks:
        chunk = buf[:sum(hi - lo for _, lo, hi in block)]
        np.concatenate([flat[name][lo:hi] for name, lo, hi in block], out=chunk)
        partials.append(float(np.einsum("i,i->", chunk, chunk)))
    return partials


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
    """One bias-corrected Adam update of the parameters and moments, in place.

    Parameters, moments and gradients are streamed in cache-sized blocks
    through two scratch blocks, with the operations of the textbook
    formula in the same order, so the result is bit-identical to
    evaluating it on whole arrays. Gradients are only read: each block is
    multiplied by `grad_scale` into scratch, as scaling them in place
    first would. All parameters, moments and gradients of a call share
    one dtype, and parameters and moments must be C-contiguous so that
    their flat views write through; every parameter is checked before any
    update, so a refused call changes nothing.

    `_in_halves` updates the `_layout` blocks on two threads; the update
    is elementwise, so neither blocks nor cut change a value. Each range's
    update is checked for NaN/Inf before it is applied; when both halves
    hit one, the error of the earlier parameter is raised."""
    step = state.step + 1
    beta1, beta2 = ADAM_CONSTANTS["beta1"], ADAM_CONSTANTS["beta2"]
    scalars = (beta1, 1.0 - beta1, beta2, 1.0 - beta2, 1.0 - beta1 ** step,
               float(lr), 1.0 - beta2 ** step, ADAM_CONSTANTS["eps"], float(grad_scale))
    # The scalars as 0-d arrays of the first parameter's dtype: the values the
    # ufuncs would round Python floats to, at less dispatch cost per call.
    dtype = next((p.values.dtype for p in named_params.values()), None)
    typed = tuple(np.array(x, dtype=dtype) for x in scalars)
    flat = {}  # name: flat views of the parameter, its moments and its gradient
    for name, p in named_params.items():
        pv, m, v, g = p.values, state.m[name], state.v[name], grads[name]
        if g.shape != pv.shape:
            raise ValueError(f"gradient shape {g.shape} does not match {name!r} {pv.shape}")
        if not dtype == pv.dtype == m.dtype == v.dtype == g.dtype:
            raise ValueError(f"parameter, moments and gradient of {name!r} are {pv.dtype}, "
                             f"{m.dtype}, {v.dtype}, {g.dtype}; a call takes one dtype, {dtype}")
        if not (pv.flags.c_contiguous and m.flags.c_contiguous and v.flags.c_contiguous):
            raise ValueError(f"parameter {name!r} and its Adam moments must be C-contiguous")
        flat[name] = (pv.reshape(-1), m.reshape(-1), v.reshape(-1), g.reshape(-1))
    state.step = step
    blocks = _layout((name, p.values.size) for name, p in named_params.items())
    _in_halves(lambda part: _adam_blocks(part, flat, typed), blocks)
    return state


def _adam_blocks(blocks: list, flat: dict[str, tuple], typed: tuple) -> None:
    """Apply the Adam update to each range of each `_layout` block of the
    flat (p, m, v, g) views `flat`, with the 0-d scalars `typed`, through
    one scratch sized to the largest block; the gradients are only read."""
    b1, one_minus_b1, b2, one_minus_b2, correct1, rate, correct2, eps, scale = typed
    width = sum(hi - lo for _, lo, hi in blocks[0]) if blocks else 0
    scratch = np.empty((2, width), dtype=b1.dtype)
    for name, lo, hi in (r for block in blocks for r in block):
        pf, mf, vf, gf = flat[name]
        pb, mb, vb, gb = pf[lo:hi], mf[lo:hi], vf[lo:hi], gf[lo:hi]
        s1, s2 = scratch[:, :pb.size]
        # g = grad_scale * gradient, in s2 until the v / correct2 step
        np.multiply(gb, scale, out=s2)
        # m = beta1 * m + (1 - beta1) * g
        np.multiply(mb, b1, out=mb)
        np.multiply(s2, one_minus_b1, out=s1)
        np.add(mb, s1, out=mb)
        # v = beta2 * v + (1 - beta2) * (g * g)
        np.multiply(vb, b2, out=vb)
        np.multiply(s2, s2, out=s1)
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

    Gradients are summed over the micro-batches; the norm of their sum,
    divided by the group size `n` (normally `cfg.accumulation_steps`; an
    epoch's trailing group may be smaller), is the norm of their average.
    Adam applies the average and the clip scale as one `grad_scale`; no
    pass writes a gradient. For a power-of-two `n` the result is that of
    averaging and clipping in place, then `adam_step`, bit for bit."""
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
    # The accumulated gradients, read by the norm and Adam passes.
    grads = {n: np.zeros_like(t.values) if t.grad is None else t.grad
             for n, t in named.items()}
    n = len(micro_batches)
    norm = global_norm(grads) / n
    clip = _clip_scale(norm, cfg.clip_norm)
    adam_step(named, grads, state, cfg.learning_rate, grad_scale=clip / n)
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
        manifest["optimizer"] = {"step": opt.step, **ADAM_CONSTANTS}
    _check_manifest(manifest, [(name, arr.shape) for name, arr in tensors], path)
    manifest["tensors"] = directory
    payload = json.dumps(manifest).encode("utf-8")
    # Written beside the target and swapped in whole: a crash mid-write
    # leaves the previous checkpoint at `path` intact. The file's bytes
    # reach the disk before the rename, and the rename before the return.
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_GCKP_HEADER.pack(GCKP_MAGIC, GCKP_VERSION, len(payload)))
            fh.write(payload)
            for _, arr in tensors:
                fh.write(np.ascontiguousarray(arr, dtype="<f4"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    directory_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory_fd)
    finally:
        os.close(directory_fd)


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
                             ("best_metric", lambda x: _is_number(x) and 0 <= x <= 100,
                              "a finite number in [0, 100]"),
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
    if not _is_count(opt.get("step")):
        raise bad("optimizer 'step' is missing or not a non-negative integer")
    constants = {k: opt.get(k) for k in ADAM_CONSTANTS}
    if constants != ADAM_CONSTANTS:
        raise bad(f"optimizer constants {constants} are not Adam's {ADAM_CONSTANTS}")
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
        found["optimizer"] = AdamState(**moments, step=opt["step"])
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
    model = GroundingModel.build(config, unset_params())
    _restore_params(model, ckpt.params)
    return model


def _restore_params(model: GroundingModel, params: dict[str, np.ndarray]) -> None:
    """Make `params` the model's parameter values, each with a new node and
    no gradient. An array of the parameter's dtype that is C-contiguous and
    writable is adopted as it is; any other is converted with one copy.
    Names and shapes are checked before any parameter changes."""
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
        tensor.values, tensor.node = arr, Node(arr)


# -- the fit loop -----------------------------------------------------------------


def _flat(config: dict, prefix: str = "") -> dict:
    """A nested config snapshot as {dotted key: value}."""
    out = {}
    for key, value in config.items():
        out.update(_flat(value, f"{prefix}{key}.") if isinstance(value, dict)
                   else {prefix + key: value})
    return out


def _fingerprint(records: list[SampleRecord]) -> dict:
    """The sample count and a SHA-256 over every field of the records but
    their features: image ids and sizes, tokens, phrase spans and types,
    ground-truth boxes and proposals, in record order."""
    digest = hashlib.sha256()
    for r in records:
        head = json.dumps([r.image_id, r.width, r.height, r.token_ids.size, r.num_objects,
                           [[p.first_token, p.last_token, p.entity_type, len(p.gt_boxes)]
                            for p in r.phrases]]).encode("utf-8")
        digest.update(struct.pack("<Q", len(head)) + head)
        digest.update(np.ascontiguousarray(r.token_ids, "<i8"))
        for boxes in (r.proposals, *(p.gt_boxes for p in r.phrases)):
            digest.update(np.ascontiguousarray(boxes, "<f8"))
    return {"samples": len(records), "sha256": digest.hexdigest()}


@dataclass
class FitResult:
    best: Checkpoint
    history: list[dict]


def fit(model: GroundingModel, train_records: list[SampleRecord],
        dev_records: list[SampleRecord], cfg: TrainConfig,
        checkpoint_dir=None, resume: bool = False,
        log=None) -> FitResult:
    """Train with seeded shuffling and per-epoch dev evaluation; keep the
    checkpoint with the best dev recall@1 and stop after `patience + 1`
    consecutive epochs without improvement.

    With `checkpoint_dir`, an epoch that improves dev recall@1 writes
    `best.gckp` (its parameters, with the history up to that epoch), and
    every epoch then writes `last.gckp` (full resume state), each
    atomically; `resume=True` picks up from those files and reproduces
    the uninterrupted run exactly.
    """
    if not train_records:
        raise ValueError("the training set is empty")
    if not any(r.phrases for r in dev_records):
        raise ValueError("the dev set is empty or has no phrase")
    for r in train_records:  # before any step: a micro-batch of them would have no loss
        if not r.phrases:
            raise ValueError(f"training record {r.image_id!r} has no phrase")
    named = model.named_parameters()
    rng = np.random.default_rng(cfg.seed)
    state = AdamState.init(named)
    config_snapshot = {"model": model.config.to_dict(), "train": cfg.to_dict(),
                       "train_set": _fingerprint(train_records)}
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
        where = checkpoint_dir / LAST_CHECKPOINT
        if not where.exists():
            raise FileNotFoundError(f"{where} does not exist: no epoch of this run was "
                                    f"committed, so start it again without --resume")
        last = load_checkpoint(where)
        if last.optimizer is None or last.rng_state is None:
            raise ValueError("checkpoint lacks optimizer/rng state; cannot resume")
        best = load_checkpoint(checkpoint_dir / BEST_CHECKPOINT)
        # A crash between an improving epoch's two writes leaves `best` one
        # epoch ahead of `last`; replaying that epoch rebuilds it bit for bit.
        if best.best_epoch != last.best_epoch and not (
                best.best_epoch == last.epoch + 1 < cfg.max_epochs):
            raise ValueError(
                f"{checkpoint_dir}: {BEST_CHECKPOINT} holds epoch {best.best_epoch} but "
                f"{LAST_CHECKPOINT} expects epoch {last.best_epoch}, and max_epochs "
                f"{cfg.max_epochs} replays no epoch that rebuilds it; the pair is inconsistent"
            )
        # A resume may extend a run or change its stopping rule; nothing else.
        # A checkpoint written before training sets were fingerprinted has
        # no `train_set`, and its set is not checked.
        now = dict(config_snapshot)
        if "train_set" not in last.config:
            del now["train_set"]
        saved, now = _flat(last.config), _flat(now)
        changed = [key for key in {**now, **saved} if saved.get(key) != now.get(key)
                   and key not in ("train.max_epochs", "train.patience")]
        if changed:
            raise ValueError(f"{checkpoint_dir}: cannot resume with a changed config: "
                             f"{changed[0]} differs from the checkpoint's")
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
        steps = []
        # A step collates only its own micro-batches, freed when it returns.
        for lo in range(0, len(order), cfg.batch_size):
            steps.append(train_step(
                [collate_batch([train_records[i] for i in order[j:j + micro]])
                 for j in range(lo, min(lo + cfg.batch_size, len(order)), micro)],
                model, state, cfg, rng))
        train_loss = float(np.mean([s.loss for s in steps]))

        dev_r1 = evaluate(model, dev_records, split="dev").recall_at_1
        history.append({"epoch": epoch, "train_loss": train_loss,
                        "max_grad_norm": max(s.grad_norm for s in steps),
                        "clipped_steps": sum(s.clip_scale < 1.0 for s in steps),
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
