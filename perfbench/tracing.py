"""Span tracing for the benchmark's traced run.

Wrappers are installed from the outside, at every module binding of a
public ctxground function (the binding a caller resolves at call time),
and removed again afterwards. Each call records one span (name, start,
end, parent, value) in memory; the value carries a count measured at
the boundary (graph nodes for ``topo_order``, bytes for
``save_checkpoint``). Nothing in ``src/`` is modified.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array

PACKAGE = "ctxground"
SUBMODULES = ("autodiff", "encoder", "head", "model", "data", "training", "evaluate")

_WRAPPED = "__perfbench_wrapped__"


def _encode_branch_name(args, kwargs):
    inputs = args[0] if args else kwargs["inputs"]
    return "encoder.text_fwd" if inputs.is_text else "encoder.image_fwd"


def _checkpoint_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


# (defining module, function, span name, per-binding span names, value hook).
# Every module binding of the function object is patched; a binding listed
# in the fourth field gets its own span name.
FUNCTIONS = [
    ("autodiff", "backward", "autodiff.backward", {}, None),
    ("autodiff", "topo_order", "autodiff.topo_order", {}, lambda a, k, r: len(r)),
    ("encoder", "encode_branch", _encode_branch_name, {}, None),
    ("encoder", "encoder_layer", "encoder.layer_fwd", {}, None),
    ("encoder", "multi_head_self_attention", "encoder.attention_fwd", {}, None),
    ("encoder", "embed_tokens", "encoder.embed_tokens", {}, None),
    ("encoder", "spatial_embed", "encoder.spatial_embed", {}, None),
    ("encoder", "normalize_boxes", "encoder.normalize_boxes", {}, None),
    ("head", "extract_entity_states", "head.extract", {}, None),
    ("head", "cross_modal_logits", "head.logits", {}, None),
    ("head", "per_entity_bce", "head.bce", {}, None),
    ("head", "rank_objects", "head.rank", {}, None),
    ("data", "collate_batch", "data.collate", {}, None),
    ("data", "label_positives", "data.label_positives", {}, None),
    ("data", "iou_matrix", "data.iou_matrix", {"evaluate": "evaluate.iou_matrix"}, None),
    ("data", "parse_dataset", "data.parse_dataset", {}, None),
    ("data", "load_feature_file", "data.load_feature_file", {}, None),
    ("training", "train_step", "training.train_step", {}, None),
    ("training", "clip_global_norm", "training.clip", {}, None),
    ("training", "adam_step", "training.adam", {}, None),
    ("training", "save_checkpoint", "training.checkpoint_save", {}, _checkpoint_bytes),
    ("training", "load_checkpoint", "training.checkpoint_load", {}, None),
    ("training", "model_from_checkpoint", "training.model_from_checkpoint", {}, None),
    ("evaluate", "evaluate", "evaluate.evaluate", {}, None),
    ("evaluate", "collect_entity_results", "evaluate.collect", {}, None),
    ("evaluate", "recall_at_k", "evaluate.recall_at_k", {}, None),
    ("evaluate", "upper_bound", "evaluate.upper_bound", {}, None),
    ("evaluate", "per_type_breakdown", "evaluate.per_type", {}, None),
]

# GroundingModel methods: (attribute, span name).
METHODS = [
    ("initialize", "model.init"),
    ("batch_loss", "model.loss_fwd"),
    ("batch_scores", "model.scores_fwd"),
]


def submodule(name: str):
    """The submodule object itself. ``import ctxground.evaluate as E``
    would give the ``evaluate`` function, which the package re-exports
    over the submodule name."""
    return importlib.import_module(f"{PACKAGE}.{name}")


class Tracer:
    """Collects spans in memory while installed.

    Span ``i`` is ``names[i]``, ``starts[i]``, ``ends[i]``, ``parents[i]``
    (index of the enclosing span, or -1) and ``values[i]``. Flat arrays
    rather than one object per span keep the garbage collector from
    rescanning every recorded span, which would inflate the overhead."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.values = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.names)

    def _wrap(self, fn, name, value=None):
        names, starts, ends, parents, values = (self.names, self.starts, self.ends,
                                                self.parents, self.values)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name if isinstance(name, str) else name(args, kwargs))
            parents.append(stack[-1] if stack else -1)
            values.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if value is not None:
                values[i] = value(args, kwargs, result)
            return result

        setattr(traced, _WRAPPED, True)
        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [sys.modules[PACKAGE]] + [submodule(n) for n in SUBMODULES]
        for home, fname, span_name, per_binding, value in FUNCTIONS:
            original = getattr(submodule(home), fname)
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    # A binding may already hold a timing wrapper of the function.
                    if obj is original or getattr(obj, "__wrapped__", None) is original:
                        short = mod.__name__.rpartition(".")[2]
                        self._patch(mod, attr,
                                    self._wrap(obj, per_binding.get(short, span_name), value))
        model_cls = submodule("model").GroundingModel
        for attr, span_name in METHODS:
            raw = model_cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(model_cls, attr, classmethod(self._wrap(raw.__func__, span_name)))
            else:
                self._patch(model_cls, attr, self._wrap(raw, span_name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        leftover = [f"{m}.{a}" for m in [PACKAGE] + [f"{PACKAGE}.{n}" for n in SUBMODULES]
                    for a, o in vars(sys.modules[m]).items() if getattr(o, _WRAPPED, False)]
        if leftover:
            raise RuntimeError(f"wrappers left installed: {leftover}")


def aggregate(tracer: Tracer, lo: int = 0) -> dict[str, dict]:
    """Per span name over the spans from index ``lo`` on: total and self
    seconds, call count and summed value.

    Self time is a span's duration minus that of its direct children;
    spans on one thread nest, so children never overlap."""
    out: dict[str, dict] = {}
    names = tracer.names
    for i in range(lo, len(names)):
        dur = tracer.ends[i] - tracer.starts[i]
        row = out.get(names[i])
        if row is None:
            row = out[names[i]] = {"total_s": 0.0, "self_s": 0.0, "calls": 0, "value": 0}
        row["total_s"] += dur
        row["self_s"] += dur
        row["calls"] += 1
        row["value"] += tracer.values[i]
        parent = tracer.parents[i]
        if parent >= lo:
            out[names[parent]]["self_s"] -= dur
    return out
