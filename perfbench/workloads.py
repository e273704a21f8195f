"""The benchmark's workloads: input generation and the measured run.

Each phase runs in its own process, started by ``run.py``:

    python3 perfbench/workloads.py generate --workload W --seed N --dir D [--smoke]
    python3 perfbench/workloads.py measure --workload W --seed N --dir D \
        --seconds S --trace 0|1 --out RESULT.json [--smoke]

``generate`` writes the workload's inputs (JSONL with GRND feature
sidecars, and for ``eval_fullscale`` a checkpoint) into D, so that the
measuring process receives only files and its peak RSS excludes input
generation. ``measure`` sets up, runs the closed loop (each call into
the public API returns before the next is issued), checks every output
and writes raw figures, metrics and check results as JSON.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import gc
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import ctxground
from tracing import Tracer, aggregate, submodule

data = submodule("data")
encoder = submodule("encoder")
model_mod = submodule("model")
training = submodule("training")
evaluate_mod = submodule("evaluate")

clock = time.perf_counter

UB_REQUIRED = 100.0      # the synthetic generator plants a perfect proposal for every phrase
R95 = 95.0

# overfit_toy is the AC-4 acceptance run and ignores --seed: its output
# check (dev R@1 >= 95) and time_to_r95_s are defined on that trajectory.
# Other seeds first reach R@1 95 anywhere between epochs 65 and 155.
TOY_SEEDS = {"data": 7, "model": 1, "train": 3}
# Timed set-ups per untraced run; setup_s is their median. A toy set-up
# takes about 8 ms, so each of its timed set-ups is a block of repeats
# lasting at least TOY_SETUP_BLOCK_S, reported per set-up, and
# TOY_SETUP_BLOCKS of them run before each fit and after the last.
SETUP_REPEATS = {"train_fullscale": 3, "eval_fullscale": 3}
TOY_SETUP_BLOCKS = 2
TOY_SETUP_BLOCK_S = 0.5
# Least timed units per untraced run (fits for overfit_toy). On a shared
# host the speed of a CPU drifts over seconds, so units spread over more of
# a run steady its median; the counts keep every run within the time budget.
MIN_TIMED = {"overfit_toy": 2, "train_fullscale": 2, "eval_fullscale": 3}
MIN_TRACED = 2           # traced units per traced run, so that the dagger counts can be compared
# Fewer traced units than this leave tracing.overhead_frac inside the
# run-to-run drift of the host; the run says so in a note.
OVERHEAD_MIN_UNITS = 20
TRAIN_POOL = 4           # distinct micro-batches cycled by train_fullscale


@dataclass(frozen=True)
class Sizes:
    spec: dict                      # SyntheticSpec fields except the seed
    model: model_mod.ModelConfig
    train: training.TrainConfig | None = None


def _small_model(vocab: int, feat: int, positions: int, dropout: float) -> model_mod.ModelConfig:
    return model_mod.ModelConfig(
        vocab_size=vocab, feature_dim=feat, d_joint=8,
        text=encoder.BranchConfig(num_layers=1, num_heads=2, hidden_dim=8,
                                  dropout_p=dropout, max_positions=positions),
        image=encoder.BranchConfig(num_layers=1, num_heads=2, hidden_dim=8,
                                   dropout_p=dropout, use_spatial=True),
    )


FULL = {
    "overfit_toy": Sizes(
        spec=dict(num_samples=64, vocab_size=50, tokens_per_sample=6, objects_per_sample=8,
                  entities_per_sample=2, d_feat=32, entity_vocab_size=3, noise_scale=0.05,
                  image_size=128),
        model=model_mod.ModelConfig(
            vocab_size=50, feature_dim=32, d_joint=8,
            text=encoder.BranchConfig(num_layers=2, num_heads=2, hidden_dim=8,
                                      dropout_p=0.0, max_positions=8),
            image=encoder.BranchConfig(num_layers=1, num_heads=2, hidden_dim=8,
                                       dropout_p=0.0, use_spatial=True)),
        train=training.TrainConfig(learning_rate=5e-4, clip_norm=0.25, batch_size=32,
                                   accumulation_steps=2, max_epochs=200, patience=20,
                                   seed=TOY_SEEDS["train"], dropout_p=0.0)),
    "train_fullscale": Sizes(
        spec=dict(num_samples=8 * TRAIN_POOL, vocab_size=model_mod.DEFAULT_VOCAB_SIZE,
                  tokens_per_sample=16, objects_per_sample=20, entities_per_sample=2,
                  d_feat=model_mod.DEFAULT_FEATURE_DIM),
        model=model_mod.default_model_config(),
        train=training.TrainConfig(batch_size=8, accumulation_steps=1)),
    "eval_fullscale": Sizes(
        spec=dict(num_samples=32, vocab_size=model_mod.DEFAULT_VOCAB_SIZE,
                  tokens_per_sample=20, objects_per_sample=50, entities_per_sample=4,
                  d_feat=model_mod.DEFAULT_FEATURE_DIM),
        model=model_mod.default_model_config()),
}

# Tiny sizes for the smoke mode: every code path, in seconds.
SMOKE = {
    "overfit_toy": Sizes(
        spec=dict(num_samples=16, vocab_size=20, tokens_per_sample=4, objects_per_sample=4,
                  entities_per_sample=1, d_feat=8, entity_vocab_size=3, noise_scale=0.05,
                  image_size=32),
        model=_small_model(20, 8, 4, 0.0),
        train=training.TrainConfig(learning_rate=5e-3, clip_norm=0.25, batch_size=8,
                                   accumulation_steps=2, max_epochs=60, patience=10,
                                   seed=TOY_SEEDS["train"], dropout_p=0.0)),
    "train_fullscale": Sizes(
        spec=dict(num_samples=8 * TRAIN_POOL, vocab_size=50, tokens_per_sample=6,
                  objects_per_sample=5, entities_per_sample=2, d_feat=16),
        model=_small_model(50, 16, 6, 0.4),
        train=training.TrainConfig(batch_size=8, accumulation_steps=1)),
    "eval_fullscale": Sizes(
        spec=dict(num_samples=8, vocab_size=50, tokens_per_sample=6, objects_per_sample=9,
                  entities_per_sample=4, d_feat=16),
        model=_small_model(50, 16, 6, 0.4)),
}

WORKLOADS = tuple(FULL)


# -- generate ---------------------------------------------------------------------


def generate(workload: str, seed: int, out: Path, smoke: bool) -> None:
    sizes = (SMOKE if smoke else FULL)[workload]
    data_seed = TOY_SEEDS["data"] if workload == "overfit_toy" else seed
    spec = data.SyntheticSpec(seed=data_seed, **sizes.spec)
    data.write_dataset(data.generate_synthetic(spec), out / "data.jsonl", feature_storage="files")
    if workload == "eval_fullscale":
        model = model_mod.GroundingModel.initialize(sizes.model, seed=seed)
        training.save_checkpoint(training.Checkpoint(
            params={n: t.values for n, t in model.named_parameters().items()},
            config={"model": sizes.model.to_dict(), "train": training.TrainConfig().to_dict()},
            epoch=0, best_metric=0.0, best_epoch=0,
        ), out / training.BEST_CHECKPOINT)


# -- measure: helpers -------------------------------------------------------------


class Run:
    """Figures, checks and traced units of one measured run."""

    def __init__(self, trace: bool):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.notes: list[str] = []
        self.setup_s: list[float] = []
        self.tracer = Tracer() if trace else None
        self.traced_setups: list[dict] = []
        self.traced_units: list[tuple[dict, dict]] = []   # (span aggregate, unit facts)
        self.untraced_walls: list[float] = []
        self.traced_walls: list[float] = []
        self.relative: list[float] = []     # timed unit / reference run next to it

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failed += 1
            self.errors.append(message)
        return ok

    def _timed(self, fn, traced: bool):
        lo = len(self.tracer) if traced else 0
        try:
            if traced:
                self.tracer.install()
            t0 = clock()
            result = fn()
            elapsed = clock() - t0
        finally:
            if traced:
                self.tracer.uninstall()
        return result, elapsed, (aggregate(self.tracer, lo) if traced else None)

    def setup(self, fn, traced: bool = False, block_s: float = 0.0):
        """Time one set-up; a traced set-up feeds the per-layer table only.
        Untraced, ``fn`` repeats until ``block_s`` have passed (once at
        least) and the time per call is recorded."""
        if traced:
            result, _, agg = self._timed(fn, True)
            self.traced_setups.append(agg)
            return result
        n, t0 = 0, clock()
        while n == 0 or clock() - t0 < block_s:
            result = fn()
            n += 1
        self.setup_s.append((clock() - t0) / n)
        return result

    def unit(self, fn, traced: bool, facts, warmup: bool = False):
        """Run one unit of the closed loop; returns (fn(), wall seconds).
        ``facts(result)`` gives the unit's steps, phrases and entities,
        the denominators of the dagger counts."""
        result, elapsed, agg = self._timed(fn, traced)
        if traced:
            self.traced_walls.append(elapsed)
            self.traced_units.append((agg, facts(result)))
        elif not warmup:
            self.untraced_walls.append(elapsed)
        return result, elapsed


def schedule(a, minimum: int):
    """Traced flags of the units to run. A traced run alternates untraced
    and traced units, for the overhead comparison; an untraced run
    repeats until `a.seconds` have passed and at least `minimum` units
    ran."""
    if a.trace:
        yield from [False, True] * MIN_TRACED
        return
    start = clock()
    n = 0
    while n < minimum or clock() - start < a.seconds:
        yield False
        n += 1


# -- host-speed references ----------------------------------------------------------
#
# The speed of a shared host drifts by up to a third over seconds, in
# CPU time as much as in wall time. Each untraced timed unit is set
# against a fixed reference computation that calls no ctxground code,
# run next to it (after each toy epoch; before and after each full-scale
# call), and iter_p50_rel is the median of unit time over reference time:
# it moves with the speed of the code, much less with that of the host.


def dispatch_reference() -> float:
    """Seconds for fixed Python-dispatch-bound work: many tiny numpy calls,
    like a step of the toy model."""
    x, w, total = np.ones((16, 8)), np.eye(8) * 0.5, 0.0
    t0 = clock()
    for _ in range(800):
        x = np.tanh(x @ w + 0.1)
        total += float(x.sum())
    return clock() - t0


def memory_reference(arrays):
    """A reference for the full-scale workloads, which are bound by BLAS
    and memory bandwidth: float32 GEMMs of encoder width, then four read
    passes over ``arrays`` (the model's parameter arrays, 662 MB, far past
    any cache), as clipping and Adam stream them; about 0.7 s, since a
    shorter reference adds its own jitter to every ratio. It calls no
    ctxground code; it reads the parameters' bytes, so a change of their
    dtype would change it."""
    a = np.full((256, 768), 0.5, dtype=np.float32)
    b = np.full((768, 3072), 0.25, dtype=np.float32)

    def reference() -> float:
        t0 = clock()
        for _ in range(45):
            a @ b
        for _ in range(4):
            for arr in arrays:
                np.add.reduce(arr, axis=None)
        return clock() - t0

    return reference


def _parameter_arrays(model) -> list:
    return [t.values for t in model.named_parameters().values()]


def _report_ok(run: Run, r: dict, where: str) -> None:
    run.check(0.0 <= r["recall_at_1"] <= r["recall_at_5"] <= r["recall_at_10"]
              <= r["upper_bound"] <= 100.0,
              f"{where}: recall ordering violated {r}")
    run.check(r["upper_bound"] == UB_REQUIRED,
              f"{where}: upper bound {r['upper_bound']} != {UB_REQUIRED}")


# -- measure: overfit_toy -----------------------------------------------------------


class _CallLog:
    """Wall time of every call through one module binding, with a note
    taken from its arguments and result. Installed only around ``fit``,
    whose internal train_step and evaluate calls cannot be timed from
    outside otherwise."""

    def __init__(self, module, attr, note):
        self.module, self.attr, self.note = module, attr, note
        self.calls: list[tuple] = []

    def __enter__(self):
        original, calls, note = getattr(self.module, self.attr), self.calls, self.note
        self.original = original

        @functools.wraps(original)
        def timed(*args, **kwargs):
            t0 = clock()
            result = original(*args, **kwargs)
            calls.append((clock() - t0, note(args, kwargs, result)))
            return result

        setattr(self.module, self.attr, timed)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self.original)


class _EpochTracing:
    """Traces every other epoch of one fit, switching from the ``log``
    hook: fit resolves module bindings at each call, so a switch takes
    effect from the next call on. A unit runs from one log event to the
    next (checkpoint writes, the epoch's steps, its dev evaluation).
    Epoch 0 is a warm-up and is not counted."""

    def __init__(self, run: Run, facts: dict):
        self.run, self.facts = run, facts
        self.lo = None
        self.last = clock()

    def __call__(self, epoch: int) -> None:
        run, now = self.run, clock()
        if self.lo is not None:
            run.tracer.uninstall()
            run.traced_walls.append(now - self.last)
            run.traced_units.append((aggregate(run.tracer, self.lo), self.facts))
            self.lo = None
        elif epoch > 0:
            run.untraced_walls.append(now - self.last)
        if epoch % 2 == 0:
            self.lo = len(run.tracer)
            run.tracer.install()
        self.last = clock()

    def stop(self) -> None:
        if self.lo is not None:
            self.run.tracer.uninstall()
            self.lo = None


def _toy_fit(run: Run, records, model, cfg, ckpt_dir: Path, on_epoch=None,
             reference=None) -> dict:
    """One checked ``fit``. Work done inside its ``log`` hook (the tracing
    switch, the reference) is excluded from the fit's times."""
    log_times: list[float] = []
    pauses: list[float] = []
    ref_s: list[float] = []

    def log(_msg):
        paused = clock()
        log_times.append(paused)
        if on_epoch is not None:
            on_epoch(len(log_times) - 1)
        if reference is not None:
            ref_s.append(reference())
        pauses.append(clock() - paused)

    with _CallLog(training, "train_step",
                  lambda a, k, r: (sum(mb.size for mb in a[0]), r.loss)) as steps, \
         _CallLog(training, "evaluate", lambda a, k, r: r.to_dict()) as evals:
        t0 = clock()
        try:
            result = training.fit(model, records, records, cfg, checkpoint_dir=ckpt_dir, log=log)
        except Exception as exc:  # a raised step or evaluation is a failed operation
            run.attempted += 1
            run.check(False, f"fit raised {type(exc).__name__}: {exc}")
            return {}
        wall = clock() - t0 - sum(pauses)
    run.attempted += len(steps.calls) + len(evals.calls) + 1
    for i, (_, (_, loss)) in enumerate(steps.calls):
        run.check(math.isfinite(loss), f"train_step {i}: loss {loss} is not finite")
    for i, (_, report) in enumerate(evals.calls):
        _report_ok(run, report, f"epoch {i} evaluation")
    r1 = [h["dev_recall_at_1"] for h in result.history]
    first = next((e for e, v in enumerate(r1) if v >= R95), None)
    run.check(first is not None and R95 <= result.best.best_metric <= 100.0,
              f"best dev R@1 {result.best.best_metric} not in [{R95}, 100]")
    paused_before = itertools.accumulate(pauses, initial=0.0)
    ticks = [t - t0 - paused for t, paused in zip(log_times, paused_before)]
    epoch_s = [b - a for a, b in zip([0.0] + ticks, ticks)]
    run.relative += [e / r for e, r in zip(epoch_s, ref_s)]
    return {
        "wall": wall,
        "epochs": len(ticks),
        "epoch_s": epoch_s,
        "time_to_r95": None if first is None else ticks[first],
        "first_r95_epoch": first,
        "best_r1": result.best.best_metric,
        "step_s": [c[0] for c in steps.calls],
        "step_samples": [c[1][0] for c in steps.calls],
        "eval_s": [c[0] for c in evals.calls],
        "eval_entities": [c[1]["total_entities"] for c in evals.calls],
    }


def measure_toy(a, run: Run, sizes: Sizes):
    jsonl = a.dir / "data.jsonl"
    cfg = sizes.train

    def setup():
        records = data.parse_dataset(jsonl)
        model = model_mod.GroundingModel.initialize(sizes.model, seed=TOY_SEEDS["model"],
                                                    init_std=0.5)
        return records, model

    fits = []
    if a.trace:
        phrases = sizes.spec["num_samples"] * sizes.spec["entities_per_sample"]
        micro_batches = math.ceil(sizes.spec["num_samples"] / cfg.micro_batch_size)
        tracing = _EpochTracing(run, {
            "steps": math.ceil(micro_batches / cfg.accumulation_steps),
            "phrases": phrases, "entities": phrases})
        records, model = run.setup(setup, traced=True)
        try:
            fits.append(_toy_fit(run, records, model, cfg, a.dir / "ckpt", on_epoch=tracing))
        finally:
            tracing.stop()
    else:
        # The timed set-ups come before, between and after the fits, so
        # that they sample the host's speed across the run.
        for _ in schedule(a, MIN_TIMED["overfit_toy"]):
            for _ in range(TOY_SETUP_BLOCKS):
                run.setup(setup, block_s=TOY_SETUP_BLOCK_S)
            records, model = setup()
            fits.append(_toy_fit(run, records, model, cfg, a.dir / f"ckpt-{len(fits)}",
                                 reference=dispatch_reference))
            if not fits[-1]:
                break
        for _ in range(TOY_SETUP_BLOCKS):
            run.setup(setup, block_s=TOY_SETUP_BLOCK_S)
    fits = [f for f in fits if f]
    if not fits:
        return {}, {}
    firsts = {f["first_r95_epoch"] for f in fits}
    run.check(len(firsts) == 1, f"first epoch with R@1 >= {R95} differs between fits: {firsts}")
    epoch_s = [s for f in fits for s in f["epoch_s"]]
    step_s = [s for f in fits for s in f["step_s"]]
    reached = [f["time_to_r95"] for f in fits if f["time_to_r95"] is not None]
    metrics = {
        "iter_p50_s": (statistics.median(epoch_s), "s"),
        "epochs_per_s": (sum(f["epochs"] for f in fits) / sum(f["wall"] for f in fits), "1/s"),
        "step_p50_s": (statistics.median(step_s), "s"),
        "step_p95_s": (float(np.quantile(step_s, 0.95)), "s"),
        "train_samples_per_s": (sum(sum(f["step_samples"]) for f in fits) / sum(step_s), "1/s"),
        "eval_entities_per_s": (sum(sum(f["eval_entities"]) for f in fits)
                                / sum(sum(f["eval_s"]) for f in fits), "1/s"),
    }
    if reached:
        metrics["time_to_r95_s"] = (statistics.median(reached), "s")
    fingerprint = {"input": "ac4-seeds-{data}-{model}-{train}".format(**TOY_SEEDS),
                   "exact": {k: fits[0][k] for k in ("first_r95_epoch", "epochs", "best_r1")}}
    return metrics, {"counts": {"fit_s": [f["wall"] for f in fits],
                                "epochs": [f["epochs"] for f in fits],
                                "train_steps": len(step_s)},
                     "fingerprint": fingerprint}


# -- measure: the closed loop ------------------------------------------------------------


def closed_loop(a, run: Run, name: str, call, facts, check, minimum: int,
                warmup: bool, reference) -> list[tuple]:
    """Issue ``call`` again and again, each time after the previous call
    returned: untraced until ``a.seconds`` have passed and ``minimum``
    calls ran, or in a traced run alternately untraced and traced.
    ``check(result, i)`` checks each output. A call that raises ends the
    loop. Returns (result, wall seconds, timed) per completed call; the
    warm-up call and traced calls are not timed. In an untraced run
    ``reference`` runs before the first timed call and after each one,
    and each call is set against the mean of the two around it."""
    done: list[tuple] = []
    refs: list[float] = []

    def attempt(traced: bool, warm: bool) -> bool:
        run.attempted += 1
        timed = not (traced or warm)
        if timed and not a.trace and not refs:
            refs.append(reference())
        try:
            result, wall = run.unit(call, traced, facts, warmup=warm)
        except Exception as exc:
            return run.check(False, f"{name} {len(done)} raised {type(exc).__name__}: {exc}")
        check(result, len(done))
        if timed and not a.trace:
            refs.append(reference())
            run.relative.append(wall / statistics.fmean(refs[-2:]))
        done.append((result, wall, timed))
        return True

    if not warmup or attempt(False, True):
        for traced in schedule(a, minimum):
            if not attempt(traced, False):
                break
    return done


# -- measure: train_fullscale ------------------------------------------------------------


def measure_train(a, run: Run, sizes: Sizes):
    jsonl = a.dir / "data.jsonl"
    cfg = sizes.train

    def setup():
        records = data.parse_dataset(jsonl)
        model = model_mod.GroundingModel.initialize(sizes.model, seed=a.seed)
        state = training.AdamState.init(model.named_parameters())
        return records, model, state

    for _ in range(0 if a.trace else SETUP_REPEATS["train_fullscale"] - 1):
        run.setup(setup)
        gc.collect()
    records, model, state = run.setup(setup, traced=bool(a.trace))
    rng = np.random.default_rng(a.seed)
    mb = cfg.micro_batch_size
    steps = itertools.count()

    def step():
        lo = (next(steps) % TRAIN_POOL) * mb
        batch = data.collate_batch(records[lo:lo + mb])
        t0 = clock()
        metrics = training.train_step([batch], model, state, cfg, rng)
        return clock() - t0, batch.size, metrics.loss, batch.num_entities

    def check(r, i):
        run.check(math.isfinite(r[2]), f"train_step {i}: loss {r[2]} is not finite")

    # The first step touches fresh optimizer and gradient memory: a warm-up, untimed.
    done = closed_loop(a, run, "train_step", step,
                       lambda r: {"steps": 1, "phrases": r[3], "entities": 0}, check,
                       MIN_TIMED["train_fullscale"], warmup=True,
                       reference=memory_reference(_parameter_arrays(model)))
    step_s = [r[0] for r, _, timed in done if timed]
    if not step_s:
        return {}, {}
    metrics = {
        "iter_p50_s": (statistics.median(run.untraced_walls), "s"),
        "step_p50_s": (statistics.median(step_s), "s"),
        "train_samples_per_s": (sum(r[1] for r, _, timed in done if timed) / sum(step_s), "1/s"),
    }
    losses = [r[2] for r, _, _ in done]
    fingerprint = {"input": f"seed{a.seed}", "exact": {}, "losses": losses}
    return metrics, {"counts": {"train_steps": len(losses), "timed_step_s": step_s},
                     "fingerprint": fingerprint}


# -- measure: eval_fullscale -------------------------------------------------------------


def measure_eval(a, run: Run, sizes: Sizes):
    ckpt_path = a.dir / training.BEST_CHECKPOINT
    jsonl = a.dir / "data.jsonl"

    def setup():
        model = training.model_from_checkpoint(training.load_checkpoint(ckpt_path))
        records = data.parse_dataset(jsonl)
        return model, records

    for _ in range(0 if a.trace else SETUP_REPEATS["eval_fullscale"] - 1):
        run.setup(setup)
        gc.collect()
    model, records = run.setup(setup, traced=bool(a.trace))
    first: list[dict] = []

    def check(report, i):
        _report_ok(run, report, f"evaluation {i}")
        if first:
            run.check(report == first[0],
                      f"evaluation {i} differs from the first: {report} vs {first[0]}")
        else:
            first.append(report)

    # `ctxground eval` runs one evaluation per process, so the untraced run
    # times the first one too and reports the median. A traced run warms up
    # first, so that the overhead compares like with like.
    done = closed_loop(a, run, "evaluate",
                       lambda: evaluate_mod.evaluate(model, records, split="test").to_dict(),
                       lambda r: {"steps": 0, "phrases": r["total_entities"],
                                  "entities": r["total_entities"]},
                       check, MIN_TIMED["eval_fullscale"], warmup=bool(a.trace),
                       reference=memory_reference(_parameter_arrays(model)))
    eval_s = [wall for _, wall, timed in done if timed]
    if not eval_s:
        return {}, {}
    metrics = {
        "iter_p50_s": (statistics.median(eval_s), "s"),
        "eval_entities_per_s": (sum(r["total_entities"] for r, _, timed in done if timed)
                                / sum(eval_s), "1/s"),
    }
    fingerprint = {"input": f"seed{a.seed}", "exact": {"report": first[0]}}
    return metrics, {"counts": {"evaluations": len(done), "timed_eval_s": eval_s},
                     "fingerprint": fingerprint}


MEASURE = {"overfit_toy": measure_toy, "train_fullscale": measure_train,
           "eval_fullscale": measure_eval}


# -- per-layer metrics --------------------------------------------------------------------

# Per-layer times: metric name -> (span name, column of the span table).
LAYER_TIMES = {
    "autodiff.backward_s": ("autodiff.backward", "total_s"),
    "autodiff.topo_order_s": ("autodiff.topo_order", "total_s"),
    "encoder.text_fwd_s": ("encoder.text_fwd", "total_s"),
    "encoder.image_fwd_s": ("encoder.image_fwd", "total_s"),
    "encoder.layer_fwd_s": ("encoder.layer_fwd", "total_s"),
    "encoder.attention_fwd_s": ("encoder.attention_fwd", "total_s"),
    "encoder.ffn_fwd_s": ("encoder.layer_fwd", "self_s"),
    "encoder.embed_tokens_s": ("encoder.embed_tokens", "total_s"),
    "encoder.spatial_embed_s": ("encoder.spatial_embed", "total_s"),
    "encoder.normalize_boxes_s": ("encoder.normalize_boxes", "total_s"),
    "head.logits_s": ("head.logits", "total_s"),
    "head.extract_s": ("head.extract", "total_s"),
    "head.bce_s": ("head.bce", "total_s"),
    "head.rank_s": ("head.rank", "total_s"),
    "model.loss_fwd_s": ("model.loss_fwd", "total_s"),
    "model.scores_fwd_s": ("model.scores_fwd", "total_s"),
    "model.init_s": ("model.init", "total_s"),
    "data.collate_s": ("data.collate", "total_s"),
    "data.iou_matrix_s": ("data.iou_matrix", "total_s"),
    "data.parse_dataset_s": ("data.parse_dataset", "total_s"),
    "data.load_feature_file_s": ("data.load_feature_file", "total_s"),
    "training.clip_s": ("training.clip", "total_s"),
    "training.adam_s": ("training.adam", "total_s"),
    "training.checkpoint_save_s": ("training.checkpoint_save", "total_s"),
    "training.checkpoint_load_s": ("training.checkpoint_load", "total_s"),
    "training.model_from_checkpoint_s": ("training.model_from_checkpoint", "total_s"),
    "evaluate.collect_s": ("evaluate.collect", "total_s"),
    "evaluate.recall_at_k_s": ("evaluate.recall_at_k", "total_s"),
    "evaluate.upper_bound_s": ("evaluate.upper_bound", "total_s"),
    "evaluate.per_type_s": ("evaluate.per_type", "total_s"),
}


def _exact_counts(agg: dict, facts: dict) -> dict:
    """The dagger counts of one traced unit; they must repeat exactly."""
    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "autodiff.graph_nodes_per_step": ratio(agg.get("autodiff.topo_order", {}).get("value", 0),
                                               facts["steps"]),
        "head.calls_per_batch": ratio(calls("head.logits"), calls("model.scores_fwd")),
        "data.label_positives_per_phrase": ratio(calls("data.label_positives"), facts["phrases"]),
        "evaluate.iou_calls_per_entity": ratio(calls("evaluate.iou_matrix"), facts["entities"]),
        "training.checkpoint_bytes_written": agg.get("training.checkpoint_save", {}).get("value", 0),
    }


# Checkpoint manifests carry the run history, so the bytes written grow a
# little each epoch; this count repeats between runs of the same inputs
# (checked through the ledger) but not between the units of one run.
GROWING_COUNTS = {"training.checkpoint_bytes_written"}


def _median_table(aggs: list[dict]) -> dict:
    names = sorted({n for agg in aggs for n in agg})
    return {n: {col: statistics.median(agg.get(n, {}).get(col, 0) for agg in aggs)
                for col in ("total_s", "self_s", "calls")} for n in names}


def layer_report(run: Run) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced units, set-up layers from
    the traced set-ups) and the full span table."""
    table = _median_table(run.traced_setups)
    for name, row in _median_table([agg for agg, _ in run.traced_units]).items():
        old = table.setdefault(name, dict.fromkeys(row, 0))
        for col, v in row.items():
            old[col] += v
    metrics = {m: (table.get(span, {}).get(col, 0.0), "s") for m, (span, col) in LAYER_TIMES.items()}
    counts = [_exact_counts(agg, facts) for agg, facts in run.traced_units]
    for name in counts[0]:
        values = [c[name] for c in counts]
        if name not in GROWING_COUNTS:
            run.check(len(set(values)) == 1,
                      f"count {name} differs between traced units: {values}")
        metrics[name] = (statistics.median(values), "count")
    metrics["tracing.overhead_frac"] = (
        statistics.median(run.traced_walls) / statistics.median(run.untraced_walls) - 1.0,
        "ratio")
    units = min(len(run.traced_walls), len(run.untraced_walls))
    if units < OVERHEAD_MIN_UNITS:
        run.notes.append(f"tracing.overhead_frac is unresolved on this workload: it compares "
                         f"{len(run.traced_walls)} traced with {len(run.untraced_walls)} untraced "
                         f"units, and lies within the run-to-run drift of the host")
    return metrics, table


# -- environment ----------------------------------------------------------------------------


def _openblas_threads():
    """Thread count reported by the loaded OpenBLAS library, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "ctxground": os.path.dirname(ctxground.__file__),
    }


# -- entry point --------------------------------------------------------------------------


def measure(a) -> dict:
    sizes = (SMOKE if a.smoke else FULL)[a.workload]
    run = Run(trace=bool(a.trace))
    metrics, out = MEASURE[a.workload](a, run, sizes)
    if a.trace:
        if out and run.traced_units and run.untraced_walls:
            metrics, out["layers"] = layer_report(run)
            out["fingerprint"]["exact"]["dagger"] = {
                n: v for n, (v, unit) in metrics.items() if unit == "count"}
        else:
            metrics = {}
    elif metrics:
        metrics["iter_p50_rel"] = (statistics.median(run.relative), "ratio")
        metrics["setup_s"] = (statistics.median(run.setup_s), "s")
        metrics["failed_frac"] = (run.failed / max(run.attempted, 1), "ratio")
    if metrics:
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    out.update(metrics=metrics, attempted=run.attempted, failed=run.failed, errors=run.errors,
               notes=run.notes, env=environment())
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("phase", choices=("generate", "measure"))
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", type=Path, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args(argv)
    if a.phase == "generate":
        generate(a.workload, a.seed, a.dir, a.smoke)
        return 0
    result = measure(a)
    a.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
