import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxground.autodiff import NonFiniteError, backward, parameter
from ctxground.data import SyntheticSpec, collate_batch, generate_synthetic
from ctxground.encoder import BranchConfig
from ctxground.model import GroundingModel, ModelConfig
from ctxground.training import (
    AdamState,
    Checkpoint,
    TrainConfig,
    adam_step,
    clip_global_norm,
    fit,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
    train_step,
)
from ctxground.data import FormatError
from ctxground import autodiff, training

from fuzzing import mutate
from oracles import adam_ref


def tiny_config(dropout=0.0):
    return ModelConfig(
        vocab_size=12, feature_dim=6, d_joint=8,
        text=BranchConfig(num_layers=1, num_heads=2, hidden_dim=8,
                          dropout_p=dropout, max_positions=10),
        image=BranchConfig(num_layers=1, num_heads=2, hidden_dim=8,
                           dropout_p=dropout, use_spatial=True),
    )


def tiny_records(num_samples=8, seed=4):
    return generate_synthetic(SyntheticSpec(
        seed=seed, num_samples=num_samples, vocab_size=12, tokens_per_sample=5,
        objects_per_sample=4, entities_per_sample=2, d_feat=6,
        entity_vocab_size=3, image_size=32))


def tiny_model(dtype=np.float32, seed=0, dropout=0.0):
    return GroundingModel.initialize(tiny_config(dropout), seed=seed, dtype=dtype,
                                     init_std=0.5)


# -- config ---------------------------------------------------------------------


def test_train_config_default_protocol():
    cfg = TrainConfig()
    assert cfg.learning_rate == 5e-5
    assert cfg.clip_norm == 0.25
    assert cfg.batch_size == 256
    assert cfg.accumulation_steps == 2
    assert cfg.micro_batch_size == 128
    assert cfg.max_epochs == 10
    assert cfg.dropout_p == 0.4


def test_train_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        TrainConfig(batch_size=10, accumulation_steps=3)
    with pytest.raises(ValueError, match="positive"):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="patience"):
        TrainConfig(patience=-1)


def test_train_config_dict_round_trip():
    cfg = TrainConfig(batch_size=32, accumulation_steps=2, seed=5)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg
    assert cfg.to_dict()["micro_batch_size"] == 16
    # the derived micro_batch_size in a stored dict is dropped, not checked
    stored = {"learning_rate": 5e-05, "clip_norm": 0.25, "batch_size": 32,
              "micro_batch_size": 16, "accumulation_steps": 2, "max_epochs": 10,
              "patience": 3, "seed": 5, "dropout_p": 0.4}
    assert cfg.to_dict() == stored
    assert TrainConfig.from_dict(stored) == cfg


# -- gradient clipping --------------------------------------------------------------


def test_clip_below_threshold_is_identity():
    grads = {"w": np.array([0.06, 0.08], dtype=np.float32)}
    out, norm = clip_global_norm(grads, 0.25)
    np.testing.assert_allclose(norm, 0.1)
    np.testing.assert_array_equal(out["w"], grads["w"])


def test_clip_rescales_to_max_norm_preserving_direction():
    grads = {"w": np.array([3.0, 4.0])}
    out, norm = clip_global_norm(grads, 0.25)
    assert norm == 5.0
    np.testing.assert_allclose(np.linalg.norm(out["w"]), 0.25, rtol=1e-12)
    cos = out["w"] @ grads["w"] / (np.linalg.norm(out["w"]) * np.linalg.norm(grads["w"]))
    assert abs(cos - 1.0) < 1e-9


def test_clip_is_global_over_all_parameters():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    out, norm = clip_global_norm(grads, 1.0)
    assert norm == 5.0
    np.testing.assert_allclose(math.sqrt(sum(float(g @ g) for g in out.values())), 1.0)


def test_clip_rejects_non_finite():
    with pytest.raises(NonFiniteError, match="w"):
        clip_global_norm({"w": np.array([np.inf])}, 0.25)


def test_post_clip_norm_never_exceeds_max():
    rng = np.random.default_rng(0)
    for _ in range(20):
        grads = {str(i): rng.normal(size=rng.integers(1, 5)) for i in range(3)}
        out, _ = clip_global_norm(grads, 0.25)
        total = math.sqrt(sum(float(g @ g) for g in out.values()))
        assert total <= 0.25 + 1e-12


def test_clip_names_the_non_finite_parameter_after_the_first():
    rng = np.random.default_rng(5)
    for bad in (np.nan, np.inf, -np.inf):
        grads = {n: rng.normal(size=training._BLOCK + 7).astype(np.float32)
                 for n in ("first", "second", "third")}
        grads["third"][training._BLOCK + 3] = bad
        with pytest.raises(NonFiniteError, match="'third'"):
            clip_global_norm(grads, 0.25)
        grads["third"][:] = 1.0
        grads["second"][0] = bad
        with pytest.raises(NonFiniteError, match="'second'"):
            clip_global_norm(grads, 0.25)


def test_clip_scales_in_place():
    grads = {"w": np.array([3.0, 4.0], dtype=np.float32)}
    before = grads["w"]
    out, _ = clip_global_norm(grads, 1.0)
    assert out["w"] is before
    np.testing.assert_array_equal(before, np.array([3.0, 4.0], dtype=np.float32) * 0.2)


# -- adam ----------------------------------------------------------------------------


def test_adam_zero_gradient_leaves_fresh_params_unchanged():
    p = parameter(np.array([1.0, 2.0], dtype=np.float32))
    named = {"p": p}
    state = AdamState.init(named)
    adam_step(named, {"p": np.zeros(2, dtype=np.float32)}, state, lr=0.1)
    assert state.step == 1
    np.testing.assert_array_equal(p.values, [1.0, 2.0])


def test_adam_first_step_magnitude_is_about_lr():
    p = parameter(np.array([1.0], dtype=np.float64))
    named = {"p": p}
    state = AdamState.init(named)
    adam_step(named, {"p": np.array([0.37])}, state, lr=1e-3)
    np.testing.assert_allclose(abs(1.0 - p.values[0]), 1e-3, rtol=1e-6)


def test_adam_matches_scalar_reference_over_steps():
    p = parameter(np.array([0.5]))
    named = {"p": p}
    state = AdamState.init(named)
    want, m, v = 0.5, 0.0, 0.0
    rng = np.random.default_rng(1)
    for step in range(1, 6):
        g = float(rng.normal())
        adam_step(named, {"p": np.array([g])}, state, lr=0.01)
        want, m, v = adam_ref(want, g, m, v, step, lr=0.01)
        np.testing.assert_allclose(p.values[0], want, atol=1e-14)


def test_adam_two_identical_runs_identical_trajectories():
    def run():
        model = tiny_model()
        records = tiny_records()
        cfg = TrainConfig(learning_rate=1e-3, clip_norm=0.25, batch_size=4,
                          accumulation_steps=2, max_epochs=3, patience=10, seed=5,
                          dropout_p=0.0)
        result = fit(model, records, records, cfg)
        return result.best.params

    a, b = run(), run()
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def _adam_whole_array(p, g, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference for the blocked loop: the Adam formula on whole arrays."""
    correct1 = 1.0 - beta1 ** step
    correct2 = 1.0 - beta2 ** step
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * (g * g)
    update = lr * (m / correct1) / (np.sqrt(v / correct2) + eps)
    return p - update.astype(p.dtype), m, v


def test_blocked_adam_is_bit_identical_to_whole_array_formula():
    size = 2 * training._BLOCK + 123          # several blocks, the last one partial
    rng = np.random.default_rng(8)
    start = rng.normal(size=(3, size)).astype(np.float32)
    p = parameter(start.copy())
    small = parameter(np.array([0.25, -0.5]))    # float64: its own scalar dtype
    named = {"p": p, "small": small}
    state = AdamState.init(named)
    want = {n: (t.values.copy(), np.zeros_like(t.values), np.zeros_like(t.values))
            for n, t in named.items()}
    for step in range(1, 6):
        grads = {n: (rng.normal(size=t.shape) * 10.0 ** -step).astype(t.dtype)
                 for n, t in named.items()}
        adam_step(named, grads, state, lr=1e-3)
        for n, t in named.items():
            pw, mw, vw = want[n]
            want[n] = _adam_whole_array(pw, grads[n], mw, vw, step, 1e-3)
            assert np.array_equal(t.values, want[n][0]), (n, step)
            assert np.array_equal(state.m[n], want[n][1]), (n, step)
            assert np.array_equal(state.v[n], want[n][2]), (n, step)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_grad_scale_equals_scaling_the_gradient_first(dtype):
    size = training._BLOCK + 77
    rng = np.random.default_rng(12)
    start = rng.normal(size=size).astype(dtype)
    inside, first = parameter(start.copy()), parameter(start.copy())
    state_inside, state_first = AdamState.init({"p": inside}), AdamState.init({"p": first})
    for scale in (0.3, 0.123456789, 1.0):
        g = rng.normal(size=size).astype(dtype)
        g_inside, g_first = g.copy(), g.copy()
        adam_step({"p": inside}, {"p": g_inside}, state_inside, lr=1e-3, grad_scale=scale)
        g_first *= scale
        adam_step({"p": first}, {"p": g_first}, state_first, lr=1e-3)
        assert np.array_equal(g_inside, g_first)
        assert np.array_equal(inside.values, first.values)
        assert np.array_equal(state_inside.m["p"], state_first.m["p"])
        assert np.array_equal(state_inside.v["p"], state_first.v["p"])


def test_adam_rejects_non_contiguous_parameter():
    base = np.ones((4, 6), dtype=np.float32)
    p = parameter(base)
    p.values = base[:, ::2]
    named = {"p": p}
    state = AdamState.init(named)
    with pytest.raises(ValueError, match="C-contiguous"):
        adam_step(named, {"p": np.ones((4, 3), dtype=np.float32)}, state, lr=0.1)
    np.testing.assert_array_equal(base, 1.0)


def test_adam_rejects_mixed_dtypes():
    p = parameter(np.ones(3, dtype=np.float32))
    named = {"p": p}
    with pytest.raises(ValueError, match="dtype"):
        adam_step(named, {"p": np.ones(3)}, AdamState.init(named), lr=0.1)


def test_refused_adam_step_changes_nothing():
    named = {"a": parameter(np.ones(3, dtype=np.float32)),
             "b": parameter(np.ones((2, 2), dtype=np.float32))}
    state = AdamState.init(named)
    adam_step(named, {n: np.full(t.shape, 0.5, dtype=np.float32) for n, t in named.items()},
              state, lr=0.1)
    before = {n: (t.values.copy(), state.m[n].copy(), state.v[n].copy())
              for n, t in named.items()}
    with pytest.raises(ValueError, match="gradient shape"):
        adam_step(named, {"a": np.ones(3, dtype=np.float32), "b": np.ones(4, dtype=np.float32)},
                  state, lr=0.1)
    assert state.step == 1
    for n, t in named.items():
        assert np.array_equal(t.values, before[n][0]), n
        assert np.array_equal(state.m[n], before[n][1]), n
        assert np.array_equal(state.v[n], before[n][2]), n


def _split_layout(dtype, seed=0):
    """Parameters whose concatenated midpoint lies inside "big", which
    spans several Adam blocks, the last one partial."""
    block = training._ADAM_BLOCK
    rng = np.random.default_rng(seed)
    return {n: parameter(rng.normal(size=shape).astype(dtype))
            for n, shape in (("first", (1000,)), ("big", (3, block + 77)),
                             ("last", (block // 2 + 5,)))}


def _on_cpus(monkeypatch, count):
    monkeypatch.setattr(training.os, "sched_getaffinity", lambda pid: set(range(count)))


def _adam_threads(monkeypatch, named, cpus):
    """Run one `adam_step` on `cpus` CPUs and return, per thread that
    updated a block, the (name, lo, hi) element ranges it updated."""
    ranges = {}
    real_blocks = training._adam_blocks

    def recording_blocks(blocks, typed, scaled):
        mine = ranges.setdefault(threading.get_ident(), [])
        for name, pb, *_ in blocks:
            lo = (pb.ctypes.data - named[name].values.ctypes.data) // pb.itemsize
            mine.append((name, lo, lo + pb.size))
        real_blocks(blocks, typed, scaled)

    with monkeypatch.context() as mp:
        _on_cpus(mp, cpus)
        mp.setattr(training, "_adam_blocks", recording_blocks)
        adam_step(named, {n: np.ones(t.shape, dtype=t.dtype) for n, t in named.items()},
                  AdamState.init(named), lr=1e-3)
    return ranges


def _covers_each_element_once(named, ranges):
    for n, t in named.items():
        spans = sorted((lo, hi) for name, lo, hi in ranges if name == n)
        assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]], n
        assert spans[-1][1] == t.values.size, n


def test_split_adam_cuts_inside_a_parameter_at_its_block_boundary(monkeypatch):
    block = training._ADAM_BLOCK
    named = _split_layout(np.float32)
    total = sum(t.values.size for t in named.values())
    ranges = _adam_threads(monkeypatch, named, 2)
    head, tail = ranges.pop(threading.get_ident()), ranges.popitem()[1]
    assert not ranges
    # The head ends with the block that first reaches half the elements,
    # inside "big", which holds the midpoint; the tail starts right after.
    assert [r[0] for r in head] == ["first", "big", "big"]
    assert [r[0] for r in tail] == ["big", "big", "last"]
    (_, _, cut), (name, after, _) = head[-1], tail[0]
    assert name == "big" and cut == after == 2 * block
    done = sum(hi - lo for _, lo, hi in head)
    assert done - block < total / 2 <= done
    _covers_each_element_once(named, head + tail)
    # One CPU, or under two blocks of work: the caller's thread updates everything.
    for cpus, layout in ((1, named), (2, {"a": parameter(np.ones(block, dtype=np.float32)),
                                          "b": parameter(np.ones(block - 1, dtype=np.float32))})):
        ranges = _adam_threads(monkeypatch, layout, cpus)
        assert list(ranges) == [threading.get_ident()]
        _covers_each_element_once(layout, ranges[threading.get_ident()])


def _counting_threads(monkeypatch, started):
    """Make `threading.Thread` record each thread it starts in `started`."""
    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(training.threading, "Thread", Counted)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_split_adam_is_bit_identical_to_serial_adam(dtype, monkeypatch):
    def run(cpus):
        named = _split_layout(dtype)
        state = AdamState.init(named)
        rng = np.random.default_rng(3)
        helpers, scaled = [], []
        with monkeypatch.context() as mp:
            _on_cpus(mp, cpus)
            _counting_threads(mp, helpers)
            for scale in (1.0, 0.37, 0.123456789):
                grads = {n: rng.normal(size=t.shape).astype(dtype) for n, t in named.items()}
                adam_step(named, grads, state, lr=1e-3, grad_scale=scale)
                scaled.append(grads)
        return named, state, scaled, len(helpers)

    split_named, split_state, split_grads, split_helpers = run(2)
    named, state, grads, helpers = run(1)   # forced to one CPU: the serial path
    assert (split_helpers, helpers) == (3, 0)
    assert split_state.step == state.step == 3
    for n, t in named.items():
        assert np.array_equal(split_named[n].values, t.values), n
        assert np.array_equal(split_state.m[n], state.m[n]), n
        assert np.array_equal(split_state.v[n], state.v[n]), n
        for split_g, g in zip(split_grads, grads):
            assert np.array_equal(split_g[n], g[n]), n


@pytest.mark.parametrize("bad, expected", [
    ({"first": np.nan, "last": np.nan}, "first"),
    ({"big": np.nan, "last": np.inf}, "big"),
    ({"last": np.inf}, "last"),
], ids=["nan-both-halves", "nan-head-inf-tail", "inf-tail-only"])
def test_split_adam_non_finite_names_the_earlier_parameter(bad, expected, monkeypatch):
    _on_cpus(monkeypatch, 2)
    named = _split_layout(np.float32)
    grads = {n: np.zeros(t.shape, dtype=np.float32) for n, t in named.items()}
    for name, value in bad.items():
        grads[name].reshape(-1)[-1] = value
    # Ignored by the caller's errstate, which the helper's half shares, an
    # Inf reaches the finite check instead of failing as a RuntimeWarning.
    with np.errstate(invalid="ignore"), \
            pytest.raises(NonFiniteError, match=f"parameter '{expected}'"):
        adam_step(named, grads, AdamState.init(named), lr=1e-3)


@pytest.mark.parametrize("bad", [None, "first", "last"],
                         ids=["no-error", "head-raises", "tail-raises"])
def test_split_adam_leaves_no_thread_running(bad, monkeypatch):
    _on_cpus(monkeypatch, 2)
    helpers = []
    _counting_threads(monkeypatch, helpers)
    named = _split_layout(np.float32)
    grads = {n: np.ones(t.shape, dtype=np.float32) for n, t in named.items()}
    before = threading.active_count()
    if bad is None:
        adam_step(named, grads, AdamState.init(named), lr=1e-3)
    else:
        grads[bad][0] = np.nan
        with pytest.raises(NonFiniteError, match=f"parameter '{bad}'"):
            adam_step(named, grads, AdamState.init(named), lr=1e-3)
    assert len(helpers) == 1 and not helpers[0].is_alive()
    assert threading.active_count() == before


def test_concurrent_split_adam_steps_equal_serial_ones(monkeypatch):
    _on_cpus(monkeypatch, 2)

    def run(named):
        state = AdamState.init(named)
        for step in range(2):
            adam_step(named, {n: np.full(t.shape, step + 0.5, dtype=t.dtype)
                              for n, t in named.items()}, state, lr=1e-3)

    models = [_split_layout(np.float32, seed) for seed in range(4)]
    threads = [threading.Thread(target=run, args=(named,)) for named in models]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    _on_cpus(monkeypatch, 1)
    for seed, named in enumerate(models):
        serial = _split_layout(np.float32, seed)
        run(serial)
        for n, t in named.items():
            assert np.array_equal(t.values, serial[n].values), (seed, n)


def test_split_adam_runs_in_a_forked_child():
    # A child forked after a split step, with the parent's helper gone,
    # starts its own and finishes its split step.
    script = """
import os, signal, numpy as np
from ctxground import training
from ctxground.autodiff import parameter
os.sched_getaffinity = lambda pid: {0, 1}  # split even where this process may use one CPU
size = 3 * training._ADAM_BLOCK
named = {"p": parameter(np.ones(size, dtype=np.float32))}
state = training.AdamState.init(named)
training.adam_step(named, {"p": np.ones(size, dtype=np.float32)}, state, lr=0.1)
pid = os.fork()
if pid == 0:
    signal.alarm(30)  # a child stuck on a lost helper ends instead of outliving the test
    training.adam_step(named, {"p": np.ones(size, dtype=np.float32)}, state, lr=0.1)
    os._exit(0 if state.step == 2 else 1)
_, status = os.waitpid(pid, 0)
assert os.waitstatus_to_exitcode(status) == 0
"""
    env = {**os.environ, "PYTHONPATH": str(Path(training.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, timeout=60,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# -- train_step ------------------------------------------------------------------------


def test_single_micro_batch_is_ordinary_step():
    records = tiny_records(4)
    batch = collate_batch(records)
    model_a = tiny_model(dtype=np.float64, seed=2)
    model_b = tiny_model(dtype=np.float64, seed=2)
    cfg = TrainConfig(learning_rate=1e-3, clip_norm=0.25, batch_size=4,
                      accumulation_steps=1, max_epochs=1, dropout_p=0.0)
    state_a = AdamState.init(model_a.named_parameters())
    metrics = train_step([batch], model_a, state_a, cfg, np.random.default_rng(0))
    assert metrics.grad_norm > 0
    # manual: one backward, clip, adam
    from ctxground.autodiff import backward
    named_b = model_b.named_parameters()
    loss, _ = model_b.batch_loss(batch)
    backward(loss)
    grads = {n: t.grad.copy() for n, t in named_b.items() if t.grad is not None}
    grads.update({n: np.zeros_like(t.values) for n, t in named_b.items()
                  if t.grad is None})
    clipped, _ = clip_global_norm(grads, cfg.clip_norm)
    adam_step(named_b, clipped, AdamState.init(named_b), cfg.learning_rate)
    for name, t in model_a.named_parameters().items():
        np.testing.assert_array_equal(t.values, named_b[name].values, err_msg=name)


@pytest.mark.parametrize("accumulation", [1, 2])
def test_train_steps_equal_fresh_gradients_clipped_then_adam(accumulation):
    # Reused gradient arrays and the clip scale applied inside the Adam pass
    # give the bits of freshly allocated gradients, clip_global_norm and a
    # default-scale adam_step, step after step.
    records = tiny_records(8, seed=9)
    batches = [collate_batch(records[i:i + 2]) for i in range(0, 8, 2)]
    cfg = TrainConfig(learning_rate=1e-2, clip_norm=0.25, batch_size=2 * accumulation,
                      accumulation_steps=accumulation, max_epochs=1, dropout_p=0.1)
    model, ref = tiny_model(seed=4, dropout=0.1), tiny_model(seed=4, dropout=0.1)
    named, ref_named = model.named_parameters(), ref.named_parameters()
    state, ref_state = AdamState.init(named), AdamState.init(ref_named)
    rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
    for step in range(3):
        group = [batches[(step * accumulation + k) % len(batches)] for k in range(accumulation)]
        metrics = train_step(group, model, state, cfg, rng)

        for t in ref_named.values():
            t.grad = None  # no array kept: backward allocates fresh gradients
        losses = []
        for mb in group:
            loss, _ = ref.batch_loss(mb, rng=ref_rng)
            backward(loss)
            losses.append(loss.item())
        grads = {n: np.zeros_like(t.values) if t.grad is None else t.grad
                 for n, t in ref_named.items()}
        for g in grads.values():
            g *= 1.0 / accumulation
        _, norm = clip_global_norm(grads, cfg.clip_norm)
        adam_step(ref_named, grads, ref_state, cfg.learning_rate)

        assert norm > cfg.clip_norm  # clipping is active
        assert metrics.grad_norm == norm and metrics.loss == float(np.mean(losses))
        for name, t in named.items():
            assert t.dtype == np.float32
            assert np.array_equal(t.values, ref_named[name].values), (step, name)
            assert np.array_equal(state.m[name], ref_state.m[name]), (step, name)
            assert np.array_equal(state.v[name], ref_state.v[name]), (step, name)


def test_train_steps_reuse_each_parameter_gradient_array(monkeypatch):
    # Every parameter's first gradient of a step lands in the array its
    # first step allocated; no intermediate node of a graph gets one of them.
    records = tiny_records(8, seed=9)
    batches = [collate_batch(records[i:i + 2]) for i in range(0, 8, 2)]
    cfg = TrainConfig(learning_rate=1e-2, batch_size=4, accumulation_steps=2,
                      max_epochs=1, dropout_p=0.1)
    model = tiny_model(seed=4, dropout=0.1)
    named = model.named_parameters()
    seen = []  # per backward: each parameter's gradient array, and the intermediates

    def recording_backward(loss):
        backward(loss)
        nodes = autodiff.topo_order(loss)
        seen.append(({n: t.grad for n, t in named.items()},
                     [t for t in nodes if all(t is not p for p in named.values())]))

    monkeypatch.setattr(training, "backward", recording_backward)
    state, rng = AdamState.init(named), np.random.default_rng(6)
    for step in range(3):
        train_step(batches[2 * (step % 2):2 * (step % 2) + 2], model, state, cfg, rng)
    assert len(seen) == 6
    first = seen[0][0]
    assert all(g is not None for g in first.values())
    for grads, _ in seen:
        assert all(grads[n] is first[n] for n in named)
    for _, intermediates in seen:
        for node in intermediates:
            assert node._parked is None
            assert all(node.grad is not g for g in first.values())


@pytest.mark.parametrize("clip_norm,clips", [(0.25, True), (1e6, False)])
def test_step_metrics_record_the_clip_scale(clip_norm, clips):
    model = tiny_model(seed=2)
    cfg = TrainConfig(learning_rate=1e-3, clip_norm=clip_norm, batch_size=4,
                      accumulation_steps=1, max_epochs=1, dropout_p=0.0)
    metrics = train_step([collate_batch(tiny_records(4))], model,
                         AdamState.init(model.named_parameters()), cfg,
                         np.random.default_rng(0))
    assert (metrics.grad_norm > clip_norm) == clips
    assert metrics.clip_scale == (clip_norm / metrics.grad_norm if clips else 1.0)


def test_accumulation_matches_combined_batch():
    records = tiny_records(8, seed=6)
    half_a = collate_batch(records[:4])
    half_b = collate_batch(records[4:])
    combined = collate_batch(records)

    model_acc = tiny_model(dtype=np.float64, seed=3)
    model_one = tiny_model(dtype=np.float64, seed=3)
    cfg_acc = TrainConfig(learning_rate=1e-3, clip_norm=100.0, batch_size=8,
                          accumulation_steps=2, max_epochs=1, dropout_p=0.0)
    cfg_one = TrainConfig(learning_rate=1e-3, clip_norm=100.0, batch_size=8,
                          accumulation_steps=1, max_epochs=1, dropout_p=0.0)
    m_acc = train_step([half_a, half_b], model_acc,
                       AdamState.init(model_acc.named_parameters()), cfg_acc,
                       np.random.default_rng(0))
    m_one = train_step([combined], model_one,
                       AdamState.init(model_one.named_parameters()), cfg_one,
                       np.random.default_rng(0))
    # same entity count per micro-batch makes mean-of-means the overall mean
    np.testing.assert_allclose(m_acc.loss, m_one.loss, atol=1e-12)
    params_a = model_acc.named_parameters()
    params_b = model_one.named_parameters()
    for name in params_a:
        np.testing.assert_allclose(params_a[name].values, params_b[name].values,
                                   atol=1e-6, err_msg=name)


def test_step_loss_is_mean_of_micro_losses():
    records = tiny_records(8, seed=7)
    half_a = collate_batch(records[:4])
    half_b = collate_batch(records[4:])
    model = tiny_model(dtype=np.float64, seed=1)
    la, _ = model.batch_loss(half_a)
    lb, _ = model.batch_loss(half_b)
    cfg = TrainConfig(learning_rate=1e-3, clip_norm=0.25, batch_size=8,
                      accumulation_steps=2, max_epochs=1, dropout_p=0.0)
    metrics = train_step([half_a, half_b], model,
                         AdamState.init(model.named_parameters()), cfg,
                         np.random.default_rng(0))
    np.testing.assert_allclose(metrics.loss, (la.item() + lb.item()) / 2.0, atol=1e-12)


def test_train_step_rejects_empty_group():
    model = tiny_model()
    cfg = TrainConfig(batch_size=2, accumulation_steps=1, max_epochs=1)
    with pytest.raises(ValueError, match="micro-batch"):
        train_step([], model, AdamState.init(model.named_parameters()), cfg,
                   np.random.default_rng(0))


# -- fit -------------------------------------------------------------------------------


def fit_cfg(**overrides):
    base = dict(learning_rate=5e-4, clip_norm=0.25, batch_size=4,
                accumulation_steps=2, max_epochs=4, patience=10, seed=3,
                dropout_p=0.0)
    base.update(overrides)
    return TrainConfig(**base)


def test_fit_history_and_best_metric():
    model = tiny_model()
    records = tiny_records()
    result = fit(model, records, records, fit_cfg())
    assert len(result.history) <= 4
    assert [h["epoch"] for h in result.history] == list(range(len(result.history)))
    best = max(h["dev_recall_at_1"] for h in result.history)
    assert result.best.best_metric == best


def test_fit_collates_each_step_right_before_it(monkeypatch):
    real_collate, real_step = training.collate_batch, training.train_step
    events = []

    def logging_collate(records):
        batch = real_collate(records)
        events.append(("collate", batch.size))
        return batch

    def logging_step(micro_batches, *args):
        events.append(("step", type(micro_batches), [mb.size for mb in micro_batches]))
        return real_step(micro_batches, *args)

    monkeypatch.setattr(training, "collate_batch", logging_collate)
    monkeypatch.setattr(training, "train_step", logging_step)
    records = tiny_records(7)  # steps of 2+2 and 2+1 samples: a short trailing group
    fit(tiny_model(), records, records, fit_cfg(max_epochs=2, patience=10))
    epoch = [("collate", 2), ("collate", 2), ("step", list, [2, 2]),
             ("collate", 2), ("collate", 1), ("step", list, [2, 1])]
    assert events == epoch * 2


def test_fit_refuses_a_checkpointed_run_it_cannot_save_before_any_step(monkeypatch, tmp_path):
    steps = []
    monkeypatch.setattr(training, "train_step", lambda *args: steps.append(1))
    records = tiny_records()
    ckpt_dir = tmp_path / "ckpt"
    with pytest.raises(ValueError, match="'text.embeddings.token_table' is float64"):
        fit(tiny_model(dtype=np.float64), records, records, fit_cfg(), checkpoint_dir=ckpt_dir)
    assert steps == []
    assert not ckpt_dir.exists()


def test_resume_of_finished_run_returns_best_checkpoint_with_full_history(tmp_path):
    records = tiny_records(8, seed=13)
    cfg = fit_cfg(max_epochs=4, patience=50)
    first = fit(tiny_model(seed=11), records, records, cfg, checkpoint_dir=tmp_path)
    assert load_checkpoint(tmp_path / training.LAST_CHECKPOINT).epoch == cfg.max_epochs - 1
    resumed = fit(tiny_model(seed=11), records, records, cfg,
                  checkpoint_dir=tmp_path, resume=True)
    on_disk = load_checkpoint(tmp_path / training.BEST_CHECKPOINT)
    assert (resumed.best.best_metric, resumed.best.best_epoch, resumed.best.epoch) == \
        (on_disk.best_metric, on_disk.best_epoch, on_disk.epoch) == \
        (first.best.best_metric, first.best.best_epoch, first.best.epoch)
    for name, arr in on_disk.params.items():
        assert resumed.best.params[name].tobytes() == arr.tobytes(), name
    assert resumed.best.history == resumed.history == first.history
    assert len(first.history) == cfg.max_epochs


def test_fit_patience_zero_stops_at_first_non_improvement():
    model = tiny_model()
    records = tiny_records()
    result = fit(model, records, records, fit_cfg(max_epochs=30, patience=0))
    r1 = [h["dev_recall_at_1"] for h in result.history]
    stop = next((i for i in range(1, len(r1)) if r1[i] <= max(r1[:i])), None)
    if stop is not None:
        assert len(r1) == stop + 1


def test_fit_training_loss_decreases():
    model = tiny_model()
    records = tiny_records(16, seed=11)
    result = fit(model, records, records, fit_cfg(max_epochs=6, patience=50))
    losses = [h["train_loss"] for h in result.history]
    assert losses[4] < losses[0]


def test_fit_rejects_empty_sets():
    model = tiny_model()
    with pytest.raises(ValueError):
        fit(model, [], tiny_records(), fit_cfg())


# -- checkpoints --------------------------------------------------------------------------


def test_checkpoint_round_trip_bit_identical(tmp_path):
    model = tiny_model(seed=9)
    named = model.named_parameters()
    state = AdamState.init(named)
    state.step = 7
    state.m = {n: np.full_like(t.values, 0.5) for n, t in named.items()}
    rng = np.random.default_rng(3)
    rng.random(10)
    ckpt = Checkpoint(
        params={n: t.values.copy() for n, t in named.items()},
        config={"model": model.config.to_dict(), "train": TrainConfig().to_dict()},
        epoch=4, best_metric=62.5, best_epoch=2,
        optimizer=state, rng_state=rng.bit_generator.state,
        history=[{"epoch": 0, "train_loss": 0.7, "dev_recall_at_1": 10.0}],
    )
    path = tmp_path / "model.gckp"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert set(loaded.params) == set(ckpt.params)
    for name in ckpt.params:
        assert loaded.params[name].tobytes() == ckpt.params[name].tobytes()
        assert loaded.optimizer.m[name].tobytes() == state.m[name].tobytes()
        assert loaded.optimizer.v[name].tobytes() == state.v[name].tobytes()
    assert loaded.optimizer.step == 7
    assert loaded.epoch == 4
    assert loaded.best_metric == 62.5
    assert loaded.best_epoch == 2
    assert loaded.rng_state == ckpt.rng_state
    assert loaded.history == ckpt.history
    assert loaded.config == ckpt.config

    # save -> load -> save produces byte-identical files
    path2 = tmp_path / "again.gckp"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_file_bytes_are_pinned(tmp_path):
    # An F-ordered array (converted on write), C-contiguous arrays (written
    # from their own memory), a 0-d and an empty one, with an optimizer
    # block. The digest pins the file format byte for byte.
    params = {"w": np.arange(6, dtype=np.float32).reshape(2, 3).T * np.float32(0.5),
              "b": np.array([1.5, -2.0, 0.1], dtype=np.float32),
              "s": np.array(0.75, dtype=np.float32), "e": np.zeros((0, 2), dtype=np.float32)}
    assert not params["w"].flags.c_contiguous
    opt = AdamState(m={n: a * np.float32(0.25) for n, a in params.items()},
                    v={n: a * a for n, a in params.items()}, step=3)
    ckpt = Checkpoint(params=params, config={"model": {"d": 3}}, epoch=2, best_metric=12.5,
                      best_epoch=1, optimizer=opt, rng_state={"state": 7},
                      history=[{"epoch": 0, "train_loss": 0.75}])
    path = tmp_path / "pinned.gckp"
    save_checkpoint(ckpt, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "b034e15bd631ff9489f84fcb301b4c50374a66a11f38680fb7580855fcebe282")


def test_checkpoint_rejects_non_float32(tmp_path):
    ckpt = Checkpoint(params={"w": np.zeros(3)}, config={}, epoch=0,
                      best_metric=0.0, best_epoch=0)
    with pytest.raises(ValueError, match="float32"):
        save_checkpoint(ckpt, tmp_path / "bad.gckp")


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.gckp"
    path.write_bytes(b"XXXX" + bytes(32))
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    model = tiny_model()
    named = model.named_parameters()
    ckpt = Checkpoint(params={n: t.values.copy() for n, t in named.items()},
                      config={}, epoch=0, best_metric=0.0, best_epoch=0)
    path = tmp_path / "model.gckp"
    save_checkpoint(ckpt, path)
    (tmp_path / "trunc.gckp").write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(tmp_path / "trunc.gckp")


def test_model_from_checkpoint_restores_behavior(tmp_path):
    model = tiny_model(seed=10)
    records = tiny_records(4, seed=12)
    batch = collate_batch(records)
    loss_before, _ = model.batch_loss(batch)
    named = model.named_parameters()
    ckpt = Checkpoint(params={n: t.values.copy() for n, t in named.items()},
                      config={"model": model.config.to_dict(),
                              "train": TrainConfig().to_dict()},
                      epoch=0, best_metric=0.0, best_epoch=0)
    path = tmp_path / "model.gckp"
    save_checkpoint(ckpt, path)
    restored = model_from_checkpoint(load_checkpoint(path))
    loss_after, _ = restored.batch_loss(batch)
    assert loss_before.item() == loss_after.item()


def _small_checkpoint() -> Checkpoint:
    params = {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
              "b": np.ones(3, dtype=np.float32)}
    state = AdamState(m={n: a * 0.5 for n, a in params.items()},
                      v={n: a * 0.25 for n, a in params.items()}, step=2)
    return Checkpoint(params=params, config={"model": {}}, epoch=1, best_metric=50.0,
                      best_epoch=1, optimizer=state,
                      rng_state=np.random.default_rng(0).bit_generator.state,
                      history=[{"epoch": 0, "train_loss": 0.5, "dev_recall_at_1": 50.0}])


def _split_gckp(blob: bytes) -> tuple[dict, bytes]:
    _, _, manifest_len = training._GCKP_HEADER.unpack_from(blob)
    start = training._GCKP_HEADER.size
    return json.loads(blob[start:start + manifest_len]), blob[start + manifest_len:]


def _join_gckp(manifest, payload: bytes) -> bytes:
    text = json.dumps(manifest).encode("utf-8")
    return training._GCKP_HEADER.pack(b"GCKP", 1, len(text)) + text + payload


def _without(key):
    return lambda m: {k: v for k, v in m.items() if k != key}


def _tensor_field(key, value, tensor="w"):
    return lambda m: {**m, "tensors": [{**t, key: value} if t["name"] == tensor else t
                                       for t in m["tensors"]]}


def _field(key, value):
    return lambda m: {**m, key: value}


def _optimizer_field(key, value):
    return lambda m: {**m, "optimizer": {**m["optimizer"], key: value}}


@pytest.mark.parametrize("edit", [
    pytest.param(_without("tensors"), id="no-tensors"),
    pytest.param(lambda m: [m], id="manifest-is-a-list"),
    pytest.param(_tensor_field("offset", -4), id="negative-offset"),
    pytest.param(_tensor_field("shape", "2,3"), id="string-shape"),
    pytest.param(_without("epoch"), id="no-epoch"),
    pytest.param(lambda m: {**m, "optimizer": _without("beta1")(m["optimizer"])},
                 id="optimizer-without-beta1"),
    pytest.param(_tensor_field("shape", [-1]), id="negative-dim"),
    pytest.param(_field("epoch", -4), id="negative-epoch"),
    pytest.param(_field("best_epoch", -1), id="negative-best-epoch"),
    pytest.param(_optimizer_field("step", -1), id="negative-step"),
    pytest.param(_optimizer_field("beta1", 1.0), id="beta1-one"),
    pytest.param(_optimizer_field("beta2", -0.5), id="negative-beta2"),
    pytest.param(_optimizer_field("eps", 0.0), id="zero-eps"),
    pytest.param(_tensor_field("shape", [4], tensor="adam.m.b"), id="longer-first-moment"),
    pytest.param(_tensor_field("shape", [3, 2], tensor="adam.v.w"), id="transposed-second-moment"),
])
def test_load_checkpoint_rejects_malformed_manifest(tmp_path, edit):
    path = tmp_path / "model.gckp"
    save_checkpoint(_small_checkpoint(), path)
    manifest, payload = _split_gckp(path.read_bytes())
    path.write_bytes(_join_gckp(edit(manifest), payload))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def _with_optimizer(**changes):
    return lambda c: dataclasses.replace(
        c, optimizer=dataclasses.replace(c.optimizer, **changes))


@pytest.mark.parametrize("edit", [
    pytest.param(lambda c: dataclasses.replace(c, epoch=-1), id="negative-epoch"),
    pytest.param(lambda c: dataclasses.replace(c, config=[1]), id="config-is-a-list"),
    pytest.param(lambda c: dataclasses.replace(c, best_metric="50"), id="string-best-metric"),
    pytest.param(lambda c: dataclasses.replace(c, history={}), id="history-is-an-object"),
    pytest.param(_with_optimizer(beta1=1.0), id="beta1-one"),
    pytest.param(_with_optimizer(eps=0.0), id="zero-eps"),
    pytest.param(lambda c: dataclasses.replace(c, optimizer=dataclasses.replace(
        c.optimizer, v={"w": c.optimizer.v["w"]})), id="missing-second-moment"),
    pytest.param(lambda c: dataclasses.replace(c, optimizer=dataclasses.replace(
        c.optimizer, m={**c.optimizer.m, "b": np.ones(4, dtype=np.float32)})),
        id="longer-first-moment"),
])
def test_save_checkpoint_refuses_what_load_would_refuse(tmp_path, edit):
    path = tmp_path / "model.gckp"
    save_checkpoint(_small_checkpoint(), path)
    before = path.read_bytes()
    with pytest.raises(FormatError):
        save_checkpoint(edit(_small_checkpoint()), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.gckp"]


_FUZZ_BLOB = []


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_load_checkpoint_fuzz_raises_only_format_error(data):
    if not _FUZZ_BLOB:
        with tempfile.TemporaryDirectory() as tmp:
            save_checkpoint(_small_checkpoint(), Path(tmp) / "seed.gckp")
            _FUZZ_BLOB.append((Path(tmp) / "seed.gckp").read_bytes())
    blob = mutate(data, _FUZZ_BLOB[0])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.gckp"
        path.write_bytes(blob)
        try:
            load_checkpoint(path)
        except FormatError:
            pass


def test_model_from_checkpoint_adopts_arrays_without_initializing(tmp_path, monkeypatch):
    model = tiny_model(seed=10)
    saved = {n: t.values.copy() for n, t in model.named_parameters().items()}
    path = tmp_path / "model.gckp"
    save_checkpoint(Checkpoint(params=saved, config={"model": model.config.to_dict()},
                               epoch=0, best_metric=0.0, best_epoch=0), path)

    def no_initialize(*args, **kwargs):
        raise AssertionError("model_from_checkpoint drew a random initialization")

    monkeypatch.setattr(GroundingModel, "initialize", no_initialize)
    ckpt = load_checkpoint(path)
    restored = model_from_checkpoint(ckpt)
    named = restored.named_parameters()
    assert list(named) == list(saved)
    for name, t in named.items():
        assert np.array_equal(t.values, saved[name])
        assert t.dtype == np.float32
        assert t.values.flags.c_contiguous and t.values.flags.writeable
        assert t.values is ckpt.params[name]  # adopted, not copied
    grads = {n: np.full_like(t.values, 0.1) for n, t in named.items()}
    adam_step(named, grads, AdamState.init(named), lr=1e-3)
    for name, t in named.items():
        assert not np.array_equal(t.values, saved[name]), name


def test_restore_params_converts_other_dtypes(tmp_path):
    source = tiny_model(seed=10)
    saved = {n: t.values.copy() for n, t in source.named_parameters().items()}
    target = tiny_model(dtype=np.float64, seed=1)
    training._restore_params(target, saved)
    for name, t in target.named_parameters().items():
        assert t.dtype == np.float64
        assert np.array_equal(t.values, saved[name].astype(np.float64))


@pytest.mark.parametrize("edit,message", [
    ("rename", "names do not match"),
    ("reshape", "shape"),
])
def test_model_from_checkpoint_rejects_mismatched_params(edit, message):
    model = tiny_model()
    params = {n: t.values.copy() for n, t in model.named_parameters().items()}
    name = next(iter(params))
    if edit == "rename":
        params["not.a.parameter"] = params.pop(name)
    else:
        params[name] = params[name].reshape(-1)
    ckpt = Checkpoint(params=params, config={"model": model.config.to_dict()},
                      epoch=0, best_metric=0.0, best_epoch=0)
    with pytest.raises(ValueError, match=message):
        model_from_checkpoint(ckpt)


def _bad_branch_key(config):
    config["model"]["text"]["bogus"] = 1
    return config


@pytest.mark.parametrize("edit", [
    lambda config: {},
    lambda config: {"model": {}},
    _bad_branch_key,
    lambda config: {"model": "x"},
], ids=["no-model", "empty-model", "unknown-branch-key", "model-not-object"])
def test_model_from_checkpoint_rejects_bad_config_snapshot(edit):
    model = tiny_model()
    params = {n: t.values.copy() for n, t in model.named_parameters().items()}
    ckpt = Checkpoint(params=params, config=edit({"model": model.config.to_dict()}),
                      epoch=0, best_metric=0.0, best_epoch=0)
    with pytest.raises(FormatError, match="checkpoint config"):
        model_from_checkpoint(ckpt)


def test_split_run_training_equals_uninterrupted(tmp_path):
    records = tiny_records(8, seed=13)

    def run_full():
        model = tiny_model(seed=11)
        return fit(model, records, records, fit_cfg(max_epochs=6, patience=50),
                   checkpoint_dir=tmp_path / "full")

    def run_split():
        model = tiny_model(seed=11)
        fit(model, records, records, fit_cfg(max_epochs=3, patience=50),
            checkpoint_dir=tmp_path / "split")
        model2 = tiny_model(seed=11)
        return fit(model2, records, records, fit_cfg(max_epochs=6, patience=50),
                   checkpoint_dir=tmp_path / "split", resume=True)

    full = run_full()
    split = run_split()
    assert full.history == split.history
    assert full.best.best_metric == split.best.best_metric
    assert full.best.best_epoch == split.best.best_epoch
    for name in full.best.params:
        assert full.best.params[name].tobytes() == split.best.params[name].tobytes(), name
    assert ((tmp_path / "full" / "last.gckp").read_bytes()
            == (tmp_path / "split" / "last.gckp").read_bytes())


@pytest.mark.parametrize("changed, model_dropout, overrides", [
    ("train.learning_rate", 0.0, {"learning_rate": 0.5}),
    ("train.batch_size", 0.0, {"batch_size": 6}),
    ("train.seed", 0.0, {"seed": 99}),
    ("model.text.dropout_p", 0.2, {}),
])
def test_resume_refuses_a_changed_config(tmp_path, changed, model_dropout, overrides):
    records = tiny_records(8, seed=13)
    fit(tiny_model(seed=11), records, records, fit_cfg(max_epochs=2, patience=50),
        checkpoint_dir=tmp_path)
    model = tiny_model(seed=12, dropout=model_dropout)
    before = {n: t.values.copy() for n, t in model.named_parameters().items()}
    with pytest.raises(ValueError, match=f"changed config: {re.escape(changed)} differs"):
        fit(model, records, records, fit_cfg(max_epochs=4, patience=50, **overrides),
            checkpoint_dir=tmp_path, resume=True)
    for name, tensor in model.named_parameters().items():
        assert np.array_equal(tensor.values, before[name]), name


@pytest.mark.parametrize("rng_state", [
    {"bit_generator": "PCG64"},
    {},
    {"bit_generator": "MT19937", "state": {"key": [1] * 624, "pos": 624}},
], ids=["no-state", "empty", "mt19937"])
def test_resume_refuses_a_malformed_rng_state(tmp_path, rng_state):
    records = tiny_records(8, seed=13)
    fit(tiny_model(seed=11), records, records, fit_cfg(max_epochs=2, patience=50),
        checkpoint_dir=tmp_path)
    path = tmp_path / "last.gckp"
    manifest, payload = _split_gckp(path.read_bytes())
    path.write_bytes(_join_gckp({**manifest, "rng_state": rng_state}, payload))
    model = tiny_model(seed=12)
    before = {n: t.values.copy() for n, t in model.named_parameters().items()}
    with pytest.raises(FormatError, match=r"last\.gckp: 'rng_state'"):
        fit(model, records, records, fit_cfg(max_epochs=4, patience=50),
            checkpoint_dir=tmp_path, resume=True)
    for name, tensor in model.named_parameters().items():
        assert np.array_equal(tensor.values, before[name]), name


@pytest.mark.parametrize("edit", [
    {"state": {"state": 1.5, "inc": 1}},
    {"state": {"state": 1, "inc": True}},
    {"has_uint32": 2},
    {"has_uint32": 1.0},
    {"uinteger": -1},
    {"uinteger": 2.5},
], ids=["float-state", "bool-inc", "has-uint32-2", "float-has-uint32", "negative-uinteger",
        "float-uinteger"])
def test_resume_refuses_an_rng_state_numpy_would_truncate(tmp_path, edit):
    records = tiny_records(8, seed=13)
    fit(tiny_model(seed=11), records, records, fit_cfg(max_epochs=2, patience=50),
        checkpoint_dir=tmp_path)
    path = tmp_path / "last.gckp"
    manifest, payload = _split_gckp(path.read_bytes())
    path.write_bytes(_join_gckp({**manifest, "rng_state": {**manifest["rng_state"], **edit}},
                                payload))
    model = tiny_model(seed=12)
    before = {n: t.values.copy() for n, t in model.named_parameters().items()}
    with pytest.raises(FormatError, match=r"last\.gckp: 'rng_state'"):
        fit(model, records, records, fit_cfg(max_epochs=4, patience=50),
            checkpoint_dir=tmp_path, resume=True)
    for name, tensor in model.named_parameters().items():
        assert np.array_equal(tensor.values, before[name]), name


def test_resume_may_change_max_epochs_and_patience(tmp_path):
    records = tiny_records(8, seed=13)
    fit(tiny_model(seed=11), records, records, fit_cfg(max_epochs=2, patience=50),
        checkpoint_dir=tmp_path)
    resumed = fit(tiny_model(seed=11), records, records, fit_cfg(max_epochs=3, patience=7),
                  checkpoint_dir=tmp_path, resume=True)
    assert [h["epoch"] for h in resumed.history] == [0, 1, 2]


def test_best_checkpoint_is_written_only_when_dev_recall_improves(tmp_path, monkeypatch):
    records = tiny_records(8, seed=13)
    real_save = training.save_checkpoint
    writes = []

    def recording_save(ckpt, path):
        writes.append((path.name, ckpt.epoch))
        real_save(ckpt, path)

    monkeypatch.setattr(training, "save_checkpoint", recording_save)
    result = fit(tiny_model(seed=11), records, records, fit_cfg(max_epochs=8, patience=50),
                 checkpoint_dir=tmp_path)
    r1 = [h["dev_recall_at_1"] for h in result.history]
    improved = [e for e, v in enumerate(r1) if v > max(r1[:e], default=-math.inf)]
    assert len(improved) < len(r1), "every epoch improved; no best write could be skipped"
    # `best` of an improving epoch is written before that epoch's `last`.
    expected = [w for e in range(len(r1)) for w in
                ([(training.BEST_CHECKPOINT, e)] if e in improved else [])
                + [(training.LAST_CHECKPOINT, e)]]
    assert writes == expected
    best = load_checkpoint(tmp_path / training.BEST_CHECKPOINT)
    assert best.best_epoch == improved[-1] == result.best.best_epoch
    assert best.history == result.history[:improved[-1] + 1]


def test_crash_between_checkpoint_writes_is_detected_on_resume(tmp_path, monkeypatch):
    records = tiny_records(8, seed=13)
    real_save = training.save_checkpoint
    crashed = []

    def save_then_crash(ckpt, path):
        # Crash on the first `last` write of an epoch that set a new best,
        # after `best` for that epoch is already on disk.
        if path.name == training.LAST_CHECKPOINT and 0 < ckpt.epoch == ckpt.best_epoch:
            crashed.append(ckpt.epoch)
            raise KeyboardInterrupt("simulated crash")
        real_save(ckpt, path)

    monkeypatch.setattr(training, "save_checkpoint", save_then_crash)
    with pytest.raises(KeyboardInterrupt):
        fit(tiny_model(seed=11), records, records, fit_cfg(max_epochs=6, patience=50),
            checkpoint_dir=tmp_path)
    assert crashed, "no epoch improved on the best; the crash was never simulated"
    monkeypatch.setattr(training, "save_checkpoint", real_save)
    assert load_checkpoint(tmp_path / "last.gckp").epoch == crashed[0] - 1
    model = tiny_model(seed=11)
    before = {n: t.values.copy() for n, t in model.named_parameters().items()}
    with pytest.raises(ValueError, match="inconsistent"):
        fit(model, records, records, fit_cfg(max_epochs=6, patience=50),
            checkpoint_dir=tmp_path, resume=True)
    # The refused resume left the model as it was passed in.
    for name, tensor in model.named_parameters().items():
        assert np.array_equal(tensor.values, before[name]), name


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "model.gckp"
    first = Checkpoint(params={"w": np.zeros(3, dtype=np.float32)}, config={},
                       epoch=0, best_metric=0.0, best_epoch=0)
    save_checkpoint(first, path)
    before = path.read_bytes()

    def fail_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(training.os, "replace", fail_replace)
    second = Checkpoint(params={"w": np.ones(3, dtype=np.float32)}, config={},
                        epoch=1, best_metric=1.0, best_epoch=1)
    with pytest.raises(OSError, match="rename failed"):
        save_checkpoint(second, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.gckp"]


def test_resume_requires_checkpoint_dir():
    model = tiny_model()
    with pytest.raises(ValueError, match="resume"):
        fit(model, tiny_records(), tiny_records(), fit_cfg(), resume=True)
