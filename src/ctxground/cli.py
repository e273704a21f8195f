"""Command-line interface: synthesize data, train, evaluate, gradcheck.

Run configs are JSON files mirroring :class:`RunConfig`; see the README
for the schema and a worked synth -> train -> eval pipeline.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import SyntheticSpec, generate_synthetic, parse_dataset, write_dataset
from .evaluate import emit_report, evaluate, REPORT_SPLITS
from .gradcheck import TOLERANCE, run_gradcheck, toy_setup
from .model import GroundingModel, ModelConfig
from .training import TrainConfig, fit, load_checkpoint, model_from_checkpoint

__all__ = ["RunConfig", "cli_main", "main"]

DATASET_FILENAME = "data.jsonl"


@dataclass
class RunConfig:
    """Everything a training run needs: model shape, protocol, data, output."""

    model: ModelConfig
    train: TrainConfig
    train_data: str
    dev_data: str
    out_dir: str

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Split off the run's own keys and hand the rest to
        :meth:`ModelConfig.from_dict`, so an unknown key raises."""
        model_d = dict(d)
        for key in ("train", "text", "image"):
            if not isinstance(model_d.get(key, {}), dict):
                raise ValueError(f"run config {key!r} is not a JSON object: "
                                 f"{json.dumps(model_d[key])}")
        train = TrainConfig.from_dict(model_d.pop("train", {}))
        paths = {key: model_d.pop(key) for key in ("train_data", "dev_data", "out_dir")}
        # A single dropout knob: branches inherit the training dropout
        # unless they set their own.
        for branch in ("text", "image"):
            model_d[branch] = {"dropout_p": train.dropout_p, **d[branch]}
        return cls(model=ModelConfig.from_dict(model_d), train=train, **paths)


def _load_json(path, what: str, parse):
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{what} file not found: {p}")
    try:
        obj = json.loads(p.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{what} file {p} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{what} file {p} does not hold a JSON object")
    try:
        return parse(obj)
    except KeyError as exc:
        raise ValueError(f"{what} file {p}: missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} file {p}: {exc}") from exc


def _cmd_synth(args) -> int:
    spec = _load_json(args.spec, "spec", SyntheticSpec.from_dict)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = generate_synthetic(spec)
    write_dataset(records, out_dir / DATASET_FILENAME, feature_storage="files")
    total_entities = sum(len(r.phrases) for r in records)
    print(f"wrote {len(records)} samples ({total_entities} entities) "
          f"to {out_dir / DATASET_FILENAME}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_json(args.config, "config", RunConfig.from_dict)
    for path in (cfg.train_data, cfg.dev_data):
        if not Path(path).exists():
            raise FileNotFoundError(f"dataset file not found: {path}")
    train_records = parse_dataset(cfg.train_data)
    dev_records = parse_dataset(cfg.dev_data)
    model = GroundingModel.initialize(cfg.model, seed=cfg.train.seed, dtype=np.float32)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"training {model.label}: {len(train_records)} train / "
          f"{len(dev_records)} dev samples")
    result = fit(model, train_records, dev_records, cfg.train,
                 checkpoint_dir=out_dir, resume=args.resume, log=print)
    (out_dir / "history.json").write_text(
        json.dumps(result.history, indent=2) + "\n", encoding="utf-8")
    print(f"best dev R@1 {result.best.best_metric:.2f} at epoch {result.best.best_epoch}; "
          f"checkpoints in {out_dir}")
    return 0


def _cmd_eval(args) -> int:
    ckpt_path = Path(args.checkpoint)
    if not ckpt_path.exists():
        raise FileNotFoundError(f"checkpoint file not found: {ckpt_path}")
    data_path = Path(args.data)
    if not data_path.exists():
        raise FileNotFoundError(f"dataset file not found: {data_path}")
    t0 = time.perf_counter()
    model = model_from_checkpoint(load_checkpoint(ckpt_path))
    records = parse_dataset(data_path)
    t1 = time.perf_counter()
    report = evaluate(model, records, split=args.split)
    t2 = time.perf_counter()
    # Timing goes to stderr, so the report on stdout stays machine-readable.
    print(f"eval timing: load {t1 - t0:.3f} s (checkpoint and data), "
          f"evaluate {t2 - t1:.3f} s, {report.total_entities / (t2 - t1):.1f} entities/s",
          file=sys.stderr)
    if args.out:
        emit_report(report, args.format, args.out)
        print(f"wrote {args.format} report to {args.out}")
    else:
        print(json.dumps(report.to_dict(), indent=2))
    return 0


def _cmd_gradcheck(args) -> int:
    model, batch = toy_setup(preset=args.preset)
    errors = run_gradcheck(model, batch)
    width = max(len(n) for n in errors)
    for name, err in errors.items():
        print(f"{name:<{width}}  {err:.3e}")
    worst = max(errors.values())
    print(f"max relative error: {worst:.3e} (tolerance {TOLERANCE:.1e})")
    if worst < TOLERANCE:
        print("gradcheck PASS")
        return 0
    print("gradcheck FAIL")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxground",
        description="Contextual phrase grounding: train, evaluate, and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--spec", required=True, help="JSON SyntheticSpec file")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=_cmd_synth)

    p_train = sub.add_parser("train", help="train a model from a run config")
    p_train.add_argument("--config", required=True, help="JSON RunConfig file")
    p_train.add_argument("--resume", action="store_true",
                         help="resume from checkpoints in the output directory")
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--split", choices=REPORT_SPLITS, default="test")
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")
    p_eval.add_argument("--out", default=None, help="report path (default: print JSON)")
    p_eval.set_defaults(func=_cmd_eval)

    p_grad = sub.add_parser("gradcheck", help="finite-difference check on a toy model")
    p_grad.add_argument("--preset", choices=("full", "quick"), default="full")
    p_grad.set_defaults(func=_cmd_gradcheck)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
