import json
import re
from pathlib import Path

import pytest

from ctxground.cli import RunConfig, cli_main
from ctxground.data import SyntheticSpec, parse_dataset
from ctxground.evaluate import evaluate, load_report
from ctxground.training import load_checkpoint, model_from_checkpoint

SYNTH_SPEC = {
    "seed": 7, "num_samples": 12, "vocab_size": 20, "tokens_per_sample": 6,
    "objects_per_sample": 4, "entities_per_sample": 2, "d_feat": 16,
    "entity_vocab_size": 3, "noise_scale": 0.05, "image_size": 64,
}

RUN_CONFIG = {
    "vocab_size": 20, "feature_dim": 16, "d_joint": 8,
    "text": {"num_layers": 1, "num_heads": 2, "hidden_dim": 8, "max_positions": 8},
    "image": {"num_layers": 1, "num_heads": 2, "hidden_dim": 8, "use_spatial": True},
    "train": {"learning_rate": 5e-4, "clip_norm": 0.25, "batch_size": 12,
              "accumulation_steps": 2, "max_epochs": 2, "patience": 3,
              "seed": 0, "dropout_p": 0.1},
}


@pytest.fixture
def pipeline_dir(tmp_path):
    (tmp_path / "spec.json").write_text(json.dumps(SYNTH_SPEC))
    config = dict(RUN_CONFIG)
    config["train_data"] = str(tmp_path / "ds" / "data.jsonl")
    config["dev_data"] = str(tmp_path / "ds" / "data.jsonl")
    config["out_dir"] = str(tmp_path / "run")
    (tmp_path / "run.json").write_text(json.dumps(config))
    return tmp_path


def test_synth_train_eval_pipeline(pipeline_dir, capsys):
    root = pipeline_dir
    assert cli_main(["synth", "--spec", str(root / "spec.json"),
                     "--out", str(root / "ds")]) == 0
    records = parse_dataset(root / "ds" / "data.jsonl")
    assert len(records) == SYNTH_SPEC["num_samples"]
    assert (root / "ds" / "features").is_dir()

    assert cli_main(["train", "--config", str(root / "run.json")]) == 0
    assert (root / "run" / "best.gckp").exists()
    assert (root / "run" / "last.gckp").exists()
    history = json.loads((root / "run" / "history.json").read_text())
    assert len(history) <= RUN_CONFIG["train"]["max_epochs"]

    report_path = root / "report.json"
    assert cli_main(["eval", "--checkpoint", str(root / "run" / "best.gckp"),
                     "--data", str(root / "ds" / "data.jsonl"),
                     "--split", "synthetic", "--out", str(report_path)]) == 0
    report = load_report(report_path)
    assert report.split == "synthetic"
    assert report.upper_bound == 100.0
    assert report.model_label == "L1-H2-abs"

    csv_path = root / "report.csv"
    assert cli_main(["eval", "--checkpoint", str(root / "run" / "best.gckp"),
                     "--data", str(root / "ds" / "data.jsonl"),
                     "--split", "synthetic", "--format", "csv",
                     "--out", str(csv_path)]) == 0
    assert csv_path.read_text().startswith("model_label,split,recall_at_1")


def test_eval_prints_json_without_out(pipeline_dir, capsys):
    root = pipeline_dir
    cli_main(["synth", "--spec", str(root / "spec.json"), "--out", str(root / "ds")])
    cli_main(["train", "--config", str(root / "run.json")])
    capsys.readouterr()
    assert cli_main(["eval", "--checkpoint", str(root / "run" / "best.gckp"),
                     "--data", str(root / "ds" / "data.jsonl"),
                     "--split", "synthetic"]) == 0
    captured = capsys.readouterr()
    expected = evaluate(model_from_checkpoint(load_checkpoint(root / "run" / "best.gckp")),
                        parse_dataset(root / "ds" / "data.jsonl"), split="synthetic")
    # stdout is exactly the report JSON, in the documented key order
    assert captured.out == json.dumps(expected.to_dict(), indent=2) + "\n"
    assert list(json.loads(captured.out)) == [
        "split", "recall_at_1", "recall_at_5", "recall_at_10", "upper_bound",
        "per_type", "total_entities", "model_label"]
    # timing is one stderr line
    assert re.fullmatch(r"eval timing: load \d+\.\d{3} s \(checkpoint and data\), "
                        r"evaluate \d+\.\d{3} s, \d+\.\d entities/s\n", captured.err)


def test_train_resume_from_checkpoints(pipeline_dir):
    root = pipeline_dir
    cli_main(["synth", "--spec", str(root / "spec.json"), "--out", str(root / "ds")])
    assert cli_main(["train", "--config", str(root / "run.json")]) == 0
    epoch_before = load_checkpoint(root / "run" / "last.gckp").epoch
    config = json.loads((root / "run.json").read_text())
    config["train"]["max_epochs"] = 4
    (root / "run.json").write_text(json.dumps(config))
    assert cli_main(["train", "--config", str(root / "run.json"), "--resume"]) == 0
    assert load_checkpoint(root / "run" / "last.gckp").epoch > epoch_before


def test_missing_config_exits_1_with_path(capsys):
    code = cli_main(["train", "--config", "/no/such/config.json"])
    assert code == 1
    assert "/no/such/config.json" in capsys.readouterr().err


def test_missing_checkpoint_exits_1_with_path(capsys):
    code = cli_main(["eval", "--checkpoint", "/no/such.gckp", "--data", "/no/data.jsonl"])
    assert code == 1
    assert "/no/such.gckp" in capsys.readouterr().err


def test_unknown_flag_exits_2(capsys):
    assert cli_main(["synth", "--bogus", "x"]) == 2


def test_unknown_subcommand_exits_2(capsys):
    assert cli_main(["frobnicate"]) == 2


def test_unknown_format_exits_2(capsys):
    assert cli_main(["eval", "--checkpoint", "x", "--data", "y",
                     "--format", "yaml"]) == 2


def test_gradcheck_quick_passes(capsys):
    assert cli_main(["gradcheck", "--preset", "quick"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    assert "PASS" in out


def test_run_config_dropout_fans_out_to_branches():
    cfg = RunConfig.from_dict({
        "vocab_size": 10, "feature_dim": 8, "d_joint": 8,
        "text": {"num_layers": 1, "num_heads": 1, "hidden_dim": 8, "max_positions": 8},
        "image": {"num_layers": 1, "num_heads": 1, "hidden_dim": 8,
                  "use_spatial": False, "dropout_p": 0.2},
        "train": {"dropout_p": 0.3, "batch_size": 4, "accumulation_steps": 1},
        "train_data": "a", "dev_data": "b", "out_dir": "c",
    })
    assert cfg.model.text.dropout_p == 0.3   # inherited from train
    assert cfg.model.image.dropout_p == 0.2  # explicit wins
    assert cfg.train.micro_batch_size == 4


def test_unknown_top_level_config_key_exits_1_naming_it(pipeline_dir, capsys):
    config = json.loads((pipeline_dir / "run.json").read_text())
    config["d_jiont"] = 16
    (pipeline_dir / "run.json").write_text(json.dumps(config))
    assert cli_main(["train", "--config", str(pipeline_dir / "run.json")]) == 1
    assert "d_jiont" in capsys.readouterr().err


@pytest.mark.parametrize("argv,text,named", [
    (["train", "--config"], "{bad", "in.json"),
    (["synth", "--out", "never-written", "--spec"], "{bad", "in.json"),
    (["train", "--config"], json.dumps({**RUN_CONFIG, "train": None}), "'train'"),
    (["train", "--config"], json.dumps({**RUN_CONFIG, "text": None}), "'text'"),
], ids=["config-malformed", "spec-malformed", "train-null", "text-null"])
def test_bad_json_input_exits_1_naming_file_or_key(tmp_path, capsys, argv, text, named):
    path = tmp_path / "in.json"
    path.write_text(text)
    assert cli_main([*argv, str(path)]) == 1
    assert named in capsys.readouterr().err


def test_readme_example_configs_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    files = dict(re.findall(r"cat > (\S+) <<'EOF'\n(.*?)\nEOF", readme, re.S))
    spec = SyntheticSpec.from_dict(json.loads(files["spec.json"]))
    cfg = RunConfig.from_dict(json.loads(files["run.json"]))
    assert spec.vocab_size == cfg.model.vocab_size
    assert spec.d_feat == cfg.model.feature_dim
