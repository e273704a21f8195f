"""Peak memory of training steps at the paper's shapes.

    ulimit -v 7000000; python3 tools/step_rss.py MICRO ACCUM

Runs two `train_step`s of the default model (dropout 0.4) on synthetic
samples of 20 tokens x 100 objects x 4 phrases, each step over ACCUM
micro-batches of MICRO samples, and prints after each step its loss,
its wall time, its minor page faults (the `ru_minflt` delta) and the
process's max RSS (`ru_maxrss`) so far. Run it
from the root of a source checkout, one shape per fresh process, so
that each max RSS belongs to one shape. The ulimit caps the address
space at about 6.7 GiB; a step that needs more fails in numpy's
allocator instead of pushing the machine into swap or its OOM killer.
At MICRO 128 a step needs about 6.4 GB.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from ctxground import data, model, training  # noqa: E402

STEPS = 2
SEED = 0


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("micro", type=int, metavar="MICRO", help="samples per micro-batch")
    parser.add_argument("accum", type=int, metavar="ACCUM", help="micro-batches per step")
    a = parser.parse_args(argv)
    if a.micro < 1 or a.accum < 1:
        parser.error("MICRO and ACCUM must be positive")
    records = data.generate_synthetic(data.SyntheticSpec(
        seed=SEED, num_samples=a.micro * a.accum, vocab_size=model.DEFAULT_VOCAB_SIZE,
        tokens_per_sample=20, objects_per_sample=100, entities_per_sample=4,
        d_feat=model.DEFAULT_FEATURE_DIM))
    net = model.GroundingModel.initialize(model.default_model_config(), seed=SEED)
    state = training.AdamState.init(net.named_parameters())
    cfg = training.TrainConfig(batch_size=a.micro * a.accum, accumulation_steps=a.accum)
    rng = np.random.default_rng(SEED)
    print(f"{a.accum} x {a.micro} x 100, dropout {net.config.text.dropout_p}", flush=True)
    for step in range(STEPS):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        # As `fit` does: a step collates only its own micro-batches, which
        # die when it returns, before the next step's are collated.
        metrics = training.train_step([data.collate_batch(records[lo:lo + a.micro])
                                       for lo in range(0, len(records), a.micro)],
                                      net, state, cfg, rng)
        seconds = time.perf_counter() - t0
        usage = resource.getrusage(resource.RUSAGE_SELF)
        print(f"step {step}: loss {metrics.loss:.6f}  {seconds:.2f} s  "
              f"{usage.ru_minflt - faults} minor faults  "
              f"max RSS {usage.ru_maxrss / 1024:.0f} MB", flush=True)


if __name__ == "__main__":
    main()
