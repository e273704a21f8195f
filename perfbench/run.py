"""ctxground benchmark: seeded closed-loop workloads, checked outputs.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

Run from the root of a source checkout. With ``--workload`` one workload
runs; without it all of them run, one after another, each in its own
processes. Every workload first generates its inputs from the seed in a
child process, then sets up, measures and checks in a second child
process, so the measured process sees only files and its peak RSS
excludes input generation.

``--trace 0`` measures the end-to-end metrics with no layer wrappers
installed. ``--trace 1`` wraps the public functions of every package
module and reports per-layer metrics, the dagger counts (which must
repeat exactly between traced units) and the tracing overhead against
untraced units of the same run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``metrics``
holds the names BENCHMARK.json lists for the chosen trace mode. The
lines above it print every metric of the workload by name and unit, the
environment and the per-layer table.

Runs of one seed and the same code must agree: each checkout keeps a
ledger of the outputs that must repeat (first epoch at R@1 >= 95, the
loss sequence, the evaluation report, the dagger counts) under
``.perfbench/``, keyed by the inputs, the trace mode and a hash of the
sources of ``ctxground`` and of the benchmark, and compares every later
run of the same key with it. A change to the code starts a new entry.

``--smoke`` runs every workload at tiny sizes, traced and untraced, in
seconds, and asserts that every metric BENCHMARK.json names is printed
with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
DEADLINE_S = 170.0       # a run must end within 180 s
LOSS_RTOL = 1e-4         # the gradcheck tolerance, for loss sequences that differ in last bits
METRIC_LINE = re.compile(r"^metric (\S+) (\S+) (\S+)$")


def run_child(cmd: list[str], timeout: float | None = None, **kwargs):
    """``subprocess.run``, except that a child interrupted or out of time
    gets SIGTERM first and SIGKILL only if it has not ended 10 s later."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except BaseException:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)


# -- environment --------------------------------------------------------------------------


def cgroup_cpu_max() -> str | None:
    try:
        return Path("/sys/fs/cgroup/cpu.max").read_text(encoding="utf-8").strip()
    except OSError:
        return None


def blas_threads() -> int:
    """One BLAS thread per CPU this process may use, fewer under a cgroup
    CPU quota."""
    cpus = len(os.sched_getaffinity(0))
    quota = (cgroup_cpu_max() or "max").split()
    if quota[0] != "max":
        cpus = min(cpus, max(1, math.ceil(int(quota[0]) / int(quota[1]))))
    return cpus


def git_state() -> dict | None:
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return None
        return {"sha": git("rev-parse", "HEAD").stdout.strip(),
                "dirty": bool(git("status", "--porcelain").stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        return None


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


# -- the ledger of outputs that must repeat ------------------------------------------------


def code_identity() -> str:
    """Hash of the Python sources of ctxground and of the benchmark."""
    digest = hashlib.sha256()
    for base in (ROOT / "src" / "ctxground", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def ledger_check(a, fingerprint: dict) -> tuple[list[str], list[str]]:
    """Compare with earlier runs of the same inputs, trace mode and code in
    this checkout; returns (errors, notes) and records this run."""
    name = (f"{a.workload}-{fingerprint['input']}-trace{a.trace}"
            f"{'-smoke' if a.smoke else ''}-{code_identity()}")
    path = STATE / "ledger" / f"{name}.json"
    errors, notes = [], []
    losses = fingerprint.get("losses", [])
    if path.exists():
        prev = json.loads(path.read_text(encoding="utf-8"))
        if prev["exact"] != fingerprint["exact"]:
            errors.append(f"outputs differ from an earlier run of the same inputs and code: "
                          f"{prev['exact']} vs {fingerprint['exact']}")
        n = min(len(prev["losses"]), len(losses))
        a, b = prev["losses"][:n], losses[:n]
        if a != b:
            worst = max(abs(x - y) / max(abs(x), 1e-30) for x, y in zip(a, b))
            if worst <= LOSS_RTOL:
                notes.append(f"loss sequence not bit-identical to an earlier run; "
                             f"max relative difference {worst:.2e} <= {LOSS_RTOL}")
            else:
                errors.append(f"loss sequence differs from an earlier run by {worst:.2e} "
                              f"relative, beyond {LOSS_RTOL}")
        elif n:
            notes.append(f"first {n} losses bit-identical to an earlier run")
        if len(prev["losses"]) > len(losses):
            losses = prev["losses"]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"exact": fingerprint["exact"], "losses": losses}),
                    encoding="utf-8")
    return errors, notes


# -- one workload -------------------------------------------------------------------------


def run_workload(a, spec: dict) -> dict | None:
    """Run one workload; prints its report and returns the result object,
    or None (after a message on stderr) if a child did not finish."""
    start = time.monotonic()
    threads = blas_threads()
    env = child_env(threads)
    work = STATE / f"work-{a.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", a.workload, "--seed", str(a.seed), "--dir", str(work)]
    common += ["--smoke"] if a.smoke else []
    result_path = work / "result.json"
    try:
        for phase, extra in (
            ("generate", []),
            ("measure", ["--seconds", str(a.seconds), "--trace", str(a.trace),
                         "--out", str(result_path)]),
        ):
            left = DEADLINE_S - (time.monotonic() - start)
            try:
                proc = run_child([sys.executable, str(HERE / "workloads.py"), phase,
                                  *common, *extra], timeout=left, env=env, cwd=ROOT)
            except subprocess.TimeoutExpired:
                fail(f"{a.workload}: {phase} did not finish within {DEADLINE_S:.0f} s")
                return None
            if proc.returncode != 0:
                fail(f"{a.workload}: {phase} exited with code {proc.returncode}")
                return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = list(result["errors"])
    notes = list(result.get("notes", []))
    if "fingerprint" in result:
        more, ledger_notes = ledger_check(a, result["fingerprint"])
        errors += more
        notes += ledger_notes
    env_record = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
                  "trace": a.trace, "nproc": len(os.sched_getaffinity(0)),
                  "cgroup_cpu_max": cgroup_cpu_max(), "blas_threads_env": threads,
                  **result["env"], "git": git_state(), "code": code_identity()}
    print("env " + json.dumps(env_record))
    if "counts" in result:
        print("counts " + json.dumps(result["counts"]))
    for name, (value, unit) in sorted(result["metrics"].items()):
        print(f"metric {name} {value!r} {unit}")
    if "layers" in result:
        idle = [n for n, (v, unit) in sorted(result["metrics"].items()) if unit == "s" and v == 0.0]
        if idle:
            print("not called on this workload, so reported as 0: " + ", ".join(idle))
        print(f"{'span':<34} {'total_s':>12} {'self_s':>12} {'calls':>10}   (median per traced unit)")
        for name, row in sorted(result["layers"].items()):
            print(f"{name:<34} {row['total_s']:>12.6f} {row['self_s']:>12.6f} {row['calls']:>10g}")
    wanted = [m["name"] for m in spec["per_layer" if a.trace else "end_to_end"]]
    missing = [n for n in wanted if n not in result["metrics"]]
    if missing:
        errors.append(f"metrics not measured: {missing}")
    for note in notes:
        print(f"note: {note}")
    for error in errors:
        print(f"FAILED: {error}")
    return {
        "correct": not errors,
        "attempted": max(result["attempted"], 1),
        "failed": result["failed"] + (len(errors) - len(result["errors"])),
        "metrics": {n: {"value": result["metrics"][n][0], "unit": result["metrics"][n][1]}
                    for n in wanted if n in result["metrics"]},
    }


# -- every workload, and the smoke mode -----------------------------------------------------


def with_workload(a, workload: str, **changes) -> argparse.Namespace:
    return argparse.Namespace(**{**vars(a), "workload": workload, **changes})


def run_all(a, spec: dict) -> dict | None:
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"== {workload}")
        last = run_workload(with_workload(a, workload), spec)
        if last is None:
            return None
        print(json.dumps(last))
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        summary["metrics"][workload] = last["metrics"]
    return summary


def smoke(a, spec: dict) -> int:
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            where = f"{workload} --trace {trace}"
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                last = run_workload(with_workload(a, workload, seed=0, seconds=0.1, trace=trace),
                                    spec)
            if last is None:
                problems.append(f"{where}: did not finish")
                continue
            lines = buf.getvalue().splitlines()
            printed = {m.group(1): m.group(3) for m in map(METRIC_LINE.match, lines) if m}
            if not last["correct"]:
                problems.append(f"{where}: failed its checks: {[l for l in lines if 'FAILED' in l]}")
            for m in spec["per_layer" if trace else "end_to_end"]:
                got = last["metrics"].get(m["name"], {})
                if got.get("unit") != m["unit"] or printed.get(m["name"]) != m["unit"]:
                    problems.append(f"{where}: metric {m['name']} not printed with unit {m['unit']}")
            print(f"smoke {where}: {len(printed)} metrics printed")
    for p in problems:
        print(f"FAILED: {p}")
    print("smoke " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    # SIGTERM unwinds like an interrupt, so that children are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "ctxground" / "__init__.py").is_file():
        fail(f"no ctxground sources under {ROOT / 'src'}; run from a source checkout")
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
        return 2
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes; without --workload, also assert every metric is printed")
    a = p.parse_args(argv)
    if a.smoke and not a.workload:
        return smoke(a, spec)
    result = run_workload(a, spec) if a.workload else run_all(a, spec)
    if result is None:
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
