"""End-to-end and per-layer benchmark of the survshape command line.

Run from the repository root:

    python3 perfbench/run.py --workload global_paper --seed 1 --seconds 30 --trace 0

Every input is generated by `survshape synth` from --seed. The workload's
timed commands run as passes until --seconds of pass time is used up (at
least one pass), after an untimed warm-up run of the first command of
each kind. Its set-up runs SETUP_REPEATS times: once before the
first pass and the rest spread evenly between passes, outside the pass
time, so set-up times sample the whole run.

--trace 0  each command is its own `python -m survshape.cli` subprocess,
           as a user runs it; the result holds the end-to-end metrics.
--trace 1  the same commands run in this process through
           survshape.cli.main(argv): the set-up and each pass once plain,
           then once with the public functions of every module wrapped in
           spans (tracing.py). The result holds the per-layer metrics,
           per set-up plus one pass, and the tracing overhead.

Each command's exit code and artifacts are checked in both modes. The
last line of stdout is one JSON object: correct, attempted, failed and
metrics. Without the program's sources next to this directory the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import itertools
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SHAPES = ("square", "sin3", "linear", "abs", "half", "zero", "linear", "zero")
# The true per-feature effects, written out here so the check does not
# lean on the program's own table.
TRUE_SHAPES = {
    "zero": np.zeros_like,
    "linear": lambda x: x,
    "half": lambda x: 0.5 * x,
    "square": lambda x: x * x,
    "abs": np.abs,
    "sin3": lambda x: np.sin(3.0 * x),
}
CENSORING = "0.45"
TRAIN_ROWS = 686
REFERENCE_ROWS = 5000
SETUP_REPEATS = 5
# glibc's malloc raises its mmap threshold as large blocks are freed, so
# whether numpy's big temporaries are fresh, page-faulting mappings or
# reused heap depends on each process's allocation history. That flips
# single commands between two speeds (explain: 1.9 s or 2.7 s on the same
# inputs). Fixing both thresholds at the values the dynamic rule tops out
# at removes the flip. Every CLI process gets them; the traced run sets
# them with mallopt.
MALLOC_MMAP_THRESHOLD = 32 * 1024 * 1024
MALLOC_TRIM_THRESHOLD = 2 * MALLOC_MMAP_THRESHOLD
ALLOCATOR_ENV = {"MALLOC_MMAP_THRESHOLD_": str(MALLOC_MMAP_THRESHOLD),
                 "MALLOC_TRIM_THRESHOLD_": str(MALLOC_TRIM_THRESHOLD)}

# 1/20 of the paper's 500 trees and 2000 epochs, keeping their balance.
GLOBAL_TREES = 25
GLOBAL_EPOCHS = 100
MINIBATCH_TREES = 25
MINIBATCH_EPOCHS = 100
LOCAL_TREES = 20
LOCAL_EPOCHS = 300
LOCAL_CENTERS = 12


class Abort(Exception):
    """A command failed or left an artifact that cannot be read."""


@dataclass
class Command:
    kind: str  # the CLI subcommand
    argv: list[str]
    out: Path
    truth: Optional[Path] = None  # training CSV the global curves are checked against


def cli(kind: str, out: Path, *args, truth: Optional[Path] = None) -> Command:
    return Command(kind, [kind, *map(str, args), "--out", str(out)], out, truth)


def synth(out: Path, n: int, seed: int) -> Command:
    return cli("synth", out, "--n", n, "--m", len(SHAPES), "--shapes", ",".join(SHAPES),
               "--censoring", CENSORING, "--seed", seed)


@dataclass(frozen=True)
class Plan:
    """Everything a run derives from the benchmark seed."""

    train_seed: int
    holdout_seed: int
    reference_seed: int
    fit_seed: int
    nam_seed: int
    center_rows: tuple[int, ...]

    @classmethod
    def from_seed(cls, seed: int) -> "Plan":
        rng = random.Random(seed)
        seeds = [rng.randrange(1, 2**31) for _ in range(5)]
        rows = tuple(rng.sample(range(REFERENCE_ROWS), LOCAL_CENTERS))
        return cls(*seeds, rows)


def global_paper(plan: Plan, base: Path):
    train, holdout = base / "train", base / "holdout"
    fit, explain = base / "fit", base / "explain"
    setup = [synth(train, TRAIN_ROWS, plan.train_seed),
             synth(holdout, TRAIN_ROWS, plan.holdout_seed)]
    timed = [
        cli("fit", fit, "--data", train / "dataset.csv", "--trees", GLOBAL_TREES,
            "--seed", plan.fit_seed),
        cli("explain", explain, "--forest", fit / "forest.bin",
            "--data", train / "dataset.csv", "--epochs", GLOBAL_EPOCHS,
            "--seed", plan.nam_seed, "--svg", truth=train / "dataset.csv"),
        cli("eval", base / "eval", "--forest", fit / "forest.bin",
            "--model", explain / "nam.json", "--data", holdout / "dataset.csv"),
    ]
    return setup, timed


def surrogate_minibatch(plan: Plan, base: Path):
    train, holdout = base / "train", base / "holdout"
    fit, explain = base / "fit", base / "explain"
    setup = [synth(train, TRAIN_ROWS, plan.train_seed),
             synth(holdout, TRAIN_ROWS, plan.holdout_seed),
             cli("fit", fit, "--data", train / "dataset.csv", "--trees", MINIBATCH_TREES,
                 "--seed", plan.fit_seed)]
    timed = [
        cli("explain", explain, "--forest", fit / "forest.bin",
            "--data", train / "dataset.csv", "--variant", "shortcut", "--lam", "0.01",
            "--batch", 64, "--epochs", MINIBATCH_EPOCHS, "--seed", plan.nam_seed,
            truth=train / "dataset.csv"),
        cli("eval", base / "eval", "--forest", fit / "forest.bin",
            "--model", explain / "nam.json", "--data", holdout / "dataset.csv"),
    ]
    return setup, timed


def local_rows(plan: Plan, base: Path):
    train, reference, fit = base / "train", base / "reference", base / "fit"
    setup = [synth(train, TRAIN_ROWS, plan.train_seed),
             synth(reference, REFERENCE_ROWS, plan.reference_seed),
             cli("fit", fit, "--data", train / "dataset.csv", "--trees", LOCAL_TREES,
                 "--seed", plan.fit_seed)]
    timed = [
        cli("explain", base / f"local-{row}", "--mode", "local", "--center-row", row,
            "--forest", fit / "forest.bin", "--data", reference / "dataset.csv",
            "--hidden", "16,8", "--activation", "tanh", "--learning-rate", "0.01",
            "--epochs", LOCAL_EPOCHS, "--seed", plan.nam_seed)
        for row in plan.center_rows
    ]
    return setup, timed


WORKLOADS = {
    "global_paper": global_paper,
    "surrogate_minibatch": surrogate_minibatch,
    "local_rows": local_rows,
}


# ---------------------------------------------------------------------------
# Reading and checking artifacts


def number(text: str) -> float:
    """A report value, with or without a numpy scalar wrapper such as np.float64(...)."""
    match = re.fullmatch(r"np\.\w+\((.*)\)", text.strip())
    return float(match.group(1) if match else text)


def read_report(out: Path) -> dict[str, str]:
    """The unindented `key = value` lines of report.txt (the banner is indented)."""
    values = {}
    for line in (out / "report.txt").read_text(encoding="utf-8").splitlines():
        if " = " in line and not line.startswith(" "):
            key, value = line.split(" = ", 1)
            values[key] = value
    return values


def read_curves(path: Path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The curve block of explanation.csv: feature -> (xs, contributions)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    start = lines.index("feature,x,contribution") + 1
    points: dict[str, list[tuple[float, float]]] = {}
    for line in lines[start:]:
        name, x, y = line.split(",")
        points.setdefault(name, []).append((float(x), float(y)))
    if not points:
        raise ValueError(f"{path}: no curve rows")
    return {name: tuple(np.array(column) for column in zip(*pts))
            for name, pts in points.items()}


def shape_gaps(curves, train_csv: Path) -> tuple[float, float]:
    """Mean over features of the RMS gap to the true centered shape, and of a flat 0 curve.

    Curves are centered over the explained data's feature values, so the
    true shape is centered the same way.
    """
    columns = np.loadtxt(train_csv, delimiter=",", skiprows=1, ndmin=2)
    gaps, flats = [], []
    for k, (name, (xs, ys)) in enumerate(curves.items()):
        truth = TRUE_SHAPES[SHAPES[k]]
        centered = truth(xs) - float(np.mean(truth(columns[:, k])))
        gaps.append(float(np.sqrt(np.mean((ys - centered) ** 2))))
        flats.append(float(np.sqrt(np.mean(centered ** 2))))
    return statistics.fmean(gaps), statistics.fmean(flats)


def inspect(command: Command) -> tuple[dict, list[str]]:
    """Facts read from a command's artifacts, and the checks they fail.

    A missing or unreadable artifact raises (OSError, ValueError, KeyError
    or ParseError); a value out of range is returned as a problem.
    """
    out = command.out
    report = read_report(out)
    facts: dict[str, float] = {}
    problems: list[str] = []
    if command.kind == "synth":
        rows = len((out / "dataset.csv").read_text(encoding="utf-8").splitlines()) - 1
        if rows != int(report["samples"]):
            problems.append(f"{out}/dataset.csv has {rows} rows, report says {report['samples']}")
    elif command.kind == "fit":
        facts["forest_bytes"] = (out / "forest.bin").stat().st_size
        if not facts["forest_bytes"]:
            problems.append(f"{out}/forest.bin is empty")
    elif command.kind == "explain":
        for key in ("initial_loss", "final_loss", "c_index_surrogate", "c_index_blackbox"):
            facts[key] = number(report[key])
        json.loads((out / "nam.json").read_text(encoding="utf-8"))
        if "--svg" in command.argv:
            ET.parse(out / "shapes.svg")
        curves = read_curves(out / "explanation.csv")
        if not facts["final_loss"] <= facts["initial_loss"]:
            problems.append(f"{out}: final_loss {facts['final_loss']} > "
                            f"initial_loss {facts['initial_loss']}")
        if not all(np.all(np.isfinite(ys)) for _, ys in curves.values()):
            problems.append(f"{out}: a curve value is not finite")
        if command.truth is not None:
            facts["shape_rmse"], flat = shape_gaps(curves, command.truth)
            if not facts["shape_rmse"] < flat:
                problems.append(f"{out}: shape_rmse {facts['shape_rmse']:.4f} is not "
                                f"below the flat curve's {flat:.4f}")
    elif command.kind == "eval":
        for key in ("c_index_blackbox", "c_index_surrogate"):
            facts[key] = number(report[key])
            if not 0.5 < facts[key] <= 1.0:
                problems.append(f"{out}: {key} = {facts[key]} outside (0.5, 1]")
    return facts, problems


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


# ---------------------------------------------------------------------------
# Running commands


@dataclass
class Result:
    command: Command
    wall: float
    rss_mb: Optional[float]  # None when the command ran in this process
    facts: dict


def subprocess_runner(command: Command):
    """Run one CLI command as its own process; wall time and peak RSS from wait4."""
    env = {**os.environ, **ALLOCATOR_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "survshape.cli", *command.argv],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env)
    status = None
    try:
        message = proc.stderr.read().decode(errors="replace")
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        proc.stderr.close()
        if status is None:
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, message


def inprocess_runner(tracer: Optional[tracing.Tracer] = None):
    """Run commands through survshape.cli.main(argv); traced, inside a root span."""
    from survshape import cli as survshape_cli

    def call(command: Command):
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(sink):
            code = survshape_cli.main(command.argv)
        return time.perf_counter() - start, None, code, sink.getvalue()

    if tracer is None:
        return call

    def traced(command: Command):
        tracer.install()
        tracer.run += 1
        try:
            with tracer.span(f"cli.{command.kind}"):
                outcome = call(command)
        finally:
            tracer.restore()
        tracer.end_command()
        return outcome

    return traced


class Tally:
    """Runs command lists, checks every command and counts attempts and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def execute(self, commands: list[Command], runner: Callable) -> list[Result]:
        results = []
        for command in commands:
            self.attempted += 1
            wall, rss, code, message = runner(command)
            if code != 0:
                self.failed += 1
                raise Abort(f"`survshape {' '.join(command.argv)}` exited with {code}: "
                            f"{message.strip()}")
            try:
                facts, problems = inspect(command)
            except (OSError, ValueError, KeyError, ET.ParseError) as exc:
                self.failed += 1
                raise Abort(f"{command.out}: unreadable artifact: {exc}") from exc
            if problems:
                self.failed += 1
                for problem in problems:
                    print(f"CHECK FAILED: {problem}")
            results.append(Result(command, wall, rss, facts))
        return results


def timed_passes(run_pass: Callable[[], object], seconds: float,
                 between: tuple[Callable[[], object], ...] = ()) -> tuple[list, list]:
    """Run passes while the next one, as long as the last, still fits in `seconds`.

    The calls in `between` run outside the pass time, spread evenly over it:
    call k once k / (len(between) + 1) of `seconds` has gone on passes. Returns
    the outcomes of the passes and of the `between` calls.
    """
    spent = 0.0
    outcomes, extras = [], []
    while True:
        while (len(extras) < len(between)
               and spent >= seconds * (len(extras) + 1) / (len(between) + 1)):
            extras.append(between[len(extras)]())
        began = time.perf_counter()
        outcomes.append(run_pass())
        last = time.perf_counter() - began
        spent += last
        if spent + last > seconds:
            extras.extend(call() for call in between[len(extras):])
            return outcomes, extras


# ---------------------------------------------------------------------------
# Metrics


def median_of(values) -> Optional[float]:
    values = list(values)
    return statistics.median(values) if values else None


def tail(values: list[float]) -> tuple[Optional[float], float]:
    """The highest percentile with at least ten samples above it, and that percentile."""
    ordered = sorted(values)
    below = len(ordered) - 10
    if below < 1:
        return None, 0.0
    return ordered[below - 1], 100.0 * below / len(ordered)


def of_kind(results: list[Result], kind: str) -> list[Result]:
    return [r for r in results if r.command.kind == kind]


def end_to_end(setups: list[list[Result]], passes: list[list[Result]], tally: Tally):
    """The declared end-to-end metrics, plus the ones only some workloads have."""
    timed = [r for results in passes for r in results]
    every = [r for results in setups for r in results] + timed
    explains = of_kind(timed, "explain")
    # Test C-indices come from `eval` when the workload runs it, else from the
    # explanations, whose --data file the forest never saw.
    scored = of_kind(timed, "eval") or explains
    fits = of_kind(every, "fit")
    metrics = {
        "setup_s": median_of(sum(r.wall for r in results) for results in setups),
        "pipeline_s": median_of(sum(r.wall for r in results) for results in passes),
        "explain_s": median_of(r.wall for r in explains),
        "peak_rss_mb": max(r.rss_mb for r in every),
        "forest_bytes": fits[-1].facts["forest_bytes"],
        "artifact_bytes": sum(tree_bytes(r.command.out) for r in passes[0]),
        "c_index_blackbox_test": median_of(r.facts["c_index_blackbox"] for r in scored),
        "c_index_surrogate_test": median_of(r.facts["c_index_surrogate"] for r in scored),
    }
    extra = {
        "fit_s": median_of(r.wall for r in fits),
        "final_loss": statistics.fmean(r.facts["final_loss"] for r in explains),
        "loss_ratio": statistics.fmean(r.facts["final_loss"] / r.facts["initial_loss"]
                                       for r in explains),
        "eval_s": median_of(r.wall for r in of_kind(timed, "eval")),
        "shape_rmse": median_of(r.facts["shape_rmse"] for r in explains
                                if "shape_rmse" in r.facts),
        "error_rate": tally.failed / tally.attempted,
    }
    locals_ = [r for r in explains if "--mode" in r.command.argv]
    if locals_:
        walls = [r.wall for r in locals_]
        extra["local_explain_s"] = statistics.median(walls)
        extra["local_explain_tail_s"], percentile = tail(walls)
        extra["local_explain_tail_percentile"] = percentile
        extra["local_explain_samples"] = len(walls)
        extra["local_explanations_per_s"] = len(walls) / sum(
            sum(r.wall for r in results) for results in passes)
    return metrics, extra


UNITS = {
    "peak_rss_mb": "MB",
    "c_index_blackbox_test": "ratio",
    "c_index_surrogate_test": "ratio",
    "final_loss": "loss",
    "loss_ratio": "ratio",
    "shape_rmse": "log-risk",
    "error_rate": "ratio",
    "local_explanations_per_s": "1/s",
    "local_explain_tail_percentile": "%",
    "forest.leaf_fill_ratio": "ratio",
    "forest.max_depth": "levels",
    "forest.mean_depth": "levels",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "%" if name.startswith("share.") else "count"


def blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
    }


# ---------------------------------------------------------------------------
# The two kinds of run


def run_plain(workload, plan: Plan, seconds: float, tally: Tally):
    # Each set-up writes to its own directory; the passes use the first one's.
    setup, timed = workload(plan, Path("run"))
    later = tuple(workload(plan, Path(f"setup-{k}"))[0] for k in range(1, SETUP_REPEATS))
    first = tally.execute(setup, subprocess_runner)
    # Untimed warm-up: the first command of each kind, so that no timed
    # command is the first of its kind to read its inputs.
    warmup: dict[str, Command] = {}
    for command in timed:
        warmup.setdefault(command.kind, command)
    tally.execute(list(warmup.values()), subprocess_runner)
    passes, setups = timed_passes(
        lambda: tally.execute(timed, subprocess_runner), seconds,
        tuple(lambda commands=commands: tally.execute(commands, subprocess_runner)
              for commands in later))
    setups.insert(0, first)
    metrics, extra = end_to_end(setups, passes, tally)
    extra["setups"] = len(setups)
    extra["passes"] = len(passes)
    return metrics, extra


def set_allocator_thresholds() -> None:
    """This process's equivalent of ALLOCATOR_ENV, where the C library is glibc."""
    with contextlib.suppress(OSError, AttributeError):
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-1, MALLOC_TRIM_THRESHOLD)  # M_TRIM_THRESHOLD
        libc.mallopt(-3, MALLOC_MMAP_THRESHOLD)  # M_MMAP_THRESHOLD


def run_traced(workload, plan: Plan, seconds: float, tally: Tally):
    sys.path.insert(0, str(SRC))
    import survshape

    if not Path(survshape.__file__).resolve().is_relative_to(SRC):
        raise Abort(f"imported survshape from {survshape.__file__}, not from {SRC}")
    set_allocator_thresholds()
    tracer = tracing.Tracer()
    plain, traced = inprocess_runner(), inprocess_runner(tracer)
    plain_setup, plain_timed = workload(plan, Path("plain"))
    traced_setup, traced_timed = workload(plan, Path("traced"))
    flips = itertools.count()

    def paired(plain_commands, traced_commands):
        """Traced minus untraced wall time of the commands, and the traced totals.

        Each command runs untraced and traced back to back. Which goes first
        alternates, so the heap and caches the first leaves warm for the
        second do not count for one side only.
        """
        overhead = 0.0
        for plain_command, traced_command in zip(plain_commands, traced_commands):
            runs = [(-1.0, plain_command, plain), (1.0, traced_command, traced)]
            if next(flips) % 2:
                runs.reverse()
            for sign, command, runner in runs:
                [result] = tally.execute([command], runner)
                overhead += sign * result.wall
        return overhead, tracer.take()

    setup_overhead, setup_totals = paired(plain_setup, traced_setup)
    passes, _ = timed_passes(lambda: paired(plain_timed, traced_timed), seconds)
    keys = {key for _, totals in passes for key in totals}
    per_pass = {key: statistics.fmean(totals.get(key, 0.0) for _, totals in passes)
                for key in keys}
    totals = {key: setup_totals.get(key, 0.0) + per_pass.get(key, 0.0)
              for key in keys | setup_totals.keys()}
    metrics = tracing.layer_metrics(totals, per_pass, tracer.state)
    metrics["trace.overhead_s"] = setup_overhead + statistics.fmean(o for o, _ in passes)
    return metrics, {"passes": len(passes)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "survshape" / "cli.py").is_file():
        print(f"error: no survshape sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    home = os.getcwd()
    os.chdir(work)  # commands name their files relative to the run directory
    tally = Tally()
    metrics, extra, correct = {}, {}, False
    try:
        run = run_traced if args.trace else run_plain
        metrics, extra = run(WORKLOADS[args.workload], Plan.from_seed(args.seed),
                             args.seconds, tally)
        correct = tally.failed == 0
    except Abort as exc:
        print(f"FAILED: {exc}")
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    print(f"survshape benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(environment()))
    for name, value in {**metrics, **extra}.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<40} {shown:>14} {unit_of(name)}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
