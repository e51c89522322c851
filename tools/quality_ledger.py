"""Surrogate quality at paper scale: the ledger that gates changes which move floats.

Run from the repository root:

    python3 tools/quality_ledger.py --out ledger.json
    python3 tools/quality_ledger.py --trees 25 --epochs 20 --out smoke.json

The data are perfbench's: `survshape synth` with its shapes, 686 rows and
45 % censoring, seed 11 to train and seed 12 held out. One forest is fitted
(`fit --trees 500 --seed 3` by default). Then each variant (base, lasso
with --lam 0.1, shortcut with --lam 0.01) is explained globally at each
epoch count (`explain --seed 5`) and evaluated on the held-out file. Each
run records:

- final_loss, from explain's report.txt;
- c_index_train and c_index_heldout, the surrogate's C-index on the
  explained and on the held-out file;
- shape_rmse, perfbench's mean RMS gap of the curves to the true shapes;
- fidelity, the share of held-out pairs that the surrogate's log-risk and
  the forest's integrated CHF order the same way, a tie in either counting 1/2;
- explain_s and explain_peak_rss_mb, the explain process's wall time and
  peak RSS, with perfbench's malloc settings.

One more global explanation, of `synthetic.ExactCoxPredictor` (the noise-free
law the data came from) at the largest epoch count, is made as a library
call. Its shape_rmse is the surrogate's own error, without the forest's.

The last line of stdout is the ledger as JSON; --out also writes it. The
library is imported from this checkout's src/. The script edits nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # leave no cache files in perfbench/

from run import (ALLOCATOR_ENV, SHAPES, environment, number, read_curves,  # noqa: E402
                 read_report, shape_gaps)

from survshape.data import load_prepared_csv  # noqa: E402
from survshape.explain import explain_global  # noqa: E402
from survshape.forest import load_forest  # noqa: E402
from survshape.nam import NamConfig, load_model, predict_log_risk  # noqa: E402
from survshape.survival import risk_scores  # noqa: E402
from survshape.synthetic import ExactCoxPredictor, SyntheticSpec  # noqa: E402

ROWS = 686
CENSORING = 0.45
TRAIN_SEED, HELDOUT_SEED, FIT_SEED, EXPLAIN_SEED = 11, 12, 3, 5
VARIANTS = {"base": [], "lasso": ["--variant", "lasso", "--lam", "0.1"],
            "shortcut": ["--variant", "shortcut", "--lam", "0.01"]}


def survshape(*args, env=None):
    """Run one CLI command; returns its wall time (s) and peak RSS (MB)."""
    argv = [sys.executable, "-m", "survshape.cli", *map(str, args)]
    start = time.perf_counter()
    process = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(process.pid, 0)
    wall = time.perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    if process.returncode:
        sys.exit(f"survshape {' '.join(argv[3:])} exited {process.returncode}")
    return wall, usage.ru_maxrss / 1024


def fidelity(surrogate: np.ndarray, blackbox: np.ndarray) -> float:
    """Share of pairs i < j that both scores order the same way; a tie in either counts 1/2."""
    agree = np.sign(surrogate[:, None] - surrogate) * np.sign(blackbox[:, None] - blackbox)
    upper = np.triu_indices(len(surrogate), 1)
    return float(np.mean((1.0 + agree[upper]) / 2.0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--trees", type=int, default=500)
    parser.add_argument("--epochs", default="20,100,500,2000",
                        help="comma-separated epoch counts")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    epochs = [int(e) for e in args.epochs.split(",")]
    env = {**os.environ, **ALLOCATOR_ENV,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}

    runs, exact = [], {}
    with tempfile.TemporaryDirectory(prefix="quality-ledger-") as tmp:
        work = Path(tmp)
        for name, seed in (("train", TRAIN_SEED), ("heldout", HELDOUT_SEED)):
            survshape("synth", "--n", ROWS, "--m", len(SHAPES), "--shapes", ",".join(SHAPES),
                      "--censoring", CENSORING, "--seed", seed, "--out", work / name, env=env)
        train_csv, heldout_csv = work / "train" / "dataset.csv", work / "heldout" / "dataset.csv"
        fit_s, fit_mb = survshape("fit", "--data", train_csv, "--trees", args.trees,
                                  "--seed", FIT_SEED, "--out", work / "fit", env=env)
        forest = load_forest(work / "fit" / "forest.bin")[0]
        heldout = load_prepared_csv(heldout_csv)
        forest_risk = risk_scores(forest, heldout.features)

        for variant, flags in VARIANTS.items():
            for count in epochs:
                out = work / f"{variant}-{count}"
                wall, peak = survshape("explain", "--forest", work / "fit" / "forest.bin",
                                       "--data", train_csv, "--epochs", count,
                                       "--seed", EXPLAIN_SEED, *flags, "--out", out, env=env)
                survshape("eval", "--forest", work / "fit" / "forest.bin",
                          "--model", out / "nam.json", "--data", heldout_csv,
                          "--out", out / "eval", env=env)
                report, held = read_report(out), read_report(out / "eval")
                surrogate = predict_log_risk(load_model(out / "nam.json"), heldout.features)
                runs.append({
                    "variant": variant, "epochs": count,
                    "final_loss": number(report["final_loss"]),
                    "c_index_train": number(report["c_index_surrogate"]),
                    "c_index_heldout": number(held["c_index_surrogate"]),
                    "shape_rmse": shape_gaps(read_curves(out / "explanation.csv"), train_csv)[0],
                    "fidelity": fidelity(surrogate, forest_risk),
                    "explain_s": round(wall, 3), "explain_peak_rss_mb": round(peak, 1),
                })
                print(json.dumps(runs[-1]), flush=True)

        train = load_prepared_csv(train_csv)
        spec = SyntheticSpec(n=ROWS, m=len(SHAPES), shapes=SHAPES, censoring_rate=CENSORING,
                             seed=TRAIN_SEED)
        start = time.perf_counter()
        explanation = explain_global(ExactCoxPredictor.for_dataset(spec, train), train,
                                     NamConfig(epochs=epochs[-1], seed=EXPLAIN_SEED))
        exact = {
            "epochs": epochs[-1],
            "final_loss": explanation.diagnostics.final_loss,
            "shape_rmse": shape_gaps({c.feature: (c.xs, c.values) for c in explanation.curves},
                                     train_csv)[0],
            "explain_s": round(time.perf_counter() - start, 3),
        }

    ledger = {
        "data": f"synth {ROWS} rows, perfbench shapes, censoring {CENSORING}, seeds "
                f"{TRAIN_SEED} (train) and {HELDOUT_SEED} (held out); fit --trees "
                f"{args.trees} --seed {FIT_SEED}; explain --seed {EXPLAIN_SEED}",
        "environment": environment(),
        "fit": {"fit_s": round(fit_s, 3), "fit_peak_rss_mb": round(fit_mb, 1)},
        "runs": runs,
        "exact_cox": exact,
    }
    text = json.dumps(ledger, indent=1)
    if args.out is not None:
        args.out.write_text(text + "\n", encoding="utf-8")
    print(json.dumps(ledger))
    return 0


if __name__ == "__main__":
    sys.exit(main())
