"""Drive a whole experiment grid from one JSON config and read the artifacts.

Equivalent shell session:

    pvmi run --config demo-experiment.json --out demo-exp-out
    pvmi report demo-exp-out

Run:  python3 demos/05_experiment_grid.py
"""

import json
from pathlib import Path

from pvmi.experiment import load_config, reaggregate, run

CONFIG = {
    "schema_version": 1,
    "data": {"synth": {"days": 40, "seed": 30}},
    "test_len": 24 * 20,
    "models": [
        {"family": "knn", "hyperparameters": {"k": 4}},
        {"family": "lasso", "tune": True, "folds": 3},
    ],
    "setups": [1, 2, 3],
    "n_rounds": [5],
    "interval_families": ["normal", "gamma"],
    "train_missing": {"mode": "target-fraction", "target_fraction": 0.3,
                      "block_len_hours": 48, "seed": 1},
    "test_missing": {"mode": "target-fraction", "target_fraction": 0.3,
                     "block_len_hours": 24, "seed": 2},
    "alpha": 0.05,
    "master_seed": 12,
}


def main():
    cfg_path = Path("demo-experiment.json")
    cfg_path.write_text(json.dumps(CONFIG, indent=2))
    out = Path("demo-exp-out")

    summary = run(load_config(cfg_path), out)
    print(f"ran {len(summary['cells'])} cells into {out}/\n")

    print(f"{'model':7s} {'setup':5s} {'B':>3s} {'interval':8s} "
          f"{'coverage':>8s} {'NRMSE':>7s} {'width':>7s}")
    for cell in summary["cells"]:
        b = cell["n_rounds"] if cell["n_rounds"] is not None else "-"
        print(f"{cell['model']:7s} {cell['setup']:5d} {b:>3} "
              f"{cell['interval_family']:8s} {cell['coverage']:8.3f} "
              f"{cell['nrmse']:7.4f} {cell['mean_width']:7.3f}")

    rebuilt = reaggregate(out)
    same = all(
        a["coverage"] == b["coverage"] and a["nrmse"] == b["nrmse"]
        for a, b in zip(summary["cells"], rebuilt["cells"])
    )
    print(f"\nre-aggregating the per-cell CSVs reproduces the summary: {same}")
    print("inspect demo-exp-out/manifest.json for resolved hyperparameters "
          "and the cell seeds, one per model and setup")


if __name__ == "__main__":
    main()
