"""Command-line front end.

Subcommands::

    pvmi synth   --config synth.json --out data.csv [--seed N]
    pvmi inject  data.csv --config missing.json --out masked.csv
                 [--truth-out truth.json] [--seed N]
    pvmi impute  masked.csv --config impute.json --out completed.csv [--seed N]
    pvmi run     --config experiment.json [--out outdir] [--seed N]
    pvmi report  outdir [--out summary.json]

Every config is a small JSON file; ``--seed`` overrides the seed stored in
the config so sweeps can be scripted without editing files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .errors import check
from .experiment import _check_keys, from_json, load_config, reaggregate, run
from .imputation import complete_series, fit_sampler
from .missingness import MissingSpec, inject_missing
from .series import parse_csv, write_csv
from .synth import SynthSpec, generate


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvmi",
        description="PV forecasting with missing-data uncertainty propagation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p.add_argument("--config", type=Path, help="JSON with generator settings")
    p.add_argument("--out", type=Path, required=True, help="output CSV path")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("inject", help="inject block gaps into a CSV")
    p.add_argument("data", type=Path, help="input CSV")
    p.add_argument("--config", type=Path, required=True, help="JSON gap spec")
    p.add_argument("--out", type=Path, required=True, help="masked CSV path")
    p.add_argument("--truth-out", type=Path, help="write removed values as JSON")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(handler=_cmd_inject)

    p = sub.add_parser("impute", help="emit one completed series")
    p.add_argument("data", type=Path, help="input CSV (may contain gaps)")
    p.add_argument("--config", type=Path, help='JSON: {"mode", "k", "seed"}')
    p.add_argument("--out", type=Path, required=True, help="completed CSV path")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(handler=_cmd_impute)

    p = sub.add_parser("run", help="run a full experiment grid")
    p.add_argument("--config", type=Path, required=True, help="experiment JSON")
    p.add_argument("--out", type=Path, help="output directory (overrides config)")
    p.add_argument("--seed", type=int, help="override the master seed")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("report", help="re-aggregate per-cell CSVs into a summary")
    p.add_argument("outdir", type=Path, help="experiment output directory")
    p.add_argument("--out", type=Path, help="where to write the summary JSON")
    p.set_defaults(handler=_cmd_report)
    return parser


def _cmd_synth(args) -> int:
    doc = json.loads(args.config.read_text()) if args.config else {}
    if args.seed is not None:
        doc["seed"] = args.seed
    series = generate(from_json(SynthSpec, "synth config", doc))
    write_csv(series, args.out)
    print(f"wrote {len(series)} hours to {args.out}")
    return 0


def _cmd_inject(args) -> int:
    doc = json.loads(args.config.read_text())
    if args.seed is not None:
        doc["seed"] = args.seed
    spec = from_json(MissingSpec, "gap config", doc)
    series = parse_csv(args.data)
    masked, truth = inject_missing(series, spec)
    write_csv(masked, args.out)
    if args.truth_out:
        args.truth_out.write_text(
            json.dumps({str(k): v for k, v in sorted(truth.values.items())}, indent=2)
        )
    print(f"masked {len(truth.values)} of {len(series)} hours -> {args.out}")
    return 0


def _cmd_impute(args) -> int:
    doc = json.loads(args.config.read_text()) if args.config else {}
    _check_keys("impute config", doc, known={"mode", "k", "seed"})
    mode = doc.get("mode", "single")
    if mode not in ("single", "stochastic"):
        raise ValueError(f"mode must be 'single' or 'stochastic', got {mode!r}")
    seed = check("seed", args.seed if args.seed is not None else doc.get("seed", 0), int, 0)
    k = doc.get("k")
    if k is not None:
        k = check("k", k, int, 1)
    series = parse_csv(args.data)
    sampler = fit_sampler(series, k=k)
    rng = np.random.default_rng(seed) if mode == "stochastic" else None
    completed = complete_series(series, sampler, rng)
    write_csv(completed, args.out)
    print(f"completed {int(series.mask.sum())} missing hours (k={sampler.k}) -> {args.out}")
    return 0


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    outdir = args.out if args.out else Path(config.output_dir)
    summary = run(config, outdir)
    ok = sum(1 for c in summary["cells"] if c["status"] == "ok")
    print(f"{ok}/{len(summary['cells'])} cells ok -> {outdir}")
    return 0


def _cmd_report(args) -> int:
    doc = reaggregate(args.outdir)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        args.out.write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
