"""Command-line front end.

  dmlab run <config.json>   [--seed S] [--threads T] [--out-dir D]
  dmlab plot <summary.json> --kind ratioVsN|ratioVsD|tailCurve [--out PATH]
  dmlab diag <ensemble.json> [--trials N] [--probes K] [--seed S] [--out PATH]

Exit codes: 0 success, 2 validation error, 3 partial trial failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from dmlab.ensembles import EnsembleSpec, marginal_diagnostics
from dmlab.runner import (_PLOT_KINDS, ConfigError, _check_output, _expect_keys, emit_plot_data,
                          parse_config, run_experiment)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARTIAL = 3


def _load_json(path: str) -> dict:
    try:
        with Path(path).open("r", encoding="utf-8") as f:
            value = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return value


def _cmd_run(args) -> int:
    cfg = _load_json(args.config)
    if args.seed is not None:
        cfg = {**cfg, "masterSeed": args.seed}
    config = parse_config(cfg)
    result = run_experiment(config, out_dir=args.out_dir, threads=args.threads)
    print(f"wrote {result.csv_path}")
    print(f"wrote {result.summary_path}")
    if result.failures:
        print(f"{result.failures} trial(s) failed; see the error column", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_plot(args) -> int:
    out = args.out or (Path(args.summary).with_suffix("") .name + f".{args.kind}.csv")
    path = emit_plot_data(_load_json(args.summary), args.kind, out)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_diag(args) -> int:
    raw = _load_json(args.ensemble)
    if args.out:
        _check_output(args.out)
    _expect_keys(raw, {"kind", "rows", "cols", "vectorAxis", "q"}, "ensemble spec")
    spec = EnsembleSpec(kind=raw.get("kind"), rows=raw.get("rows", 1), cols=raw.get("cols", 1),
                        vector_axis=raw.get("vectorAxis", "rows"))
    diag = marginal_diagnostics(spec, probe_directions=args.probes,
                                trials=args.trials, seed=args.seed,
                                q=raw.get("q", 4.0))
    text = json.dumps(dataclasses.asdict(diag), indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dmlab",
                                     description="random-ensemble embedding laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None, help="override masterSeed")
    p_run.add_argument("--threads", type=int, default=1,
                       help="worker processes, forked and capped at the CPU count "
                            "(default 1: run in this process); the files are the "
                            "same at any count")
    p_run.add_argument("--out-dir", default=".")
    p_run.set_defaults(func=_cmd_run)

    p_plot = sub.add_parser("plot", help="emit plot-ready tables from a summary")
    p_plot.add_argument("summary")
    p_plot.add_argument("--kind", required=True, choices=_PLOT_KINDS)
    p_plot.add_argument("--out", default=None)
    p_plot.set_defaults(func=_cmd_plot)

    p_diag = sub.add_parser("diag", help="marginal diagnostics for an ensemble spec")
    p_diag.add_argument("ensemble")
    p_diag.add_argument("--trials", type=int, default=20000)
    p_diag.add_argument("--probes", type=int, default=32)
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.add_argument("--out", default=None)
    p_diag.set_defaults(func=_cmd_diag)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
