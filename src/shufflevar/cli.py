"""Command-line front end.

Subcommands:

- ``estimate``  batch per-series variance estimation from a dataset CSV
- ``alpha``     mixing coefficient / triviality report for a permutation
- ``simulate``  Monte Carlo sweeps (presets or an INI config file)
- ``diagnose``  consistency and noise-conservation diagnostics
"""

from __future__ import annotations

import argparse
import configparser
import functools
import sys
from dataclasses import fields, replace

from . import __version__
from . import estimators as est
from . import io as sio
from .design import DesignSchedule, build_design
from .permutations import alpha as mixing_alpha
from .noise import noise_conservation_gap
from .permutations import is_trivial
from .sweeps import (
    SweepConfig,
    emit_sweep_table,
    parse_fields,
    run_block_sweep,
    run_reml_comparison,
    run_timeseries_sweep,
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="base RNG seed (echoed)")
    # Accepted and echoed for compatibility; work runs on the calling thread.
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--output", "-o", default=None, help="output path (default stdout)")


def _schedule_from_args(args) -> DesignSchedule:
    if getattr(args, "input", None):
        design, _, _ = sio.read_dataset(args.input)
        return design
    if getattr(args, "schedule", None):
        return build_design([s.strip() for s in args.schedule.split(",")])
    raise SystemExit("either --input or --schedule is required")


def _emit(args, lines) -> None:
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_estimate(args) -> int:
    methods = [m.strip() for m in args.estimators.split(",") if m.strip()]
    if not methods:
        raise ValueError("--estimators names no estimator")
    for method in methods:
        est.check_estimator(method)
    design, names, Y = sio.read_dataset(args.input)
    perm = sio.parse_permutation(args.permutation, design, seed=args.seed)

    # Shuffle and MoM share one contrast pass and are written from arrays.
    shared = est.batch_fits(Y, design, perm, methods)
    records = []  # per method, one output record per series
    for method in methods:
        results = shared.get(method)
        if isinstance(results, est.Fits):
            records.append(sio.fit_rows(names, results))
            continue
        if results is None:  # a REML method
            results = est.run_estimator(method, Y, design, perm, args.seed)
        else:  # shuffle's or MoM's check failed
            results = (results,) * len(names)
        records.append([sio.estimate_row(n, method, e) for n, e in zip(names, results)])
    rows = [row for per_series in zip(*records) for row in per_series]

    config_lines = [
        f"shufflevar {__version__} estimate",
        f"input = {args.input}",
        f"permutation = {args.permutation}",
        f"estimators = {','.join(methods)}",
        f"seed = {args.seed}",
        f"threads = {args.threads}",
    ]
    out = args.output or "/dev/stdout"
    sio.write_estimates(out, rows, config_lines)
    return 0


def cmd_alpha(args) -> int:
    design = _schedule_from_args(args)
    perm = sio.parse_permutation(args.permutation, design, seed=args.seed)
    a = mixing_alpha(design, perm)
    trivial = is_trivial(perm, design)
    lines = [
        f"T = {design.T}  m = {design.m}  n = {design.n}",
        f"permutation = {perm.family}",
        f"alpha = {a:.12g}",
        f"trivial = {'yes' if trivial else 'no'}",
    ]
    if args.noise:
        gap = noise_conservation_gap(sio.parse_noise(args.noise), design, perm)
        lines.append(f"noise_conservation_gap = {gap:.12g}")
    _emit(args, lines)
    return 0


def cmd_diagnose(args) -> int:
    design = _schedule_from_args(args)
    candidates = ["reverse", "shift:1", "block-random"]
    if design.T % 2 == 0:
        candidates.append("odd-even")
    model = sio.parse_noise(args.noise) if args.noise else None
    lines = [f"T = {design.T}  m = {design.m}  n = {design.n}"]
    if model is not None:
        diag = est.consistency_diagnostic(model.materialize(design), design.m, design.n)
        lines.append(f"consistency_diagnostic = {diag:.12g}")
    for spec in candidates:
        perm = sio.parse_permutation(spec, design, seed=args.seed)
        a = mixing_alpha(design, perm)
        line = f"{spec}: alpha = {a:.12g} trivial = {'yes' if is_trivial(perm, design) else 'no'}"
        if model is not None:
            gap = noise_conservation_gap(model, design, perm)
            line += f" gap = {gap:.12g}"
        lines.append(line)
    _emit(args, lines)
    return 0


_PRESETS = {
    "block": dict(kind="block"),
    "timeseries": dict(kind="timeseries"),
    "reml-comparison": dict(
        kind="reml",
        sigma2_A_grid=(0.0, 0.2, 0.4, 0.6, 0.8),
        estimators=("shuffle", "reml"),
    ),
}


def _runners() -> dict:
    """Sweep runner per ``kind``, read from the module at call time."""
    return {
        "block": run_block_sweep,
        "timeseries": run_timeseries_sweep,
        "reml": run_reml_comparison,
    }


def _sweep_config_from_ini(path) -> tuple:
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
        if not parser.has_section("sweep"):
            raise ValueError("no [sweep] section")
        sec = parser["sweep"]
        names = ("kind", *(f.name for f in fields(SweepConfig)))
        known = {parser.optionxform(name) for name in names}
        for key in sec:
            if key not in known:
                raise ValueError(f"unknown key {key!r} in [sweep]")
        kind = sec.get("kind", "block")
        if kind not in _runners():
            raise ValueError(f"unknown sweep kind {kind!r}")
        return kind, parse_fields(SweepConfig, sec)
    except configparser.Error as exc:  # values interpolate as they are read
        raise ValueError(str(exc)) from None


def cmd_simulate(args) -> int:
    if args.config:
        try:  # an error in the file's content names the file
            kind, kwargs = _sweep_config_from_ini(args.config)
            cfg = SweepConfig(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{args.config}: {exc}") from None
    elif args.preset:
        kwargs = dict(_PRESETS[args.preset])
        kind = kwargs.pop("kind")
        cfg = SweepConfig(**kwargs)
    else:
        raise SystemExit("either --config or --preset is required")
    overrides = {
        key: getattr(args, key)
        for key in ("replicates", "seed", "threads")
        if getattr(args, key) is not None
    }
    if overrides:  # an override's error is the flag's, not the file's
        cfg = replace(cfg, **overrides)

    try:  # an error only the sweep finds (lam1 > 1, m % n_blocks) is the file's
        result = _runners()[kind](cfg)
    except ValueError as exc:
        if not args.config:
            raise
        raise ValueError(f"{args.config}: {exc}") from None
    emit_sweep_table(result, args.output or "/dev/stdout")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    ``parse_args`` leaves it as it is.  A parser is a reference cycle that
    only the garbage collector frees, and a sweep allocates too few objects
    to run it often, so one parser per :func:`main` call would pile up
    across calls.
    """
    parser = argparse.ArgumentParser(
        prog="shufflevar",
        description="Signal-variance and explainable-variance estimation "
        "under correlated noise.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="batch per-series estimation")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--permutation", default="reverse")
    p.add_argument("--estimators", default="shuffle,mom")
    _add_common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("alpha", help="mixing coefficient report")
    p.add_argument("--input", "-i")
    p.add_argument("--schedule", help="comma-separated stimulus labels")
    p.add_argument("--permutation", default="reverse")
    p.add_argument("--noise", help="covariance hypothesis, e.g. exp-nugget:0.7,30")
    _add_common(p)
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("simulate", help="Monte Carlo sweep")
    p.add_argument("--config", help="INI config file with a [sweep] section")
    p.add_argument("--preset", choices=sorted(_PRESETS))
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("diagnose", help="consistency and conservation diagnostics")
    p.add_argument("--input", "-i")
    p.add_argument("--schedule")
    p.add_argument("--noise")
    _add_common(p)
    p.set_defaults(func=cmd_diagnose)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command != "simulate":  # simulate's config checks its own
            if args.seed < 0:
                raise ValueError(f"--seed must be nonnegative, got {args.seed}")
            if args.threads < 1:
                raise ValueError(f"--threads must be at least 1, got {args.threads}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
