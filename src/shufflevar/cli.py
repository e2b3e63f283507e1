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
import sys
from dataclasses import fields, replace

from . import __version__
from . import estimators as est
from . import io as sio
from .design import DesignSchedule, NoReplication, build_design
from .estimators import TrivialPermutation
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
    for method in methods:
        est.check_estimator(method)
    design, names, Y = sio.read_dataset(args.input)
    perm = sio.parse_permutation(args.permutation, design, seed=args.seed)

    results = []  # per method, one estimate or exception per series
    for method in methods:
        try:
            results.append(est.run_estimator(method, Y, design, perm, args.seed))
        except (TrivialPermutation, NoReplication) as exc:
            results.append((exc,) * len(names))
    rows = [
        sio.estimate_row(name, method, e)
        for name, per_method in zip(names, zip(*results))
        for method, e in zip(methods, per_method)
    ]

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
            raise ValueError(f"{path}: no [sweep] section")
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
        raise ValueError(f"{path}: {exc}") from None


def cmd_simulate(args) -> int:
    if args.config:
        kind, kwargs = _sweep_config_from_ini(args.config)
    elif args.preset:
        kwargs = dict(_PRESETS[args.preset])
        kind = kwargs.pop("kind")
    else:
        raise SystemExit("either --config or --preset is required")
    cfg = SweepConfig(**kwargs)
    overrides = {
        key: getattr(args, key)
        for key in ("replicates", "seed", "threads")
        if getattr(args, key) is not None
    }
    if overrides:
        cfg = replace(cfg, **overrides)

    result = _runners()[kind](cfg)
    emit_sweep_table(result, args.output or "/dev/stdout")
    return 0


def build_parser() -> argparse.ArgumentParser:
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
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
