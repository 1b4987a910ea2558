"""Command-line front end.

Subcommands: ``gen-workers`` (synthetic worker CSV), ``simulate`` (one
run), ``sweep`` (full policy/knob/load-factor grid) and ``report``
(per-policy aggregates of a sweep). Exit codes: 0 success, 1 I/O
failure or out of memory, 2 usage or validation error, 3 a failed
invariant. ``simulate`` and ``sweep`` also print one health line to
stderr: drift-bound violations per slot, the stability inequality and
task conservation over every run; any failure there exits 3 too.

An argument ``@FILE`` stands for the lines of the UTF-8 file, one argument
each (``--phi-grid=5,25,50,100``), so a settings file is part of the command
line: a flag after it wins over the file, and one before it loses.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from .engine import SimConfig, SimulationError, run
from .policies import KNOB_FIELDS, PolicyParams
from .population import PopulationSpec, generate, load_csv, write_csv
from .sweep import (
    MAX_GRID_POINTS,
    PointDiagnostics,
    SweepSpec,
    aggregate_report,
    baseline_rows,
    load_sweep_csv,
    per_slot_csv,
    report_rows_to_csv,
    run_sweep,
    sweep_rows_to_csv,
)


# ``simulate``'s knob flags (``--phi`` ...) and ``sweep``'s SweepSpec grid flags.
_KNOBS = tuple(name for name in KNOB_FIELDS.values() if name)
_GRIDS = tuple(f.name for f in dataclasses.fields(SweepSpec) if f.name.endswith("_grid"))


class _ArgumentParser(argparse.ArgumentParser):
    """argparse's parser, reading each ``@FILE`` as UTF-8 whatever the locale."""

    def _read_args_from_files(self, arg_strings: list[str]) -> list[str]:
        expanded: list[str] = []
        for arg in arg_strings:
            if not arg or arg[0] not in self.fromfile_prefix_chars:
                expanded.append(arg)
                continue
            try:
                with open(arg[1:], encoding="utf-8") as fh:
                    lines = fh.read().splitlines()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{arg[1:]}: not UTF-8: {exc}") from None
            except OSError as exc:
                self.error(str(exc))
            expanded += self._read_args_from_files(lines)
        return expanded


def _parse_deadline(text: str) -> int | None:
    if text == "inf":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected whole slots or 'inf', got {text!r}") from None


def _parse_grid(text: str) -> tuple[float, ...]:
    """Grid syntax: comma list ('5,25,50') and/or ranges ('5:100:5'), whose
    values are computed by index, so they stay on the step's lattice."""
    values: list[float] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            pieces = [float(p) for p in part.split(":")]
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad grid part {part!r}, expected numbers") from None
        if len(pieces) == 1:
            values.append(pieces[0])
            continue
        if len(pieces) != 3:
            raise argparse.ArgumentTypeError(f"bad grid range {part!r}, expected start:stop:step")
        start, stop, step_ = pieces
        if not all(map(math.isfinite, pieces)):
            raise argparse.ArgumentTypeError(f"grid range {part!r} must be finite")
        if step_ <= 0:
            raise argparse.ArgumentTypeError(f"grid step must be positive in {part!r}")
        # Value i is start + i * step, for every i up to the stop (less 1e-9 of a step).
        span = (stop - start) / step_ + 1e-9
        if len(values) + span >= MAX_GRID_POINTS:
            raise argparse.ArgumentTypeError(
                f"grid range {part!r} takes the grid past {MAX_GRID_POINTS} values")
        values += [round(start + i * step_, 10) for i in range(math.floor(span) + 1)]
    if not values:
        raise argparse.ArgumentTypeError(f"empty grid {text!r}")
    return tuple(values)


def _number(text: str) -> int | float:
    """``text`` as an ``int`` when it is a whole number, exactly, else as a float."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _parse_dist(text: str) -> tuple[float, float]:
    """A ``(lo, hi)`` range: ``const:V`` is ``(V, V)``."""
    kind, _, args = text.partition(":")
    try:
        if kind == "const":
            return (_number(args),) * 2
        if kind == "uniform":
            lo, hi = map(_number, args.split(","))
            return lo, hi
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad distribution {text!r}: {exc}") from None
    raise argparse.ArgumentTypeError(
        f"bad distribution {text!r}, expected const:V or uniform:LO,HI")


def _resolve_population(args: argparse.Namespace):
    """The population of ``--workers`` or ``--gen-n``; argparse requires one."""
    if args.workers is not None:
        return load_csv(args.workers)
    return generate(PopulationSpec(count=args.gen_n, seed=args.seed))


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _print_health(diagnostics: list[PointDiagnostics]) -> int:
    """Print the stderr health line of ``simulate`` and ``sweep``, over every
    run; returns the exit code, 3 if it reports any failure and 0 otherwise."""
    violations = sum(d.drift_violations for d in diagnostics)
    stable = all(d.stability_ok for d in diagnostics)
    conserves = all(d.conserves_tasks for d in diagnostics)
    print(
        f"drift-bound violations: {violations}/{sum(d.slots for d in diagnostics)} slots; "
        f"stability: {stable}; task conservation: {conserves}",
        file=sys.stderr,
    )
    return 0 if violations == 0 and stable and conserves else 3


def cmd_gen_workers(args: argparse.Namespace) -> int:
    """The ranges of the flags that were given; ``PopulationSpec`` fills in the rest."""
    ranges = {field: getattr(args, field) for field in ("reputation_dist", "mu_max_dist")
              if getattr(args, field) is not None}
    write_csv(args.out, generate(PopulationSpec(count=args.n, seed=args.seed, **ranges)))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    knobs = {name: getattr(args, name) for name in _KNOBS if getattr(args, name) is not None}
    policy = PolicyParams(args.policy, **knobs)
    population = _resolve_population(args)
    config = SimConfig(args.slots, args.lf, policy, args.seed, args.deadline)
    result = run(config, population, keep_reports=args.per_slot is not None)
    # A sweep's baseline rule, over this one run.
    rows = baseline_rows([((policy, args.lf), result.metrics)])
    _write_text(args.out, sweep_rows_to_csv(rows))
    if args.per_slot is not None:
        _write_text(args.per_slot, per_slot_csv(result.reports))
    return _print_health([PointDiagnostics.of(result, config.slots)])


def _sweep_spec(args: argparse.Namespace) -> SweepSpec:
    """The grid of the flags that were given; ``SweepSpec`` fills in the rest."""
    grids = {name: getattr(args, name) for name in _GRIDS if getattr(args, name) is not None}
    if args.policies is not None:
        grids["policies"] = tuple(p for p in map(str.strip, args.policies.split(",")) if p)
    return SweepSpec(**grids, slots=args.slots, seed=args.seed, deadline=args.deadline)


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = _sweep_spec(args)
    population = _resolve_population(args)
    rows, diagnostics = run_sweep(spec, population, jobs=args.jobs, collect_diagnostics=True)
    _write_text(args.out, sweep_rows_to_csv(rows))
    return _print_health(diagnostics)


def cmd_report(args: argparse.Namespace) -> int:
    _write_text(args.out, report_rows_to_csv(aggregate_report(load_sweep_csv(args.sweep_csv))))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="workrest",
        description="Work-rest scheduling simulator and experiment harness.",
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # simulate's and sweep's shared flags.
    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("--slots", type=int, default=SweepSpec.slots)
    run_flags.add_argument("--seed", type=int, default=SweepSpec.seed)
    run_flags.add_argument("--deadline", type=_parse_deadline, default=SweepSpec.deadline,
                           help="task deadline in slots, or 'inf' (default: %(default)s)")
    source = run_flags.add_mutually_exclusive_group(required=True)
    source.add_argument("--workers", help="worker CSV path")
    source.add_argument("--gen-n", type=int, help="synthetic population size")

    gen = sub.add_parser("gen-workers", help="write a synthetic worker CSV")
    gen.add_argument("--n", type=int, required=True, help="population size")
    gen.add_argument("--seed", type=int, default=PopulationSpec.seed)
    gen.add_argument("--rep-dist", dest="reputation_dist", type=_parse_dist,
                     help="reputation distribution: const:V or uniform:LO,HI")
    gen.add_argument("--mu-max-dist", type=_parse_dist,
                     help="capacity distribution: const:V or uniform:LO,HI "
                          "(whole numbers in [1, 2**53])")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen_workers)

    sim = sub.add_parser("simulate", parents=[run_flags], help="run one configuration")
    sim.add_argument("--policy", required=True, help="me|mt|mw|ac|cpl")
    for knob in _KNOBS:
        sim.add_argument("--" + knob, type=float)
    sim.add_argument("--lf", type=float, required=True, help="load factor in (0,1]")
    sim.add_argument("--out", help="summary CSV path (default: stdout)")
    sim.add_argument("--per-slot", help="optional per-slot dump CSV path")
    sim.set_defaults(func=cmd_simulate)

    swp = sub.add_parser("sweep", parents=[run_flags],
                         help="run a (policy x knob x load factor) grid")
    swp.add_argument("--policies", help="comma list (default: all five)")
    for name in _GRIDS:
        swp.add_argument("--" + name.replace("_", "-"), type=_parse_grid,
                         help="comma list and/or start:stop:step ranges")
    swp.add_argument("--jobs", type=int, default=1, help="parallel sweep processes (>= 1)")
    swp.add_argument("--out", help="sweep CSV path (default: stdout)")
    swp.set_defaults(func=cmd_sweep)

    rep = sub.add_parser("report", help="aggregate a sweep CSV per policy")
    rep.add_argument("sweep_csv")
    rep.add_argument("--out", help="report CSV path (default: stdout)")
    rep.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except RecursionError:  # argparse expands an @FILE within an @FILE recursively
            raise ValueError("an argument file includes itself, or they nest too deeply") from None
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
