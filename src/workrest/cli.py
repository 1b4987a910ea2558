"""Command-line front end.

Subcommands: ``gen-workers`` (synthetic worker CSV), ``simulate`` (one
run), ``sweep`` (full policy/knob/load-factor grid) and ``report``
(per-policy aggregates of a sweep). Exit codes: 0 success, 1 I/O
failure, 2 usage or validation error. ``simulate`` and ``sweep`` also
print one health line to stderr: drift-bound violations per slot, the
stability inequality and task conservation over every run.

``simulate`` and ``sweep`` also accept ``--config FILE`` with a JSON
object whose keys mirror the long flag names (underscored). The file's
values become the subcommand's defaults, so any flag given on the command
line wins over them.
"""

from __future__ import annotations

import argparse
import json
import sys

from .engine import SimConfig, run
from .policies import KNOB_FIELDS, POLICY_KINDS, PolicyParams
from .population import Distribution, PopulationSpec, generate, load_csv, write_csv
from .sweep import (
    SWEEP_HEADER,
    PointDiagnostics,
    SweepSpec,
    aggregate_report,
    parse_sweep_csv,
    per_slot_csv,
    report_rows_to_csv,
    run_sweep,
    sweep_rows_to_csv,
)


class UsageError(ValueError):
    """Validation failure that should exit with code 2."""


def _parse_deadline(text: str) -> int | None:
    if str(text).lower() in ("inf", "none"):
        return None
    return int(text)


def _parse_grid(value) -> tuple[float, ...]:
    """Grid syntax: comma list ('5,25,50') and/or ranges ('5:100:5')."""
    if isinstance(value, (list, tuple)):
        return tuple(float(v) for v in value)
    values: list[float] = []
    for part in str(value).split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            pieces = part.split(":")
            if len(pieces) != 3:
                raise UsageError(f"bad grid range {part!r}, expected start:stop:step")
            start, stop, step_ = (float(p) for p in pieces)
            if step_ <= 0:
                raise UsageError(f"grid step must be positive in {part!r}")
            v = start
            while v <= stop + 1e-9:
                values.append(round(v, 10))
                v += step_
        else:
            values.append(float(part))
    if not values:
        raise UsageError(f"empty grid {value!r}")
    return tuple(values)


def _parse_dist(text: str) -> Distribution:
    kind, _, args = text.partition(":")
    try:
        if kind == "const":
            return Distribution.constant(float(args))
        if kind == "uniform":
            lo, hi = (float(v) for v in args.split(","))
            return Distribution.uniform(lo, hi)
    except ValueError as exc:
        raise UsageError(f"bad distribution {text!r}: {exc}") from None
    raise UsageError(f"bad distribution {text!r}, expected const:V or uniform:LO,HI")


def _config_defaults(args: argparse.Namespace) -> dict:
    """The ``--config`` file's values, keyed by flag destination."""
    with open(args.config, encoding="utf-8") as fh:
        file_values = json.load(fh)
    if not isinstance(file_values, dict):
        raise UsageError(f"{args.config}: config must be a JSON object")
    defaults = {}
    for key, value in file_values.items():
        attr = key.replace("-", "_")
        if attr not in vars(args) or attr in ("command", "func", "config"):
            raise UsageError(f"{args.config}: unknown config key {key!r}")
        defaults[attr] = value
    return defaults


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse ``argv``; a ``--config`` file supplies the subcommand's defaults."""
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        commands[args.command].set_defaults(**_config_defaults(args))
        args = parser.parse_args(argv)
    return args


def _resolve_population(args: argparse.Namespace):
    if args.workers and args.gen_n:
        raise UsageError("give either --workers or --gen-n, not both")
    if args.workers:
        return load_csv(args.workers)
    if args.gen_n:
        return generate(PopulationSpec(count=args.gen_n, seed=args.seed))
    raise UsageError("a population is required: --workers CSV or --gen-n N")


def _build_policy(args: argparse.Namespace) -> PolicyParams:
    kind = str(args.policy).lower()
    if kind not in POLICY_KINDS:
        raise UsageError(f"unknown policy {args.policy!r}")
    knobs = {name: getattr(args, name) for name in KNOB_FIELDS.values() if name}
    wanted = KNOB_FIELDS[kind]
    for name, value in knobs.items():
        if value is not None and name != wanted:
            raise UsageError(f"--{name} is not a knob of policy {kind!r}")
    if wanted is not None and knobs[wanted] is None:
        raise UsageError(f"policy {kind!r} requires --{wanted}")
    if wanted is None:
        return PolicyParams(kind=kind)
    return PolicyParams(kind=kind, **{wanted: knobs[wanted]})


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _print_health(diagnostics: list[PointDiagnostics]) -> None:
    """The stderr health line of ``simulate`` and ``sweep``, over every run."""
    print(
        f"drift-bound violations: {sum(d.drift_violations for d in diagnostics)}/"
        f"{sum(d.slots for d in diagnostics)} slots; "
        f"stability: {all(d.stability_ok for d in diagnostics)}; "
        f"task conservation: {all(d.conserves_tasks for d in diagnostics)}",
        file=sys.stderr,
    )


def cmd_gen_workers(args: argparse.Namespace) -> int:
    spec = PopulationSpec(
        count=args.n,
        reputation_dist=_parse_dist(args.rep_dist),
        mu_max_dist=_parse_dist(args.mu_max_dist),
        seed=args.seed,
    )
    write_csv(args.out, generate(spec))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    for name in ("policy", "lf"):
        if getattr(args, name) is None:
            raise UsageError(f"simulate requires --{name} (or {name!r} in --config)")
    args.deadline = _parse_deadline(args.deadline) if isinstance(args.deadline, str) else args.deadline
    policy = _build_policy(args)
    population = _resolve_population(args)
    config = SimConfig(
        slots=args.slots,
        load_factor=args.lf,
        policy=policy,
        seed=args.seed,
        deadline=args.deadline,
    )
    result = run(config, population, keep_reports=args.per_slot is not None)
    m = result.metrics
    # Single-run summary reuses the sweep schema; the ME-relative columns
    # are only defined against a baseline run, so they are NA except for
    # ME itself (its own baseline by definition).
    pct = "100.000000" if policy.kind == "me" else "NA"
    row = ",".join(
        [
            policy.kind,
            policy.knob_name,
            f"{policy.knob_value:.6f}",
            f"{args.lf:.6f}",
            f"{m.effort_avg:.6f}",
            f"{m.expiry_avg:.6f}",
            f"{m.completion_avg:.6f}",
            pct,
            pct,
        ]
    )
    _write_text(args.out, ",".join(SWEEP_HEADER) + "\n" + row + "\n")
    if args.per_slot is not None:
        _write_text(args.per_slot, per_slot_csv(result.reports))
    _print_health([PointDiagnostics.of(result, config.slots)])
    return 0


def _sweep_spec(args: argparse.Namespace) -> SweepSpec:
    args.deadline = _parse_deadline(args.deadline) if isinstance(args.deadline, str) else args.deadline
    if isinstance(args.policies, (list, tuple)):
        policies = tuple(str(p).lower() for p in args.policies)
    else:
        policies = tuple(p.strip().lower() for p in args.policies.split(",") if p.strip())
    for p in policies:
        if p not in POLICY_KINDS:
            raise UsageError(f"unknown policy {p!r} in --policies")
    return SweepSpec(
        policies=policies,
        phi_grid=_parse_grid(args.phi_grid),
        sigma_grid=_parse_grid(args.sigma_grid),
        theta1_grid=_parse_grid(args.theta1_grid),
        theta2_grid=_parse_grid(args.theta2_grid),
        lf_grid=_parse_grid(args.lf_grid),
        slots=args.slots,
        seed=args.seed,
        deadline=args.deadline,
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = _sweep_spec(args)
    population = _resolve_population(args)
    rows, diagnostics = run_sweep(spec, population, jobs=args.jobs, collect_diagnostics=True)
    _write_text(args.out, sweep_rows_to_csv(rows))
    _print_health(diagnostics)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    with open(args.sweep_csv, encoding="utf-8") as fh:
        rows = parse_sweep_csv(fh.read())
    _write_text(args.out, report_rows_to_csv(aggregate_report(rows)))
    return 0


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and the subcommand parsers that take ``--config``."""
    parser = argparse.ArgumentParser(
        prog="workrest",
        description="Work-rest scheduling simulator and experiment harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-workers", help="write a synthetic worker CSV")
    gen.add_argument("--n", type=int, required=True, help="population size")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--rep-dist", default="uniform:0.5,1.0",
                     help="reputation distribution: const:V or uniform:LO,HI")
    gen.add_argument("--mu-max-dist", default="uniform:1,10",
                     help="capacity distribution: const:V or uniform:LO,HI (integers)")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen_workers)

    sim = sub.add_parser("simulate", help="run one configuration")
    sim.add_argument("--policy", help="me|mt|mw|ac|cpl (required)")
    sim.add_argument("--phi", type=float)
    sim.add_argument("--sigma", type=float)
    sim.add_argument("--theta1", type=float)
    sim.add_argument("--theta2", type=float)
    sim.add_argument("--lf", type=float, help="load factor in (0,1] (required)")
    sim.add_argument("--slots", type=int, default=10_000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--deadline", default=3,
                     help="task deadline in slots, or 'inf' (default: 3)")
    sim.add_argument("--workers", help="worker CSV path")
    sim.add_argument("--gen-n", type=int, help="synthetic population size")
    sim.add_argument("--out", help="summary CSV path (default: stdout)")
    sim.add_argument("--per-slot", help="optional per-slot dump CSV path")
    sim.add_argument("--config", help="JSON file with defaults for these flags")
    sim.set_defaults(func=cmd_simulate)

    swp = sub.add_parser("sweep", help="run a (policy x knob x load factor) grid")
    swp.add_argument("--policies", default=",".join(POLICY_KINDS))
    swp.add_argument("--phi-grid", default="5:100:5")
    swp.add_argument("--sigma-grid", default="5:100:5")
    swp.add_argument("--theta1-grid", default="0.05:1.0:0.05")
    swp.add_argument("--theta2-grid", default="0.05:1.0:0.05")
    swp.add_argument("--lf-grid", default="0.05:1.0:0.05")
    swp.add_argument("--slots", type=int, default=10_000)
    swp.add_argument("--seed", type=int, default=0)
    swp.add_argument("--deadline", default=3)
    swp.add_argument("--workers")
    swp.add_argument("--gen-n", type=int)
    swp.add_argument("--jobs", type=int, default=1, help="parallel sweep processes")
    swp.add_argument("--out", help="sweep CSV path (default: stdout)")
    swp.add_argument("--config", help="JSON file with defaults for these flags")
    swp.set_defaults(func=cmd_sweep)

    rep = sub.add_parser("report", help="aggregate a sweep CSV per policy")
    rep.add_argument("sweep_csv")
    rep.add_argument("--out", help="report CSV path (default: stdout)")
    rep.set_defaults(func=cmd_report)

    return parser, {"simulate": sim, "sweep": swp}


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
