"""Command-line entry point.

Subcommands compose the library into the standard analyses:

  breakdown    per-job step-time decomposition
  project      architecture what-if (speedups, feasibility)
  sweep        hardware-configuration what-if speedups
  aggregate    population statistics (shares, composition, CDFs)
  sensitivity  efficiency-grid or overlap-mode sensitivity
  synth        generate a seeded synthetic trace
  validate     check a trace, compare predictions to measured steps
  corpus       dump the built-in case-study corpus as a trace

Outputs are deterministic: identical inputs and flags produce identical
bytes.  Exit codes: 0 success, 2 malformed input data, 64 usage error,
66 missing/unreadable input, 73 output file cannot be written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .aggregate import composition, scale_distribution, share_cdf, weighted_breakdown
from .core import ArchitectureKind, OverlapMode, Population, Shares
from .corpus import DEFAULT_MIX, SynthSpec, builtin_corpus, synth_population
from .engine import evaluate, samples_per_second, validation_gap
# Unused here, but perfbench's tracer patches ``dlcost.cli.breakdown``.
from .engine import breakdown  # noqa: F401
from .ingest import (
    TraceFormatError,
    decode_trace,
    dump_trace,
    load_efficiency_model,
    load_hardware_profile,
    parse_trace,
)
from .projection import population_speedup_profile
from .report import FORMATS, Fixed, build_report, emit, input_digest, round9
from .sweep import (
    SweepAxis,
    SweepResource,
    cartesian_sweep,
    efficiency_sensitivity,
    hardware_sweep,
    overlap_comparison,
    standard_axes,
)
from .units import QuantityError, parse_quantity

EX_OK = 0
EX_DATA = 2
EX_USAGE = 64
EX_NOINPUT = 66
EX_CANTCREAT = 73

_ARCH_LABELS = [a.value for a in ArchitectureKind]


class _UsageError(Exception):
    pass


class _OutputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_report_parser(sub, name: str, help: str) -> argparse.ArgumentParser:
    """A subcommand that evaluates a population and emits a report: input,
    model and output flags."""
    p = sub.add_parser(name, help=help)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--trace", metavar="PATH", help="newline-delimited JSON trace file")
    src.add_argument("--corpus", action="store_true", help="use the built-in case-study corpus")
    p.add_argument("--hw", default="pai-baseline", metavar="PRESET|PATH",
                   help="hardware profile preset name or config file (default: pai-baseline)")
    p.add_argument("--eff", default="default", metavar="SPEC",
                   help="efficiency model: 'default', 'measured:<corpus job>', or a config file")
    p.add_argument("--overlap", choices=["none", "ideal"], default="none",
                   help="overlap model for total step time (default: none)")
    p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    p.add_argument("--format", choices=list(FORMATS), default="csv",
                   help="report format (default: csv)")
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="dlcost",
                     description="Analytical cost model for DL training workloads.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)

    _add_report_parser(sub, "breakdown", "per-job step-time breakdown")

    p = _add_report_parser(sub, "project", "architecture what-if projection")
    p.add_argument("--target", required=True, choices=_ARCH_LABELS,
                   help="architecture to project every job onto")

    p = _add_report_parser(sub, "sweep", "hardware-configuration sweep")
    p.add_argument("--axes", default=",".join(r.value for r in SweepResource),
                   help="comma-separated resources to vary (default: all four)")
    p.add_argument("--candidates", default=None,
                   help="comma-separated candidate values for a single axis "
                        "(unit strings or canonical numbers)")
    p.add_argument("--cartesian", action="store_true",
                   help="sweep the full cross-product of all axes")

    p = _add_report_parser(sub, "aggregate", "population statistics")
    p.add_argument("--stat", choices=["shares", "composition", "share-cdf", "scale-cdf"],
                   default="shares", help="which statistic to emit (default: shares)")
    p.add_argument("--component", choices=list(Shares.COMPONENTS), default="weight",
                   help="share component for --stat share-cdf (default: weight)")
    p.add_argument("--level", choices=["job", "cnode"], default="job",
                   help="aggregation level for --stat share-cdf (default: job)")

    p = _add_report_parser(sub, "sensitivity", "efficiency or overlap sensitivity")
    p.add_argument("--analysis", choices=["efficiency", "overlap"], default="efficiency")
    p.add_argument("--comp-grid", default="0.25,0.4,0.55,0.7,0.85,1.0",
                   help="compute/memory efficiency grid (comma-separated fractions)")
    p.add_argument("--comm-grid", default="0.25,0.4,0.55,0.7,0.85,1.0",
                   help="communication efficiency grid (comma-separated fractions)")
    p.add_argument("--target", default="allreduce_local", choices=_ARCH_LABELS,
                   help="projection target for --analysis overlap")

    p = sub.add_parser("synth", help="generate a synthetic trace")
    p.add_argument("--size", type=int, required=True, help="number of jobs")
    p.add_argument("--seed", type=int, required=True, help="RNG seed (mandatory)")
    p.add_argument("--mix", default=None,
                   help="architecture mix, e.g. 'ps_worker=0.4,one_worker_one_gpu=0.6'")
    p.add_argument("--out", metavar="PATH", help="write the trace here instead of stdout")

    _add_report_parser(sub, "validate", "validate a trace and compare to measurements")

    p = sub.add_parser("corpus", help="dump the built-in corpus as a trace")
    p.add_argument("--out", metavar="PATH", help="write the trace here instead of stdout")

    return parser


def _load_inputs(args) -> tuple[Population, list, str, str]:
    """Population, per-line errors, source label, and the SHA-256 of the
    input's bytes."""
    if getattr(args, "corpus", False):
        data = dump_trace(builtin_corpus()).encode("utf-8")
        source = "builtin-corpus"
    else:
        data = Path(args.trace).read_bytes()
        source = args.trace
    digest = input_digest(data)
    text = decode_trace(data, source)
    del data  # parse the text alone; do not hold the bytes as well
    pop, errors = parse_trace(text, strict=False, source=source)
    return pop, errors, source, digest


def _write_output(data: bytes, out: Optional[str]) -> None:
    if out:
        try:
            Path(out).write_bytes(data)
        except OSError as exc:
            raise _OutputError(f"{out}: cannot write output: {exc.strerror or exc}") from None
    else:
        sys.stdout.buffer.write(data)


# Each report handler returns its kind, its row blocks (each a mapping
# of column name -> one value per row or a ``Fixed`` cell shared by the
# block's rows, in report order) and its extra metadata.
def cmd_breakdown(args, pop, hw, eff, overlap):
    ev = evaluate(pop, hw, eff)
    t_total = ev.t_total(overlap)
    columns = {
        "job_id": pop.job_id,
        "arch": [arch.value for arch in pop.arch],
        "num_cnodes": pop.num_cnodes,
        "batch_size": pop.batch_size,
        "t_data": ev.t_data,
        "t_compute_bound": ev.t_compute_bound,
        "t_memory_bound": ev.t_memory_bound,
        "t_compute": ev.t_compute,
        **{f"t_weight_{m.value}": times for m, times in ev.t_weight_on.items()},
        "t_weight": ev.t_weight,
        "t_total": t_total,
        **{f"share_{c}": ev.share(c) for c in Shares.COMPONENTS},
        "shares_defined": [s > 0 for s in ev.component_sum],
        "throughput": [samples_per_second(n, b, t) if t > 0 else None
                       for n, b, t in zip(pop.num_cnodes, pop.batch_size, t_total)],
    }
    return "breakdown", [columns], None


#: The ProjectionSummary fractions that project and overlap reports carry.
_SUMMARY_FRACTIONS = ("fraction_infeasible", "fraction_step_sped_up",
                      "fraction_throughput_sped_up")


def cmd_project(args, pop, hw, eff, overlap):
    target = ArchitectureKind.from_label(args.target)
    table, summary = population_speedup_profile(pop, target, hw, eff, overlap)
    columns = {
        "job_id": pop.job_id,
        "source_arch": [a.value for a in table.source_arch],
        "target_arch": Fixed(target.value),
        **{name: getattr(table, name) for name in (
            "source_cnodes", "target_cnodes", "feasible", "reason", "source_t_total",
            "target_t_total", "step_speedup", "throughput_speedup")},
    }
    extra = {
        "target": target.value,
        "summary": {"n_jobs": summary.n_jobs,
                    **{name: round9(getattr(summary, name)) for name in _SUMMARY_FRACTIONS}},
    }
    return "projection", [columns], extra


def _parse_candidates(text: str, resource: SweepResource) -> tuple[float, ...]:
    values = []
    for item in text.split(","):
        item = item.strip()
        try:
            values.append(float(item))
        except ValueError:
            try:
                values.append(parse_quantity(item, resource.field.metadata["kind"]))
            except QuantityError as exc:
                raise _UsageError(f"--candidates: {exc}") from None
    return tuple(values)


def cmd_sweep(args, pop, hw, eff, overlap):
    resources = []
    for name in args.axes.split(","):
        name = name.strip()
        try:
            resource = SweepResource(name)
        except ValueError:
            raise _UsageError(f"unknown sweep axis {name!r} "
                              f"(known: {', '.join(r.value for r in SweepResource)})") from None
        if resource in resources:
            raise _UsageError(f"--axes gives {resource.value} more than once")
        resources.append(resource)
    axes = list(standard_axes(resources))
    if args.candidates is not None:
        if len(axes) != 1:
            raise _UsageError("--candidates requires exactly one axis in --axes")
        resource = axes[0].resource
        candidates = _parse_candidates(args.candidates, resource)
        try:
            axes = [SweepAxis(resource=resource, candidates=candidates)]
        except ValueError as exc:  # a candidate out of range
            raise _UsageError(str(exc)) from None
    extra = {"axes": {a.resource.value: [round9(c) for c in a.candidates] for a in axes}}
    if args.cartesian:
        table = cartesian_sweep(pop, axes, hw, eff, overlap)
        return "sweep-cartesian", [
            {"job_id": table.job_ids,
             "settings": Fixed(";".join(f"{r.value}={v:.9g}" for r, v in setting)),
             "speedup": speedups}
            for setting, speedups in zip(table.settings, table.speedups)], extra
    table = hardware_sweep(pop, axes, hw, eff, overlap)
    # Each one-axis setting is a single (resource, candidate) pair;
    # ``normalized`` is the candidate over its field's value in ``hw``.
    return "sweep", [
        {"job_id": table.job_ids, "resource": Fixed(resource.value),
         "candidate": Fixed(candidate),
         "normalized": Fixed(candidate / getattr(hw, resource.field.name)),
         "speedup": speedups}
        for [(resource, candidate)], speedups in zip(table.settings, table.speedups)], extra


def cmd_aggregate(args, pop, hw, eff, overlap):
    if args.stat == "shares":
        averages = weighted_breakdown(pop, hw, eff)
        per_level = zip(averages.job_level, averages.cnode_level)
        columns = {"level": ("job", "cnode"),
                   **{f"share_{c}": pair for c, pair in zip(Shares.COMPONENTS, per_level)}}
        return "aggregate", [columns], {"stat": "shares"}
    if args.stat == "composition":
        archs = composition(pop).values()
        columns = {"arch": [a.arch.value for a in archs],
                   **{name: [getattr(a, name) for a in archs]
                      for name in ("job_count", "job_fraction", "cnode_count", "cnode_fraction")}}
        return "aggregate", [columns], {"stat": "composition"}
    if args.stat == "share-cdf":
        cdf = share_cdf(pop, args.component, hw, eff, level=args.level)
        columns = dict(zip(("share", "cumulative_fraction"), zip(*cdf.points)))
        return "aggregate", [columns], {
            "stat": "share-cdf", "component": args.component, "level": args.level}
    # scale-cdf
    points = [(dist.arch.value, metric, x, f)
              for dist in scale_distribution(pop).values()
              for metric, cdf in (("num_cnodes", dist.cnodes), ("model_bytes", dist.model_bytes))
              for x, f in cdf.points]
    columns = dict(zip(("arch", "metric", "value", "cumulative_fraction"), zip(*points)))
    return "aggregate", [columns], {"stat": "scale-cdf"}


def _parse_grid(text: str, flag: str) -> list[float]:
    try:
        return [float(item) for item in text.split(",")]
    except ValueError:
        raise _UsageError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def cmd_sensitivity(args, pop, hw, eff, overlap):
    if args.analysis == "efficiency":
        comp_grid = _parse_grid(args.comp_grid, "--comp-grid")
        comm_grid = _parse_grid(args.comm_grid, "--comm-grid")
        try:
            cells = efficiency_sensitivity(pop, hw, comp_grid, comm_grid)
        except ValueError as exc:  # on a non-empty population, only a grid out of range
            raise _UsageError(str(exc)) from None
        columns = {name: [getattr(cell, name) for cell in cells]
                   for name in ("compute_eff", "comm_eff", "job_level_weight_share",
                                "cnode_level_weight_share")}
        return "sensitivity", [columns], {"analysis": "efficiency"}
    target = ArchitectureKind.from_label(args.target)
    cmp = overlap_comparison(pop, hw, eff, target)
    extra = {
        "analysis": "overlap",
        "target": target.value,
        "fraction_at_weight_path_ratio": round9(cmp.fraction_at_weight_path_ratio),
    }
    summaries = (cmp.no_overlap, cmp.ideal_overlap)
    columns = {
        "overlap": [OverlapMode.NO_OVERLAP.value, OverlapMode.IDEAL_OVERLAP.value],
        "job_level_weight_share": [cmp.job_level_weight_share] * len(summaries),
        "cnode_level_weight_share": [cmp.cnode_level_weight_share] * len(summaries),
        **{name: [getattr(s, name) for s in summaries] for name in _SUMMARY_FRACTIONS},
    }
    return "sensitivity", [columns], extra


def _parse_mix(text: str) -> dict[ArchitectureKind, float]:
    mix = {}
    for item in text.split(","):
        item = item.strip()
        label, sep, frac = item.partition("=")
        try:
            fraction = float(frac) if sep else None
        except ValueError:
            fraction = None
        if fraction is None:
            raise _UsageError(f"--mix entries must look like arch=fraction, got {item!r}")
        arch = ArchitectureKind.from_label(label.strip())
        if arch in mix:
            raise _UsageError(f"--mix gives {arch.value} more than once")
        mix[arch] = fraction
    return mix


def cmd_synth(args) -> int:
    try:
        mix = _parse_mix(args.mix) if args.mix is not None else dict(DEFAULT_MIX)
        spec = SynthSpec(size=args.size, seed=args.seed, mix=mix)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    pop = synth_population(spec)
    _write_output(dump_trace(pop).encode("utf-8"), args.out)
    return EX_OK


def cmd_corpus(args) -> int:
    _write_output(dump_trace(builtin_corpus()).encode("utf-8"), args.out)
    return EX_OK


def cmd_validate(pop, errors, hw, eff, overlap):
    """One row per rejected line, then one per record with its predicted step."""
    predicted = evaluate(pop, hw, eff).t_total(overlap)
    measured = pop.measured_step_seconds
    none = Fixed(None)
    rejected = {"line": [err.line for err in errors], "job_id": none, "status": Fixed("error"),
                "message": [err.message for err in errors],
                "predicted_step_seconds": none, "measured_step_seconds": none, "gap": none}
    records = {"line": none, "job_id": pop.job_id, "status": Fixed("ok"),
               "message": Fixed(""), "predicted_step_seconds": predicted,
               "measured_step_seconds": measured,
               "gap": [validation_gap(p, m) if m else None for p, m in zip(predicted, measured)]}
    return "validate", [rejected, records], {"n_errors": len(errors)}


_HANDLERS = {
    "breakdown": cmd_breakdown,
    "project": cmd_project,
    "sweep": cmd_sweep,
    "aggregate": cmd_aggregate,
    "sensitivity": cmd_sensitivity,
}


def run(argv: Optional[list[str]] = None) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"dlcost: {exc}", file=sys.stderr)
        return EX_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EX_USAGE

    try:
        if args.command == "synth":
            return cmd_synth(args)
        if args.command == "corpus":
            return cmd_corpus(args)

        hw = load_hardware_profile(args.hw)
        eff = load_efficiency_model(args.eff)
        overlap = OverlapMode(args.overlap)
        pop, errors, source, digest = _load_inputs(args)
        for err in errors:
            print(f"{source}:{err.line}: {err.message}", file=sys.stderr)

        # validate reports malformed lines; every other report needs a
        # well-formed, non-empty trace.
        if args.command == "validate":
            kind, blocks, extra = cmd_validate(pop, errors, hw, eff, overlap)
        elif errors:
            return EX_DATA
        elif len(pop) == 0:
            print(f"dlcost: {source}: no records", file=sys.stderr)
            return EX_DATA
        else:
            kind, blocks, extra = _HANDLERS[args.command](args, pop, hw, eff, overlap)
        report = build_report(kind, blocks, hw, eff, overlap, source, digest, extra)
        del pop, blocks  # only the report stays referenced while it is emitted
        _write_output(emit(report, args.format), args.out)
        return EX_DATA if errors else EX_OK
    except _UsageError as exc:
        print(f"dlcost: {exc}", file=sys.stderr)
        return EX_USAGE
    except _OutputError as exc:
        print(f"dlcost: {exc}", file=sys.stderr)
        return EX_CANTCREAT
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"dlcost: {exc}", file=sys.stderr)
        return EX_NOINPUT
    except (TraceFormatError, QuantityError, ValueError) as exc:
        print(f"dlcost: {exc}", file=sys.stderr)
        return EX_DATA


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
