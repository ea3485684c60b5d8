#!/usr/bin/env python3
"""Cluster-scale what-if study on a synthetic population.

Generates a seeded population, then reproduces the cluster-level
analyses: workload composition, job- vs cNode-level breakdown averages,
projection of PS/Worker jobs to both AllReduce variants, the standard
hardware-configuration sweep, and the efficiency/overlap sensitivity
views.  Reports land in --outdir as CSV.
"""

import argparse
from pathlib import Path

from dlcost import (
    ArchitectureKind,
    EfficiencyModel,
    SynthSpec,
    composition,
    efficiency_sensitivity,
    hardware_sweep,
    overlap_comparison,
    pai_baseline,
    population_speedup_profile,
    standard_axes,
    synth_population,
    weighted_breakdown,
    write_trace,
)
from dlcost.cli import run as dlcost_run

A = ArchitectureKind


def ps_worker_jobs(pop):
    return tuple(r for r in pop if r.arch is A.PS_WORKER)


def print_composition(pop):
    print(f"{'arch':22s} {'jobs':>6s} {'job%':>7s} {'cNodes':>8s} {'cNode%':>7s}")
    for arch, c in composition(pop).items():
        print(f"{arch.value:22s} {c.job_count:6d} {c.job_fraction:7.1%} "
              f"{c.cnode_count:8d} {c.cnode_fraction:7.1%}")


def print_shares(pop, hw, eff):
    avg = weighted_breakdown(pop, hw, eff)
    for level, shares in (("job", avg.job_level), ("cNode", avg.cnode_level)):
        print(f"{level:>6s}-level: data {shares.data:6.1%}  "
              f"compute-bound {shares.compute_bound:6.1%}  "
              f"memory-bound {shares.memory_bound:6.1%}  weight {shares.weight:6.1%}")


def print_projection(pop, target, hw, eff):
    _, summary = population_speedup_profile(pop, target, hw, eff)
    print(f"-> {target.value}: {summary.fraction_throughput_sped_up:.1%} gain throughput, "
          f"{summary.fraction_step_sped_up:.1%} gain per-step, "
          f"{summary.fraction_infeasible:.1%} infeasible")


def print_sweep(pop, hw, eff):
    table = hardware_sweep(pop, standard_axes(), hw, eff)
    by_axis = {}
    for [(resource, candidate)], speedups in zip(table.settings, table.speedups):
        normalized = candidate / getattr(hw, resource.field.name)
        by_axis.setdefault(resource.value, {})[normalized] = sum(speedups) / len(speedups)
    for axis, means in by_axis.items():
        line = "  ".join(f"x{norm:g}: {mean:5.2f}" for norm, mean in sorted(means.items()))
        print(f"{axis:20s} mean speedup  {line}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=2000, help="population size")
    parser.add_argument("--seed", type=int, default=7, help="generator seed")
    parser.add_argument("--outdir", default="out/cluster_whatif", help="report directory")
    args = parser.parse_args()

    hw = pai_baseline()
    eff = EfficiencyModel()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    pop = synth_population(SynthSpec(size=args.size, seed=args.seed))
    trace = outdir / "population.jsonl"
    write_trace(pop, trace)

    print(f"== composition ({args.size} jobs, seed {args.seed}) ==")
    print_composition(pop)

    print("\n== average execution-time shares ==")
    print_shares(pop, hw, eff)

    print("\n== projecting PS/Worker jobs ==")
    ps = ps_worker_jobs(pop)
    for target in (A.ALLREDUCE_LOCAL, A.ALLREDUCE_CLUSTER):
        print_projection(ps, target, hw, eff)

    print("\n== hardware sweep (population mean speedups, normalized candidates) ==")
    print_sweep(pop, hw, eff)

    print("\n== efficiency sensitivity (PS/Worker weight share) ==")
    for cell in efficiency_sensitivity(ps, hw, [0.25, 0.7], [0.35, 0.7]):
        print(f"compute eff {cell.compute_eff:.2f}, comm eff {cell.comm_eff:.2f}: "
              f"cNode-level weight share {cell.cnode_level_weight_share:6.1%}")

    print("\n== overlap sensitivity for PS/Worker -> AllReduce-Local ==")
    cmp = overlap_comparison(ps, hw, eff, A.ALLREDUCE_LOCAL)
    print(f"sped up (step): none {cmp.no_overlap.fraction_step_sped_up:.1%} "
          f"vs ideal {cmp.ideal_overlap.fraction_step_sped_up:.1%}")
    print(f"jobs at the pure weight-path ratio: {cmp.fraction_at_weight_path_ratio:.1%}")

    for name, argv in [
        ("aggregate_shares.csv", ["aggregate", "--stat", "shares"]),
        ("composition.csv", ["aggregate", "--stat", "composition"]),
        ("weight_share_cdf.csv", ["aggregate", "--stat", "share-cdf",
                                  "--component", "weight", "--level", "cnode"]),
        ("project_arl.csv", ["project", "--target", "allreduce_local"]),
        ("sweep.csv", ["sweep"]),
        ("sensitivity.csv", ["sensitivity"]),
    ]:
        dlcost_run(argv + ["--trace", str(trace), "--hw", "pai-baseline",
                           "--out", str(outdir / name)])
    print(f"\nwrote reports to {outdir}/")


if __name__ == "__main__":
    main()
