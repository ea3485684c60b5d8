"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Tolerances are fixed here and nowhere else.
"""

import dataclasses
import math
import random
import time
from contextlib import contextmanager

from dlcost.aggregate import (
    composition,
    share_cdf,
    cnode_level_mean,
    job_level_mean,
    weighted_breakdown,
)
from dlcost.cli import EX_OK, run
from dlcost.core import ArchitectureKind, EfficiencyModel, OverlapMode
from dlcost.corpus import SynthSpec, builtin_corpus, corpus_record, synth_population
from dlcost.engine import breakdown, throughput, validation_gap
from dlcost.ingest import case_study_testbed, pai_baseline
from dlcost.projection import population_speedup_profile, project, target_cnode_count
from dlcost.sweep import SweepAxis, SweepResource, hardware_sweep
from helpers import make_record

A = ArchitectureKind
PAI = pai_baseline()
TESTBED = case_study_testbed()
EFF = EfficiencyModel()

SYNTH_1000 = synth_population(SynthSpec(size=1000, seed=20240201))
ALL_RECORDS = list(builtin_corpus()) + list(SYNTH_1000)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} {name}: FAIL")
        raise
    print(f"criterion {number:02d} {name}: PASS")


def test_01_resnet50_compute_bound_time():
    with criterion(1, "resnet50 compute-bound 0.149s +/- 1%"):
        rec = corpus_record("resnet50")
        t_cb = breakdown(rec, TESTBED, EFF).t_compute_bound
        assert abs(t_cb - 0.149) / 0.149 <= 0.01
        timings = []
        for _ in range(5):
            start = time.perf_counter()
            breakdown(rec, TESTBED, EFF).t_compute_bound
            timings.append(time.perf_counter() - start)
        assert min(timings) < 1e-3


def test_02_weight_path_ratio_is_21():
    with criterion(2, "PS/AllReduce-Local weight ratio 21 (100 random volumes)"):
        rng = random.Random(2)
        for _ in range(100):
            s_w = math.exp(rng.uniform(math.log(1.0), math.log(1e15)))
            # Under ideal overlap, each side's step is its weight path alone.
            rec = make_record(arch=A.PS_WORKER, flops=0.0, mem_access_bytes=0.0,
                              input_bytes=0.0, weight_traffic_bytes=s_w)
            res = project(rec, A.ALLREDUCE_LOCAL, PAI, EFF, OverlapMode.IDEAL_OVERLAP)
            assert abs(res.step_speedup - 21.0) <= 21.0 * 1e-9


def test_03_allreduce_cluster_cap():
    with criterion(3, "PS->AllReduce-Cluster speedup 1.2353 +/- 1e-4"):
        rec = make_record(arch=A.PS_WORKER, num_cnodes=32, flops=0.0,
                          mem_access_bytes=0.0, input_bytes=0.0,
                          weight_traffic_bytes=5e9, dense_weight_bytes=1e6)
        res = project(rec, A.ALLREDUCE_CLUSTER, PAI, EFF)
        assert res.feasible
        assert abs(res.step_speedup - 1.2353) <= 1e-4


def test_04_gcn_weight_share_under_ps_worker():
    with criterion(4, "GCN under PS/Worker weight share 0.95 +/- 0.03"):
        rec = dataclasses.replace(corpus_record("gcn"), arch=A.PS_WORKER)
        bd = breakdown(rec, TESTBED, EFF)
        assert abs(bd.shares.weight - 0.95) <= 0.03


def test_05_validation_gap_arithmetic():
    with criterion(5, "validation gap (0.149, 0.126) = +0.1825 +/- 1e-3"):
        assert abs(validation_gap(0.149, 0.126) - 0.1825) <= 1e-3


def test_06_share_partition():
    with criterion(6, "shares sum to 1 +/- 1e-9, all components >= 0"):
        for rec in ALL_RECORDS:
            for overlap in OverlapMode:
                bd = breakdown(rec, PAI, EFF, overlap)
                assert all(v >= 0 for v in bd.shares)
                assert bd.shares_defined
                assert abs(sum(bd.shares) - 1.0) <= 1e-9


def test_07_overlap_bound():
    with criterion(7, "ideal overlap <= no overlap, equality iff <=1 component"):
        for rec in ALL_RECORDS:
            none = breakdown(rec, PAI, EFF, OverlapMode.NO_OVERLAP)
            ideal = breakdown(rec, PAI, EFF, OverlapMode.IDEAL_OVERLAP)
            assert ideal.t_total <= none.t_total
            t_compute = none.t_compute_bound + none.t_memory_bound
            nonzero = sum(1 for t in (none.t_data, t_compute, none.t_weight) if t > 0)
            assert (ideal.t_total == none.t_total) == (nonzero <= 1)


_HW_FIELDS = ("gpu_peak_flops", "gpu_mem_bandwidth", "pcie_bandwidth",
              "ethernet_bandwidth", "nvlink_bandwidth")
_EFF_FIELDS = ("compute_eff", "mem_eff", "pcie_eff", "ethernet_eff", "nvlink_eff")


def _components(bd):
    return (bd.t_data, bd.t_compute_bound, bd.t_memory_bound, bd.t_weight, bd.t_total)


def test_08_monotonicity_suite():
    with criterion(8, "no time component grows under faster hardware/efficiency"):
        for rec in SYNTH_1000:
            base = breakdown(rec, PAI, EFF)
            for field in _HW_FIELDS:
                faster = dataclasses.replace(PAI, **{field: getattr(PAI, field) * 1.5})
                new = breakdown(rec, faster, EFF)
                assert all(n <= b for n, b in zip(_components(new), _components(base)))
            for field in _EFF_FIELDS:
                better = dataclasses.replace(EFF, **{field: min(1.0, getattr(EFF, field) * 1.3)})
                new = breakdown(rec, PAI, better)
                assert all(n <= b for n, b in zip(_components(new), _components(base)))
        axes = [SweepAxis(resource=r, candidates=(getattr(PAI, r.field.name),))
                for r in SweepResource]
        for cell in hardware_sweep(SYNTH_1000, axes, PAI, EFF):
            assert cell.speedup == 1.0


# --- brute-force oracles for criterion 9 -------------------------------------

def _oracle_composition(pop):
    out = {}
    for arch in A:
        jobs = [r for r in pop if r.arch is arch]
        out[arch] = (len(jobs), len(jobs) / len(pop),
                     sum(r.num_cnodes for r in jobs),
                     sum(r.num_cnodes for r in jobs) / sum(r.num_cnodes for r in pop))
    return out


def _oracle_means(pop, component):
    shares = [getattr(breakdown(r, PAI, EFF).shares, component) for r in pop]
    total = sum(r.num_cnodes for r in pop)
    return (sum(shares) / len(shares),
            sum(s * r.num_cnodes for s, r in zip(shares, pop)) / total)


def _oracle_cdf(values, weights):
    total = sum(weights)
    points = []
    running = 0.0
    for x, w in sorted(zip(values, weights)):
        running += w
        if points and points[-1][0] == x:
            points[-1] = (x, running / total)
        else:
            points.append((x, running / total))
    return points


def _oracle_projection_summary(pop, target):
    n = len(pop)
    infeasible = step_up = thr_up = 0
    speedups = {}
    for rec in pop:
        if target is not rec.arch:
            if target in (A.ALLREDUCE_LOCAL, A.ALLREDUCE_CLUSTER) \
                    and rec.model_bytes > PAI.gpu_mem_capacity:
                infeasible += 1
                continue
            if target is A.PEARL and rec.embedding_weight_bytes <= 0:
                infeasible += 1
                continue
        tcn = target_cnode_count(rec, target)
        source_t = breakdown(rec, PAI, EFF).t_total
        target_t = breakdown(dataclasses.replace(rec, arch=target, num_cnodes=tcn),
                             PAI, EFF).t_total
        step = source_t / target_t
        thr = step * tcn / rec.num_cnodes
        speedups[rec.job_id] = (step, thr)
        step_up += step > 1
        thr_up += thr > 1
    return (infeasible / n, step_up / n, thr_up / n), speedups


def test_09_aggregation_matches_brute_force():
    with criterion(9, "aggregation equals brute force to 1e-9, permutation invariant"):
        rng = random.Random(99)
        for size in (3, 10, 37, 100):
            pop = synth_population(SynthSpec(size=size, seed=size * 7 + 1))

            comp = composition(pop)
            oracle = _oracle_composition(pop)
            for arch in A:
                assert comp[arch].job_count == oracle[arch][0]
                assert abs(comp[arch].job_fraction - oracle[arch][1]) <= 1e-9
                assert comp[arch].cnode_count == oracle[arch][2]
                assert abs(comp[arch].cnode_fraction - oracle[arch][3]) <= 1e-9

            averages = weighted_breakdown(pop, PAI, EFF)
            for component in ("data", "compute_bound", "memory_bound", "weight"):
                job, cnode = _oracle_means(pop, component)
                assert abs(getattr(averages.job_level, component) - job) <= 1e-9
                assert abs(getattr(averages.cnode_level, component) - cnode) <= 1e-9

            for level in ("job", "cnode"):
                cdf = share_cdf(pop, "weight", PAI, EFF, level=level)
                values = [breakdown(r, PAI, EFF).shares.weight for r in pop]
                weights = [r.num_cnodes for r in pop] if level == "cnode" else [1] * len(pop)
                oracle_pts = _oracle_cdf(values, weights)
                assert len(cdf.points) == len(oracle_pts)
                for (x, f), (ox, of) in zip(cdf.points, oracle_pts):
                    assert x == ox and abs(f - of) <= 1e-9

            results, summary = population_speedup_profile(pop, A.ALLREDUCE_LOCAL, PAI, EFF)
            (o_inf, o_step, o_thr), o_speedups = _oracle_projection_summary(pop, A.ALLREDUCE_LOCAL)
            assert abs(summary.fraction_infeasible - o_inf) <= 1e-9
            assert abs(summary.fraction_step_sped_up - o_step) <= 1e-9
            assert abs(summary.fraction_throughput_sped_up - o_thr) <= 1e-9
            for got, want in zip(sorted(r.step_speedup for r in results if r.feasible),
                                 sorted(s for s, _ in o_speedups.values())):
                assert abs(got - want) <= 1e-9 * max(1.0, want)

            shuffled = list(pop)
            rng.shuffle(shuffled)
            permuted = tuple(shuffled)
            averages2 = weighted_breakdown(permuted, PAI, EFF)
            for component in ("data", "compute_bound", "memory_bound", "weight"):
                assert abs(getattr(averages.job_level, component)
                           - getattr(averages2.job_level, component)) <= 1e-12
                assert abs(getattr(averages.cnode_level, component)
                           - getattr(averages2.cnode_level, component)) <= 1e-12
            assert share_cdf(permuted, "weight", PAI, EFF, level="cnode").points \
                == share_cdf(pop, "weight", PAI, EFF, level="cnode").points
            assert composition(permuted) == comp
            _, summary_p = population_speedup_profile(permuted, A.ALLREDUCE_LOCAL, PAI, EFF)
            assert summary_p == summary


def test_10_worked_weighted_mean_case():
    with criterion(10, "cNode-weighted mean 0.40, job mean 0.30, exactly"):
        assert cnode_level_mean([0.10, 0.50], [1, 3]) == 0.40
        assert job_level_mean([0.10, 0.50]) == 0.30


def test_11_throughput_identity():
    with criterion(11, "throughput speedup = step speedup x cNode ratio (1e-12)"):
        targets = list(A)
        for rec in SYNTH_1000:
            for target in targets:
                res = project(rec, target, PAI, EFF)
                if not res.feasible:
                    continue
                expected = res.step_speedup * res.target_cnodes / res.source_cnodes
                assert abs(res.throughput_speedup - expected) <= 1e-12 * max(1.0, expected)
                # same identity, recomputed from the two raw throughputs
                target_rec = dataclasses.replace(rec, arch=target,
                                                 num_cnodes=res.target_cnodes)
                thr_ratio = (throughput(target_rec, res.target_t_total)
                             / throughput(rec, res.source_t_total))
                assert abs(res.throughput_speedup - thr_ratio) <= 1e-12 * thr_ratio


def test_12_end_to_end_determinism(tmp_path):
    with criterion(12, "byte-identical CLI reruns (suite stays under a minute)"):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["breakdown", "--corpus", "--out", str(a)]) == EX_OK
        assert run(["breakdown", "--corpus", "--out", str(b)]) == EX_OK
        assert a.read_bytes() == b.read_bytes()
        for fmt in ("csv", "json"):
            c, d = tmp_path / f"c.{fmt}", tmp_path / f"d.{fmt}"
            assert run(["project", "--corpus", "--target", "allreduce_local",
                        "--format", fmt, "--out", str(c)]) == EX_OK
            assert run(["project", "--corpus", "--target", "allreduce_local",
                        "--format", fmt, "--out", str(d)]) == EX_OK
            assert c.read_bytes() == d.read_bytes()
