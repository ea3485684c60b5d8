"""Aggregation statistics against naive brute-force reimplementations."""

import pytest
from hypothesis import given
import hypothesis.strategies as st

from dlcost.aggregate import (
    EmpiricalCDF,
    cnode_level_mean,
    composition,
    job_level_mean,
    scale_distribution,
    share_cdf,
    weighted_breakdown,
)
from dlcost.core import ArchitectureKind, OverlapMode, Shares
from dlcost.engine import Columns, breakdown, evaluate
from helpers import (
    EFF,
    PAI,
    efficiency_models,
    float_bits,
    hardware_profiles,
    make_record,
    record_lists_with_idle_job,
    workload_records,
)

A = ArchitectureKind


def populations(min_size=1, max_size=40):
    return st.lists(workload_records(), min_size=min_size, max_size=max_size).map(tuple)


# --- naive oracles ----------------------------------------------------------

def naive_composition(pop):
    out = {}
    for arch in A:
        jobs = sum(1 for r in pop if r.arch is arch)
        cnodes = sum(r.num_cnodes for r in pop if r.arch is arch)
        out[arch] = (jobs, jobs / len(pop), cnodes, cnodes / sum(r.num_cnodes for r in pop))
    return out


def naive_weighted_shares(pop, component):
    shares = [getattr(breakdown(r, PAI, EFF).shares, component) for r in pop]
    total_cnodes = sum(r.num_cnodes for r in pop)
    job = sum(shares) / len(shares)
    cnode = sum(s * r.num_cnodes for s, r in zip(shares, pop)) / total_cnodes
    return job, cnode


def naive_cdf(values, weights):
    total = sum(weights)
    pairs = sorted(zip(values, weights))
    points = []
    running = 0.0
    for x, w in pairs:
        running += w
        if points and points[-1][0] == x:
            points[-1] = (x, running / total)
        else:
            points.append((x, running / total))
    return points


# --- composition ------------------------------------------------------------

class TestComposition:
    def test_worked_example(self):
        pop = [
            make_record(job_id="a", arch=A.ONE_WORKER_ONE_GPU),
            make_record(job_id="b", arch=A.ONE_WORKER_ONE_GPU),
            make_record(job_id="c", arch=A.PS_WORKER, num_cnodes=8),
        ]
        comp = composition(pop)
        assert comp[A.ONE_WORKER_ONE_GPU].job_fraction == pytest.approx(2 / 3)
        assert comp[A.PS_WORKER].job_fraction == pytest.approx(1 / 3)
        assert comp[A.ONE_WORKER_ONE_GPU].cnode_fraction == pytest.approx(0.2)
        assert comp[A.PS_WORKER].cnode_fraction == pytest.approx(0.8)

    def test_single_job_population(self):
        pop = [make_record()]
        comp = composition(pop)
        assert comp[A.PS_WORKER].job_fraction == 1.0
        assert comp[A.PS_WORKER].cnode_fraction == 1.0

    def test_equal_cnodes_make_levels_agree(self):
        pop = [
            make_record(job_id=f"j{i}", arch=arch, num_cnodes=4)
            for i, arch in enumerate([A.PS_WORKER, A.PS_WORKER, A.ALLREDUCE_CLUSTER])
        ]
        for c in composition(pop).values():
            assert c.job_fraction == pytest.approx(c.cnode_fraction)

    @given(populations())
    def test_matches_naive(self, pop):
        comp = composition(pop)
        oracle = naive_composition(pop)
        for arch in A:
            c = comp[arch]
            jobs, jf, cnodes, cf = oracle[arch]
            assert c.job_count == jobs and c.cnode_count == cnodes
            assert abs(c.job_fraction - jf) <= 1e-9
            assert abs(c.cnode_fraction - cf) <= 1e-9


# --- population shares ------------------------------------------------------

class TestPopulationShares:
    @given(records=record_lists_with_idle_job(), hw=hardware_profiles(),
           eff=efficiency_models(), overlap=st.sampled_from(list(OverlapMode)))
    def test_equal_to_scalar_shares_bit_for_bit(self, records, hw, eff, overlap):
        ev = evaluate(Columns.of(records), hw, eff, overlap)
        oracle = [breakdown(rec, hw, eff, overlap).shares for rec in records]
        for name in Shares.COMPONENTS:
            assert float_bits(ev.share(name)) == float_bits(
                getattr(s, name) for s in oracle)


# --- weighted breakdown -----------------------------------------------------

class TestWeightedBreakdown:
    def test_worked_weighted_mean(self):
        # the cNode weighting rule applied to shares 0.10 (1 cNode) and
        # 0.50 (3 cNodes): cNode-level 0.40, job-level 0.30, exactly
        assert cnode_level_mean([0.10, 0.50], [1, 3]) == 0.40
        assert job_level_mean([0.10, 0.50]) == 0.30

    def test_uniform_shares_collapse(self):
        pop = [
            make_record(job_id="a", num_cnodes=1),
            make_record(job_id="b", num_cnodes=7),
        ]
        avg = weighted_breakdown(pop, PAI, EFF)
        assert avg.job_level == avg.cnode_level  # identical demands -> identical shares

    def test_single_job(self):
        pop = [make_record()]
        avg = weighted_breakdown(pop, PAI, EFF)
        expected = breakdown(pop[0], PAI, EFF).shares
        assert avg.job_level == expected
        assert avg.cnode_level == expected

    def test_single_gpu_jobs_contribute_zero_weight_share(self):
        pop = [
            make_record(job_id="solo", arch=A.ONE_WORKER_ONE_GPU),
            make_record(job_id="ps", num_cnodes=1),
        ]
        lone = breakdown(pop[1], PAI, EFF).shares.weight
        avg = weighted_breakdown(pop, PAI, EFF)
        assert avg.job_level.weight == pytest.approx(lone / 2, rel=1e-12)

    @given(populations())
    def test_matches_naive(self, pop):
        avg = weighted_breakdown(pop, PAI, EFF)
        for component in ("data", "compute_bound", "memory_bound", "weight"):
            job, cnode = naive_weighted_shares(pop, component)
            assert abs(getattr(avg.job_level, component) - job) <= 1e-9
            assert abs(getattr(avg.cnode_level, component) - cnode) <= 1e-9

    @given(populations(min_size=2), st.randoms(use_true_random=False))
    def test_permutation_invariant(self, pop, rnd):
        shuffled = list(pop)
        rnd.shuffle(shuffled)
        a = weighted_breakdown(pop, PAI, EFF)
        b = weighted_breakdown(shuffled, PAI, EFF)
        for component in ("data", "compute_bound", "memory_bound", "weight"):
            assert abs(getattr(a.job_level, component)
                       - getattr(b.job_level, component)) <= 1e-12
            assert abs(getattr(a.cnode_level, component)
                       - getattr(b.cnode_level, component)) <= 1e-12


# --- CDFs ---------------------------------------------------------------

class TestShareCdf:
    def test_single_job_steps_once(self):
        rec = make_record(flops=0.0, mem_access_bytes=0.0, input_bytes=1e6,
                          weight_traffic_bytes=1e6)
        pop = [rec]
        cdf = share_cdf(pop, "weight", PAI, EFF)
        bd = breakdown(rec, PAI, EFF)
        assert cdf.points == ((bd.shares.weight, 1.0),)

    def test_two_equal_jobs(self):
        cdf = EmpiricalCDF.from_samples([0.2, 0.8])
        assert cdf.points == ((0.2, 0.5), (0.8, 1.0))

    def test_cnode_weighting(self):
        cdf = EmpiricalCDF.from_samples([0.2, 0.8], weights=[1, 3])
        assert cdf.points == ((0.2, 0.25), (0.8, 1.0))

    def test_quantile_uses_lower_step(self):
        cdf = EmpiricalCDF.from_samples([4.0, 16.0])
        assert cdf.quantile(0.5) == 4.0
        assert cdf.quantile(0.51) == 16.0
        assert cdf.quantile(0.0) == 4.0
        assert cdf.quantile(1.0) == 16.0

    @given(populations(), st.sampled_from(["data", "compute_bound", "memory_bound", "weight"]),
           st.sampled_from(["job", "cnode"]))
    def test_matches_naive_and_is_well_formed(self, pop, component, level):
        cdf = share_cdf(pop, component, PAI, EFF, level=level)
        values = [getattr(breakdown(r, PAI, EFF).shares, component) for r in pop]
        weights = [r.num_cnodes for r in pop] if level == "cnode" else [1] * len(pop)
        oracle = naive_cdf(values, weights)
        assert len(cdf.points) == len(oracle)
        for (x, f), (ox, of) in zip(cdf.points, oracle):
            assert x == ox
            assert abs(f - of) <= 1e-9
        fractions = [f for _, f in cdf.points]
        assert all(0 <= f <= 1 + 1e-12 for f in fractions)
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))
        assert abs(fractions[-1] - 1.0) <= 1e-12
        xs = [x for x, _ in cdf.points]
        assert xs == sorted(xs)

    def test_unknown_component_rejected(self):
        pop = [make_record()]
        with pytest.raises(ValueError):
            share_cdf(pop, "io", PAI, EFF)
        with pytest.raises(ValueError):
            share_cdf(pop, "weight", PAI, EFF, level="server")


class TestScaleDistribution:
    def test_single_gpu_population_steps_at_one(self):
        pop = [
            make_record(job_id=f"j{i}", arch=A.ONE_WORKER_ONE_GPU) for i in range(3)
        ]
        dist = scale_distribution(pop)[A.ONE_WORKER_ONE_GPU]
        assert dist.cnodes.points == ((1.0, 1.0),)

    def test_median_cnodes_lower_step(self):
        pop = [
            make_record(job_id="a", num_cnodes=4),
            make_record(job_id="b", num_cnodes=16),
        ]
        dist = scale_distribution(pop)[A.PS_WORKER]
        assert dist.cnodes.quantile(0.5) == 4.0

    def test_model_size_steps_at_both_values(self):
        pop = [
            make_record(job_id="a", dense_weight_bytes=1e9, embedding_weight_bytes=0.0),
            make_record(job_id="b", dense_weight_bytes=1e11, embedding_weight_bytes=0.0),
        ]
        dist = scale_distribution(pop)[A.PS_WORKER]
        assert dist.model_bytes.points == ((1e9, 0.5), (1e11, 1.0))

    def test_only_present_architectures_reported(self):
        pop = [make_record()]
        assert set(scale_distribution(pop)) == {A.PS_WORKER}
