import dataclasses
import gc
import math
import tracemalloc

import pytest
from hypothesis import given
import hypothesis.strategies as st

from dlcost.core import ArchitectureKind, OverlapMode, placed_cnodes
from dlcost.corpus import SynthSpec, synth_population
from dlcost.engine import breakdown, speedup
from dlcost.projection import (
    ProjectionResult,
    population_speedup_profile,
    project,
    summarize,
    target_cnode_count,
)
from helpers import (
    EFF,
    PAI,
    efficiency_models,
    float_bits,
    hardware_profiles,
    make_record,
    workload_records,
)

A = ArchitectureKind


def pure_weight_record(arch=A.PS_WORKER, num_cnodes=32, s_w=1e9, **kw):
    return make_record(arch=arch, num_cnodes=num_cnodes, flops=0.0,
                       mem_access_bytes=0.0, input_bytes=0.0,
                       weight_traffic_bytes=s_w, **kw)


class TestEligibility:
    def test_small_dense_model_fits(self):
        rec = make_record(dense_weight_bytes=204e6, embedding_weight_bytes=0.0)
        res = project(rec, A.ALLREDUCE_LOCAL, PAI, EFF)
        assert (res.feasible, res.reason) == (True, "")

    def test_huge_embedding_does_not_fit(self):
        rec = make_record(dense_weight_bytes=1.19e6, embedding_weight_bytes=239.45e9)
        res = project(rec, A.ALLREDUCE_LOCAL, PAI, EFF)
        assert not res.feasible
        assert "GPU memory" in res.reason

    def test_exactly_at_capacity_is_feasible(self):
        rec = make_record(dense_weight_bytes=PAI.gpu_mem_capacity, embedding_weight_bytes=0.0)
        assert project(rec, A.ALLREDUCE_LOCAL, PAI, EFF).feasible


class TestCnodeMapping:
    def test_allreduce_local_caps_at_8(self):
        rec = make_record(arch=A.PS_WORKER, num_cnodes=32)
        assert target_cnode_count(rec, A.ALLREDUCE_LOCAL) == 8

    def test_small_jobs_keep_their_cnodes(self):
        rec = make_record(arch=A.PS_WORKER, num_cnodes=5)
        assert target_cnode_count(rec, A.ALLREDUCE_LOCAL) == 5

    def test_allreduce_cluster_retains_cnodes(self):
        rec = make_record(arch=A.PS_WORKER, num_cnodes=32)
        assert target_cnode_count(rec, A.ALLREDUCE_CLUSTER) == 32
        assert target_cnode_count(rec, A.PEARL) == 32

    def test_single_gpu_target_forces_one(self):
        rec = make_record(arch=A.PS_WORKER, num_cnodes=32)
        assert target_cnode_count(rec, A.ONE_WORKER_ONE_GPU) == 1

    def test_identity_never_changes_cnodes(self):
        rec = make_record(arch=A.PS_WORKER, num_cnodes=32)
        assert target_cnode_count(rec, A.PS_WORKER) == 32


class TestProject:
    def test_weight_bound_ps_to_allreduce_local(self):
        rec = pure_weight_record(num_cnodes=32)
        res = project(rec, A.ALLREDUCE_LOCAL, PAI, EFF)
        assert res.feasible
        assert res.target_cnodes == 8
        assert res.step_speedup == pytest.approx(21.0, rel=1e-9)
        # oracle: 21 * 8/32 = 5.25
        assert res.throughput_speedup == pytest.approx(5.25, rel=1e-9)

    def test_weight_bound_ps_to_allreduce_cluster(self):
        # oracle: (1/(3.125*0.7) + 1/(10*0.7)) / (1/(3.125*0.7) + 1/(50*0.7))
        rec = pure_weight_record(num_cnodes=32)
        res = project(rec, A.ALLREDUCE_CLUSTER, PAI, EFF)
        assert res.target_cnodes == 32
        assert res.step_speedup == pytest.approx(1.2352941176470589, rel=1e-9)
        assert res.throughput_speedup == pytest.approx(res.step_speedup, rel=1e-12)

    def test_infeasible_target_has_no_speedups(self):
        rec = make_record(arch=A.PS_WORKER, embedding_weight_bytes=239.45e9)
        res = project(rec, A.ALLREDUCE_LOCAL, PAI, EFF)
        assert not res.feasible
        assert res.step_speedup is None and res.throughput_speedup is None
        assert res.target_t_total is None
        assert not res.weight_bound

    def test_pearl_requires_sparse_embedding(self):
        rec = make_record(arch=A.PS_WORKER, embedding_weight_bytes=0.0)
        res = project(rec, A.PEARL, PAI, EFF)
        assert not res.feasible
        assert res.reason == "no sparse embedding"

    def test_pearl_feasible_with_embedding_of_any_size(self):
        rec = make_record(arch=A.PS_WORKER, embedding_weight_bytes=239.45e9)
        assert project(rec, A.PEARL, PAI, EFF).feasible

    @given(workload_records(), st.sampled_from(list(A)), st.sampled_from(list(OverlapMode)))
    def test_identity_projection_is_exactly_one(self, rec, target, overlap):
        res = project(rec, rec.arch, PAI, EFF, overlap)
        assert res.feasible
        assert res.step_speedup == 1.0
        assert res.throughput_speedup == 1.0

    @given(workload_records(), st.sampled_from(list(A)))
    def test_throughput_identity(self, rec, target):
        res = project(rec, target, PAI, EFF)
        if res.feasible:
            expected = res.step_speedup * res.target_cnodes / res.source_cnodes
            assert res.throughput_speedup == pytest.approx(expected, rel=1e-12, abs=0)

    @given(workload_records(archs=[A.PS_WORKER]))
    def test_no_input_ps_to_arl_never_slows_a_step(self, rec):
        rec = dataclasses.replace(rec, input_bytes=0.0, dense_weight_bytes=1e6,
                                  embedding_weight_bytes=0.0)
        res = project(rec, A.ALLREDUCE_LOCAL, PAI, EFF)
        assert res.feasible
        assert res.step_speedup >= 1.0

    @given(workload_records(), st.sampled_from(list(A)))
    def test_per_cnode_demands_are_never_altered(self, rec, target):
        res = project(rec, target, PAI, EFF)
        if res.feasible:
            source = breakdown(rec, PAI, EFF)
            projected = breakdown(
                dataclasses.replace(rec, arch=target, num_cnodes=res.target_cnodes), PAI, EFF)
            # compute and memory times depend only on per-cNode demands
            assert projected.t_compute_bound == source.t_compute_bound
            assert projected.t_memory_bound == source.t_memory_bound

    @given(workload_records(), st.sampled_from(list(A)), st.sampled_from(list(OverlapMode)),
           hardware_profiles(), efficiency_models())
    def test_result_carries_the_breakdown_totals(self, rec, target, overlap, hw, eff):
        # A one-job reference built from the scalar model and placed_cnodes
        # alone, sharing no code with the projection.
        res = project(rec, target, hw, eff, overlap)
        source = breakdown(rec, hw, eff, overlap)
        identity = target is rec.arch
        cnodes = rec.num_cnodes if identity else placed_cnodes(target, rec.num_cnodes)
        model_bytes = rec.dense_weight_bytes + rec.embedding_weight_bytes
        if not identity and target in (A.ALLREDUCE_LOCAL, A.ALLREDUCE_CLUSTER) \
                and model_bytes > hw.gpu_mem_capacity:
            reason = (f"model weights ({model_bytes:.6g} B) exceed GPU memory capacity "
                      f"({hw.gpu_mem_capacity:.6g} B)")
        elif not identity and target is A.PEARL and rec.embedding_weight_bytes <= 0:
            reason = "no sparse embedding"
        else:
            reason = ""
        assert (res.source_arch, res.target_arch) == (rec.arch, target)
        assert (res.source_cnodes, res.target_cnodes) == (rec.num_cnodes, cnodes)
        assert float_bits([res.source_t_total]) == float_bits([source.t_total])
        if reason:
            assert (res.feasible, res.reason, res.weight_bound) == (False, reason, False)
            assert res.target_t_total is res.step_speedup is res.throughput_speedup is None
            return
        assert res.feasible is True
        projected = breakdown(dataclasses.replace(rec, arch=target, num_cnodes=cnodes),
                              hw, eff, overlap)
        step = speedup(source.t_total, projected.t_total)
        assert float_bits([res.target_t_total, res.step_speedup, res.throughput_speedup]) == \
            float_bits([projected.t_total, step, step * cnodes / rec.num_cnodes])
        assert res.reason == ("target step time is zero" if step == math.inf else "")

        def weight_bound(bd):
            t_compute = bd.t_compute_bound + bd.t_memory_bound
            return bd.t_weight > 0 and bd.t_weight >= bd.t_data and bd.t_weight >= t_compute

        assert res.weight_bound is (weight_bound(source) and weight_bound(projected))


class TestPopulationProfile:
    @given(st.lists(workload_records(), min_size=1, max_size=12), hardware_profiles(),
           efficiency_models())
    def test_table_is_the_per_job_results_transposed(self, records, hw, eff):
        for target in A:
            for overlap in OverlapMode:
                table, summary = population_speedup_profile(records, target, hw, eff, overlap)
                results = [project(rec, target, hw, eff, overlap) for rec in records]
                for i, name in enumerate(ProjectionResult._fields):
                    assert getattr(table, name) == [res[i] for res in results], name
                assert len(table) == len(results) and list(table) == results
                assert summary == summarize(results)

    def test_single_weight_bound_job_all_sped_up(self):
        pop = [pure_weight_record(num_cnodes=4)]
        _, summary = population_speedup_profile(pop, A.ALLREDUCE_LOCAL, PAI, EFF)
        assert summary.fraction_throughput_sped_up == 1.0
        assert summary.fraction_infeasible == 0.0

    def test_infeasible_jobs_counted(self):
        eligible = pure_weight_record(job_id="small", num_cnodes=4)
        too_big = make_record(job_id="big", arch=A.PS_WORKER,
                              embedding_weight_bytes=239.45e9)
        pop = [eligible, too_big]
        _, summary = population_speedup_profile(pop, A.ALLREDUCE_LOCAL, PAI, EFF)
        assert summary.fraction_infeasible == 0.5

    def test_mixed_population_counts_only_winners(self):
        # weight-bound job gains 21x per step (throughput 21 * 8/32 = 5.25);
        # the data-I/O-bound job keeps 8 cNodes but suffers 8x PCIe contention
        winner = pure_weight_record(job_id="w", num_cnodes=32)
        loser = make_record(job_id="l", arch=A.PS_WORKER, num_cnodes=8,
                            flops=0.0, mem_access_bytes=0.0,
                            input_bytes=1e9, weight_traffic_bytes=1e3)
        pop = [winner, loser]
        results, summary = population_speedup_profile(pop, A.ALLREDUCE_LOCAL, PAI, EFF)
        by_id = {pop[i].job_id: r for i, r in enumerate(results)}
        assert by_id["w"].throughput_speedup > 1.0
        assert by_id["l"].throughput_speedup < 1.0
        assert summary.fraction_throughput_sped_up == 0.5

    def test_results_retain_no_breakdowns(self):
        # A result that held both TimeBreakdowns retained about 1,500 bytes
        # (1,730 on Python 3.10); one holding step times retains about 260.
        pop = synth_population(SynthSpec(size=2000, seed=7))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            profile = population_speedup_profile(pop, A.ALLREDUCE_LOCAL, PAI, EFF)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(profile[0]) == len(pop)
        assert retained / len(pop) < 600


class TestZeroTimeTarget:
    def test_speedup_is_infinite_with_a_reason_and_counts_as_sped_up(self):
        # only weight traffic, and a 1w1g target has no weight path
        res = project(pure_weight_record(num_cnodes=4), A.ONE_WORKER_ONE_GPU, PAI, EFF)
        assert res.feasible and res.target_t_total == 0.0
        assert res.step_speedup == math.inf and res.throughput_speedup == math.inf
        assert res.reason == "target step time is zero"
        summary = summarize([res])
        assert summary.fraction_step_sped_up == 1.0
        assert summary.fraction_throughput_sped_up == 1.0

    def test_idle_job_is_not_sped_up(self):
        idle = pure_weight_record(num_cnodes=4, s_w=0.0)
        res = project(idle, A.ONE_WORKER_ONE_GPU, PAI, EFF)
        assert res.step_speedup == 1.0 and res.reason == ""
