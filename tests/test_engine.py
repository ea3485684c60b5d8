import dataclasses
import math

import pytest
from hypothesis import given
import hypothesis.strategies as st

from dlcost.core import (
    ArchitectureKind,
    EfficiencyModel,
    Medium,
    OverlapMode,
    Population,
    Shares,
)
from dlcost.corpus import SynthSpec, synth_population
from dlcost.engine import (
    WEIGHT_MEDIUM_PATHS,
    breakdown,
    evaluate,
    pcie_contention,
    throughput,
    validation_gap,
)
from dlcost.projection import project
from helpers import (
    EFF,
    PAI,
    TESTBED,
    closed_form,
    efficiency_models,
    float_bits,
    hardware_profiles,
    make_record,
    record_lists_with_idle_job,
    workload_records,
)

A = ArchitectureKind


def weight_path_ratio(s_w, eff):
    """The PS/Worker over AllReduce-Local step time of a job whose only
    demand is ``s_w`` weight bytes, projected under ideal overlap, where
    each side's step is its weight path alone."""
    rec = make_record(arch=A.PS_WORKER, flops=0.0, mem_access_bytes=0.0, input_bytes=0.0,
                      weight_traffic_bytes=s_w)
    return project(rec, A.ALLREDUCE_LOCAL, PAI, eff, OverlapMode.IDEAL_OVERLAP).step_speedup


class TestWeightMediumPath:
    def test_paths(self):
        assert WEIGHT_MEDIUM_PATHS[A.ONE_WORKER_ONE_GPU] == ()
        assert WEIGHT_MEDIUM_PATHS[A.ONE_WORKER_N_GPU] == (Medium.PCIE,)
        assert WEIGHT_MEDIUM_PATHS[A.PS_WORKER] == (Medium.ETHERNET, Medium.PCIE)
        assert WEIGHT_MEDIUM_PATHS[A.ALLREDUCE_LOCAL] == (Medium.NVLINK,)
        assert WEIGHT_MEDIUM_PATHS[A.ALLREDUCE_CLUSTER] == (Medium.ETHERNET, Medium.NVLINK)
        assert WEIGHT_MEDIUM_PATHS[A.PEARL] == (Medium.NVLINK,)

    def test_every_path_lists_its_media_in_medium_order(self):
        # The kernel sums each job's per-medium weight times in Medium order.
        order = list(Medium)
        for path in WEIGHT_MEDIUM_PATHS.values():
            assert list(path) == sorted(path, key=order.index)


class TestDataIoTime:
    # oracle: 804e6 / (1e10 * 0.7) = 0.11485714285714285
    def test_single_gpu(self):
        rec = make_record(arch=A.ONE_WORKER_ONE_GPU, input_bytes=804e6)
        assert breakdown(rec, TESTBED, EFF).t_data == pytest.approx(0.11485714285714285, rel=1e-12)

    # oracle: 804e6 / (1e10 * 0.7 / 8) = 0.9188571428571428
    def test_contention_on_allreduce_local(self):
        rec = make_record(arch=A.ALLREDUCE_LOCAL, num_cnodes=8, input_bytes=804e6)
        assert breakdown(rec, TESTBED, EFF).t_data == pytest.approx(0.9188571428571428, rel=1e-12)

    def test_zero_input(self):
        rec = make_record(input_bytes=0.0)
        assert breakdown(rec, TESTBED, EFF).t_data == 0.0

    def test_contention_rules(self):
        assert pcie_contention(A.ONE_WORKER_N_GPU, 4) == 4
        assert pcie_contention(A.ONE_WORKER_N_GPU, 32) == 8
        assert pcie_contention(A.ALLREDUCE_LOCAL, 8) == 8
        assert pcie_contention(A.PS_WORKER, 32) == 1
        assert pcie_contention(A.ALLREDUCE_CLUSTER, 32) == 1
        assert pcie_contention(A.PEARL, 8) == 1
        assert pcie_contention(A.ONE_WORKER_ONE_GPU, 1) == 1


class TestComputeTime:
    # oracle: 1.56e12 / (15e12 * 0.7) = 0.14857142857142858 (quoted as 0.149)
    def test_compute_bound_part(self):
        rec = make_record(flops=1.56e12, mem_access_bytes=0.0)
        bd = breakdown(rec, TESTBED, EFF)
        t_cb, t_mb = bd.t_compute_bound, bd.t_memory_bound
        assert t_cb == pytest.approx(0.14857142857142858, rel=1e-12)
        assert abs(t_cb - 0.149) / 0.149 < 0.01
        assert t_mb == 0.0

    # oracle: 31.9e9 / (1e12 * 0.7) = 0.04557142857142857
    def test_memory_bound_part(self):
        rec = make_record(flops=0.0, mem_access_bytes=31.9e9)
        assert breakdown(rec, TESTBED, EFF).t_memory_bound == pytest.approx(0.04557142857142857,
                                                                           rel=1e-12)

    def test_zero_demands(self):
        rec = make_record(flops=0.0, mem_access_bytes=0.0)
        bd = breakdown(rec, TESTBED, EFF)
        assert (bd.t_compute_bound, bd.t_memory_bound) == (0.0, 0.0)


class TestWeightTime:
    # oracle: 1e9/(3.125e9*0.7) + 1e9/(1e10*0.7) = 0.45714285714285713 + 0.14285714285714285
    def test_ps_worker_serial_sum(self):
        rec = make_record(arch=A.PS_WORKER, weight_traffic_bytes=1e9)
        ev = evaluate(Population.of([rec]), PAI, EFF)
        per_medium, total = ev.t_weight_on, ev.t_weight
        assert per_medium[Medium.ETHERNET] == [pytest.approx(0.45714285714285713, rel=1e-12)]
        assert per_medium[Medium.PCIE] == [pytest.approx(0.14285714285714285, rel=1e-12)]
        assert per_medium[Medium.NVLINK] == [0.0]
        assert total == [pytest.approx(0.6, rel=1e-12)]

    # oracle: 1e9 / (5e10 * 0.7) = 0.02857142857142857
    def test_allreduce_local(self):
        rec = make_record(arch=A.ALLREDUCE_LOCAL, num_cnodes=8, weight_traffic_bytes=1e9)
        ev = evaluate(Population.of([rec]), PAI, EFF)
        per_medium, total = ev.t_weight_on, ev.t_weight
        assert per_medium == {Medium.ETHERNET: [0.0], Medium.PCIE: [0.0],
                              Medium.NVLINK: [pytest.approx(0.02857142857142857, rel=1e-12)]}
        assert total == [pytest.approx(0.02857142857142857, rel=1e-12)]

    def test_ps_over_allreduce_ratio_is_21(self):
        rec = make_record(arch=A.PS_WORKER, weight_traffic_bytes=1e9)
        t_ps = breakdown(rec, PAI, EFF).t_weight
        t_arl = breakdown(dataclasses.replace(rec, arch=A.ALLREDUCE_LOCAL), PAI, EFF).t_weight
        assert weight_path_ratio(1e9, EFF) == t_ps / t_arl
        assert abs(weight_path_ratio(1e9, EFF) - 21.0) < 21.0 * 1e-9

    def test_single_gpu_has_no_weight_path(self):
        rec = make_record(arch=A.ONE_WORKER_ONE_GPU)
        ev = evaluate(Population.of([rec]), PAI, EFF)
        assert (ev.t_weight_on, ev.t_weight) == ({m: [0.0] for m in Medium}, [0.0])

    @given(st.floats(min_value=1.0, max_value=1e15, allow_nan=False))
    def test_ratio_is_independent_of_traffic_volume(self, s_w):
        assert abs(weight_path_ratio(s_w, EFF) - 21.0) < 21.0 * 1e-9

    @given(efficiency_models(), st.floats(min_value=1.0, max_value=1e12, allow_nan=False))
    def test_ratio_matches_closed_form_for_any_efficiency(self, eff, s_w):
        expected = ((1 / (PAI.ethernet_bandwidth * eff.ethernet_eff)
                     + 1 / (PAI.pcie_bandwidth * eff.pcie_eff))
                    / (1 / (PAI.nvlink_bandwidth * eff.nvlink_eff)))
        assert weight_path_ratio(s_w, eff) == pytest.approx(expected, rel=1e-9)


class TestBreakdown:
    def test_gcn_under_ps_worker_is_weight_dominated(self):
        # GCN-sized demands rerouted over the PS/Worker path on the testbed;
        # oracle: t_w = 3e9/2.1875e9 + 3e9/7e9 = 1.8, total = 1.8685095238095238
        rec = make_record(arch=A.PS_WORKER, flops=330.7e9, mem_access_bytes=25.79e9,
                          input_bytes=1.2e6, weight_traffic_bytes=3e9)
        bd = breakdown(rec, TESTBED, EFF)
        assert bd.t_weight == pytest.approx(1.8, rel=1e-12)
        assert bd.shares.weight == pytest.approx(0.9633346670506413, rel=1e-12)
        assert abs(bd.shares.weight - 0.96) < 0.01

    def test_overlap_total_is_max(self):
        # components: t_d = 0.1, t_c = 0.3, t_w = 0.6 (constructed volumes)
        rec = make_record(arch=A.PS_WORKER, num_cnodes=4,
                          flops=0.3 * 11e12 * 0.7, mem_access_bytes=0.0,
                          input_bytes=0.1 * 1e10 * 0.7,
                          weight_traffic_bytes=1e9)
        none = breakdown(rec, PAI, EFF, OverlapMode.NO_OVERLAP)
        ideal = breakdown(rec, PAI, EFF, OverlapMode.IDEAL_OVERLAP)
        assert none.t_total == pytest.approx(1.0, rel=1e-12)
        assert ideal.t_total == pytest.approx(0.6, rel=1e-12)
        assert ideal.shares == none.shares  # shares keep the sum denominator

    def test_all_zero_record_flags_undefined_shares(self):
        rec = make_record(flops=0.0, mem_access_bytes=0.0, input_bytes=0.0,
                          weight_traffic_bytes=0.0)
        bd = breakdown(rec, PAI, EFF)
        assert bd.t_total == 0.0
        assert not bd.shares_defined
        assert bd.shares._asdict() == {"data": 0.0, "compute_bound": 0.0,
                                       "memory_bound": 0.0, "weight": 0.0}

    @given(workload_records(), hardware_profiles(), efficiency_models(),
           st.sampled_from(list(OverlapMode)))
    def test_shares_partition_unity(self, rec, hw, eff, overlap):
        bd = breakdown(rec, hw, eff, overlap)
        if bd.shares_defined:
            total = bd.shares.data + bd.shares.compute_bound + bd.shares.memory_bound + bd.shares.weight
            assert abs(total - 1.0) <= 1e-9
        for share in bd.shares:
            assert share >= 0.0

    @given(workload_records())
    def test_ideal_never_exceeds_no_overlap(self, rec):
        none = breakdown(rec, PAI, EFF, OverlapMode.NO_OVERLAP)
        ideal = breakdown(rec, PAI, EFF, OverlapMode.IDEAL_OVERLAP)
        assert ideal.t_total <= none.t_total
        t_compute = none.t_compute_bound + none.t_memory_bound
        nonzero = sum(1 for t in (none.t_data, t_compute, none.t_weight) if t > 0)
        assert (ideal.t_total == none.t_total) == (nonzero <= 1)

    @given(workload_records(), st.integers(min_value=-8, max_value=8))
    def test_power_of_two_demand_scaling_is_exact(self, rec, log2k):
        # scaling every demand by k scales every component and the total by k;
        # powers of two make the identity exact in floating point
        k = 2.0 ** log2k
        scaled = dataclasses.replace(
            rec, flops=rec.flops * k, mem_access_bytes=rec.mem_access_bytes * k,
            input_bytes=rec.input_bytes * k, weight_traffic_bytes=rec.weight_traffic_bytes * k)
        base = breakdown(rec, PAI, EFF)
        new = breakdown(scaled, PAI, EFF)
        assert new.t_data == base.t_data * k
        assert new.t_compute_bound == base.t_compute_bound * k
        assert new.t_memory_bound == base.t_memory_bound * k
        assert new.t_weight == base.t_weight * k
        assert new.t_total == pytest.approx(base.t_total * k, rel=1e-12)

    @given(workload_records(), hardware_profiles(), st.floats(min_value=1.01, max_value=100))
    def test_components_non_increasing_in_every_bandwidth(self, rec, hw, factor):
        base = breakdown(rec, hw, EFF)
        for field in ("gpu_peak_flops", "gpu_mem_bandwidth", "pcie_bandwidth",
                      "ethernet_bandwidth", "nvlink_bandwidth"):
            faster = dataclasses.replace(hw, **{field: getattr(hw, field) * factor})
            new = breakdown(rec, faster, EFF)
            assert new.t_data <= base.t_data
            assert (new.t_compute_bound + new.t_memory_bound
                    <= base.t_compute_bound + base.t_memory_bound)
            assert new.t_weight <= base.t_weight
            assert new.t_total <= base.t_total


class TestThroughput:
    def test_single_node(self):
        rec = make_record(arch=A.ONE_WORKER_ONE_GPU, batch_size=64)
        assert throughput(rec, 1.0) == 64

    # oracle: 32 / 0.264 * 2048 = 248242.42424242423
    def test_distributed(self):
        rec = make_record(num_cnodes=32, batch_size=2048)
        assert throughput(rec, 0.264) == pytest.approx(248242.42424242423, rel=1e-12)

    def test_rejects_zero_total(self):
        rec = make_record()
        with pytest.raises(ValueError):
            throughput(rec, 0.0)


class TestValidationGap:
    # oracle: (0.149 - 0.126) / 0.126 = 0.18253968253968247
    def test_case_study_gap(self):
        assert validation_gap(0.149, 0.126) == pytest.approx(0.18253968253968247, rel=1e-12)

    def test_exact_match(self):
        assert validation_gap(1.0, 1.0) == 0.0

    def test_underprediction_is_negative(self):
        assert validation_gap(0.5, 1.0) == -0.5

    def test_rejects_nonpositive_measured(self):
        with pytest.raises(ValueError):
            validation_gap(0.1, 0.0)
        with pytest.raises(ValueError):
            validation_gap(0.1, -1.0)


def assert_kernel_matches_breakdown(records, hw, eff, overlap):
    ev = evaluate(Population.of(records), hw, eff)
    oracle = [breakdown(rec, hw, eff, overlap) for rec in records]
    for name in ("t_data", "t_compute_bound", "t_memory_bound", "t_weight"):
        assert float_bits(getattr(ev, name)) == float_bits(getattr(bd, name) for bd in oracle)
    assert float_bits(ev.t_total(overlap)) == float_bits(bd.t_total for bd in oracle)
    assert float_bits(ev.component_sum) == float_bits(
        bd.t_data + (bd.t_compute_bound + bd.t_memory_bound) + bd.t_weight
        for bd in oracle)
    for name in Shares.COMPONENTS:
        assert float_bits(ev.share(name)) == float_bits(
            getattr(bd.shares, name) for bd in oracle)


class TestColumnarKernel:
    @given(records=record_lists_with_idle_job(), hw=hardware_profiles(),
           eff=efficiency_models(), overlap=st.sampled_from(list(OverlapMode)))
    def test_every_column_equals_the_scalar_breakdown_bit_for_bit(self, records, hw, eff,
                                                                  overlap):
        assert_kernel_matches_breakdown(records, hw, eff, overlap)

    @given(records=record_lists_with_idle_job(), hw=hardware_profiles(),
           eff=efficiency_models())
    def test_per_medium_weight_times_sum_to_the_scalar_t_weight(self, records, hw, eff):
        ev = evaluate(Population.of(records), hw, eff)
        rates = {Medium.ETHERNET: hw.ethernet_bandwidth * eff.ethernet_eff,
                 Medium.PCIE: hw.pcie_bandwidth * eff.pcie_eff,
                 Medium.NVLINK: hw.nvlink_bandwidth * eff.nvlink_eff}
        for i, rec in enumerate(records):
            path = WEIGHT_MEDIUM_PATHS[rec.arch]
            times = [ev.t_weight_on[m][i] for m in Medium]
            assert float_bits(times) == float_bits(
                rec.weight_traffic_bytes / rates[m] if m in path else 0.0 for m in Medium)
            total = 0.0
            for t in times:
                total += t
            assert float_bits([total]) == float_bits([breakdown(rec, hw, eff).t_weight])

    @pytest.mark.parametrize("overlap", list(OverlapMode))
    def test_synthetic_population_equals_the_scalar_breakdown(self, overlap):
        # Realistic magnitudes and every contention level of a local
        # architecture, at efficiencies that differ per resource.
        records = synth_population(SynthSpec(size=400, seed=11))
        eff = EfficiencyModel(compute_eff=0.9, mem_eff=0.55, pcie_eff=0.35,
                              ethernet_eff=0.8, nvlink_eff=0.45)
        assert_kernel_matches_breakdown(records, TESTBED, eff, overlap)


def assert_close(got, want):
    assert math.isclose(got, want, rel_tol=1e-12), (got, want)


class TestClosedForm:
    """Both model paths against ``helpers.closed_form``, which shares no code
    with either: a wrong rate, weight path or contention rule in the
    program fails here even when ``breakdown`` and ``evaluate`` agree."""

    @given(records=record_lists_with_idle_job(), hw=hardware_profiles(),
           eff=efficiency_models())
    def test_breakdown_and_evaluate_match_the_closed_form(self, records, hw, eff):
        ev = evaluate(Population.of(records), hw, eff)
        totals = {mode: ev.t_total(mode) for mode in OverlapMode}
        shares = {name: ev.share(name) for name in Shares.COMPONENTS}
        for i, rec in enumerate(records):
            want = closed_form(rec, hw, eff)
            bd = {mode: breakdown(rec, hw, eff, mode) for mode in OverlapMode}
            for name in ("t_data", "t_compute_bound", "t_memory_bound", "t_weight"):
                assert_close(getattr(bd[OverlapMode.NO_OVERLAP], name), want[name])
                assert_close(getattr(ev, name)[i], want[name])
            assert_close(ev.t_compute[i], want["t_compute"])
            for medium in Medium:
                assert_close(ev.t_weight_on[medium][i], want["t_weight_on"][medium.value])
            for mode in OverlapMode:
                assert_close(bd[mode].t_total, want["t_total"][mode.value])
                assert_close(totals[mode][i], want["t_total"][mode.value])
            assert_close(ev.component_sum[i], want["t_total"]["none"])
            assert bd[OverlapMode.NO_OVERLAP].shares_defined == (want["t_total"]["none"] > 0)
            for name in Shares.COMPONENTS:
                assert_close(getattr(bd[OverlapMode.NO_OVERLAP].shares, name),
                             want["shares"][name])
                assert_close(shares[name][i], want["shares"][name])


def each_term(ev):
    """An evaluation's term lists by name."""
    return {"data": ev.t_data, "compute_bound": ev.t_compute_bound,
            "memory_bound": ev.t_memory_bound,
            **{m.value: times for m, times in ev.t_weight_on.items()}}


def column_bits(ev):
    columns = each_term(ev) | {name: getattr(ev, name)
                               for name in ("t_compute", "t_weight", "component_sum")}
    return {name: float_bits(times) for name, times in columns.items()}


def mixed(draw, base, other):
    """``base`` with a drawn subset of its fields taken from ``other``."""
    names = [f.name for f in dataclasses.fields(base)]
    taken = draw(st.sets(st.sampled_from(names)))
    return dataclasses.replace(base, **{name: getattr(other, name) for name in taken})


class TestChainedEvaluation:
    @given(records=record_lists_with_idle_job(), hw=hardware_profiles(),
           eff=efficiency_models(), other_hw=hardware_profiles(),
           other_eff=efficiency_models(), data=st.data())
    def test_a_chained_evaluation_equals_a_fresh_one(self, records, hw, eff, other_hw,
                                                     other_eff, data):
        pop = Population.of(records)
        hw2, eff2 = mixed(data.draw, hw, other_hw), mixed(data.draw, eff, other_eff)
        assert column_bits(evaluate(pop, hw2, eff2, like=evaluate(pop, hw, eff))) == column_bits(
            evaluate(pop, hw2, eff2))

    def test_a_rate_that_moves_rebuilds_only_its_terms(self):
        pop = Population.of(synth_population(SynthSpec(size=50, seed=3)))
        base = evaluate(pop, PAI, EFF)
        again = evaluate(pop, PAI, EFF, like=base)
        assert all(times is each_term(base)[name] for name, times in each_term(again).items())
        assert again.t_compute is base.t_compute and again.t_weight is base.t_weight
        moved = {
            "pcie_bandwidth": {"data", "pcie"},
            "ethernet_bandwidth": {"ethernet"},
            "nvlink_bandwidth": {"nvlink"},
            "gpu_peak_flops": {"compute_bound"},
            "gpu_mem_bandwidth": {"memory_bound"},
            "gpu_mem_capacity": set(),
            "compute_eff": {"compute_bound"},
            "mem_eff": {"memory_bound"},
            "pcie_eff": {"data", "pcie"},
            "ethernet_eff": {"ethernet"},
            "nvlink_eff": {"nvlink"},
        }
        assert set(moved) == {f.name for model in (PAI, EFF) for f in dataclasses.fields(model)}
        for field, names in moved.items():
            if hasattr(PAI, field):
                hw, eff = dataclasses.replace(PAI, **{field: getattr(PAI, field) * 2}), EFF
            else:
                hw, eff = PAI, dataclasses.replace(EFF, **{field: getattr(EFF, field) / 2})
            ev = evaluate(pop, hw, eff, like=base)
            rebuilt = {name for name, times in each_term(ev).items()
                       if times is not each_term(base)[name]}
            assert rebuilt == names, field
            # A combined column is the base's own exactly when none of its
            # terms moved.
            assert (ev.t_compute is base.t_compute) == names.isdisjoint(
                {"compute_bound", "memory_bound"}), field
            assert (ev.t_weight is base.t_weight) == names.isdisjoint(
                {m.value for m in Medium}), field

    def test_a_like_of_another_population_is_refused(self):
        pop = Population.of(synth_population(SynthSpec(size=20, seed=3)))
        base = evaluate(pop, PAI, EFF)
        for other in (pop[:], pop[:10]):
            with pytest.raises(ValueError, match="another population"):
                evaluate(other, PAI, EFF, like=base)
