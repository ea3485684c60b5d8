import dataclasses
import itertools
import math
import warnings

import pytest
from hypothesis import given
import hypothesis.strategies as st

from dlcost import sweep
from dlcost.core import ArchitectureKind, OverlapMode
from dlcost.engine import breakdown, speedup
from dlcost.projection import population_speedup_profile
from dlcost.sweep import (
    STANDARD_CANDIDATES,
    SweepAxis,
    SweepResource,
    cartesian_sweep,
    efficiency_sensitivity,
    hardware_sweep,
    overlap_comparison,
    standard_axes,
)
from helpers import (
    EFF,
    PAI,
    TESTBED,
    efficiency_models,
    float_bits,
    hardware_profiles,
    make_record,
    record_lists_with_idle_job,
    reference_efficiency_sensitivity,
    workload_records,
)

A = ArchitectureKind
R = SweepResource


def pop_of(*records):
    return records


def pure_weight_record(**kw):
    kw.setdefault("num_cnodes", 32)
    return make_record(arch=A.PS_WORKER, flops=0.0, mem_access_bytes=0.0,
                       input_bytes=0.0, weight_traffic_bytes=1e9,
                       dense_weight_bytes=1e6, **kw)


class TestAxes:
    def test_standard_candidates_match_the_published_grid(self):
        assert STANDARD_CANDIDATES[R.ETHERNET] == (1.25e9, 3.125e9, 1.25e10)
        assert STANDARD_CANDIDATES[R.PCIE] == (1e10, 5e10)
        assert STANDARD_CANDIDATES[R.GPU_FLOPS] == (8e12, 16e12, 32e12, 64e12)
        assert STANDARD_CANDIDATES[R.GPU_MEM_BANDWIDTH] == (1e12, 2e12, 4e12)
        assert {a.resource: a.candidates for a in standard_axes()} == STANDARD_CANDIDATES
        assert [a.resource for a in standard_axes([R.PCIE, R.ETHERNET])] == [R.PCIE, R.ETHERNET]

    def test_axis_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SweepAxis(resource=R.ETHERNET, candidates=())
        with pytest.raises(ValueError):
            SweepAxis(resource=R.ETHERNET, candidates=(0.0,))
        with pytest.raises(ValueError, match="candidate 1000000000.0 given more than once"):
            SweepAxis(resource=R.ETHERNET, candidates=(1e9, 2e9, 1e9))


class TestHardwareSweep:
    def test_baseline_candidate_gives_exactly_one(self):
        pop = pop_of(make_record(job_id="a"), pure_weight_record(job_id="b"))
        table = hardware_sweep(pop, standard_axes(), PAI, EFF)
        for [(resource, candidate)], speedups in zip(table.settings, table.speedups):
            if candidate == getattr(PAI, resource.field.name):
                assert speedups == [1.0, 1.0]

    def test_each_setting_replaces_exactly_its_field(self):
        pop = pop_of(make_record(job_id="a"), pure_weight_record(job_id="b"))
        table = hardware_sweep(pop, standard_axes(), PAI, EFF)
        assert len(table) == 2 * sum(map(len, STANDARD_CANDIDATES.values()))
        assert table.job_ids == ["a", "b"]
        assert table.settings == tuple(((axis.resource, c),) for axis in standard_axes()
                                       for c in axis.candidates)
        assert len(table.speedups) == len(table.settings)
        for [(resource, candidate)], speedups in zip(table.settings, table.speedups):
            hw = dataclasses.replace(PAI, **{resource.field.name: candidate})
            assert float_bits(speedups) == float_bits(
                [speedup(breakdown(rec, PAI, EFF).t_total, breakdown(rec, hw, EFF).t_total)
                 for rec in pop])

    def test_weight_bound_ethernet_upgrade(self):
        # oracle: (1/(3.125*0.7) + 1/(10*0.7)) / (1/(12.5*0.7) + 1/(10*0.7)) = 2.3333...
        pop = pop_of(pure_weight_record())
        axis = SweepAxis(resource=R.ETHERNET, candidates=(1.25e10,))
        table = hardware_sweep(pop, [axis], PAI, EFF)
        [[cell]] = table.speedups
        assert cell == pytest.approx(2.3333333333333335, rel=1e-12)
        assert table.settings == (((R.ETHERNET, 1.25e10),),)

    def test_unused_resource_leaves_speedup_at_one(self):
        compute_only = make_record(flops=1e12, mem_access_bytes=0.0, input_bytes=0.0,
                                   weight_traffic_bytes=0.0)
        pop = pop_of(compute_only)
        axis = SweepAxis(resource=R.ETHERNET, candidates=(1.25e9, 1.25e10))
        assert hardware_sweep(pop, [axis], PAI, EFF).speedups == [[1.0], [1.0]]

    @given(workload_records(), st.sampled_from(list(R)))
    def test_speedup_monotone_in_candidate(self, rec, resource):
        pop = pop_of(rec)
        axis = SweepAxis(resource=resource, candidates=(1e9, 1e10, 1e11, 1e12))
        speedups = [s for [s] in hardware_sweep(pop, [axis], PAI, EFF).speedups]
        assert all(a <= b for a, b in zip(speedups, speedups[1:]))

    @given(workload_records(allow_zero_demands=False), st.sampled_from(list(R)),
           st.floats(min_value=1e8, max_value=1e16))
    def test_speedup_bounded_by_untouched_residual(self, rec, resource, candidate):
        pop = pop_of(rec)
        axis = SweepAxis(resource=resource, candidates=(candidate,))
        [[cell]] = hardware_sweep(pop, [axis], PAI, EFF).speedups
        base = breakdown(rec, PAI, EFF)
        # components the axis can never touch stay as a lower bound on time
        infinite = dataclasses.replace(PAI, **{resource.field.name: 1e30})
        residual = breakdown(rec, infinite, EFF).t_total
        if residual > 0:
            assert cell <= base.t_total / residual * (1 + 1e-12)

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError):
            hardware_sweep((), standard_axes(), PAI, EFF)
        with pytest.raises(ValueError):
            hardware_sweep(pop_of(make_record()), [], PAI, EFF)
        with pytest.raises(ValueError):
            cartesian_sweep((), standard_axes(), PAI, EFF)
        with pytest.raises(ValueError):
            cartesian_sweep(pop_of(make_record()), [], PAI, EFF)

    @pytest.mark.parametrize("sweep_fn", [hardware_sweep, cartesian_sweep])
    def test_a_resource_on_two_axes_is_refused(self, sweep_fn):
        # A setting of both would hold two values of one field, and only one
        # of them would reach the hardware profile.
        axes = [SweepAxis(resource=R.ETHERNET, candidates=(1.25e9,)),
                SweepAxis(resource=R.PCIE, candidates=(1e10,)),
                SweepAxis(resource=R.ETHERNET, candidates=(1.25e10,))]
        with pytest.raises(ValueError, match="^axis ethernet given more than once$"):
            sweep_fn(pop_of(make_record()), axes, PAI, EFF)

    @given(records=record_lists_with_idle_job(max_size=6),
           axes=st.lists(st.builds(
               SweepAxis, resource=st.sampled_from(list(R)),
               candidates=st.lists(st.floats(min_value=1e6, max_value=1e15),
                                   min_size=1, max_size=3, unique=True).map(tuple)),
               min_size=1, max_size=4, unique_by=lambda axis: axis.resource),
           hw=hardware_profiles(), eff=efficiency_models(),
           overlap=st.sampled_from(list(OverlapMode)))
    def test_is_the_one_axis_cartesian_sweep_per_axis(self, records, axes, hw, eff, overlap):
        pop = tuple(records)
        table = hardware_sweep(pop, axes, hw, eff, overlap)
        per_axis = [cartesian_sweep(pop, [axis], hw, eff, overlap) for axis in axes]
        assert all(t.job_ids == table.job_ids for t in per_axis)
        assert table.settings == tuple(s for t in per_axis for s in t.settings)
        assert (float_bits(itertools.chain.from_iterable(table.speedups))
                == float_bits(s for t in per_axis for speedups in t.speedups for s in speedups))


    @given(records=record_lists_with_idle_job(max_size=6),
           axes=st.permutations(list(R)).flatmap(lambda resources: st.tuples(*(
               st.builds(SweepAxis, resource=st.just(r),
                         candidates=st.lists(st.floats(min_value=1e6, max_value=1e15),
                                             min_size=1, max_size=2, unique=True).map(tuple))
               for r in resources))),
           hw=hardware_profiles(), eff=efficiency_models(),
           overlap=st.sampled_from(list(OverlapMode)))
    def test_every_cell_equals_the_scalar_model(self, records, axes, hw, eff, overlap):
        # Every resource is swept, PCIe (the data and a weight term) included.
        pop = tuple(records)
        for sweep_fn in (hardware_sweep, cartesian_sweep):
            table = sweep_fn(pop, axes, hw, eff, overlap)
            assert table.job_ids == [rec.job_id for rec in pop]
            assert len(table.speedups) == len(table.settings)
            for setting, speedups in zip(table.settings, table.speedups):
                moved = dataclasses.replace(hw, **{r.field.name: v for r, v in setting})
                assert float_bits(speedups) == float_bits([speedup(
                    breakdown(rec, hw, eff, overlap).t_total,
                    breakdown(rec, moved, eff, overlap).t_total) for rec in pop])


#: A job so small that the fastest GPU candidate's compute time underflows
#: to 0.0 (a zero-time step), while its base step time is a tiny positive
#: float; and an idle job, zero-time under every setting.
TINY = make_record(job_id="tiny", arch=A.ONE_WORKER_ONE_GPU, flops=1e-300,
                   mem_access_bytes=0.0, input_bytes=0.0)
IDLE = make_record(job_id="idle", flops=0.0, mem_access_bytes=0.0, input_bytes=0.0,
                   weight_traffic_bytes=0.0)


class TestSweepTable:
    @given(records=record_lists_with_idle_job(max_size=6),
           axes=st.lists(st.builds(
               SweepAxis, resource=st.sampled_from(list(R)),
               candidates=st.lists(st.floats(min_value=1e6, max_value=1e15),
                                   min_size=1, max_size=3, unique=True).map(tuple)),
               min_size=1, max_size=3, unique_by=lambda axis: axis.resource))
    def test_len_is_the_cell_count(self, records, axes):
        pop = tuple(records)
        for sweep_fn, n_settings in (
                (hardware_sweep, sum(len(axis.candidates) for axis in axes)),
                (cartesian_sweep, math.prod(len(axis.candidates) for axis in axes))):
            table = sweep_fn(pop, axes, PAI, EFF)
            assert len(table.settings) == len(table.speedups) == n_settings
            assert all(len(speedups) == len(pop) for speedups in table.speedups)
            assert len(table) == len(pop) * n_settings

    @pytest.mark.parametrize("overlap", list(OverlapMode))
    def test_zero_time_steps_follow_the_speedup_rules(self, overlap):
        axis = SweepAxis(resource=R.GPU_FLOPS, candidates=(1e300,))
        assert breakdown(TINY, PAI, EFF, overlap).t_total > 0
        for sweep_fn in (hardware_sweep, cartesian_sweep):
            table = sweep_fn((IDLE, TINY), [axis], PAI, EFF, overlap)
            # Zero time before and after: as fast; zero time after only: infinitely faster.
            assert table.speedups == [[1.0, math.inf]]


class TestCartesianSweep:
    def test_covers_the_cross_product(self):
        pop = pop_of(make_record())
        axes = [
            SweepAxis(resource=R.ETHERNET, candidates=(1.25e9, 3.125e9)),
            SweepAxis(resource=R.PCIE, candidates=(1e10, 5e10)),
        ]
        table = cartesian_sweep(pop, axes, PAI, EFF)
        assert len(table) == 4
        assert set(table.settings) == {
            ((R.ETHERNET, 1.25e9), (R.PCIE, 1e10)),
            ((R.ETHERNET, 1.25e9), (R.PCIE, 5e10)),
            ((R.ETHERNET, 3.125e9), (R.PCIE, 1e10)),
            ((R.ETHERNET, 3.125e9), (R.PCIE, 5e10)),
        }

    def test_warns_when_report_is_huge(self, monkeypatch):
        monkeypatch.setattr(sweep, "CARTESIAN_WARNING_CELLS", 1)
        pop = pop_of(make_record())
        axes = [SweepAxis(resource=R.ETHERNET, candidates=(1e9, 2e9))]
        with pytest.warns(UserWarning, match="emits 2 cells"):
            cartesian_sweep(pop, axes, PAI, EFF)

    @pytest.mark.parametrize("axes, message", [
        ([], "^no sweep axes given$"),
        ([SweepAxis(resource=R.ETHERNET, candidates=(1e9, 2e9)),
          SweepAxis(resource=R.ETHERNET, candidates=(3e9,))],
         "^axis ethernet given more than once$"),
    ], ids=["no-axes", "repeated-resource"])
    def test_refused_axes_warn_of_no_report(self, monkeypatch, axes, message):
        # The axes are checked before the size warning, which would be about
        # a report that is never made.
        monkeypatch.setattr(sweep, "CARTESIAN_WARNING_CELLS", 1)
        pop = pop_of(make_record(job_id="a"), make_record(job_id="b"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=message):
                cartesian_sweep(pop, axes, PAI, EFF)
        assert [str(w.message) for w in caught] == []


class TestEfficiencySensitivity:
    def test_default_point_reproduces_default_model_bit_exactly(self):
        pop = pop_of(make_record(), pure_weight_record(job_id="w"))
        [cell] = efficiency_sensitivity(pop, PAI, [0.7], [0.7])
        shares = [breakdown(rec, PAI, EFF).shares.weight for rec in pop]
        assert cell.job_level_weight_share == math.fsum(shares) / len(shares)

    def test_lower_comm_efficiency_raises_weight_share(self):
        pop = pop_of(make_record(weight_traffic_bytes=1e9))
        cells = efficiency_sensitivity(pop, PAI, [0.7], [0.35, 0.7])
        by_comm = {c.comm_eff: c.job_level_weight_share for c in cells}
        assert by_comm[0.35] > by_comm[0.7]

    def test_balanced_job_sits_at_half(self):
        # t_w = 0.6 on the baseline profile; flops sized so t_c = 0.6 too
        rec = make_record(flops=0.6 * 11e12 * 0.7, mem_access_bytes=0.0,
                          input_bytes=0.0, weight_traffic_bytes=1e9)
        [cell] = efficiency_sensitivity(pop_of(rec), PAI, [0.7], [0.7])
        assert cell.job_level_weight_share == pytest.approx(0.5, rel=1e-12)

    def test_weight_dominates_even_under_weak_compute(self):
        # GCN-shaped job under PS/Worker on the testbed at compute eff 0.25:
        # oracle share = 1.8 / (1.8 + 2.8 * 0.06833809... + t_d) = 0.9038331131933811
        rec = make_record(arch=A.PS_WORKER, flops=330.7e9, mem_access_bytes=25.79e9,
                          input_bytes=1.2e6, weight_traffic_bytes=3e9)
        [cell] = efficiency_sensitivity(pop_of(rec), TESTBED, [0.25], [0.7])
        assert cell.job_level_weight_share == pytest.approx(0.9038331131933811, rel=1e-12)

    def test_grid_values_outside_unit_interval_rejected(self):
        pop = pop_of(make_record())
        with pytest.raises(ValueError):
            efficiency_sensitivity(pop, PAI, [0.0], [0.7])
        with pytest.raises(ValueError):
            efficiency_sensitivity(pop, PAI, [0.7], [1.1])
        with pytest.raises(ValueError, match="communication efficiency 0.7 given more than once"):
            efficiency_sensitivity(pop, PAI, [0.7], [0.7, 0.7])


fractions = st.floats(min_value=0.01, max_value=1.0)


@given(records=record_lists_with_idle_job(), hw=hardware_profiles(),
       compute_eff_grid=st.lists(fractions, min_size=1, max_size=4, unique=True),
       comm_eff_grid=st.lists(fractions, min_size=1, max_size=4, unique=True))
def test_efficiency_sensitivity_equals_a_whole_evaluation_per_grid_point(
        records, hw, compute_eff_grid, comm_eff_grid):
    cells = efficiency_sensitivity(records, hw, compute_eff_grid, comm_eff_grid)
    reference = reference_efficiency_sensitivity(records, hw, compute_eff_grid, comm_eff_grid)
    assert [(c.compute_eff, c.comm_eff) for c in cells] == [
        (c.compute_eff, c.comm_eff) for c in reference]
    for name in ("job_level_weight_share", "cnode_level_weight_share"):
        assert float_bits(getattr(c, name) for c in cells) == float_bits(
            getattr(c, name) for c in reference)


def ideal_step_speedups(pop):
    """Each feasible job's ideal-overlap step speedup onto AllReduce-Local."""
    results, _ = population_speedup_profile(pop, A.ALLREDUCE_LOCAL, PAI, EFF,
                                            OverlapMode.IDEAL_OVERLAP)
    return [res.step_speedup for res in results if res.feasible]


class TestOverlapComparison:
    def test_weight_bound_job_achieves_the_pure_path_ratio(self):
        pop = pop_of(pure_weight_record())
        cmp = overlap_comparison(pop, PAI, EFF, A.ALLREDUCE_LOCAL)
        assert cmp.fraction_at_weight_path_ratio == 1.0
        [speedup] = ideal_step_speedups(pop)
        assert speedup == pytest.approx(21.0, rel=1e-9)

    def test_compute_bound_job_sees_no_ideal_speedup(self):
        rec = make_record(flops=1e13, mem_access_bytes=0.0, input_bytes=0.0,
                          weight_traffic_bytes=1e3, dense_weight_bytes=1e6)
        cmp = overlap_comparison(pop_of(rec), PAI, EFF, A.ALLREDUCE_LOCAL)
        [speedup] = ideal_step_speedups(pop_of(rec))
        assert speedup == 1.0
        assert cmp.fraction_at_weight_path_ratio == 0.0

    def test_mixed_population_fraction(self):
        weight_bound = pure_weight_record(job_id="w")
        compute_bound = make_record(job_id="c", flops=1e13, mem_access_bytes=0.0,
                                    input_bytes=0.0, weight_traffic_bytes=1e3,
                                    dense_weight_bytes=1e6)
        cmp = overlap_comparison(pop_of(weight_bound, compute_bound), PAI, EFF,
                                 A.ALLREDUCE_LOCAL)
        assert cmp.fraction_at_weight_path_ratio == 0.5

    def test_at_ratio_predicate_matches_ideal_speedup(self):
        from dlcost.projection import project
        rec = pure_weight_record()
        res = project(rec, A.ALLREDUCE_LOCAL, PAI, EFF, OverlapMode.IDEAL_OVERLAP)
        assert res.weight_bound
        path_ratio = ((1 / (PAI.ethernet_bandwidth * EFF.ethernet_eff)
                       + 1 / (PAI.pcie_bandwidth * EFF.pcie_eff))
                      / (1 / (PAI.nvlink_bandwidth * EFF.nvlink_eff)))
        assert res.step_speedup == pytest.approx(path_ratio, rel=1e-12)

    def test_infeasible_jobs_never_count_as_at_ratio(self):
        too_big = make_record(job_id="big", arch=A.PS_WORKER,
                              embedding_weight_bytes=239.45e9,
                              weight_traffic_bytes=1e10, flops=0.0,
                              mem_access_bytes=0.0, input_bytes=0.0)
        cmp = overlap_comparison(pop_of(too_big), PAI, EFF, A.ALLREDUCE_LOCAL)
        assert cmp.fraction_at_weight_path_ratio == 0.0
        assert cmp.ideal_overlap.fraction_infeasible == 1.0


class TestDuplicateJobIds:
    def test_sweep_handles_repeated_ids_positionally(self):
        # two jobs sharing an id but with different demands must each keep
        # their own baseline
        light = make_record(job_id="dup", weight_traffic_bytes=1e6)
        heavy = make_record(job_id="dup", weight_traffic_bytes=1e12,
                            flops=0.0, mem_access_bytes=0.0, input_bytes=0.0)
        pop = pop_of(light, heavy)
        axis = SweepAxis(resource=R.ETHERNET, candidates=(1.25e10,))
        table = hardware_sweep(pop, [axis], PAI, EFF)
        assert len(table) == 2
        assert table.job_ids == ["dup", "dup"]
        base = [breakdown(rec, PAI, EFF).t_total for rec in pop]
        modified_hw = dataclasses.replace(PAI, ethernet_bandwidth=1.25e10)
        expected = [b / breakdown(rec, modified_hw, EFF).t_total
                    for rec, b in zip(pop, base)]
        assert table.speedups == [pytest.approx(expected, rel=1e-12)]
