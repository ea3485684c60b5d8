import copy
import dataclasses
import pickle

import pytest
from hypothesis import given

from dlcost.core import (
    GPUS_PER_SERVER,
    LOCAL_MULTI_GPU,
    ArchitectureKind,
    EfficiencyModel,
    HardwareProfile,
    Medium,
    ValidationError,
    record_errors,
    validate_record,
)
from helpers import make_record, workload_records


def test_architecture_labels_are_exactly_six():
    labels = {a.value for a in ArchitectureKind}
    assert labels == {
        "one_worker_one_gpu", "one_worker_n_gpu", "ps_worker",
        "allreduce_local", "allreduce_cluster", "pearl",
    }


@pytest.mark.parametrize("member", [*ArchitectureKind, *Medium])
def test_members_hash_by_identity_and_stay_singletons(member):
    assert hash(member) == object.__hash__(member)
    assert pickle.loads(pickle.dumps(member)) is member
    assert copy.deepcopy(member) is member
    others = [m for m in type(member) if m is not member]
    assert {m: m.value for m in type(member)}[member] == member.value
    assert member in frozenset([member]) and member not in frozenset(others)


def test_unknown_architecture_rejected():
    with pytest.raises(ValueError, match="unknown architecture"):
        ArchitectureKind.from_label("ring")


def test_efficiency_defaults_are_exactly_07():
    eff = EfficiencyModel()
    assert (eff.compute_eff, eff.mem_eff, eff.pcie_eff,
            eff.ethernet_eff, eff.nvlink_eff) == (0.7, 0.7, 0.7, 0.7, 0.7)


@pytest.mark.parametrize("field,value", [
    ("compute_eff", 0.0), ("mem_eff", 1.5), ("pcie_eff", -0.1),
    ("ethernet_eff", float("nan")), ("nvlink_eff", 0.0),
])
def test_efficiency_rejects_out_of_range(field, value):
    with pytest.raises(ValueError):
        EfficiencyModel(**{field: value})


def test_hardware_profile_rejects_nonpositive():
    with pytest.raises(ValueError):
        HardwareProfile(gpu_peak_flops=0, gpu_mem_bandwidth=1e12, pcie_bandwidth=1e10,
                        ethernet_bandwidth=3.125e9, nvlink_bandwidth=5e10)
    with pytest.raises(ValueError):
        HardwareProfile(gpu_peak_flops=1e13, gpu_mem_bandwidth=1e12, pcie_bandwidth=1e10,
                        ethernet_bandwidth=3.125e9, nvlink_bandwidth=-5e10)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_slotted_record_copies_equal_and_stays_frozen(protocol):
    rec = make_record(measured_step_seconds=0.5, notes={"queue_seconds": 3.0, "jobs": 2})
    assert not hasattr(rec, "__dict__")
    for copied in (pickle.loads(pickle.dumps(rec, protocol)), copy.deepcopy(rec),
                   dataclasses.replace(rec)):
        assert copied == rec and copied is not rec
        assert list(copied.notes.items()) == list(rec.notes.items())
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.num_cnodes = 8
    assert rec.num_cnodes == 4


def test_valid_1w1g_record_passes():
    rec = make_record(arch=ArchitectureKind.ONE_WORKER_ONE_GPU)
    assert validate_record(rec) is rec
    assert record_errors(rec) == []


def test_1w1g_with_multiple_cnodes_rejected():
    rec = dataclasses.replace(make_record(arch=ArchitectureKind.ONE_WORKER_ONE_GPU),
                              num_cnodes=4)
    errors = record_errors(rec)
    assert "cnodes must be 1 for 1w1g" in errors


def test_1w1g_with_weight_traffic_rejected():
    rec = dataclasses.replace(make_record(arch=ArchitectureKind.ONE_WORKER_ONE_GPU),
                              weight_traffic_bytes=728e6)
    assert "nonzero weight traffic on 1w1g" in record_errors(rec)


def test_negative_flops_rejected():
    rec = make_record(flops=-1)
    assert "negative flops" in record_errors(rec)


def test_every_violation_reported_individually():
    rec = dataclasses.replace(
        make_record(arch=ArchitectureKind.ONE_WORKER_ONE_GPU),
        num_cnodes=4, weight_traffic_bytes=1e6, flops=-2.0, input_bytes=float("inf"))
    errors = record_errors(rec)
    assert len(errors) == 4
    with pytest.raises(ValidationError) as excinfo:
        validate_record(rec)
    assert excinfo.value.errors == errors


def test_nonpositive_measured_time_rejected():
    rec = make_record(measured_step_seconds=0.0)
    assert any("measured_step_seconds" in e for e in record_errors(rec))


@pytest.mark.parametrize("arch", sorted(LOCAL_MULTI_GPU, key=lambda a: a.value))
def test_local_architecture_fits_one_server(arch):
    assert record_errors(make_record(arch=arch, num_cnodes=GPUS_PER_SERVER)) == []
    assert record_errors(make_record(arch=arch, num_cnodes=64)) == [
        f"{arch.value} runs on one server: num_cnodes must be at most 8, got 64"]


@pytest.mark.parametrize("value", ["hello", True, None, [1.0], float("nan"), float("inf")])
def test_non_numeric_note_rejected(value):
    rec = make_record(notes={"ok": 1, "x": value})
    assert record_errors(rec) == [f"note 'x' must be a finite number, got {value!r}"]


def test_huge_integer_note_is_a_finite_number():
    assert record_errors(make_record(notes={"x": 10 ** 400})) == []


@given(workload_records())
def test_generated_records_are_valid(rec):
    assert record_errors(rec) == []
