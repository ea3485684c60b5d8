"""A population is any iterable of records, and every analysis states the
empty-population rule the same way.  A trace is read into a population of
field columns, from which the commands that need no record build none."""

import json
from array import array

import pytest

from dlcost import core
from dlcost.aggregate import composition, scale_distribution, share_cdf, weighted_breakdown
from dlcost.cli import EX_OK, run
from dlcost.core import (
    RECORD_FIELDS,
    RECORD_QUANTITIES,
    ArchitectureKind,
    Population,
    WorkloadRecord,
    require_jobs,
)
from dlcost.corpus import SynthSpec, builtin_corpus, synth_population
from dlcost.ingest import dump_trace, record_to_dict
from dlcost.units import format_quantity
from dlcost.projection import population_speedup_profile
from dlcost.sweep import (
    cartesian_sweep,
    efficiency_sensitivity,
    hardware_sweep,
    overlap_comparison,
    standard_axes,
)
from helpers import EFF, PAI

A = ArchitectureKind

ANALYSES = {
    "composition": composition,
    "weighted_breakdown": lambda pop: weighted_breakdown(pop, PAI, EFF),
    "share_cdf": lambda pop: share_cdf(pop, "weight", PAI, EFF, level="cnode"),
    "scale_distribution": scale_distribution,
    "population_speedup_profile":
        lambda pop: population_speedup_profile(pop, A.ALLREDUCE_LOCAL, PAI, EFF),
    "hardware_sweep": lambda pop: hardware_sweep(pop, standard_axes(), PAI, EFF),
    "cartesian_sweep": lambda pop: cartesian_sweep(pop, standard_axes(), PAI, EFF),
    "efficiency_sensitivity":
        lambda pop: efficiency_sensitivity(pop, PAI, [0.5, 0.7], [0.7, 1.0]),
    "overlap_comparison": lambda pop: overlap_comparison(pop, PAI, EFF, A.ALLREDUCE_LOCAL),
}

FORMS = {
    "tuple": tuple,
    "list": list,
    "generator": lambda records: (rec for rec in records),
}


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("analysis", ANALYSES)
def test_empty_population_is_rejected(analysis, form):
    with pytest.raises(ValueError, match="^population is empty$"):
        ANALYSES[analysis](FORMS[form](()))


@pytest.mark.parametrize("analysis", ANALYSES)
def test_every_iterable_of_the_same_records_gives_the_same_result(analysis):
    records = builtin_corpus()
    assert isinstance(records, tuple)
    results = [ANALYSES[analysis](make(records)) for make in FORMS.values()]
    assert results[0] == results[1] == results[2]


def test_a_population_is_the_sequence_of_its_records():
    records = builtin_corpus()
    pop = Population.of(records)
    assert len(pop) == len(records)
    assert tuple(pop) == records
    assert (pop[0], pop[-1]) == (records[0], records[-1])
    assert tuple(pop[1:4]) == records[1:4]
    quantities = {f.name for f in RECORD_QUANTITIES}
    for name in RECORD_FIELDS:
        column = getattr(pop, name)
        assert type(column) is (array if name in quantities else list)
        assert list(column) == [getattr(rec, name) for rec in records]
    assert pop.model_bytes == [rec.model_bytes for rec in records]
    assert Population.of(pop) is pop and require_jobs(pop) is pop


@pytest.fixture(scope="module", params=["numbers", "unit-strings"])
def trace(request, tmp_path_factory):
    """A synthetic trace file, its quantities as numbers or as unit strings
    (then with a measured step time and notes on each line)."""
    records = synth_population(SynthSpec(size=300, seed=11))
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    if request.param == "numbers":
        path.write_text(dump_trace(records))
        return path
    lines = []
    for n, rec in enumerate(records):
        obj = record_to_dict(rec) | {"measured_step_seconds": 0.5 + n,
                                     "notes": {"queue_seconds": n}}
        obj |= {f.name: (f"{obj[f.name]!r}FLOPs" if f.metadata["kind"] == "count"
                         else format_quantity(obj[f.name], f.metadata["kind"]))
                for f in RECORD_QUANTITIES}
        lines.append(json.dumps(obj) + "\n")
    path.write_text("".join(lines))
    return path


@pytest.mark.parametrize("command", [
    ["breakdown"],
    *(["aggregate", "--stat", stat] for stat in ("shares", "composition", "share-cdf",
                                                 "scale-cdf")),
    ["sweep"],
    ["sweep", "--cartesian"],
    ["sensitivity", "--analysis", "efficiency"],
    ["validate"],
])
def test_column_only_commands_build_no_record(tmp_path, monkeypatch, trace, command):
    built = []
    init = WorkloadRecord.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(WorkloadRecord, "__init__", counted)
    assert run([*command, "--trace", str(trace), "--out", str(tmp_path / "out")]) == EX_OK
    assert built == []


@pytest.mark.parametrize("command, passes", [
    (["project", "--target", "allreduce_local"], 1),
    (["sensitivity", "--analysis", "overlap"], 2),  # one projection per overlap mode
])
def test_projections_build_each_record_once_per_pass_one_at_a_time(
        tmp_path, monkeypatch, trace, command, passes):
    built, live, most = [0], set(), [0]

    class Counted(WorkloadRecord):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built[0] += 1
            live.add(id(self))
            most[0] = max(most[0], len(live))

        def __del__(self):
            live.discard(id(self))

    # The population builds its records through its row type.
    monkeypatch.setattr(core.Population, "ROW", Counted)
    assert run([*command, "--trace", str(trace), "--out", str(tmp_path / "out")]) == EX_OK
    assert built[0] == passes * len(trace.read_text().splitlines())
    assert most[0] <= 2
