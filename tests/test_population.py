"""A population is any iterable of records, and every analysis states the
empty-population rule the same way."""

import pytest

from dlcost.aggregate import composition, scale_distribution, share_cdf, weighted_breakdown
from dlcost.core import ArchitectureKind
from dlcost.corpus import builtin_corpus
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
