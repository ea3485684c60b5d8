import math

import pytest

from dlcost.core import ArchitectureKind, record_errors
from dlcost.corpus import (
    DEFAULT_MIX,
    SynthSpec,
    builtin_corpus,
    corpus_record,
    measured_efficiency,
    synth_population,
)

A = ArchitectureKind


class TestBuiltinCorpus:
    def test_has_the_six_case_studies(self):
        ids = [rec.job_id for rec in builtin_corpus()]
        assert ids == ["multi_interests", "resnet50", "nmt", "bert", "speech", "gcn"]

    def test_every_record_is_valid(self):
        for rec in builtin_corpus():
            assert record_errors(rec) == [], rec.job_id

    def test_resnet50_row(self):
        rec = corpus_record("resnet50")
        assert rec.arch is A.ALLREDUCE_LOCAL
        assert rec.batch_size == 64
        assert rec.flops == 1.56e12
        assert rec.mem_access_bytes == 31.9e9
        assert rec.input_bytes == 38e6
        assert rec.weight_traffic_bytes == 357e6
        assert rec.dense_weight_bytes == 204e6
        assert rec.embedding_weight_bytes == 0.0

    def test_gcn_row(self):
        rec = corpus_record("gcn")
        assert rec.arch is A.PEARL
        assert rec.weight_traffic_bytes == 3e9
        assert rec.embedding_weight_bytes == 54e9

    def test_multi_interests_row(self):
        rec = corpus_record("multi_interests")
        assert rec.arch is A.PS_WORKER
        assert rec.batch_size == 2048
        assert rec.embedding_weight_bytes == 239.45e9
        assert rec.dense_weight_bytes == 1.19e6

    def test_speech_keeps_reported_traffic_out_of_the_weight_path(self):
        # 1w1g has no weight movement; the reported 728MB survives as a note
        rec = corpus_record("speech")
        assert rec.arch is A.ONE_WORKER_ONE_GPU
        assert rec.weight_traffic_bytes == 0.0
        assert rec.embedding_weight_bytes == 0.0
        assert rec.notes == {"reported_network_traffic_bytes": 728e6}

    def test_unknown_record(self):
        with pytest.raises(KeyError):
            corpus_record("alexnet")


class TestMeasuredEfficiency:
    def test_all_corpus_models_covered(self):
        table = measured_efficiency()
        assert set(table) == {rec.job_id for rec in builtin_corpus()}

    def test_values(self):
        table = measured_efficiency()
        assert table["gcn"].compute_eff == 0.882
        assert table["gcn"].mem_eff == 0.699
        assert table["gcn"].pcie_eff == 0.862
        assert table["gcn"].ethernet_eff == 0.2735
        assert table["speech"].mem_eff == 0.031
        assert table["nmt"].pcie_eff == 0.001


class TestSynthPopulation:
    def test_same_seed_is_identical(self):
        spec = SynthSpec(size=50, seed=7)
        assert synth_population(spec) == synth_population(spec)

    def test_different_seeds_differ(self):
        a = synth_population(SynthSpec(size=50, seed=7))
        b = synth_population(SynthSpec(size=50, seed=8))
        assert a != b

    def test_pure_1w1g_mix_propagates_invariants(self):
        spec = SynthSpec(size=30, seed=1, mix={A.ONE_WORKER_ONE_GPU: 1.0})
        for rec in synth_population(spec):
            assert rec.num_cnodes == 1
            assert rec.weight_traffic_bytes == 0.0

    def test_large_population_is_fully_valid(self):
        pop = synth_population(SynthSpec(size=10_000, seed=42))
        assert len(pop) == 10_000
        for rec in pop:
            assert record_errors(rec) == []

    def test_local_architectures_respect_server_size(self):
        spec = SynthSpec(size=200, seed=3,
                         mix={A.ONE_WORKER_N_GPU: 0.5, A.ALLREDUCE_LOCAL: 0.5})
        for rec in synth_population(spec):
            assert 1 <= rec.num_cnodes <= 8

    def test_pearl_jobs_always_have_embeddings(self):
        spec = SynthSpec(size=100, seed=11, mix={A.PEARL: 1.0})
        for rec in synth_population(spec):
            assert rec.embedding_weight_bytes > 0

    def test_seed_is_mandatory(self):
        with pytest.raises(TypeError):
            SynthSpec(size=10)  # noqa: intentional missing seed

    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SynthSpec(size=10, seed=1, mix={A.PS_WORKER: 0.5})

    def test_default_mix_sums_to_one(self):
        assert abs(sum(DEFAULT_MIX.values()) - 1.0) <= 1e-9

    @pytest.mark.parametrize("mix", [
        {A.PS_WORKER: math.nan},
        {A.PS_WORKER: math.nan, A.PEARL: 0.5},
        {A.PS_WORKER: math.inf},
        {A.PS_WORKER: -0.5, A.PEARL: 1.5},
    ])
    def test_mix_fractions_must_be_finite_and_non_negative(self, mix):
        with pytest.raises(ValueError, match="must be finite and non-negative"):
            SynthSpec(size=10, seed=1, mix=mix)

    def test_known_seed_snapshot(self):
        # frozen draw from seed 1234: guards against accidental generator drift
        pop = synth_population(SynthSpec(size=3, seed=1234))
        assert [rec.job_id for rec in pop] == ["synth-000000", "synth-000001", "synth-000002"]
        assert all(record_errors(rec) == [] for rec in pop)
