import dataclasses
import itertools
import json
import math
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from dlcost.core import (
    RECORD_QUANTITIES,
    ArchitectureKind,
    EfficiencyModel,
    HardwareProfile,
    WorkloadRecord,
)
from dlcost.ingest import (
    TraceFormatError,
    case_study_testbed,
    dump_trace,
    load_efficiency_model,
    load_hardware_profile,
    load_trace,
    pai_baseline,
    parse_hardware_config,
    parse_trace,
    record_from_dict,
    record_to_dict,
    write_trace,
)
from dlcost.units import format_quantity
from helpers import demand, hardware_profiles, make_record, workload_records

A = ArchitectureKind

TRACE_KEYS = [f.name for f in dataclasses.fields(WorkloadRecord)]

#: Values that a trace field may be given: every JSON type, architecture
#: labels, unit strings and job ids shared between lines.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["ps_worker", "allreduce_local", "1.5GB", "2T", "10Gbps", "a", "b"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=4)


@st.composite
def traced_records(draw):
    """Valid records, some with a measured step time and numeric notes."""
    return dataclasses.replace(
        draw(workload_records()),
        measured_step_seconds=draw(st.none() | demand(1e-6, 1e6)),
        notes=draw(st.none() | st.dictionaries(st.text(max_size=8), demand(0.0, 1e15),
                                                max_size=3)))


_QUANTITY_VARIANTS = [
    True, 0, 1, 0.0, -0.0, -1, -1e-300, 5e-324, math.nan, math.inf, -math.inf, 10 ** 400,
    2 ** 1024, int(sys.float_info.max),
    int(sys.float_info.max) + 2 ** 969,  # rounds down to the largest float
    "1.5GB", "2T", "10Gbps", "0MB", " 3 kB ", "1.56TFLOPs", "1e999GB", "1e999T", "fast",
    "12", "-1GB", None, [1]]

#: For each field, values on either side of each rule that it must meet.
FIELD_VARIANTS = {
    "job_id": ["a", "\u00e9", "\ud800", "job\u2028", "", 1, 1.5, None, ["a"]],
    "arch": [*(arch.value for arch in ArchitectureKind), "ring", "PS_WORKER", 1, None, ["pearl"]],
    "num_cnodes": [True, False, 0, -1, 1, 1.0, 2.0, 2.5, 8, 9, 10 ** 400, "2", None, math.nan],
    "batch_size": [True, 0, -1, 1, 64.0, 2.5, 10 ** 400, int(sys.float_info.max) + 1, "64"],
    **{f.name: _QUANTITY_VARIANTS for f in RECORD_QUANTITIES},
    "measured_step_seconds": [None, 0, 0.0, -0.0, -1, 1, 0.5, True, "1", math.nan, math.inf,
                              10 ** 400, 2 ** 1024],
    "notes": [None, {}, [], "x", 1, {"a": 1}, {"a": 1.5}, {"a": -2}, {"a": math.nan},
              {"a": math.inf}, {"a": True}, {"a": "x"}, {"a": None}, {"a": 10 ** 400}],
}


def spelled(obj):
    """``obj`` with every quantity as a unit string of the same value."""
    return obj | {f.name: (f"{obj[f.name]!r}FLOPs" if f.metadata["kind"] == "count"
                           else format_quantity(obj[f.name], f.metadata["kind"]))
                  for f in RECORD_QUANTITIES}


@st.composite
def edited_record_lines(draw):
    """A valid record with one field set to one of its variants, and at most
    one more change: a new architecture and cNode count, any JSON value in
    some field, a dropped field, or an unknown key.  The job_id comes from a
    small set so that some lines repeat one."""
    obj = record_to_dict(draw(traced_records())) | {"job_id": draw(st.sampled_from("abc"))}
    if draw(st.booleans()):
        obj = spelled(obj)
    key = draw(st.sampled_from(sorted(FIELD_VARIANTS)))
    obj[key] = draw(st.sampled_from(FIELD_VARIANTS[key]))
    change = draw(st.sampled_from([None, "relabel", "any", "drop", "unknown"]))
    if change == "relabel":
        obj["arch"] = draw(st.sampled_from([arch.value for arch in ArchitectureKind]))
        obj["num_cnodes"] = draw(st.sampled_from([1, 8, 9])
                                 | st.integers(min_value=1, max_value=64))
    elif change == "any":
        obj[draw(st.sampled_from(TRACE_KEYS))] = draw(JSON_VALUES)
    elif change == "drop":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif change == "unknown":
        obj["bogus"] = 0
    return [json.dumps(obj)]


#: Line groups: half of them an edited record, the rest other JSON, text,
#: or two lines that decode only when joined.
TRACE_LINES = st.lists(st.one_of(
    edited_record_lines(),
    st.one_of(
        st.sampled_from([["[]"], ["1"], ['"s"'], ["null"], ["{}"], ['{"job_id": "a"}'],
                         ["{broken"], [""], ["   "], ["\ufeff{}"], ["{} {}"], ['{"a": 1} x'],
                         ["[[["], ['{"job_id": "x"', '"arch": "ps_worker"}']]),
        st.text(alphabet=st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
                max_size=8).map(lambda line: [line]),
    ),
), max_size=6).map(lambda groups: [line for group in groups for line in group])


def reference_parse(text):
    """parse_trace by its definition: json.loads and record_from_dict on
    every non-blank line, and the first line of each job_id kept."""
    records, errors, first_lines = [], [], {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line.strip())
        except (ValueError, RecursionError) as exc:
            errors.append((lineno, f"invalid JSON: {getattr(exc, 'msg', exc)}"))
            continue
        try:
            rec = record_from_dict(obj)
        except TraceFormatError as exc:
            errors.append((lineno, str(exc)))
            continue
        first = first_lines.setdefault(rec.job_id, lineno)
        if first != lineno:
            errors.append((lineno, f"duplicate job_id {rec.job_id!r} (first on line {first})"))
            continue
        records.append(rec)
    return records, errors


def exact(records):
    """Each field's type and repr, which tell 1 from 1.0 and 0.0 from -0.0."""
    return [[(type(value), repr(value)) for value in vars(rec).values()] for rec in records]


def assert_parsed_as_reference(text):
    """parse_trace returns the reference's records, bit for bit, and its
    errors; strict mode raises the first of them."""
    records, errors = reference_parse(text)
    pop, got_errors = parse_trace(text)
    assert list(pop) == records
    assert exact(pop) == exact(records)
    assert [(err.line, err.message) for err in got_errors] == errors
    if errors:
        line, message = errors[0]
        with pytest.raises(TraceFormatError) as exc:
            parse_trace(text, strict=True)
        assert str(exc.value) == f"<trace>:{line}: {message}"
    else:
        assert exact(parse_trace(text, strict=True)[0]) == exact(records)


RESNET_LINE = ('{"job_id":"r50","arch":"allreduce_local","num_cnodes":8,"batch_size":64,'
               '"flops":1.56e12,"mem_access_bytes":3.19e10,"input_bytes":3.8e7,'
               '"weight_traffic_bytes":3.57e8,"dense_weight_bytes":2.04e8,'
               '"embedding_weight_bytes":0}')


class TestTraceParsing:
    def test_canonical_line(self):
        pop, errors = parse_trace(RESNET_LINE)
        assert errors == []
        [rec] = pop
        assert rec.arch is A.ALLREDUCE_LOCAL
        assert rec.flops == 1.56e12
        assert rec.num_cnodes == 8

    def test_unit_strings_accepted(self):
        line = json.dumps({
            "job_id": "r50", "arch": "allreduce_local", "num_cnodes": 8,
            "batch_size": 64, "flops": "1.56T", "mem_access_bytes": "31.9GB",
            "input_bytes": "38MB", "weight_traffic_bytes": "357MB",
            "dense_weight_bytes": "204MB", "embedding_weight_bytes": "0MB",
        })
        pop, errors = parse_trace(line)
        assert errors == []
        [rec] = pop
        assert rec.flops == 1.56e12
        assert rec.mem_access_bytes == 31.9e9
        assert rec.weight_traffic_bytes == 357e6

    def test_unknown_architecture_reported(self):
        pop, errors = parse_trace(RESNET_LINE.replace("allreduce_local", "ring"))
        assert len(pop) == 0
        [err] = errors
        assert err.line == 1
        assert "unknown architecture" in err.message

    def test_empty_text_is_empty_population(self):
        pop, errors = parse_trace("")
        assert len(pop) == 0 and errors == []

    def test_blank_lines_skipped(self):
        pop, errors = parse_trace("\n" + RESNET_LINE + "\n\n")
        assert len(pop) == 1 and errors == []

    def test_line_numbers_in_error_report(self):
        text = RESNET_LINE + "\n{broken\n" + RESNET_LINE.replace('"r50"', '"r51"') + "\n"
        pop, errors = parse_trace(text)
        assert [rec.job_id for rec in pop] == ["r50", "r51"]
        [err] = errors
        assert err.line == 2
        assert "invalid JSON" in err.message

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
    def test_lines_end_at_a_line_feed_alone(self, char):
        # JSON allows each of these raw inside a string; str.splitlines
        # would break the first line there.
        first = RESNET_LINE.replace('"r50"', f'"r{char}50"')
        pop, [err] = parse_trace(first + "\r\n" + RESNET_LINE + "\n{broken\n")
        assert [rec.job_id for rec in pop] == [f"r{char}50", "r50"]
        assert err.line == 3 and err.message.startswith("invalid JSON: ")

    @pytest.mark.parametrize("sep", ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"])
    def test_records_not_separated_by_a_line_feed_are_one_line(self, sep):
        pop, [err] = parse_trace(RESNET_LINE + sep + RESNET_LINE.replace('"r50"', '"r51"'))
        assert len(pop) == 0
        assert err.line == 1 and err.message.startswith("invalid JSON: Extra data")

    def test_invariant_violations_reported_per_line(self):
        bad = json.dumps(record_to_dict(make_record()) | {"arch": "one_worker_one_gpu"})
        pop, errors = parse_trace(bad)
        assert len(pop) == 0
        assert "1w1g" in errors[0].message

    def test_strict_mode_raises_with_position(self):
        with pytest.raises(TraceFormatError, match="<trace>:1"):
            parse_trace("{broken", strict=True)

    def test_missing_field_reported(self):
        obj = json.loads(RESNET_LINE)
        del obj["flops"]
        with pytest.raises(TraceFormatError, match="missing field 'flops'"):
            record_from_dict(obj)

    def test_non_integer_cnodes_rejected(self):
        obj = json.loads(RESNET_LINE) | {"num_cnodes": 2.5}
        with pytest.raises(TraceFormatError, match="num_cnodes"):
            record_from_dict(obj)

    def test_unknown_field_rejected(self):
        line = RESNET_LINE.replace('"job_id"', '"measured_step_secs":0.5,"job_id"')
        pop, [err] = parse_trace(RESNET_LINE.replace("r50", "r49") + "\n" + line)
        assert len(pop) == 1
        assert (err.line, err.message) == (2, "unknown field 'measured_step_secs'")

    def test_duplicate_job_id_rejected(self):
        lines = [RESNET_LINE.replace('"r50"', f'"{job}"') for job in "abcc"]
        pop, [err] = parse_trace("\n".join(lines))
        assert [rec.job_id for rec in pop] == ["a", "b", "c"]
        assert (err.line, err.message) == (4, "duplicate job_id 'c' (first on line 3)")

    @pytest.mark.parametrize("line", ["1" * 5000, "[" * 100_000],
                             ids=["long-integer", "deep-nesting"])
    def test_json_beyond_the_decoder_limits_reported(self, line):
        pop, [err] = parse_trace(RESNET_LINE + "\n" + line)
        assert len(pop) == 1
        assert err.line == 2 and err.message.startswith("invalid JSON: ")

    def test_integer_too_large_for_a_float_reported(self):
        obj = json.loads(RESNET_LINE) | {"flops": 10 ** 400}
        with pytest.raises(TraceFormatError, match="too large"):
            record_from_dict(obj)

    @given(st.lists(st.one_of(
        st.text(alphabet=st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"))),
        st.just(RESNET_LINE),
        st.builds(lambda rec, changes, drop: json.dumps(
            {k: v for k, v in (record_to_dict(rec) | changes).items() if k != drop}),
            workload_records(),
            st.dictionaries(st.sampled_from(TRACE_KEYS), JSON_VALUES, max_size=3),
            st.sampled_from([None, *TRACE_KEYS])),
    ), max_size=6))
    def test_arbitrary_lines_parse_or_report_their_line(self, lines):
        text = "\n".join(lines)
        pop, errors = parse_trace(text)
        nonblank = [n for n, line in enumerate(lines, start=1) if line.strip()]
        assert len(pop) + len(errors) == len(nonblank)
        for err in errors:
            assert err.line in nonblank
            # Only a duplicate job_id depends on the other lines.
            _, alone = parse_trace(lines[err.line - 1])
            assert alone or err.message.startswith("duplicate job_id")
        if errors:
            with pytest.raises(TraceFormatError, match=f"^<trace>:{errors[0].line}: "):
                parse_trace(text, strict=True)

    @settings(max_examples=300)
    @given(TRACE_LINES)
    def test_parse_trace_matches_record_from_dict_on_every_line(self, lines):
        assert_parsed_as_reference("\n".join(lines))

    def test_parse_trace_matches_record_from_dict_on_every_field_variant(self):
        lines = []
        for arch, num_cnodes, weight, as_text in itertools.product(
                ArchitectureKind, (1, 8, 9), (0.0, 1e9), (False, True)):
            base = record_to_dict(make_record()) | {
                "arch": arch.value, "num_cnodes": num_cnodes, "weight_traffic_bytes": weight}
            if as_text:
                base = spelled(base)
            for key, variants in FIELD_VARIANTS.items():
                for value in variants:
                    lines.append(json.dumps(base | {"job_id": f"j{len(lines)}", key: value}))
        assert_parsed_as_reference("\n".join(lines))


class TestRoundTrip:
    def test_write_then_load_is_bit_exact(self, tmp_path):
        records = [
            make_record(job_id="a", arch=A.PS_WORKER, num_cnodes=32, flops=1.0 / 3),
            make_record(job_id="b", arch=A.ONE_WORKER_ONE_GPU,
                        measured_step_seconds=0.126,
                        notes={"reported_network_traffic_bytes": 728e6}),
        ]
        path = tmp_path / "trace.jsonl"
        write_trace(records, path)
        pop, errors = load_trace(path)
        assert errors == []
        assert list(pop) == records

    @given(st.lists(traced_records(), max_size=8, unique_by=lambda rec: rec.job_id))
    def test_records_round_trip_bit_exactly(self, records):
        for rec in records:
            assert record_from_dict(record_to_dict(rec)) == rec
        pop, errors = parse_trace(dump_trace(records))
        assert errors == []
        # repr tells apart every float bit pattern, including 0.0 and -0.0
        assert repr(pop) == repr(tuple(records))

    def test_dump_preserves_order(self):
        records = [make_record(job_id=f"j{i}") for i in range(5)]
        lines = dump_trace(records).splitlines()
        assert [json.loads(line)["job_id"] for line in lines] == [f"j{i}" for i in range(5)]

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "nope.jsonl")


class TestHardwareProfiles:
    def test_pai_baseline_values(self):
        hw = pai_baseline()
        assert hw.gpu_peak_flops == 11e12
        assert hw.gpu_mem_bandwidth == 1e12
        assert hw.ethernet_bandwidth == 3.125e9
        assert hw.pcie_bandwidth == 1e10
        assert hw.nvlink_bandwidth == 5e10
        assert hw.gpu_mem_capacity == 16e9

    def test_testbed_differs_only_in_peak_flops(self):
        assert case_study_testbed().gpu_peak_flops == 15e12
        import dataclasses
        assert dataclasses.replace(case_study_testbed(), gpu_peak_flops=11e12) == pai_baseline()

    def test_builtin_presets_resolve(self):
        assert load_hardware_profile("pai-baseline") == pai_baseline()
        assert load_hardware_profile("case-study-testbed") == case_study_testbed()

    def test_unknown_preset_raises_not_found(self):
        with pytest.raises(FileNotFoundError, match="unknown hardware profile"):
            load_hardware_profile("dgx-9000")

    def test_flat_config_file(self, tmp_path):
        cfg = tmp_path / "lab.hw"
        cfg.write_text(
            "# lab cluster\n"
            "gpu_peak_flops = 11TFLOPs\n"
            "memory = 1TB/s\n"
            "pcie = 10GB/s\n"
            'ethernet = "25Gbps"\n'
            "nvlink = 50GB/s\n"
            "gpu_mem_capacity = 16GB\n"
        )
        assert load_hardware_profile(str(cfg)) == pai_baseline()

    @given(hardware_profiles())
    def test_formatted_config_parses_back_under_every_name_and_alias(self, hw):
        fields = dataclasses.fields(HardwareProfile)
        # the aliases that the README documents
        assert [f.metadata["aliases"] for f in fields] == [
            ("gpu",), ("memory",), ("pcie", "pci"), ("ethernet",), ("nvlink",), ()]

        def config(key):
            return "".join(
                f"{key(f)} = {format_quantity(getattr(hw, f.name), f.metadata['kind'])}\n"
                for f in fields)

        assert parse_hardware_config(config(lambda f: f.name)) == hw
        for aliased in fields:
            for alias in aliased.metadata["aliases"]:
                text = config(lambda f: alias if f is aliased else f.name)
                assert parse_hardware_config(text) == hw

    def test_hw_dir_search_path(self, tmp_path, monkeypatch):
        (tmp_path / "lab.hw").write_text(
            "gpu_peak_flops = 8TFLOPs\nmemory = 1TB/s\npcie = 10GB/s\n"
            "ethernet = 25Gbps\nnvlink = 50GB/s\n"
        )
        monkeypatch.setenv("DLCOST_HW_DIR", str(tmp_path))
        hw = load_hardware_profile("lab")
        assert hw.gpu_peak_flops == 8e12
        assert hw.gpu_mem_capacity == 16e9  # capacity is optional, defaulted

    def test_config_missing_keys_rejected(self):
        with pytest.raises(TraceFormatError, match="missing hardware keys"):
            parse_hardware_config("ethernet = 25Gbps\n")

    def test_config_unknown_key_rejected(self):
        with pytest.raises(TraceFormatError, match="unknown hardware key"):
            parse_hardware_config("infiniband = 100Gbps\n")

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("separator", ["\u2028", "\r"], ids=["u2028", "cr"])
    def test_config_lines_end_at_a_line_feed(self, tmp_path, newline, separator):
        lines = [f"gpu = 11TFLOPs # lab{separator}x", "memory = 1TB/s", "pcie = 10GB/s",
                 "ethernet = 25Gbps", "nvlink = 50GB/s"]
        cfg = tmp_path / "lab.hw"
        cfg.write_bytes((newline.join(lines) + newline).encode("utf-8"))
        assert load_hardware_profile(str(cfg)) == pai_baseline()

    @pytest.mark.parametrize("text, message", [
        ("gpu = 11TFLOPs\nbogus = 1\n", "bad.hw:2: unknown hardware key 'bogus'"),
        ("gpu = 11TFLOPs\r\nmemory = 1TB/s\r\nnvlink = fast\r\n",
         "bad.hw:3: nvlink: malformed bandwidth 'fast' (expected e.g. '25Gbps' or '10GB/s')"),
        ("gpu = 11TFLOPs\r\nx\r\n", "bad.hw:2: expected 'key = value', got 'x'"),
        ("gpu = 11TFLOPs\nmemory = 1TB/s\npcie = 10GB/s\nethernet = 25Gbps\nnvlink = 50GB/s\n"
         "gpu_mem_capacity = 0B\n",
         "bad.hw:6: gpu_mem_capacity must be finite and strictly positive, got 0.0"),
        ("gpu = 11TFLOPs\n# overflows\npci = 1e300TB/s\n",
         "bad.hw:3: pcie_bandwidth must be finite and strictly positive, got inf"),
    ], ids=["unknown-key", "malformed-value", "crlf-no-equals", "out-of-range", "alias-overflow"])
    def test_config_errors_name_their_line(self, text, message):
        with pytest.raises(TraceFormatError) as exc:
            parse_hardware_config(text, source="bad.hw")
        assert str(exc.value) == message

    @pytest.mark.parametrize("again", ["pcie = 20GB/s", "pci = 20GB/s"],
                             ids=["same-key", "alias"])
    def test_config_field_set_twice_rejected(self, tmp_path, again):
        cfg = tmp_path / "lab.hw"
        cfg.write_text("gpu = 11TFLOPs\nmemory = 1TB/s\npcie = 10GB/s\n"
                       f"ethernet = 25Gbps\n{again}\nnvlink = 50GB/s\n")
        with pytest.raises(TraceFormatError) as exc:
            load_hardware_profile(str(cfg))
        assert str(exc.value) == f"{cfg}:5: pcie_bandwidth already set on line 3"

    def test_config_byte_that_is_not_utf8_names_its_line(self, tmp_path):
        cfg = tmp_path / "bad.hw"
        cfg.write_bytes(b"gpu = 11TFLOPs\nmemory = 1TB/s\npcie = 10GB/s\nethernet = 25Gbps\n"
                        b"# caf\xe9 lab\nnvlink = 50GB/s\n")
        with pytest.raises(TraceFormatError) as exc:
            load_hardware_profile(str(cfg))
        assert str(exc.value) == f"{cfg}:5: invalid UTF-8 byte 0xe9 (invalid continuation byte)"


class TestEfficiencyModels:
    def test_default(self):
        assert load_efficiency_model("default") == EfficiencyModel()

    def test_measured_override(self):
        eff = load_efficiency_model("measured:resnet50")
        assert eff.compute_eff == 0.8255
        assert eff.ethernet_eff == eff.nvlink_eff == 0.494

    def test_unknown_measured_name(self):
        with pytest.raises(FileNotFoundError, match="no measured efficiencies"):
            load_efficiency_model("measured:alexnet")

    def test_file(self, tmp_path):
        cfg = tmp_path / "eff.cfg"
        cfg.write_text("compute_eff = 0.9\npcie_eff = 0.5\n")
        eff = load_efficiency_model(str(cfg))
        assert eff == EfficiencyModel(compute_eff=0.9, pcie_eff=0.5)

    def test_field_set_twice_rejected(self, tmp_path):
        cfg = tmp_path / "eff.cfg"
        cfg.write_text("compute_eff = 0.9\n# tuned\ncompute_eff = 0.8\n")
        with pytest.raises(TraceFormatError) as exc:
            load_efficiency_model(str(cfg))
        assert str(exc.value) == f"{cfg}:3: compute_eff already set on line 1"

    def test_out_of_range_value_rejected(self, tmp_path):
        cfg = tmp_path / "eff.cfg"
        for text, message in [
                ("compute_eff = 1.5\n", "1: compute_eff must lie in (0, 1], got 1.5"),
                ("compute_eff = 0.9\n\nmem_eff = 0\n", "3: mem_eff must lie in (0, 1], got 0.0"),
                ("nvlink_eff = nan\n", "1: nvlink_eff must lie in (0, 1], got nan")]:
            cfg.write_text(text)
            with pytest.raises(TraceFormatError) as exc:
                load_efficiency_model(str(cfg))
            assert str(exc.value) == f"{cfg}:{message}"

    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path):
        cfg = tmp_path / "bad.eff"
        cfg.write_bytes(b"compute_eff = 0.9\xff\n")
        with pytest.raises(TraceFormatError) as exc:
            load_efficiency_model(str(cfg))
        assert str(exc.value) == f"{cfg}:1: invalid UTF-8 byte 0xff (invalid start byte)"
