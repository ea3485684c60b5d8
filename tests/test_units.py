import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from dlcost.units import (QuantityError, format_quantity, parse_column, parse_count,
                          parse_quantity)


@pytest.mark.parametrize("text,expected", [
    ("25Gbps", 3.125e9),
    ("10GB/s", 1.0e10),
    ("1TB/s", 1e12),
    ("100Gbps", 1.25e10),
    ("10GB", 1.0e10),     # rate suffix optional on bandwidths
    ("25 Gbps", 3.125e9),
    ("1.5kB/s", 1.5e3),
])
def test_parse_bandwidth(text, expected):
    assert parse_quantity(text, "bandwidth") == expected


@pytest.mark.parametrize("text,expected", [
    ("11TFLOPs", 1.1e13),
    ("15TFLOPs", 1.5e13),
    ("8T", 8e12),
    ("330.7GFLOPs", 330.7e9),
    ("1.1e13FLOPs", 1.1e13),
])
def test_parse_flops_rate(text, expected):
    assert parse_quantity(text, "flops_rate") == expected


@pytest.mark.parametrize("text,expected", [
    ("204MB", 2.04e8),
    ("0MB", 0.0),
    ("239.45GB", 2.3945e11),
    ("22KB", 2.2e4),
    ("46kB", 4.6e4),
    ("16Gb", 2e9),        # bits divided by 8
    ("728MB", 7.28e8),
])
def test_parse_bytes(text, expected):
    assert parse_quantity(text, "bytes") == expected


@pytest.mark.parametrize("text,expected", [
    ("1.56T", 1.56e12),
    ("105.8G", 105.8e9),
    ("2.5TFLOPs", 2.5e12),
])
def test_parse_count(text, expected):
    assert parse_count(text) == expected


def _malformed(kind, text):
    example = {"bytes": "byte size {!r} (expected e.g. '204MB')",
               "bandwidth": "bandwidth {!r} (expected e.g. '25Gbps' or '10GB/s')",
               "flops_rate": "FLOPs rate {!r} (expected e.g. '11TFLOPs')",
               "count": "operation count {!r} (expected e.g. '1.56T')"}[kind]
    return "malformed " + example.format(text)


MALFORMED = [
    ("bytes", "10GB/s", _malformed("bytes", "10GB/s")),      # rate suffix forbidden on sizes
    ("bytes", "10Gbps", _malformed("bytes", "10Gbps")),
    ("bytes", "10", _malformed("bytes", "10")),              # unit required
    ("bytes", "10GiB", _malformed("bytes", "10GiB")),        # no binary prefixes
    ("bytes", "-1GB", _malformed("bytes", "-1GB")),
    ("bandwidth", "fast", _malformed("bandwidth", "fast")),
    ("bandwidth", "0GB/s", "bandwidth must be positive, got '0GB/s'"),
    ("bandwidth", "10G", _malformed("bandwidth", "10G")),    # bits-or-bytes ambiguous
    ("bandwidth", "10TFLOPs", _malformed("bandwidth", "10TFLOPs")),
    ("flops_rate", "10GB/s", _malformed("flops_rate", "10GB/s")),
    ("flops_rate", "0TFLOPs", "FLOPs rate must be positive, got '0TFLOPs'"),
    ("flops_rate", "12", _malformed("flops_rate", "12")),    # a prefix or unit is required
    ("flops_rate", "12/s", _malformed("flops_rate", "12/s")),
]


@pytest.mark.parametrize("kind,text,message", MALFORMED,
                         ids=[f"{kind}-{text}" for kind, text, _ in MALFORMED])
def test_rejects_malformed(kind, text, message):
    with pytest.raises(QuantityError) as exc:
        parse_quantity(text, kind)
    assert str(exc.value) == message


@pytest.mark.parametrize("kind", ["volume", "count"])
def test_rejects_unknown_kind(kind):
    with pytest.raises(QuantityError, match="^unknown quantity kind"):
        parse_quantity("10GB", kind)


def test_count_rejects_rates():
    for text in ["11TFLOPs/s", "330700000000", "1.5GB"]:
        with pytest.raises(QuantityError) as exc:
            parse_count(text)
        assert str(exc.value) == _malformed("count", text)


PREFIX = {"": 1.0, "k": 1e3, "K": 1e3, "M": 1e6, "G": 1e9, "T": 1e12}
FLOPS_UNITS = ["", "FLOPs", "FLOPS", "flops", "FLOP", "Flop"]


@st.composite
def unit_strings(draw, kinds=("bytes", "bandwidth", "flops_rate", "count"), spaces=("", " "),
                 digits=("[0-9]", r"\d")):
    """(kind, text, num, prefix, unit) over the whole grammar of each of
    ``kinds``, with one of ``spaces`` between the number and the rest and
    the number's digits drawn from one class of ``digits``, itself drawn
    per example: ASCII digits, the form of every real trace and config,
    or any Unicode decimal digit (which Hypothesis draws as non-ASCII in
    most examples)."""
    kind = draw(st.sampled_from(kinds))
    digit = draw(st.sampled_from(digits))
    num = draw(st.from_regex(r"(?:D{1,5}(?:\.D{0,4})?|\.D{1,4})(?:[eE][+-]?D{1,2})?"
                             .replace("D", digit), fullmatch=True))
    prefix = draw(st.sampled_from(sorted(PREFIX)))
    if kind in ("bytes", "bandwidth"):
        unit = draw(st.sampled_from("bB"))
    else:  # a FLOPs rate or count needs a prefix or a unit
        unit = draw(st.sampled_from(FLOPS_UNITS if prefix else FLOPS_UNITS[1:]))
    rate = draw(st.sampled_from({"bytes": [""], "bandwidth": ["", "/s", "ps"],
                                 "flops_rate": ["", "/s"], "count": [""]}[kind]))
    space = draw(st.sampled_from(spaces))
    return kind, f"{num}{space}{prefix}{unit}{rate}", num, prefix, unit


@given(unit_strings())
def test_parsers_scale_the_number_bit_for_bit(case):
    kind, text, num, prefix, unit = case
    expected = float(num) * PREFIX[prefix]
    if unit == "b":
        expected /= 8
    if kind in ("bandwidth", "flops_rate") and expected <= 0:
        with pytest.raises(QuantityError, match="must be positive"):
            parse_quantity(text, kind)
        return
    value = parse_count(text) if kind == "count" else parse_quantity(text, kind)
    assert value.hex() == expected.hex()


#: Texts outside the plain form of a column, or outside every grammar.
ODD_TEXTS = [" ", "5 MB", " 5MB", "5MB ", "5MB\n7MB", "\n", "5MB\n", "5MB\r", "\r",
             "\u0665MB", "\u0661.5T", "10GB/s", "10Gbps", "2T/s", "2Tps", "", "1e400B",
             "1e400T", "0b", "12", "1e5", "junk"]


@st.composite
def columns(draw):
    """(kind, texts): a trace column of unit strings in the plain form of
    its kind, and at times one more text from any kind or ODD_TEXTS."""
    kind = draw(st.sampled_from(["bytes", "count"]))
    plain = unit_strings(kinds=[kind], spaces=[""], digits=["[0-9]"]).map(lambda case: case[1])
    texts = draw(st.lists(plain, min_size=1, max_size=8))
    if draw(st.booleans()):
        odd = draw(unit_strings().map(lambda case: case[1]) | st.sampled_from(ODD_TEXTS))
        texts.insert(draw(st.integers(min_value=0, max_value=len(texts))), odd)
    return kind, texts


@given(columns())
@example(("bytes", ["5MB\n7MB", "junk"]))  # two lines, two values, but not these two
@example(("count", ["12", "1T"]))
def test_column_parser_refuses_or_matches_the_per_value_parsers(case):
    kind, texts = case
    parse = parse_count if kind == "count" else lambda text: parse_quantity(text, kind)
    try:
        expected = [parse(text).hex() for text in texts]
    except QuantityError:
        expected = None
    values = parse_column(texts, kind)
    if values is not None:
        assert [value.hex() for value in values] == expected


@pytest.mark.parametrize("kind,texts,expected", [
    ("bytes", ["204MB", "16Gb", "0B", "1e400B", ".5kB"], [2.04e8, 2e9, 0.0, float("inf"), 500.0]),
    ("count", ["1.56T", "330.7GFLOPs", "1e3flop", "2k"], [1.56e12, 330.7e9, 1e3, 2e3]),
])
def test_column_parser_reads_plain_columns(kind, texts, expected):
    assert parse_column(texts, kind) == expected


@pytest.mark.parametrize("kind,texts", [
    ("bytes", ["5MB", "7 MB"]), ("bytes", [" 5MB"]), ("bytes", ["5MB\r"]), ("bytes", ["\u0665MB"]),
    ("count", ["1 T"]),
])
def test_column_parser_refuses_values_outside_the_plain_form(kind, texts):
    """Values that the per-value parsers read, which the column leaves to them."""
    assert parse_column(texts, kind) is None


@given(st.floats(min_value=1e-6, max_value=1e18, allow_nan=False, allow_infinity=False),
       st.sampled_from(["bytes", "bandwidth", "flops_rate"]))
def test_format_parse_roundtrip_exact(value, kind):
    assert parse_quantity(format_quantity(value, kind), kind) == value


def test_format_zero_bytes():
    assert parse_quantity(format_quantity(0.0, "bytes"), "bytes") == 0.0
    with pytest.raises(QuantityError):
        format_quantity(0.0, "bandwidth")
