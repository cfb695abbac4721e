"""JSON round-trip and digest tests for the config schema."""

import json
import math

import pytest

from armax_extremes.copulas import CopulaSpec, DerivedCopula
from armax_extremes.errors import ConfigurationError
from armax_extremes.margins import MarginSpec
from armax_extremes.schema import (
    canonical_json,
    config_digest,
    copula_from_dict,
    finite,
    integer,
    margin_from_dict,
    parse_fields,
    text,
    to_json,
    vector,
)

MARGIN_SPECS = [
    MarginSpec.frechet(1.0),
    MarginSpec.frechet(2.5),
    MarginSpec.exponential(1.0),
    MarginSpec.exponential(0.3),
    MarginSpec.uniform01(),
    MarginSpec.gpd(0.5, 1.0),
    MarginSpec.gpd(0.0, 2.0),
    MarginSpec.gpd(-0.5, 1.0),
    MarginSpec.weibull_min(1.5),
]

COPULA_SPECS = [
    CopulaSpec.gumbel(1.0),
    CopulaSpec.gumbel(2.0),
    CopulaSpec.independence(),
    CopulaSpec.comonotone(),
    DerivedCopula(CopulaSpec.gumbel(2.0), (1.0, 0.5)),
    DerivedCopula(CopulaSpec.independence(), (0.25, 0.75, 0.5)),
]


@pytest.mark.parametrize("spec", MARGIN_SPECS, ids=str)
def test_margin_round_trip(spec):
    assert margin_from_dict(to_json(spec)) == spec


@pytest.mark.parametrize("spec", COPULA_SPECS, ids=str)
def test_copula_round_trip(spec):
    assert copula_from_dict(to_json(spec)) == spec


def test_dicts_are_json_serializable():
    for spec in MARGIN_SPECS:
        json.dumps(to_json(spec))
    for spec in COPULA_SPECS:
        json.dumps(to_json(spec))


def test_margin_dict_field_names():
    assert to_json(MarginSpec.frechet(1.0)) == {"kind": "frechet", "alpha": 1.0}
    assert to_json(MarginSpec.gpd(0.5, 2.0)) == {
        "kind": "gpd",
        "shape": 0.5,
        "scale": 2.0,
    }
    assert to_json(MarginSpec.uniform01()) == {"kind": "uniform01"}


def test_copula_dict_field_names():
    assert to_json(CopulaSpec.gumbel(2.0)) == {"kind": "gumbel", "gamma": 2.0}
    assert to_json(CopulaSpec.comonotone()) == {"kind": "comonotone"}
    derived = to_json(DerivedCopula(CopulaSpec.gumbel(2.0), (1.0, 0.5)))
    assert derived == {
        "kind": "derived",
        "base": {"kind": "gumbel", "gamma": 2.0},
        "theta": [1.0, 0.5],
    }


def test_margin_from_dict_errors():
    with pytest.raises(ConfigurationError):
        margin_from_dict({"alpha": 1.0})  # no kind
    with pytest.raises(ConfigurationError):
        margin_from_dict({"kind": "lognormal"})
    with pytest.raises(ConfigurationError):
        margin_from_dict({"kind": "frechet", "alpha": -1.0})
    with pytest.raises(ConfigurationError):
        margin_from_dict({"kind": "frechet", "alpha": 1.0, "bogus": 2})
    with pytest.raises(ConfigurationError):
        margin_from_dict("frechet")  # not an object


def test_copula_from_dict_errors():
    with pytest.raises(ConfigurationError):
        copula_from_dict({"gamma": 2.0})
    with pytest.raises(ConfigurationError):
        copula_from_dict({"kind": "clayton"})
    with pytest.raises(ConfigurationError):
        copula_from_dict({"kind": "gumbel", "gamma": 0.5})
    with pytest.raises(ConfigurationError):
        copula_from_dict({"kind": "derived", "theta": [0.5]})  # missing base
    with pytest.raises(ConfigurationError):
        copula_from_dict(
            {
                "kind": "derived",
                "base": {
                    "kind": "derived",
                    "base": {"kind": "independence"},
                    "theta": [0.5],
                },
                "theta": [0.5],
            }
        )  # nesting refused


def test_canonical_json_is_sorted_and_compact():
    text = canonical_json({"kind": "gumbel", "gamma": 2.0})
    assert text == '{"gamma":2.0,"kind":"gumbel"}'
    # key insertion order must not matter
    assert canonical_json({"gamma": 2.0, "kind": "gumbel"}) == text


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})
    with pytest.raises(ValueError):
        canonical_json(float("inf"))


def test_config_digest_stability():
    data = {"kind": "gumbel", "gamma": 2.0}
    digest = config_digest(data)
    assert digest == "c0166ea70ace21fbde0c32ed211776bab08094d46e9abe6a7ebf05e997ad8fef"
    assert digest == config_digest({"gamma": 2.0, "kind": "gumbel"})
    assert config_digest({"kind": "gumbel", "gamma": 2.5}) != digest


# ------------------------------------------------------------- field parsers

TABLE = {"n": integer, "x": finite, "name": text, "grid": vector(finite)}


def test_parse_fields_reads_each_value_with_its_parser():
    data = {"n": 10.0, "x": 2, "name": "a", "grid": [1, 0.5], "unset": None}
    kwargs = parse_fields(data, "thing", {**TABLE, "unset": integer})
    assert kwargs == {"n": 10, "x": 2.0, "name": "a", "grid": (1.0, 0.5)}
    assert type(kwargs["n"]) is int and type(kwargs["x"]) is float


@pytest.mark.parametrize(
    "name, value, fragment",
    [
        ("n", 10.9, "must be an integer"),
        ("n", True, "must be an integer"),
        ("n", "10", "must be an integer"),
        ("n", math.inf, "must be an integer"),
        ("n", 2**63, "must fit in a signed 64-bit integer"),
        ("n", -(2**63) - 1, "must fit in a signed 64-bit integer"),
        ("x", math.nan, "must be finite"),
        ("x", -math.inf, "must be finite"),
        ("x", 10**400, "too large"),
        ("x", False, "must be a number"),
        ("x", "0.5", "must be a number"),
        ("name", 5, "must be a string"),
        ("grid", 0.5, "must be a list"),
        ("grid", [0.5, None], "must be a number"),
    ],
)
def test_parse_fields_refuses_malformed_values(name, value, fragment):
    with pytest.raises(ConfigurationError, match=f"^bad thing config: {name}: .*{fragment}"):
        parse_fields({name: value}, "thing", TABLE)


def test_parse_fields_refuses_bad_objects():
    with pytest.raises(ConfigurationError, match="thing must be a JSON object"):
        parse_fields([1], "thing", TABLE)
    with pytest.raises(ConfigurationError, match=r"unknown thing fields: \['m'\]"):
        parse_fields({"m": 1}, "thing", TABLE)
    for data in ({}, {"n": None}):
        with pytest.raises(ConfigurationError, match="thing requires the field 'n'"):
            parse_fields(data, "thing", TABLE, ("n",))


def test_integer_bounds_are_int64():
    assert integer(2**63 - 1) == 2**63 - 1
    assert integer(-(2**63)) == -(2**63)


def test_margin_and_copula_values_must_be_numbers():
    assert margin_from_dict({"kind": "frechet", "alpha": 2}).alpha == 2.0
    for data in (
        {"kind": "frechet", "alpha": "1.0"},
        {"kind": "frechet", "alpha": True},
        {"kind": 5},
    ):
        with pytest.raises(ConfigurationError):
            margin_from_dict(data)
    for data in (
        {"kind": "gumbel", "gamma": "2"},
        {"kind": "derived", "base": {"kind": "independence"}, "theta": 0.5},
        {"kind": None},
    ):
        with pytest.raises(ConfigurationError):
            copula_from_dict(data)


def test_to_json_writes_set_fields_and_lists():
    derived = DerivedCopula(CopulaSpec.gumbel(2.0), (1.0, 0.5))
    assert to_json((derived, None, (1, (2, 3)))) == [
        {"kind": "derived", "base": {"kind": "gumbel", "gamma": 2.0}, "theta": [1.0, 0.5]},
        None,
        [1, [2, 3]],
    ]
