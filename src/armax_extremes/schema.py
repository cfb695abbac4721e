"""JSON round-tripping for margin, copula, process and run configurations.

`to_json` writes every config dataclass; `parse_fields` reads each one
back through a table of per-field parsers that accept only the JSON type
they name.  Canonical serialization (sorted keys, no whitespace) makes
digests of equal configurations byte-identical across runs and platforms.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from typing import Any, Callable

from .copulas import CopulaSpec, DerivedCopula
from .errors import ConfigurationError
from .margins import MarginSpec

__all__ = [
    "to_json",
    "parse_fields",
    "integer",
    "finite",
    "text",
    "vector",
    "margin_from_dict",
    "copula_from_dict",
    "canonical_json",
    "config_digest",
]


def to_json(value: Any) -> Any:
    """JSON form of a config value: a dataclass becomes an object of its
    non-``None`` fields, a tuple a list; a `DerivedCopula` is tagged
    ``"kind": "derived"``."""
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if not is_dataclass(value):
        return value
    out = {f.name: getattr(value, f.name) for f in fields(value)}
    out = {name: to_json(v) for name, v in out.items() if v is not None}
    if isinstance(value, DerivedCopula):
        out["kind"] = "derived"
    return out


def integer(value: Any) -> int:
    """An integral JSON number (not a boolean) that fits in int64."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"must be an integer, got {value!r}")
    if not -(2**63) <= value < 2**63:
        raise ValueError("must fit in a signed 64-bit integer")
    return value


def finite(value: Any) -> float:
    """A finite JSON number (not a boolean), as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value!r}")
    return value


def text(value: Any) -> str:
    """A JSON string."""
    if not isinstance(value, str):
        raise TypeError(f"must be a string, got {value!r}")
    return value


def vector(parse: Callable[[Any], Any]) -> Callable[[Any], tuple]:
    """Parser of a JSON list into a tuple of its items read by ``parse``."""

    def parse_list(value: Any) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"must be a list, got {value!r}")
        return tuple(parse(v) for v in value)

    return parse_list


def parse_fields(data: Any, what: str, table: dict, required=(), build=dict):
    """``build(**kwargs)`` with the fields of the JSON object ``data``.

    ``table`` maps every field name to the parser of its value.  Unknown
    fields and missing ``required`` ones are refused, and ``null`` leaves
    a field unset.  A value its parser refuses, or that ``build``
    refuses, raises a `ConfigurationError`; one raised by a nested
    parser passes through unchanged.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(f"{what} must be a JSON object")
    unknown = set(data) - set(table)
    if unknown:
        raise ConfigurationError(f"unknown {what} fields: {sorted(unknown)}")
    for name in required:
        if data.get(name) is None:
            raise ConfigurationError(f"{what} requires the field {name!r}")
    label = what if what == "config" else f"{what} config"
    kwargs = {}
    for name, value in data.items():
        if value is not None:
            with _refused(f"bad {label}: {name}:"):
                kwargs[name] = table[name](value)
    with _refused(f"bad {label}:"):
        return build(**kwargs)


@contextmanager
def _refused(prefix: str):
    # a refusal by a parser or constructor becomes a ConfigurationError;
    # one raised by a nested parser already names its own object
    try:
        yield
    except ConfigurationError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{prefix} {exc}") from exc


_MARGIN_FIELDS = {"kind": text, **dict.fromkeys(("alpha", "rate", "shape", "scale", "k"), finite)}


def margin_from_dict(data: Any) -> MarginSpec:
    return parse_fields(data, "margin", _MARGIN_FIELDS, ("kind",), MarginSpec)


def copula_from_dict(data: Any) -> CopulaSpec | DerivedCopula:
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigurationError("copula must be an object with a 'kind' field")
    if data["kind"] != "derived":
        return parse_fields(data, "copula", {"kind": text, "gamma": finite}, ("kind",), CopulaSpec)
    table = {"kind": text, "base": copula_from_dict, "theta": vector(finite)}
    return parse_fields(
        data, "copula", table, ("base", "theta"), lambda kind, **kwargs: DerivedCopula(**kwargs)
    )


def canonical_json(data: Any) -> str:
    """Deterministic JSON text: sorted keys, minimal separators."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_digest(data: Any) -> str:
    """Hex SHA-256 of the canonical JSON form of ``data``."""
    # imported here: `hashlib` loads OpenSSL, about 3.5 MB resident that a
    # process computing no digest need not hold
    import hashlib

    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()
