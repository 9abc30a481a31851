"""Exception types, and the one way JSON artifacts and inputs are read and written.

Readers parse through `json_object` (one object per file) or `json_lines`
(one object per line) and read fields inside `malformed`, so bad input
always ends as a DataError (CLI exit 2), never as a raw KeyError or
TypeError.  Whole-file JSON artifacts are written by `canonical_json`.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager


def _not_json(constant: str):
    raise ValueError(f"{constant} is not JSON")


_DECODER = json.JSONDecoder(parse_constant=_not_json)  # NaN and Infinity are refused
_JSON_SPACE = " \t\n\r"  # the whitespace JSON allows around a value
DATA_EXIT = 2  # the exit code of a command that stops on a ChainrankError


class ChainrankError(Exception):
    """Base class for all toolkit errors."""


class DataError(ChainrankError):
    """Invalid or inconsistent input data (maps to CLI exit code 2)."""


class LogParseError(DataError):
    """A JSON-lines record could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str, source: str = ""):
        super().__init__(f"{source}:{line_no}: {message}" if source else f"line {line_no}: {message}")
        self.line_no = line_no


class StageError(ChainrankError):
    """A pipeline stage cannot run (missing upstream artifact, version mismatch)."""


def canonical_json(value) -> str:
    """The one text of `value`: sorted keys, no spaces, non-ASCII written as is.

    A non-finite float is a ValueError: `json_object` refuses NaN and
    Infinity, so no artifact may hold them.
    """
    return json.dumps(value, ensure_ascii=False, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def json_object(text: str, what: str, version: int | None = None) -> dict:
    """Parse a JSON object, with this "version" if one is given; else DataError."""
    try:
        value = _DECODER.decode(text)
    except ValueError as exc:
        raise DataError(f"corrupt {what}: {exc}") from exc
    if not isinstance(value, dict):
        raise DataError(f"corrupt {what}: not a JSON object")
    if version is not None and value.get("version") != version:
        raise DataError(f"{what} version mismatch: expected {version}, got {value.get('version')}")
    return value


def json_lines(text: str, parse_record, source: str = "") -> list:
    """`parse_record` of each non-blank line's object, in order.

    Lines end at "\n" only: json writes U+0085, U+2028 and U+2029 inside
    strings unescaped, and `str.splitlines` would cut a record at them.
    Invalid JSON, a line that is not an object, and a KeyError, TypeError,
    ValueError or DataError from `parse_record` raise LogParseError naming
    the line (`source:line` when a source is given).
    """
    out = []
    scan, decode, append = _DECODER.scan_once, _DECODER.decode, out.append
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line or line.isspace():  # the test `not line.strip()` makes, without a copy
            continue
        try:
            try:  # the scan decode() makes, enough when only whitespace follows the value
                rec, end = scan(line, 0)
                whole = end == len(line) or not line[end:].strip(_JSON_SPACE)
            except (StopIteration, ValueError):
                whole = False
            if not whole:  # leading space, trailing data or bad JSON: decode() decides
                rec = decode(line)
            if not isinstance(rec, dict):
                raise DataError("not a JSON object")
            append(parse_record(rec))
        except json.JSONDecodeError as exc:
            raise LogParseError(line_no, f"invalid JSON at col {exc.colno}: {exc.msg}",
                                source) from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise LogParseError(line_no, f"bad record: {type(exc).__name__} {exc}",
                                source) from exc
        except DataError as exc:
            raise LogParseError(line_no, str(exc), source) from exc
    return out


@contextmanager
def malformed(what: str):
    """Turn a missing field or a wrong type or value inside `what` into DataError."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {what}: {type(exc).__name__} {exc}") from exc


def string(value) -> str:
    """`value` itself if it is a string; a TypeError (a field error) otherwise."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def integer(value) -> int:
    """`value` itself if it is a JSON integer (an int, not a bool); a TypeError otherwise.

    `int()` would turn 1.9 into 1, "5" into 5 and true into 1, so a record
    would parse into an event that writes back as another line.
    """
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def number(value) -> int | float:
    """`value` itself if it is a JSON number (an int, not a bool, or a finite
    float); a TypeError otherwise.

    `float()` would read "1.0" and true as numbers, and 1e400 parses as an
    infinity that no writer may write back.
    """
    if type(value) is int or (type(value) is float and math.isfinite(value)):
        return value
    raise TypeError(f"expected a finite number, got {value!r}")


def strings(value) -> list[str]:
    """`value` itself if it is a list of strings; a TypeError otherwise."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list of strings, got {value!r}")
    for v in value:
        if not isinstance(v, str):
            string(v)  # raises string()'s TypeError
    return value
