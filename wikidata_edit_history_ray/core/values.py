"""Datavalue parsing, canonicalization and hashing (operators M1-M4, M8-M11).

These pure functions define value identity across revisions; any drift here
silently shifts CREATE/UPDATE/DELETE classification and revert matching.
Behavioral parity targets in the reference:
- revision-text JSON recovery     scripts/page_parser.py:152-187
- datavalue splitting             scripts/page_parser.py:250-304
- canonical homogenization        scripts/page_parser.py:1000-1030
- SHA-1 value hash                scripts/page_parser.py:1032-1082
"""
from __future__ import annotations

import hashlib
import html
import json
import re

import orjson

from .constants import (
    DATAVALUE_IGNORED_FIELDS,
    NO_VALUE,
    SOME_VALUE,
    WD_ENTITY_TYPES,
)

_CTRL_CHARS_RE = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f]")
_TIME_LEADING_ZEROS_RE = re.compile(r"^([+-])0*(\d+)")
_SMART_QUOTE_CHARS = "“”„‟"
_SMART_QUOTES = {ord(q): '"' for q in _SMART_QUOTE_CHARS}
# bytes.translate table for the guard in _number_guard: control chars the
# cleanup strips -> \x00; bytes a number's leading digit can follow (JSON
# whitespace, ':', ',', '[', '-') -> \x01; digits -> '0'
_CTRL_BYTES = bytes([*range(0x00, 0x09), 0x0B, 0x0C, *range(0x0E, 0x20)])
_NUMBER_LEAD_BYTES = b" \t\n\r:,[-"
_GUARD_TABLE = bytes.maketrans(
    _CTRL_BYTES + _NUMBER_LEAD_BYTES + b"123456789",
    b"\x00" * len(_CTRL_BYTES) + b"\x01" * len(_NUMBER_LEAD_BYTES)
    + b"0" * 9)
_LONG_INT = b"0" * 19


def load_json(text, clean: bool = False):
    """Parse JSON exactly as the stdlib path does, through orjson when it can.

    Returns (obj, exact). The stdlib path is `json.loads`, or with `clean`
    the two-stage revision-text recovery of `parse_revision_text`. With
    `clean`, stage 1's cleanup (html-unescape, smart quotes, control chars)
    runs first and orjson parses the cleaned text, as stage 1 would. orjson
    runs only when no integer of 19 or more digits can occur (orjson
    silently turns an integer outside the 64-bit range into a float). On any
    orjson error the stdlib path runs, which covers NaN, Infinity, 1e400 and
    lone surrogates. `exact` is True when orjson produced the object: it
    then holds no NaN, no infinity and no integer beyond 64 bits, so
    `orjson.dumps` of any part of it is injective (NaN and infinity would
    dump as null).

    One known divergence: nesting deeper than the interpreter's recursion
    limit (~1,000 levels) parses here, where the stdlib raised RecursionError.
    """
    if type(text) is str:
        cleaned, guard = (_clean(text) if clean
                          else (text, _number_guard(text)))
        if _no_long_int(guard):
            try:
                return orjson.loads(cleaned), True
            except orjson.JSONDecodeError:
                pass
    return (_recover_revision_text(text) if clean else json.loads(text)), False


_SCALAR_TYPES = frozenset((str, int, bool, type(None)))


def load_envelope(text):
    """Parse a revision envelope exactly as `json.loads` does; returns
    (obj, exact) like load_json, without its long-integer scan in the
    common case.

    An envelope is a flat object: a few scalar fields beside the snapshot
    `text`, a string that holds nearly all of its bytes. orjson returns what
    `json.loads` returns except in two ways: it turns an integer outside 64
    bits into a float, and it raises on NaN, Infinity, 1e400 and lone
    surrogates. So an object whose `text` is a string and whose values are
    all scalars, none of them a float, is the stdlib result as orjson parsed
    it. Anything else (a float, a nested value such as the fast path's
    `entity`, an orjson error) goes through load_json and its guard."""
    if type(text) is str:
        try:
            obj = orjson.loads(text)
        except orjson.JSONDecodeError:
            pass
        else:
            if (type(obj) is dict and type(obj.get("text")) is str
                    and all(type(v) in _SCALAR_TYPES for v in obj.values())):
                return obj, True
    return load_json(text)


def _clean(raw_text: str):
    """Stage 1's cleaned text and its guard bytes (_number_guard).

    Passes that cannot change the text are skipped: html.unescape returns
    at once without an '&', only non-ASCII text can hold a smart quote, and
    the guard bytes show whether a control character is present."""
    text = html.unescape(raw_text.strip())
    if not text.isascii() and any(q in text for q in _SMART_QUOTE_CHARS):
        text = text.translate(_SMART_QUOTES)
    guard = _number_guard(text)
    if guard.find(b"\x00") >= 0:
        text = _CTRL_CHARS_RE.sub("", text)
        guard = _number_guard(text)
    return text, guard


def _number_guard(text: str) -> bytes:
    return text.encode("utf-8", "surrogatepass").translate(_GUARD_TABLE)


def _no_long_int(guard: bytes) -> bool:
    """No integer part of 19 or more digits. An integer part's first digit
    follows the start of the text or a byte mapped to \\x01; a digit inside
    a string (a 40-hex hash, say) mostly does not, and may flag a false
    positive at worst. A regex scan costs ~20x this translate + find."""
    return not guard.startswith(_LONG_INT) and guard.find(
        b"\x01" + _LONG_INT) < 0


def _recover_revision_text(raw_text):
    if raw_text is None:
        return None
    try:
        cleaned = html.unescape(raw_text.strip()).translate(_SMART_QUOTES)
        cleaned = _CTRL_CHARS_RE.sub("", cleaned)
        return json.loads(cleaned)
    except json.JSONDecodeError:
        pass
    try:
        return json.loads(raw_text.strip())
    except json.JSONDecodeError:
        return None


def parse_revision_text(raw_text: str):
    """Recover the entity-JSON snapshot from a raw revision body.

    Two-stage recovery: (1) html-unescape + smart-quote normalization +
    control-char strip, (2) plain parse of the stripped original. Returns the
    parsed object or None when both stages fail (caller skips the revision and
    must NOT advance the previous-revision pointer).
    """
    return load_json(raw_text, clean=True)[0]


def split_change_type(change_type):
    """'CREATE_PROPERTY_VALUE' -> ('CREATE', 'PROPERTY_VALUE')."""
    if not change_type or "_" not in change_type:
        return change_type, None
    action, target = change_type.split("_", 1)
    return action, target


def parse_datavalue_json(value_json, datatype):
    """Split a raw datavalue into (value, datatype, datatype_metadata).

    - entity types collapse to the id string (synthesized from numeric-id if absent)
    - globecoordinate value is the {longitude, latitude} pair
    - time/quantity/monolingualtext keep their value field; every other key
      (precision, calendarmodel, unit, bounds, language, globe, ...) is metadata
    """
    value = None
    datatype_metadata: dict = {}
    if isinstance(value_json, dict):
        if datatype == "globecoordinate":
            value = {
                "longitude": value_json["longitude"],
                "latitude": value_json["latitude"],
            }
        if datatype != "wikibase-entityid":
            for k, v in value_json.items():
                if k not in (
                    "time", "amount", "text", "latitude", "longitude",
                    "altitude", "before", "after", "timezone",
                ):
                    datatype_metadata[k] = v
                elif datatype != "globecoordinate" and k not in DATAVALUE_IGNORED_FIELDS:
                    value = v
        else:
            if "id" in value_json:
                value = value_json.get("id")
            else:
                value = "Q" + str(value_json.get("numeric-id"))
    else:
        value = value_json
    return value, datatype, datatype_metadata


def parse_statement_datavalue(statement):
    """(value, datatype, datatype_metadata) from a statement's mainsnak.

    novalue/somevalue snaks map to the sentinel value + 'unknown-values'.
    """
    if not statement:
        return None, None, None
    snaktype = statement["mainsnak"].get("snaktype", None)
    if snaktype == "value":
        datavalue = statement["mainsnak"].get("datavalue", None)
        return parse_datavalue_json(datavalue.get("value", None), datavalue.get("type", None))
    value = NO_VALUE if snaktype == "novalue" else SOME_VALUE
    return value, "unknown-values", None


def parse_snak_datavalue(snak):
    """(value, datatype, metadata) from a bare snak (qualifier/reference snaks).

    Special snaktypes keep datatype 'string' here, matching the qualifier /
    reference handlers (scripts/page_parser.py:1176-1177, 1304-1305).
    """
    snaktype = snak.get("snaktype")
    if snaktype in ("novalue", "somevalue"):
        return snaktype, "string", None
    dv = snak["datavalue"]
    return parse_datavalue_json(dv["value"], dv["type"])


def homogenize_snak(snak):
    """Canonicalize a snak's datavalue IN PLACE; returns the snak.

    Drops deprecated/unused time+globe fields, strips leading zeros from time
    strings, synthesizes entity 'id' from 'numeric-id'. Idempotent.
    """
    if "datavalue" not in snak:  # somevalue / novalue
        return snak
    dv = snak["datavalue"]
    type_ = dv["type"]
    if type_ == "globecoordinate":
        dv["value"].pop("altitude", None)
    if type_ == "time":
        dv["value"].pop("before", None)
        dv["value"].pop("after", None)
        dv["value"]["time"] = _TIME_LEADING_ZEROS_RE.sub(r"\1\2", dv["value"]["time"])
    if type_ in WD_ENTITY_TYPES:
        if "id" not in dv["value"]:
            dv["value"]["id"] = f"Q{dv['value']['numeric-id']}"
        dv["value"].pop("numeric-id", None)
    return snak


def snak_value_hash(hom_snak):
    """Canonical identity of a snak's value: SHA-1 over the compact JSON of the
    homogenized datavalue; novalue/somevalue snaks keep their upstream hash."""
    if not hom_snak:
        return None
    if hom_snak.get("snaktype", None) in (NO_VALUE, SOME_VALUE):
        return hom_snak.get("hash", None)
    return hashlib.sha1(
        json.dumps(hom_snak["datavalue"], separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def serialize_value(value):
    """JSON-encode a change value; None stays None (emitters map falsy to '{}')."""
    if value is None:
        return None
    return json.dumps(value, ensure_ascii=False)


def id_to_int(wd_id: str) -> int:
    """'Q42' / 'P31' -> 42 / 31."""
    return int(wd_id[1:])


def classify_user(username: str) -> str:
    """'bot' substring (case-insensitive) -> bot; empty -> anonymous; else human."""
    if "bot" in username.lower():
        return "bot"
    if username == "":
        return "anonymous"
    return "human"


def safe_get_nested(d, *keys, default=None):
    """Nested dict access tolerant of Wikidata's []-for-empty-dict schema drift:
    any non-dict intermediate or list leaf collapses to {}."""
    current = d
    for key in keys:
        if isinstance(current, dict):
            current = current.get(key, {})
        else:
            return {}
    if isinstance(current, list):
        return {}
    return current


def _parse_ts_fast(ts: str):
    """Fast path for the canonical 'YYYY-MM-DDTHH:MM:SSZ' shape; dateutil
    fallback for anything else."""
    from datetime import datetime

    try:
        return datetime(int(ts[0:4]), int(ts[5:7]), int(ts[8:10]),
                        int(ts[11:13]), int(ts[14:16]), int(ts[17:19]))
    except (ValueError, IndexError):
        from dateutil import parser as _dtparser

        return _dtparser.parse(ts)


def get_time_feature(timestamp: str, option: str) -> str:
    """Denormalized time buckets: 'year', 'year_month' (%Y-%m) and 'week'
    (%Y-W%V — calendar year with ISO week number, boundary quirk preserved)."""
    dt = _parse_ts_fast(timestamp) if isinstance(timestamp, str) else timestamp
    if option == "year":
        return str(dt.year)
    if option == "year_month":
        return dt.strftime("%Y-%m")
    if option == "week":
        return dt.strftime("%Y-W%V")
    return timestamp
