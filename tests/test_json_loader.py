"""`values.load_json` must return exactly what the stdlib path returns.

The stdlib paths are restated here as they were before orjson was added:
`json.loads` for the revision envelope, and the two-stage recovery for the
snapshot. "Exactly" means same type and same repr at every level, so 1, 1.0
and True differ, dict key order counts and NaN compares equal to NaN.
"""
import html
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wikidata_edit_history_ray.core import values
from wikidata_edit_history_ray.core.values import (
    load_envelope,
    load_json,
    parse_revision_text,
)

_CTRL = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f]")
_SMART = {ord("“"): '"', ord("”"): '"', ord("„"): '"', ord("‟"): '"'}


def stdlib_snapshot(raw):
    if raw is None:
        return None
    try:
        return json.loads(_CTRL.sub("", html.unescape(raw.strip()).translate(_SMART)))
    except json.JSONDecodeError:
        pass
    try:
        return json.loads(raw.strip())
    except json.JSONDecodeError:
        return None


def outcome(fn, text):
    try:
        value = fn(text)
    except Exception as e:  # the exception type is part of the contract
        return ("raises", type(e).__name__)
    return ("value", type(value).__name__, repr(value))


def assert_same(text):
    assert outcome(lambda t: load_json(t)[0], text) == outcome(json.loads, text)
    snap = outcome(stdlib_snapshot, text)
    assert outcome(lambda t: load_json(t, clean=True)[0], text) == snap
    assert outcome(parse_revision_text, text) == snap


CASES = {
    "plain": '{"a": 1, "b": [1.5, true, null, "x"]}',
    "nan": '{"a": NaN}',
    "infinity": '[Infinity, -Infinity]',
    "overflow_float": '{"a": 1e400, "b": -1e400}',
    "underflow_float": '[1e-400, -0.0, -0]',
    "above_u64": '{"a": 123456789012345678901234567890}',
    "just_above_u64": '[18446744073709551616]',
    "u64_max": '[18446744073709551615]',
    "below_i64": '{"a": -9223372036854775809}',
    "i64_min": '[-9223372036854775808]',
    "long_fraction": '[1.23456789012345678901234]',
    "digit_run_in_string": '{"a": "12345678901234567890"}',
    "digit_run_in_hex_hash": '{"hash": "a1234567890123456789012bcdef0123456789ab"}',
    "hex_hash_starting_with_digit_run":
        '{"hash": "1234567890123456789012abcdef0123456789ab"}',
    "digit_run_after_space_in_string": '{"a": "x 12345678901234567890"}',
    "top_level_long_int": '99999999999999999999',
    "long_int_after_comma": '[1,99999999999999999999]',
    "long_int_after_space": '[1, 99999999999999999999]',
    "long_int_after_newline": '[1,\n99999999999999999999]',
    "long_int_after_tab": '[1,\t99999999999999999999]',
    "long_int_after_cr": '[1,\r99999999999999999999]',
    "long_int_after_colon": '{"a":99999999999999999999}',
    "negative_long_int_after_colon": '{"a":-12345678901234567890}',
    "long_int_part_of_float": '[12345678901234567890.5, 1e0000000000000000000001]',
    "escaped_long_int": '{&quot;a&quot;:99999999999999999999}',
    "control_char_joins_digits": '[9999999999\x019999999999]',
    "lone_surrogate": '{"a": "\\ud800"}',
    "surrogate_pair": '{"a": "\\ud83d\\ude00"}',
    "html_escaped": '{&quot;a&quot;: 1}',
    "ampersand_in_value": '{"a": "x &amp; y &copy; z"}',
    "smart_quotes": '{“a”: 1}',
    "smart_quote_in_value": '{"a": "say „hi‟"}',
    # valid JSON either way, but the cleanup turns one string into two keys
    "smart_quotes_rebalance": '{"a": "x“, “b”: “y"}',
    "non_ascii": '{"a": "Zürich 東京"}',
    "control_char": '{"a": "x\x01y"}',
    "control_char_between_tokens": '{"a":\x0b1}',
    "second_stage": '{"a": "x&l\x00t;y"}',
    "leading_trailing_whitespace": ' \n\t{"a": 1}\r\n ',
    "unicode_whitespace": '\xa0{"a": 1} ',
    "duplicate_keys": '{"a": 1, "b": 2, "a": 3}',
    "truncated": '{"a": truncated',
    "empty": "",
    "blank": "   ",
    "none": None,
    "number": 5,
    "bytes": b'{"a": 1}',
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_table(name):
    assert_same(CASES[name])


_HASH_WITH_RUN = "a1234567890123456789012bcdef0123456789ab"


@pytest.mark.parametrize("text, exact", [
    ('{"a": [1, 2.5, "x"]}', True),
    ('{"a": NaN}', False),
    ('[1e400]', False),
    ('[123456789012345678901234567890]', False),
    ('[1, 1234567890123456789]', False),
    ('1234567890123456789', False),
    ('{"a":-1234567890123456789}', False),
    ('{"a": "\\ud800"}', False),
    ('{"hash": "%s"}' % _HASH_WITH_RUN, True),
    ('{"a": 123456789012345678, "b": "%s"}' % _HASH_WITH_RUN, True),
])
def test_exact_flag(text, exact):
    assert load_json(text)[1] is exact
    assert load_json(text, clean=True)[1] is exact


@pytest.mark.parametrize("text", [
    '{&quot;a&quot;: &quot;x &amp;amp; y&quot;}',
    '{“a”: 1}',
    '{"a": "x\x01y"}',
    '{"a":\x0b1}',
    '\xa0{"a": 1}\xa0',
])
def test_exact_after_cleanup(text):
    """A snapshot the cleanup changes still parses through orjson."""
    assert load_json(text, clean=True)[1] is True


_scalars = (st.none() | st.booleans()
            | st.integers(min_value=-2**70, max_value=2**70)
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.text(st.characters(blacklist_categories=()), max_size=8)
            | st.sampled_from(["&amp;", "&lt;x&gt;", "“q”", "a\x01b", "&#", "&"])
            | st.builds("{}{}{}".format,  # a hash holding a long digit run
                        st.text("0123456789abcdef", max_size=12),
                        st.integers(10**18, 10**25), st.text("abcdef", max_size=8)))
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(value=_values, ensure_ascii=st.booleans(),
       pad=st.sampled_from(["", " ", "\n", "\t ", "\xa0"]),
       mangle=st.sampled_from([None, "html", "smart", "ctrl"]))
def test_property_same_as_stdlib(value, ensure_ascii, pad, mangle):
    text = pad + json.dumps(value, ensure_ascii=ensure_ascii) + pad
    if mangle == "html":
        text = html.escape(text)
    elif mangle == "smart":
        text = text.replace('"', "“", 1)
    elif mangle == "ctrl":
        text = text.replace(",", ",\x02", 1)
    assert_same(text)


# ----- revision envelopes: load_envelope must return what json.loads does ---

_envelope_scalars = (st.none() | st.booleans()
                     | st.integers(min_value=-2**70, max_value=2**70)
                     | st.floats(allow_nan=True, allow_infinity=True)
                     | st.text(st.characters(blacklist_categories=()), max_size=8))
_SNAPSHOT = '{"claims": {"P1": [{"id": "Q1$1", "amount": "+12345678901234567890"}]}}'


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fields=st.dictionaries(
           st.sampled_from(["parent_id", "timestamp", "username", "user_id",
                            "comment", "deleted", "x"]),
           _envelope_scalars, max_size=6),
       revision_id=st.integers(min_value=-2**70, max_value=2**70),
       text=st.sampled_from([_SNAPSHOT, "", "\ud800 &amp; “q” \x01"])
       | st.text(st.characters(blacklist_categories=()), max_size=12),
       ensure_ascii=st.booleans())
def test_envelope_same_as_stdlib(fields, revision_id, text, ensure_ascii):
    """Flat envelopes: integers up to 2**70 either way, floats (NaN and
    infinity too), escapes and lone surrogates in strings."""
    raw = json.dumps({"revision_id": revision_id, **fields, "text": text},
                     ensure_ascii=ensure_ascii)
    assert outcome(lambda t: load_envelope(t)[0], raw) == outcome(json.loads, raw)


@pytest.mark.parametrize("raw", [
    '{"revision_id": 123456789012345678901234567890, '
    '"user_id": -98765432109876543210, "text": "{}"}',
    '{"revision_id": 18446744073709551616, "user_id": 9223372036854775807, '
    '"text": "{}"}',
    '{"revision_id": 1, "user_id": -9223372036854775809, "text": "{}"}',
])
def test_envelope_big_ints_exact(raw):
    envelope, exact = load_envelope(raw)
    assert envelope == json.loads(raw)
    assert type(envelope["revision_id"]) is int
    assert type(envelope["user_id"]) is int
    assert exact is load_json(raw)[1]


@pytest.mark.parametrize("raw", [
    '{"revision_id": 1, "text": "x", "size": 1.5}',
    '{"revision_id": 1e400, "text": "x"}',
    '{"revision_id": NaN, "text": "x"}',
    '{"revision_id": 1, "text": "\\ud800"}',
    '{"revision_id": 1, "text": null, "deleted": true}',
    '[1, 2]',
    '"x"',
    '{bad',
])
def test_envelope_falls_back(raw):
    assert outcome(lambda t: load_envelope(t)[0], raw) == outcome(json.loads, raw)


def test_flat_envelope_skips_the_guard(monkeypatch):
    calls = []
    monkeypatch.setattr(values, "load_json",
                        lambda *a, **k: calls.append(a) or load_json(*a, **k))
    assert load_envelope('{"revision_id": 7, "text": "%s"}' % ("9" * 40)) == (
        {"revision_id": 7, "text": "9" * 40}, True)
    assert calls == []


@pytest.mark.parametrize("entity, exact", [
    ('{"claims": {"P1": [{"amount": 123456789012345678901234}]}}', False),
    ('{"claims": {"P1": [{"amount": 1234567890123456789}]}}', False),
    ('{"claims": {"P1": [{"amount": 12345}]}}', True),
])
def test_entity_envelope_keeps_the_guard(entity, exact, monkeypatch):
    """The fast path's nested `entity` goes through load_json: its long
    integers stay exact, and `exact` says whether orjson parsed it."""
    calls = []
    monkeypatch.setattr(values, "load_json",
                        lambda *a, **k: calls.append(a) or load_json(*a, **k))
    raw = '{"revision_id": 3, "entity": %s}' % entity
    envelope, got_exact = load_envelope(raw)
    assert calls == [(raw,)]
    assert envelope == json.loads(raw)
    assert got_exact is exact
