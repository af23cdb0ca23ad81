"""Per-datatype scalar change features (operators F1-F4).

Pure functions producing the exact feature tuples of the reference engine
(scripts/feature_creation.py:123-798), appended to UPDATE value changes where
old/new datatype match (gate: scripts/page_parser.py:426). The container has no
python-Levenshtein, so the edit distance is implemented here (band-optimized DP,
identical results).
"""
from __future__ import annotations

import json
import math
import re

_SPECIAL_CHAR_RE = re.compile(r"[^a-zA-Z0-9]")
_DATE_CLEAN_RE = re.compile(r"[^0-9TZ:\-]")


def _trim_common(a: str, b: str):
    """Strip the shared prefix and suffix; returns the differing cores.
    Safe for the DISTANCE (standard lemma); op-count safety is established by
    the differential test in tests/test_features.py."""
    n = min(len(a), len(b))
    p = 0
    while p < n and a[p] == b[p]:
        p += 1
    s = 0
    while s < n - p and a[len(a) - 1 - s] == b[len(b) - 1 - s]:
        s += 1
    return a[p:len(a) - s], b[p:len(b) - s]


def _myers_distance(a: str, b: str) -> int:
    """Myers (1999) bit-parallel Levenshtein for len(a) <= 64: O(len(b))
    word operations instead of the O(len(a)*len(b)) DP."""
    m = len(a)
    peq: dict = {}
    for i, c in enumerate(a):
        peq[c] = peq.get(c, 0) | (1 << i)
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    score = m
    vp, vn = mask, 0
    get = peq.get
    for c in b:
        eq = get(c, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | (~(xh | vp) & mask)
        hn = vp & xh
        if hp & last:
            score += 1
        elif hn & last:
            score -= 1
        hp = ((hp << 1) | 1) & mask
        hn = (hn << 1) & mask
        vp = hn | (~(xv | hp) & mask)
        vn = hp & xv
    return score


def levenshtein_distance(a: str, b: str) -> int:
    """Plain Levenshtein (unit costs). Common prefix/suffix trimmed away
    (real-world value updates usually change a small core), then Myers
    bit-parallel scan when the shorter core fits one machine word, else
    two-row DP. Both paths are differentially pinned against the plain DP
    (tests/test_features.py)."""
    if a == b:
        return 0
    a, b = _trim_common(a, b)
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) > len(b):
        a, b = b, a
    if len(a) <= 64:
        return _myers_distance(a, b)
    prev = list(range(len(a) + 1))
    for j, cb in enumerate(b, 1):
        curr = [j]
        for i, ca in enumerate(a, 1):
            curr.append(min(prev[i] + 1, curr[i - 1] + 1, prev[i - 1] + (ca != cb)))
        prev = curr
    return prev[-1]


def has_adjacent_swap(old: str, new: str) -> int:
    """1 when the strings differ by exactly one adjacent-character swap."""
    if len(old) != len(new):
        return 0
    diffs = [i for i in range(len(old)) if old[i] != new[i]]
    if len(diffs) == 2:
        i, j = diffs
        if j == i + 1 and old[i] == new[j] and old[j] == new[i]:
            return 1
    return 0


def _edit_operations(old: str, new: str):
    """(insertions, deletions, substitutions) from a full DP backtrace.

    The shared prefix/suffix is trimmed first: the counts are invariant
    (differentially tested against the untrimmed backtrace over 300k
    small-alphabet pairs — see tests/test_features.py), and value updates
    that touch a small core skip almost the whole DP."""
    old, new = _trim_common(old, new)
    m, n = len(old), len(new)
    if m == 0:
        return n, 0, 0
    if n == 0:
        return 0, m, 0
    dp = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        dp[i][0] = i
    for j in range(n + 1):
        dp[0][j] = j
    for i in range(1, m + 1):
        oi = old[i - 1]
        row = dp[i]
        prev_row = dp[i - 1]
        for j in range(1, n + 1):
            if oi == new[j - 1]:
                row[j] = prev_row[j - 1]
            else:
                row[j] = 1 + min(prev_row[j], row[j - 1], prev_row[j - 1])
    i, j = m, n
    insertions = deletions = substitutions = 0
    while i > 0 or j > 0:
        if i > 0 and j > 0 and old[i - 1] == new[j - 1]:
            i -= 1
            j -= 1
        elif i > 0 and j > 0 and dp[i][j] == dp[i - 1][j - 1] + 1:
            substitutions += 1
            i -= 1
            j -= 1
        elif j > 0 and dp[i][j] == dp[i][j - 1] + 1:
            insertions += 1
            j -= 1
        else:
            deletions += 1
            i -= 1
    return insertions, deletions, substitutions


def _common_prefix_len(a: str, b: str) -> int:
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    return n


def create_text_features(datatype: str, old_value, new_value):
    """F1 — string-change features. `datatype='text'` adds the text-only block
    (length/token/edit-op/swap/prefix features); 'entity' keeps just the base 5."""
    new_value = str(new_value).strip().replace('"', "")
    old_value = str(old_value).strip().replace('"', "")

    old_tokens = set(old_value.split())
    new_tokens = set(new_value.split())
    union = old_tokens | new_tokens
    token_overlap = len(old_tokens & new_tokens) / len(union) if union else 0

    old_in_new = int(old_value in new_value)
    new_in_old = int(new_value in old_value)

    max_len = max(len(old_value), len(new_value)) or 1
    lev = levenshtein_distance(old_value.lower().strip(), new_value.lower().strip())
    edit_distance_ratio = lev / max_len
    complete_replacement = int(token_overlap == 0 and old_in_new == 0 and new_in_old == 0)

    result = (token_overlap, old_in_new, new_in_old, edit_distance_ratio, complete_replacement)
    if datatype != "text":
        return result

    length_diff_abs = abs(len(new_value) - len(old_value))
    token_count_old = len(old_value.split())
    token_count_new = len(new_value.split())
    same_wo_special = int(
        _SPECIAL_CHAR_RE.sub("", old_value) == _SPECIAL_CHAR_RE.sub("", new_value)
    )
    special_diff = len(_SPECIAL_CHAR_RE.findall(old_value)) - len(
        _SPECIAL_CHAR_RE.findall(new_value)
    )
    ins, dels, subs = _edit_operations(old_value, new_value)
    swap = has_adjacent_swap(old_value, new_value)
    has_prefix = int(_common_prefix_len(old_value, new_value) >= 3)
    has_suffix = int(_common_prefix_len(old_value[::-1], new_value[::-1]) >= 3)

    return result + (
        length_diff_abs, token_count_old, token_count_new, lev, same_wo_special,
        special_diff, ins, dels, subs, swap, has_prefix, has_suffix,
    )


# --------------------------------------------------------------------------
# time features (F2)
# --------------------------------------------------------------------------

def _get_date_parts(dt_str: str):
    """Manual date parse tolerant of month/day == 00 and negative (BCE) years."""
    cleaned = _DATE_CLEAN_RE.sub("", str(dt_str)).replace("Z", "")
    date_part = cleaned.split("T")[0]
    negative = date_part.startswith("-")
    if negative:
        date_part = date_part[1:]
    parts = date_part.split("-")
    if len(parts) < 3:
        raise ValueError(f"Invalid date format: {dt_str}")
    year = int(parts[0])
    if negative:
        year = -year
    return year, int(parts[1]), int(parts[2])


def create_time_features(old_value, new_value):
    """F2 — 10-feature tuple for time-value updates.

    NOTE the reference's special-value branch compares against 'some_value' /
    'no_value' (with underscores) while the parser emits 'somevalue'/'novalue',
    making it effectively dead; the observed (regular-path) behavior is kept,
    including the underscore sentinels (scripts/feature_creation.py:331-343).
    """
    old_value = str(old_value).strip().replace('"', "")
    new_value = str(new_value).strip().replace('"', "")

    if old_value in ("some_value", "no_value") or new_value in ("some_value", "no_value"):
        return (1000, 0, 0, 0, 0, 0, 0, 1, 1, 1)

    old_date = _get_date_parts(old_value)
    new_date = _get_date_parts(new_value)
    y1, m1, d1 = old_date
    y2, m2, d2 = new_date

    try:
        date_diff_days = (
            int(abs(y2 - y1) * 365.25) + int(abs(m2 - m1) * 30.44) + int(abs(d2 - d1))
        )
    except Exception:
        date_diff_days = 10000

    sign_change = int(old_value[1:] == new_value[1:])

    def placeholder_to_zero():
        if y1 != y2:
            return 0
        if m1 == 1 and d1 == 1 and m2 == 0 and d2 == 0:
            return 1
        if m1 == m2 and m1 > 1 and d1 == 1 and d2 == 0:
            return 1
        if m1 == 1 and m2 == 0 and d1 == 0 and d2 == 0:
            return 1
        return 0

    def added(part):
        if y1 != y2:
            return 0
        if part == "month" and (
            (m1 == 0 and m2 > 0 and d1 == 0)
            or (m1 == 1 and m2 > 1 and d1 == 1 and (d2 > 1 or d2 == 0))
        ):
            return 1
        if part == "day" and ((d1 == 0 and d2 > 0) or (d1 == 1 and d2 > 1 and m1 == 1 and m2 > 1)):
            return 1
        return 0

    def removed(part):
        if y1 != y2:
            return 0
        if part in ("month", "day") and m1 > 1 and d1 > 1 and m2 == 1 and d2 == 1:
            return 1
        if part == "month" and m1 > 0 and m2 == 0:
            if not (d1 == 1 and d2 == 0) and not (d1 == 0 and d2 == 0):
                return 1
        if part == "day" and d1 > 0 and d2 == 0:
            if not (d1 == 1 and d2 == 0):
                return 1
        return 0

    def part_changed(option):
        if option == "year":
            return int(y1 != y2)
        is_reformatting = (
            (m1 == 1 and d1 == 1 and d2 == 0 and m2 == 0)
            or (m1 > 0 and m2 > 0 and m1 == m2 and d1 == 1 and d2 == 0)
            or (m1 == 1 and m2 == 0 and d1 == 0 and d2 == 0)
        ) and y1 == y2
        if option == "month":
            is_refinement = (
                (m1 == 0 and m2 > 0 and d2 == 0)
                or (m1 == 1 and d1 == 1 and m2 > 1 and (d2 > 1 or d2 == 0))
                or (m1 == 0 and m2 > 0 and d1 == 0 and d2 > 0)
            ) and y1 == y2
            is_unrefinement = (m2 == 0 and m1 > 0) and y1 == y2
            return int(m1 != m2 and not is_reformatting and not is_refinement and not is_unrefinement)
        # day
        is_refinement = (
            (d1 == 0 and d2 > 0) or (d1 == 1 and d2 > 1 and m1 == 1 and m2 > 1)
        ) and y1 == y2
        is_unrefinement = (d2 == 0 and d1 > 0) and y1 == y2
        return int(d1 != d2 and not is_reformatting and not is_refinement and not is_unrefinement)

    return (
        date_diff_days,
        sign_change,
        placeholder_to_zero(),
        added("day"),
        removed("day"),
        added("month"),
        removed("month"),
        part_changed("year"),
        part_changed("day"),
        part_changed("month"),
    )


# --------------------------------------------------------------------------
# quantity / globecoordinate features (F3, F4)
# --------------------------------------------------------------------------

def _decimal_parts(v):
    s = str(v)
    ndp = s.split(".")[0] if "." in s else s
    try:
        dp = s.split(".")[1] if "." in s and int(s.split(".")[1]) > 0 else "0"
    except ValueError:
        dp = "0"
    return ndp, dp


def _precision_only_change(old, new) -> int:
    """1 if the whole part matches and only the decimal part changed
    (12 -> 12.0 and 12.0 -> 12.00 do NOT count)."""
    old_ndp, old_dp = _decimal_parts(old)
    new_ndp, new_dp = _decimal_parts(new)
    return int(old_ndp == new_ndp and old_dp != new_dp and (old_dp != "0" or new_dp != "0"))


def _digits_len(v) -> int:
    return len(str(v).replace("-", "").replace("+", "").replace(".", ""))


def _finite_floats(old, new):
    """(old, new) as floats, or None unless both are finite floats."""
    try:
        pair = float(old), float(new)
    except (TypeError, ValueError):
        return None
    return pair if math.isfinite(pair[0]) and math.isfinite(pair[1]) else None


def _same_float(old, new) -> int:
    try:
        return int(float(old) == float(new))
    except (TypeError, ValueError):
        return 0


def create_quantity_features(old_value, new_value):
    """F3 — 8-feature tuple for quantity updates."""
    new_value = str(new_value).replace("\\n", "").replace("\r", "").replace("\n", "").replace("\t", "").strip()
    old_value = str(old_value).replace("\\n", "").replace("\r", "").replace("\n", "").replace("\t", "").strip()
    old_str = old_value.replace('"', "").replace("+", "").strip()
    new_str = new_value.replace('"', "").replace("+", "").strip()

    floats = _finite_floats(old_str, new_str)
    if floats is None:  # an amount that is not a finite number
        sign_change = whole_number_change = same_float_value = 0
    else:
        old_f, new_f = floats
        old_whole, new_whole = math.floor(abs(old_f)), math.floor(abs(new_f))
        sign_change = int(old_f * new_f < 0 and old_whole == new_whole)
        whole_number_change = int(old_whole != new_whole)
        same_float_value = int(old_f == new_f)
    precision_change = _precision_only_change(old_str, new_str)
    old_is_prefix_of_new = int(new_str.startswith(old_str))
    new_is_prefix_of_old = int(old_str.startswith(new_str))
    length_increase = (
        int(_digits_len(new_str) > _digits_len(old_str)) if old_is_prefix_of_new else 0
    )
    length_decrease = (
        int(_digits_len(new_str) < _digits_len(old_str)) if new_is_prefix_of_old else 0
    )

    return (
        sign_change, precision_change, length_increase, length_decrease,
        whole_number_change, old_is_prefix_of_new, new_is_prefix_of_old,
        same_float_value,
    )


def create_globe_coordinate_features(old_value, new_value):
    """F4 — 16-feature tuple (lat/lon each) for globecoordinate updates.

    old_value/new_value are the serialized {'longitude','latitude'} JSON strings.
    """
    old_val = json.loads(old_value)
    new_val = json.loads(new_value)

    def _clean(x):
        return float(str(x).replace("\\n", "").replace("\r", "").replace("\n", "").replace("\t", "").strip())

    new_lat, new_lon = _clean(new_val["latitude"]), _clean(new_val["longitude"])
    old_lat, old_lon = float(old_val["latitude"]), float(old_val["longitude"])

    lat_whole = int(math.floor(abs(new_lat)) != math.floor(abs(old_lat)))
    lon_whole = int(math.floor(abs(new_lon)) != math.floor(abs(old_lon)))
    lat_sign = int((new_lat * old_lat < 0) and lat_whole == 0)
    lon_sign = int((new_lon * old_lon < 0) and lon_whole == 0)

    def part_of(v, part):
        return json.loads(v).get(part, None)

    def precision(part):
        return _precision_only_change(part_of(old_value, part), part_of(new_value, part))

    def containment(part, option):
        o, n = str(part_of(old_value, part)), str(part_of(new_value, part))
        return int(n.startswith(o)) if option == "old_in_new" else int(o.startswith(n))

    def length(part, option):
        o, n = str(part_of(old_value, part)), str(part_of(new_value, part))
        return int(_digits_len(n) > _digits_len(o)) if option == "increase" else int(_digits_len(n) < _digits_len(o))

    lat_oin = containment("latitude", "old_in_new")
    lat_nio = containment("latitude", "new_in_old")
    lon_oin = containment("longitude", "old_in_new")
    lon_nio = containment("longitude", "new_in_old")

    return (
        lat_sign, lon_sign, lat_whole, lon_whole,
        precision("latitude"), precision("longitude"),
        length("latitude", "increase") if lat_oin else 0,
        length("latitude", "decrease") if lat_nio else 0,
        length("longitude", "increase") if lon_oin else 0,
        length("longitude", "decrease") if lon_nio else 0,
        lat_oin, lat_nio,
        _same_float(part_of(old_value, "latitude"), part_of(new_value, "latitude")),
        lon_oin, lon_nio,
        _same_float(part_of(old_value, "longitude"), part_of(new_value, "longitude")),
    )


def create_entity_features_placeholder():
    """F5 — parse-time placeholder 18-tuple; real values filled by the
    enrichment pass (closure probes + label join + embedding cosine)."""
    return (
        None, None, None, None, None,  # token_overlap..complete_replacement
        None,  # is_link_change
        0, 0, 0, 0, 0, 0, 0, 0,  # 8 closure-relation flags
        "", "", "", "",  # old/new value label/description
    )
