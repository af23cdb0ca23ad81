"""Differential oracle for revert tagging.

`check_revert` is the reference-form pairwise predicate (direct, trailing
and create-case reverts; scripts/feature_creation.py:877-934). The naive
tagger below drives it the way the reference does: for each change `i` of a
(property, value, target) group it tries every later change `j` in order and
stops at the first that reverts `i`. It keeps the engine's tagging rules
(valid action pairs, rank-row skip, used reversions, restore-intermediate
tagging, combined `(1, 1)` flags, rank mirroring). Over generated groups
`core.revert.tag_reverted_edits`, which visits only the candidates its
posting list yields, must return the same rows and the same stats.
"""
import copy
from datetime import datetime, timedelta

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wikidata_edit_history_ray.core.revert import (_parse_timestamp,
                                                   tag_reverted_edits)

THRESHOLD = 1000  # seconds; the generator steps around it


def check_revert(current_change: dict, next_change: dict, time_threshold: int) -> int:
    """1 when next_change reverts current_change.

    Patterns (value-equality on serialized values, window-limited):
    - direct:   A->B then B->A
    - trailing: A->B ... ->A with intermediates, requires restore/rollback comment
    - create:   {}->B then B->{}
    """
    curr_old = str(current_change.get("old_value", "")).strip() if current_change.get("old_value", "") != "{}" else ""
    curr_new = str(current_change.get("new_value", "")).strip() if current_change.get("new_value", "") != "{}" else ""
    next_old = str(next_change.get("old_value", "")).strip() if next_change.get("old_value", "") != "{}" else ""
    next_new = str(next_change.get("new_value", "")).strip() if next_change.get("new_value", "") != "{}" else ""
    next_comment = str(next_change.get("comment", "")).lower()

    diff_seconds = (
        _parse_timestamp(next_change["timestamp"]) - _parse_timestamp(current_change["timestamp"])
    ).total_seconds()

    direct = (
        curr_old == next_new and curr_new == next_old
        and curr_old != "" and next_new != ""
        and diff_seconds <= time_threshold
    )
    trailing = (
        curr_old == next_new and curr_old != "" and next_new != ""
        and curr_new != next_old
        and (("restore" in next_comment or "rollback" in next_comment)
             and diff_seconds <= time_threshold)
    )
    create_case = (
        curr_old == "" and next_new == "" and curr_new == next_old
        and diff_seconds <= time_threshold
    )
    return 1 if (direct or trailing or create_case) else 0


def _restores(comment: str) -> bool:
    # case-sensitive, as the engine's action-pair rule reads the raw comment
    return "restore" in comment or "rollback" in comment


def _valid_pair(curr_action: str, next_action: str, comment: str) -> bool:
    return ((curr_action, next_action) in (("UPDATE", "UPDATE"),
                                           ("CREATE", "DELETE"),
                                           ("DELETE", "CREATE"))
            or (curr_action == "UPDATE" and next_action == "CREATE"
                and _restores(comment)))


def naive_tag(changes_by_pv: dict, value_changes: list, time_threshold: int):
    """Quadratic reference tagger over `check_revert`; same contract as
    `tag_reverted_edits`."""
    flags = {}
    stats = dict.fromkeys(
        ("num_reverted_edits", "num_reversions", "num_reverted_edits_create",
         "num_reverted_edits_delete", "num_reverted_edits_update"), 0)

    def count(change):
        stats["num_reverted_edits"] += 1
        action = change["action"]
        if action in ("CREATE", "DELETE", "UPDATE"):
            stats[f"num_reverted_edits_{action.lower()}"] += 1

    def mirrors(change):
        # a main-value CREATE/DELETE also writes its flags to its rank row
        return change["change_target"] == "" and change["action"] in ("DELETE", "CREATE")

    for (pid, vid, target), group in changes_by_pv.items():
        if len(group) < 2:
            continue
        group.sort(key=lambda x: x["timestamp"])

        def key(c, tgt=None):
            return (c["revision_id"], pid, vid,
                    c["change_target"] if tgt is None else tgt)

        used_reversions, reverted = set(), set()
        for i, current in enumerate(group):
            if key(current) in reverted:
                continue
            if current["change_target"] == "rank" and current["action"] in ("DELETE", "CREATE"):
                continue
            for j in range(i + 1, len(group)):
                future = group[j]
                if key(future) in used_reversions:
                    continue
                if not _valid_pair(current["action"], future["action"], future["comment"]):
                    continue
                if not check_revert(current, future, time_threshold):
                    continue
                tag = (future["timestamp"], future["revision_id"])

                # the reverted change: (1, 0), or (1, 1) if it was a reversion
                prev = flags.get(key(current))
                if prev is None:
                    flags[key(current)] = (1, 0) + tag
                    if mirrors(current):
                        flags[key(current, "rank")] = (1, 0) + tag
                elif prev[:2] == (0, 1):
                    flags[key(current)] = (1, 1) + tag
                    if target == "" and current["action"] in ("DELETE", "CREATE"):
                        flags[key(current, "rank")] = (1, 1) + tag
                reverted.add(key(current))

                # the reversion: (0, 1), or (1, 1) keeping its own revert tag
                prev = flags.get(key(future))
                if prev is None:
                    flags[key(future)] = (0, 1, None, None)
                    if mirrors(future):
                        flags[key(future, "rank")] = (0, 1, None, None)
                elif prev[:2] == (1, 0):
                    flags[key(future)] = (1, 1) + prev[2:]
                    if mirrors(future):
                        pr = flags.get(key(future, "rank"), (1, 0, None, None))
                        flags[key(future, "rank")] = (1, 1) + pr[2:]
                used_reversions.add(key(future))

                # a restoring CREATE after UPDATEs reverts every change between
                if (_restores(future["comment"]) and current["action"] == "UPDATE"
                        and future["action"] == "CREATE"):
                    for inter in group[i + 1:j]:
                        reverted.add(key(inter))
                        if key(inter) not in flags:
                            flags[key(inter)] = (1, 0) + tag
                            if mirrors(inter):
                                flags[key(inter, "rank")] = (1, 0) + tag
                            count(inter)

                count(current)
                stats["num_reversions"] += 1
                break

    rows = {}
    for change in value_changes:
        rows[(change[0], change[1], change[3], change[8])] = change
    out = []
    for k, original in rows.items():
        # rank rows always carry the flags of their value row
        lookup = (k[0], k[1], k[2], "") if k[3] == "rank" else k
        out.append(original + flags.get(lookup, (0, 0, None, None)))
    return out, stats


# ---- generator ----------------------------------------------------------

_VALUES = ['"a"', '"b"', '"c"', ' "a" ']  # the last strips to the first
_RANKS = ['"normal"', '"preferred"', '"deprecated"']
_COMMENTS = ["", "edit", "restore", "Restored revision 7", "rollback",
             "Rollback to 3", "undo"]
# steps around the threshold, so pairs fall on both sides of it
_STEPS = [0, 1, THRESHOLD // 3, THRESHOLD - 1, THRESHOLD, THRESHOLD + 1]
_T0 = datetime(2020, 3, 1)


def _change_strategy(values):
    value = st.sampled_from(values + ["{}"])
    return st.tuples(st.sampled_from(["CREATE", "DELETE", "UPDATE"]),
                     value, value)


@st.composite
def _history(draw):
    """Revisions with timestamps and comments, and per (property, value,
    target) group the changes some of them made. Main-value CREATE/DELETEs
    bring a rank row of the same action, as the differ emits them."""
    n_revs = draw(st.integers(2, 24))
    steps = draw(st.lists(st.sampled_from(_STEPS), min_size=n_revs,
                          max_size=n_revs))
    times, t = [], _T0
    for s in steps:
        t += timedelta(seconds=s)
        times.append(t.strftime("%Y-%m-%dT%H:%M:%SZ"))
    comments = draw(st.lists(st.sampled_from(_COMMENTS), min_size=n_revs,
                             max_size=n_revs))
    changes_by_pv, value_changes = {}, []

    def emit(rev, pid, vid, target, action, old, new):
        changes_by_pv.setdefault((pid, vid, target), []).append({
            "timestamp": times[rev], "old_value": old, "new_value": new,
            "comment": comments[rev], "change_target": target,
            "revision_id": 1000 + rev, "action": action})
        value_changes.append((1000 + rev, pid, None, vid, old, new, None,
                              None, target))

    for pid, vid in draw(st.lists(st.sampled_from(
            [("P1", "v1"), ("P1", "v2"), ("P2", "v1")]),
            min_size=1, max_size=3, unique=True)):
        revs = sorted(draw(st.sets(st.integers(0, n_revs - 1), min_size=1)))
        for rev in revs:
            action, old, new = draw(_change_strategy(_VALUES))
            if action == "CREATE":
                old = "{}"
            elif action == "DELETE":
                new = "{}"
            emit(rev, pid, vid, "", action, old, new)
            if action != "UPDATE" and draw(st.booleans()):
                emit(rev, pid, vid, "rank", action,
                     "{}" if action == "CREATE" else '"normal"',
                     '"normal"' if action == "CREATE" else "{}")
        rank_revs = draw(st.sets(st.integers(0, n_revs - 1), max_size=6))
        for rev in sorted(rank_revs - set(revs)):
            _, old, new = draw(_change_strategy(_RANKS))
            emit(rev, pid, vid, "rank", "UPDATE", old, new)
    return changes_by_pv, value_changes


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(history=_history())
def test_tagger_matches_naive_oracle(history):
    changes_by_pv, value_changes = history
    expected = naive_tag(copy.deepcopy(changes_by_pv), value_changes,
                         THRESHOLD)
    got = tag_reverted_edits(copy.deepcopy(changes_by_pv), value_changes,
                             THRESHOLD)
    assert got == expected


def test_fixed_groups_pin_each_rule():
    """Hand-written groups pin each rule in both taggers: direct, trailing
    and create-case reverts, a restore that tags its intermediates, a change
    that is both reverted and a reversion, and a pair past the threshold."""
    def group(*changes):
        rows = [{"timestamp": (_T0 + timedelta(seconds=s)).strftime(
                    "%Y-%m-%dT%H:%M:%SZ"),
                 "old_value": o, "new_value": n, "comment": c,
                 "change_target": "", "revision_id": r, "action": a}
                for r, (s, a, o, n, c) in enumerate(changes, start=1)]
        vcs = [(r["revision_id"], "P1", None, "v1", None, None, None, None, "")
               for r in rows]
        return {("P1", "v1", ""): rows}, vcs

    cases = [
        # direct, then the reversion reverted in turn: (1, 1)
        group((0, "UPDATE", '"a"', '"b"', ""), (1, "UPDATE", '"b"', '"a"', ""),
              (2, "UPDATE", '"a"', '"b"', "")),
        # trailing revert through an intermediate, restore comment
        group((0, "UPDATE", '"a"', '"b"', ""), (1, "UPDATE", '"b"', '"c"', ""),
              (2, "UPDATE", '"c"', '"a"', "restore")),
        # restoring CREATE tags the intermediate UPDATE
        group((0, "UPDATE", '"a"', '"b"', ""), (1, "UPDATE", '"b"', '"c"', ""),
              (2, "CREATE", "{}", '"a"', "rollback")),
        # create case, and the same pair past the threshold
        group((0, "CREATE", "{}", '"a"', ""), (1, "DELETE", '"a"', "{}", "")),
        group((0, "CREATE", "{}", '"a"', ""),
              (THRESHOLD + 1, "DELETE", '"a"', "{}", "")),
    ]
    flags = []
    for changes_by_pv, vcs in cases:
        got = tag_reverted_edits(copy.deepcopy(changes_by_pv), vcs, THRESHOLD)
        assert got == naive_tag(changes_by_pv, vcs, THRESHOLD)
        flags.append([row[9:11] for row in got[0]])
    assert flags == [
        [(1, 0), (1, 1), (0, 1)],
        [(1, 0), (0, 0), (0, 1)],
        [(1, 0), (1, 0), (0, 1)],
        [(1, 0), (0, 1)],
        [(0, 0), (0, 0)],
    ]
