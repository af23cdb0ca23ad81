"""Reverted-edit tagging (operators R1-R2).

Runs once per document after all revisions are diffed; all state is per-entity,
so tagging stays inside the per-doc UDF (no shuffle). Parity targets:
- revert predicate (direct / trailing / create-case)  scripts/feature_creation.py:877-934
- per-pv-group tagging scan, rank mirroring,
  restore-intermediate tagging, final flag append      scripts/feature_creation.py:936-1132

Matching is on the serialized old/new VALUES (with '{}' treated as empty), not
the canonical hashes — exactly like the reference despite its docstring.

Deliberate divergence: when a change already tagged as reverted later also
becomes a reversion, the reference crashes (tuple item assignment,
scripts/feature_creation.py:1061); we record the combined (1, 1) flags.
"""
from __future__ import annotations

import calendar
import re
from datetime import datetime

_TZ_SUFFIX_RE = re.compile(r"[+-]\d{2}:?\d{0,2}$")


def _parse_timestamp(ts):
    if isinstance(ts, datetime):
        return ts
    s = str(ts)
    try:  # canonical 'YYYY-MM-DDTHH:MM:SSZ' fast path
        return datetime(int(s[0:4]), int(s[5:7]), int(s[8:10]),
                        int(s[11:13]), int(s[14:16]), int(s[17:19]))
    except (ValueError, IndexError):
        ts_str = s.replace("T", " ").replace("Z", "")
        ts_str = _TZ_SUFFIX_RE.sub("", ts_str).strip()
        return datetime.strptime(ts_str, "%Y-%m-%d %H:%M:%S")


def tag_reverted_edits(changes_by_pv: dict, value_changes: list, time_threshold: int):
    """Append (is_reverted, reversion, reversion_timestamp, revision_id_reversion)
    to every value_change tuple; returns (final_changes, revert_stats).

    value_changes tuples use the emitter layout: revision_id at [0],
    property_id at [1], value_id at [3], change_target at [8].
    """
    dict_lookup = {}
    for change in value_changes:
        key = (change[0], change[1], change[3], change[8])
        dict_lookup[key] = change  # keep-last on PK collision (upsert analog)

    revert_flags = {}
    num_reverted = num_reversions = 0
    num_rev_create = num_rev_delete = num_rev_update = 0

    def count(change):
        nonlocal num_reverted, num_rev_create, num_rev_delete, num_rev_update
        num_reverted += 1
        action = change["action"]
        if action == "CREATE":
            num_rev_create += 1
        elif action == "DELETE":
            num_rev_delete += 1
        elif action == "UPDATE":
            num_rev_update += 1

    for (property_id, value_id, change_target), pv_changes in changes_by_pv.items():
        if len(pv_changes) < 2:
            continue  # a lone change neither reverts nor is reverted
        pv_changes.sort(key=lambda x: x["timestamp"])
        reversion_keys = set()
        reverted_keys = set()

        # ---- precompute per-change match fields once, so no pair parses a
        # timestamp. The scan stays quadratic per group when values recur
        # without reverting: every later change with the wanted value is
        # tried and fails (a 20,000-change three-value cycle took 62.5 s on
        # one core of a 4-vCPU cloud VM, Python 3.11) ----
        n = len(pv_changes)
        olds, news, epochs = [], [], []
        for c in pv_changes:
            olds.append(str(c.get("old_value", "")).strip()
                        if c.get("old_value", "") != "{}" else "")
            news.append(str(c.get("new_value", "")).strip()
                        if c.get("new_value", "") != "{}" else "")
            # TZ-independent epoch: naive datetime.timestamp() would read the
            # machine's local timezone and shift pairs straddling a DST jump
            # by +-3600s vs the reference's naive (dt2-dt1).total_seconds()
            epochs.append(calendar.timegm(_parse_timestamp(c["timestamp"]).timetuple()))
        # candidate futures for current i must satisfy news[j] == olds[i]
        # (direct / trailing) or news[j] == '' with olds[j] == news[i]
        # (create case) — anything else can never pass the revert predicate
        # below, so a posting list over new_value preserves the scan over
        # every j > i exactly (tests/test_revert_oracle.py checks both)
        by_new: dict = {}
        for j in range(n):
            by_new.setdefault(news[j], []).append(j)

        for i, current in enumerate(pv_changes):
            curr_key = (current["revision_id"], property_id, value_id, current["change_target"])
            if curr_key in reverted_keys:
                continue
            if (current["change_target"] == "rank"
                    and current["action"] in ("DELETE", "CREATE")):
                # rank CREATE/DELETE rows mirror the value row instead of
                # matching directly
                continue
            cands = []
            if olds[i] != "":
                cands.extend(jj for jj in by_new.get(olds[i], ()) if jj > i)
            else:
                # create case: old == '' -> candidate futures with new == ''
                cands.extend(jj for jj in by_new.get("", ()) if jj > i)
            for j in sorted(set(cands)):
                future = pv_changes[j]
                future_key = (future["revision_id"], property_id, value_id, future["change_target"])
                if future_key in reversion_keys:
                    continue  # already used as a reversion

                curr_action = current["action"]
                next_action = future["action"]
                comment = future["comment"]
                valid_pair = (
                    (curr_action == "UPDATE" and next_action == "UPDATE")
                    or (curr_action == "CREATE" and next_action == "DELETE")
                    or (curr_action == "DELETE" and next_action == "CREATE")
                    or (curr_action == "UPDATE" and next_action == "CREATE"
                        and ("restore" in comment or "rollback" in comment))
                )
                if not valid_pair:
                    continue
                diff_seconds = epochs[j] - epochs[i]
                direct = (olds[i] == news[j] and news[i] == olds[j]
                          and olds[i] != "" and news[j] != ""
                          and diff_seconds <= time_threshold)
                lc = comment.lower()
                trailing = (olds[i] == news[j] and olds[i] != "" and news[j] != ""
                            and news[i] != olds[j]
                            and ("restore" in lc or "rollback" in lc)
                            and diff_seconds <= time_threshold)
                create_case = (olds[i] == "" and news[j] == ""
                               and news[i] == olds[j]
                               and diff_seconds <= time_threshold)
                if not (direct or trailing or create_case):
                    continue

                # mark current as reverted (mirroring onto its rank row for
                # main-value CREATE/DELETEs)
                rank_key = (current["revision_id"], property_id, value_id, "rank")
                if curr_key not in revert_flags:
                    revert_flags[curr_key] = (1, 0, future["timestamp"], future["revision_id"])
                    if current["change_target"] == "" and current["action"] in ("DELETE", "CREATE"):
                        revert_flags[rank_key] = (1, 0, future["timestamp"], future["revision_id"])
                elif revert_flags[curr_key][0] == 0 and revert_flags[curr_key][1] == 1:
                    revert_flags[curr_key] = (1, 1, future["timestamp"], future["revision_id"])
                    if change_target == "" and current["action"] in ("DELETE", "CREATE"):
                        revert_flags[rank_key] = (1, 1, future["timestamp"], future["revision_id"])
                reverted_keys.add(curr_key)

                # mark future as the reversion
                f_rank_key = (future["revision_id"], property_id, value_id, "rank")
                if future_key not in revert_flags:
                    revert_flags[future_key] = (0, 1, None, None)
                    if future["change_target"] == "" and future["action"] in ("DELETE", "CREATE"):
                        revert_flags[f_rank_key] = (0, 1, None, None)
                elif revert_flags[future_key][1] == 0 and revert_flags[future_key][0] == 1:
                    prev = revert_flags[future_key]
                    revert_flags[future_key] = (1, 1, prev[2], prev[3])
                    if future["change_target"] == "" and future["action"] in ("DELETE", "CREATE"):
                        pr = revert_flags.get(f_rank_key, (1, 0, None, None))
                        revert_flags[f_rank_key] = (1, 1, pr[2], pr[3])
                reversion_keys.add(future_key)

                # restore case: a CREATE undoing a chain of UPDATEs tags the
                # intermediate changes as reverted too
                if (("restore" in comment or "rollback" in comment)
                        and curr_action == "UPDATE" and next_action == "CREATE"):
                    for inter in pv_changes[i + 1:j]:
                        inter_key = (inter["revision_id"], property_id, value_id, inter["change_target"])
                        reverted_keys.add(inter_key)
                        if inter_key not in revert_flags:
                            revert_flags[inter_key] = (1, 0, future["timestamp"], future["revision_id"])
                            if inter["change_target"] == "" and inter["action"] in ("DELETE", "CREATE"):
                                i_rank_key = (inter["revision_id"], property_id, value_id, "rank")
                                revert_flags[i_rank_key] = (1, 0, future["timestamp"], future["revision_id"])
                            count(inter)

                count(current)
                num_reversions += 1
                break  # first revert wins; move to next change

    final_changes = []
    for key, original in dict_lookup.items():
        if key[3] == "rank":
            # rank rows always mirror the flags of their value row
            flags = revert_flags.get((key[0], key[1], key[2], ""), (0, 0, None, None))
        else:
            flags = revert_flags.get(key, (0, 0, None, None))
        final_changes.append(original + flags)

    stats = {
        "num_reverted_edits": num_reverted,
        "num_reversions": num_reversions,
        "num_reverted_edits_create": num_rev_create,
        "num_reverted_edits_delete": num_rev_delete,
        "num_reverted_edits_update": num_rev_update,
    }
    return final_changes, stats
