"""The per-document revision differ (operators D1-D12, A1, M5-M12).

One `PageDiffer` walks a document's ordered text spans (= the entity's revision
sequence), diffs each parseable snapshot against the previous stored one, and
emits rows for every logical change table. All state is per-document, which is
what makes extraction embarrassingly parallel across docs.

Every revision is a full snapshot, so most of it repeats the previous stored
one. In a snapshot that orjson parsed exactly, a property whose statement list
is byte-identical to its previous form is skipped whole; in a property that
changed, so is each byte-identical statement (`PageDiffer._unchanged_stmts`).
Neither can yield a row, so a hot entity costs what its edits change, not
what its snapshot holds.

Behavioral parity targets in the reference (caroocortes/wikidata-edit-history):
- revision walk + skip rules + prev-pointer repair  scripts/page_parser.py:1956-2129
- top-level dispatch                                scripts/page_parser.py:1890-1953
- created/cleaned expansion                         scripts/page_parser.py:1350-1530
- label/description diff                            scripts/page_parser.py:1532-1597
- new/removed/remaining P-ids + rank                scripts/page_parser.py:1600-1888
- qualifier / reference set-diffs                   scripts/page_parser.py:1084-1348
- datatype-metadata diff (incl. positional pairing
  for cross-datatype updates and 'language' routing) scripts/page_parser.py:614-983
- emitters + re-interpretation labels               scripts/page_parser.py:320-611
- per-entity stats + routing flags                  scripts/page_parser.py:95-150, 2247-2326

Known deliberate divergences (documented, all crash paths in the reference):
- P31 type-set removal uses set.discard (reference uses set.remove, which
  raises KeyError and aborts the page on inconsistent input), and the set
  keeps only string values (reference hashes any value, which raises
  TypeError on a dict value). The reference's P279 set is not kept: nothing
  reads it.
- cross-datatype metadata pairing iterates keys in insertion order (reference
  iterates Python sets, whose order is salted per process — the reference is
  not deterministic across runs; we pin a deterministic order).
- for the same reason, property, statement, qualifier and reference ids are
  visited in snapshot order, so the row order of every table is the same in
  every process (the rows themselves are unchanged).
- same-datatype metadata diff guards calendarmodel/unit Q-id trimming against a
  missing key in the new snapshot (reference raises AttributeError on None).
"""
from __future__ import annotations

import hashlib
import json
import re
import time
from collections import defaultdict

import orjson

from . import features as F
from .constants import (
    CREATE_PROPERTY_VALUE,
    CREATE_QUALIFIER_VALUE,
    CREATE_REFERENCE_VALUE,
    DELETE_PROPERTY_VALUE,
    DELETE_QUALIFIER_VALUE,
    DELETE_REFERENCE_VALUE,
    DESCRIPTION_PROP_ID,
    END_TIME_QUALIFIER_PIDS,
    LABEL_PROP_ID,
    NO_VALUE,
    SOME_VALUE,
    UPDATE_PROPERTY_DATATYPE_METADATA,
    UPDATE_PROPERTY_VALUE,
    UPDATE_RANK,
    WD_ENTITY_TYPES,
    WD_STRING_TYPES,
)
from .revert import tag_reverted_edits
from .values import (
    get_time_feature,
    homogenize_snak,
    id_to_int,
    load_envelope,
    load_json,
    parse_snak_datavalue,
    parse_statement_datavalue,
    safe_get_nested,
    serialize_value,
    snak_value_hash,
    split_change_type,
    classify_user,
)

_TIME_PAD_RE = re.compile(r"^([+-])0+(?=\d{4}-)")


def _raw_bytes(obj):
    """orjson bytes of obj, or None when it nests deeper than orjson
    serializes (255 levels); callers never count two None as equal."""
    try:
        return orjson.dumps(obj)
    except orjson.JSONEncodeError:
        return None


_CLASS_FILTER_NAMES = ("scholarly_articles_filter", "astronomical_objects_filter",
                       "less_filter", "rest")


class DiffConfig:
    """Engine configuration mirroring the reference's setup.yml semantics.

    `class_filters` is the faithful per-entity-class surface
    (setup.yml:11-27): a dict with keys scholarly_articles_filter /
    astronomical_objects_filter / less_filter / rest, each carrying
    `extract` / `feature_extraction` / `datatype_metadata_extraction`
    (less_filter also `threshold`). When provided it OVERRIDES the global
    extract_features / extract_datatype_metadata booleans: parse-time
    collection uses the OR across classes (scripts/page_parser.py:34-60) and
    the write stage applies the per-class gates (scripts/db_writer.py:16-49),
    via `write_gates()`.
    """

    def __init__(
        self,
        language: str = "en",
        re_interpretation: bool = True,
        extract_features: bool = True,
        extract_datatype_metadata: bool = True,
        revert_time_threshold_seconds: int = 28 * 24 * 60 * 60,
        less_changes_threshold: int = 10,
        extract_scholarly_articles: bool = True,
        extract_astronomical_objects: bool = True,
        extract_less: bool = True,
        max_spans_per_doc: int | None = None,
        class_filters: dict | None = None,
    ):
        self.language = language
        self.re_interpretation = re_interpretation
        self.extract_features = extract_features
        self.extract_datatype_metadata = extract_datatype_metadata
        self.revert_time_threshold_seconds = revert_time_threshold_seconds
        self.less_changes_threshold = less_changes_threshold
        self.extract_scholarly_articles = extract_scholarly_articles
        self.extract_astronomical_objects = extract_astronomical_objects
        self.extract_less = extract_less
        # wide-row guard: a pathological doc (a GB-scale span list, e.g. the
        # Wikidata sandbox with 60k+ revisions) whose change expansion would
        # not fit a worker heap is routed to the errors table instead of
        # OOM-killing the task; None = unlimited
        self.max_spans_per_doc = max_spans_per_doc
        self.class_filters = class_filters
        if class_filters:
            cf = class_filters

            def g(name, key):
                return bool(cf.get(name, {}).get(key, False))

            def cls_on(name, key):
                # a class contributes only if it is extracted at all;
                # 'rest' is extracted by default (scripts/page_parser.py:36-49)
                if name == "rest":
                    return g(name, key)
                return g(name, key) and g(name, "extract")

            self.extract_datatype_metadata = any(
                cls_on(n, "datatype_metadata_extraction")
                for n in _CLASS_FILTER_NAMES)
            self.extract_features = any(
                cls_on(n, "feature_extraction") for n in _CLASS_FILTER_NAMES)
            thr = cf.get("less_filter", {}).get("threshold")
            if thr is not None:
                self.less_changes_threshold = thr

    def write_gates(self, is_sa: bool, is_ao: bool, has_less: bool):
        """(keep_doc, keep_features, keep_metadata) for a doc's routing class
        — the write-time analog of the reference's batch_insert gates
        (scripts/db_writer.py:16-49; routing priority :146-155, where _ao
        overrides _sa). Without class_filters, the global booleans apply."""
        if not self.class_filters:
            return True, self.extract_features, self.extract_datatype_metadata
        if is_ao:
            name = "astronomical_objects_filter"
        elif is_sa:
            name = "scholarly_articles_filter"
        elif has_less:
            name = "less_filter"
        else:
            name = "rest"
        f = self.class_filters.get(name, {})
        keep = True if name == "rest" else bool(f.get("extract", False))
        feats = keep and bool(f.get("feature_extraction", False))
        md = keep and bool(f.get("datatype_metadata_extraction", False))
        return keep, feats, md

    @classmethod
    def from_dict(cls, d: dict) -> "DiffConfig":
        return cls(**d) if d else cls()

    def to_dict(self) -> dict:
        # round-trips through from_dict: __init__ re-derives the effective OR
        # gates from class_filters when present
        return dict(self.__dict__)


def _time_buckets(ts: str, _cache={}):
    """(week, year_month, year) for a timestamp; memoized — a revision's
    timestamp is shared by every change row it emits."""
    hit = _cache.get(ts)
    if hit is None:
        if len(_cache) > 65536:
            _cache.clear()
        hit = (
            get_time_feature(ts, "week"),
            get_time_feature(ts, "year_month"),
            get_time_feature(ts, "year"),
        )
        _cache[ts] = hit
    return hit


class PageDiffer:
    """Stateful-within-doc revision differ; reusable across docs via reset()."""

    def __init__(self, config: DiffConfig, property_labels=None,
                 scholarly_article_types=None, astronomical_object_types=None):
        self.cfg = config
        self.property_labels = property_labels or {}
        self.sa_types = scholarly_article_types or set()
        self.ao_types = astronomical_object_types or set()

    # ----- per-doc state -----
    def _reset(self, entity_id: int, file_path: str):
        self.entity_id = entity_id
        self.file_path = file_path
        self.changes = []
        self.revisions = []
        self.qualifier_changes = []
        self.reference_changes = []
        self.datatype_metadata_changes = []
        self.text_features = []
        self.time_features = []
        self.quantity_features = []
        self.globecoordinate_features = []
        self.entity_features = []
        self.changes_by_pv = defaultdict(list)
        self.current_revision_redirect = False
        self.redirect_qid = ""
        self.rev_meta = {}
        self._stmt_hash_cache = {}
        # property id -> (statement list, its raw orjson bytes, {statement
        # id: raw statement bytes}), all taken before homogenize_snak rewrote
        # the list; see _unchanged_stmts
        self._raw_pids = {}
        self._snapshot_exact = False  # load_json's flag for the current snapshot
        self.entity_data = {
            "label": "", "alias": "", "description": "",
            "p31_types": set(),
        }
        self.stats = {
            "entity_id": entity_id, "entity_label": "", "entity_types_31": "",
            "num_revisions": 0,
            "num_value_changes": 0, "num_value_change_creates": 0,
            "num_value_change_deletes": 0, "num_value_change_updates": 0,
            "num_rank_changes": 0, "num_rank_creates": 0,
            "num_rank_deletes": 0, "num_rank_updates": 0,
            "num_qualifier_changes": 0, "num_reference_changes": 0,
            "num_datatype_metadata_changes": 0, "num_datatype_metadata_creates": 0,
            "num_datatype_metadata_deletes": 0, "num_datatype_metadata_updates": 0,
            "first_revision_timestamp": None, "last_revision_timestamp": None,
            "num_bot_edits": 0, "num_anonymous_edits": 0, "num_human_edits": 0,
            "total_xml_parse_time_sec": 0.0, "total_process_time_sec": 0.0,
            "total_revision_diff_time_sec": 0.0, "num_revisions_timed": 0,
            "total_feature_creation_sec": 0.0, "num_feature_creations_timed": 0,
        }
        self._t_doc_start = time.perf_counter()

    def _snak_hash(self, hom_snak):
        # NOTE: no memoization on the upstream 'hash' field — the canonical
        # SHA-1 exists precisely because upstream hashes drift out of sync
        # with the datavalue (SURVEY §1.1 / M4); identity must come from the
        # value bytes, never the upstream hash.
        return snak_value_hash(hom_snak)

    def _stmt_hash(self, sid, hom_mainsnak):
        """Canonical hash of a statement mainsnak with a per-doc cache keyed
        by statement id + homogenized-datavalue EQUALITY: each revision is a
        full snapshot, so every unchanged statement would otherwise pay
        json.dumps+sha1 again in every revision diff (the differ's dominant
        allocation churn). novalue/somevalue snaks (no datavalue) bypass the
        cache — their identity is the upstream hash, which may drift. The
        equality test shows in the output: an amount going 1 -> 1.0 keeps
        the first hash and emits no row (tests/test_statement_skip.py)."""
        dv = hom_mainsnak.get("datavalue")
        if dv is None or sid is None:
            return snak_value_hash(hom_mainsnak)
        cached = self._stmt_hash_cache.get(sid)
        if cached is not None and cached[0] == dv:
            return cached[1]
        h = snak_value_hash(hom_mainsnak)
        self._stmt_hash_cache[sid] = (dv, h)
        return h

    # ----- stats -----
    def _update_stats(self, change_target, action):
        s = self.stats
        if change_target == "":
            s["num_value_changes"] += 1
            if action == "CREATE":
                s["num_value_change_creates"] += 1
            elif action == "DELETE":
                s["num_value_change_deletes"] += 1
            elif action == "UPDATE":
                s["num_value_change_updates"] += 1
        if change_target == "rank":
            s["num_rank_changes"] += 1
            if action == "CREATE":
                s["num_rank_creates"] += 1
            elif action == "DELETE":
                s["num_rank_deletes"] += 1
            elif action == "UPDATE":
                s["num_rank_updates"] += 1

    # ----- emitters (D12) -----
    def _save_change(self, property_id, value_id, old_value, new_value,
                     old_datatype, new_datatype, change_target, change_type,
                     old_hash=None, new_hash=None):
        old_value = serialize_value(old_value) if old_value else "{}"
        new_value = serialize_value(new_value) if new_value else "{}"
        action, target = split_change_type(change_type)
        meta = self.rev_meta
        timestamp = meta["timestamp"]
        revision_id = meta["revision_id"]
        change_target = change_target if change_target else ""

        label = ""
        if self.cfg.re_interpretation and change_target == "":
            if new_datatype != old_datatype and action == "UPDATE":
                label = "value_update"
            if action == "CREATE" and target == "PROPERTY_VALUE":
                label = "statement_insertion"
            if action == "DELETE" and target == "PROPERTY_VALUE":
                label = "statement_deletion"
        if self.cfg.re_interpretation and change_target == "rank" and action == "UPDATE":
            old_f = old_value.replace('"', "") if old_value else ""
            new_f = new_value.replace('"', "") if new_value else ""
            if old_f in ("normal", "preferred") and new_f == "deprecated":
                label = "soft_deletion"
            if new_f == "preferred" and old_f in ("deprecated", "normal"):
                label = "soft_insertion"

        self._update_stats(change_target, action)

        self.changes_by_pv[(property_id, value_id, change_target)].append({
            "timestamp": timestamp,
            "old_value": old_value,
            "new_value": new_value,
            "comment": meta["comment"],
            "change_target": change_target,
            "revision_id": revision_id,
            "action": action,
        })

        property_label = self.property_labels.get(str(property_id), "")

        if (self.cfg.extract_features and change_target == "" and action == "UPDATE"
                and new_datatype == old_datatype):
            t_feat = time.perf_counter()
            self._calculate_features(
                revision_id, property_id, property_label, value_id, old_value,
                new_value, old_datatype, new_datatype, change_target, action,
            )
            self.stats["total_feature_creation_sec"] += time.perf_counter() - t_feat
            self.stats["num_feature_creations_timed"] += 1

        week, year_month, year = _time_buckets(timestamp)
        self.changes.append((
            revision_id, property_id, property_label, value_id, old_value,
            new_value, old_datatype, new_datatype, change_target, action, target,
            old_hash if old_hash else "", new_hash if new_hash else "",
            timestamp, week, year_month, year, label, self.entity_id,
        ))

    def _save_datatype_metadata_change(self, property_id, value_id, old_value,
                                       new_value, old_datatype, new_datatype,
                                       change_target, change_type,
                                       old_hash=None, new_hash=None):
        old_value = serialize_value(old_value) if old_value else "{}"
        new_value = serialize_value(new_value) if new_value else "{}"
        action, target = split_change_type(change_type)
        timestamp = self.rev_meta["timestamp"]
        label = ""
        if self.cfg.re_interpretation and action == "UPDATE":
            label = "datatype_context_update"
        week, year_month, year = _time_buckets(timestamp)
        self.datatype_metadata_changes.append((
            self.rev_meta["revision_id"], property_id,
            self.property_labels.get(str(property_id), ""), value_id, old_value,
            new_value, old_datatype, new_datatype,
            change_target if change_target else "", action, target,
            old_hash if old_hash else "", new_hash if new_hash else "",
            timestamp, week, year_month, year, self.entity_id, label,
        ))
        s = self.stats
        if action == "CREATE":
            s["num_datatype_metadata_creates"] += 1
        if action == "DELETE":
            s["num_datatype_metadata_deletes"] += 1
        elif action == "UPDATE":
            s["num_datatype_metadata_updates"] += 1
        s["num_datatype_metadata_changes"] += 1

    def _save_qualifier_change(self, property_id, value_id, qual_property_id,
                               value_hash, old_value, new_value, old_datatype,
                               new_datatype, change_target, change_type):
        old_value = serialize_value(old_value) if old_value else "{}"
        new_value = serialize_value(new_value) if new_value else "{}"
        action, target = split_change_type(change_type)
        timestamp = self.rev_meta["timestamp"]
        label = ""
        if self.cfg.re_interpretation and action == "CREATE":
            if qual_property_id in END_TIME_QUALIFIER_PIDS:
                label = "soft_deletion"
        week, year_month, year = _time_buckets(timestamp)
        self.qualifier_changes.append((
            self.rev_meta["revision_id"], property_id,
            self.property_labels.get(str(property_id), ""), value_id,
            qual_property_id, self.property_labels.get(str(qual_property_id), ""),
            value_hash, old_value, new_value, old_datatype, new_datatype,
            change_target if change_target else "", action, target,
            timestamp, week, year_month, year, self.entity_id, label,
        ))

    def _save_reference_change(self, property_id, value_id, ref_property_id,
                               ref_hash, value_hash, old_value, new_value,
                               old_datatype, new_datatype, change_target,
                               change_type):
        old_value = serialize_value(old_value) if old_value else "{}"
        new_value = serialize_value(new_value) if new_value else "{}"
        action, target = split_change_type(change_type)
        timestamp = self.rev_meta["timestamp"]
        week, year_month, year = _time_buckets(timestamp)
        self.reference_changes.append((
            self.rev_meta["revision_id"], property_id,
            self.property_labels.get(str(property_id), ""), value_id,
            ref_property_id, self.property_labels.get(str(ref_property_id), ""),
            ref_hash, value_hash, old_value, new_value, old_datatype,
            new_datatype, change_target if change_target else "", action, target,
            timestamp, week, year_month, year, self.entity_id, "",
        ))

    # ----- parse-time features (gate: '' target, UPDATE, same datatype) -----
    def _calculate_features(self, revision_id, property_id, property_label,
                            value_id, old_value, new_value, old_datatype,
                            new_datatype, change_target, action):
        base = (
            revision_id, property_id, property_label, value_id, change_target,
            new_datatype, old_datatype, action, old_value, new_value,
        )
        if new_datatype == "quantity":
            self.quantity_features.append(base + F.create_quantity_features(old_value, new_value))
        if new_datatype == "globecoordinate":
            self.globecoordinate_features.append(base + F.create_globe_coordinate_features(old_value, new_value))
        if new_datatype == "time":
            self.time_features.append(base + F.create_time_features(old_value, new_value))
        if new_datatype in WD_STRING_TYPES:
            self.text_features.append(base + F.create_text_features("text", old_value, new_value))
        if new_datatype in WD_ENTITY_TYPES:
            self.entity_features.append(base + F.create_entity_features_placeholder())

    # ----- label/alias/description (M5) -----
    def _get_label_alias_description(self, revision):
        lang = self.cfg.language
        label = safe_get_nested(revision, "labels", lang, "value")
        description = safe_get_nested(revision, "descriptions", lang, "value")
        aliases = revision.get("aliases", None)
        if isinstance(aliases, dict):
            alias_list = aliases.get(lang, [])
            alias = alias_list[0]["value"] if len(alias_list) > 0 else ""
        else:
            alias = ""
        return (
            label if not isinstance(label, dict) else "",
            alias,
            description if not isinstance(description, dict) else "",
        )

    # ----- qualifier differ (D9) -----
    def _handle_qualifier_changes(self, stmt_pid, stmt_value_id, prev_stmt, curr_stmt):
        prev = prev_stmt.get("qualifiers", {}) if prev_stmt else {}
        curr = curr_stmt.get("qualifiers", {}) if curr_stmt else {}
        if not prev and not curr:
            return False

        def build(snaks):
            # dedup by canonical hash: duplicate values collapse
            m = {}
            for snak in snaks:
                snak = homogenize_snak(snak)
                h = self._snak_hash(snak)
                snak["hash"] = h
                m[h] = snak
            return m

        change_detected = False
        # snapshot order (never set order, which PYTHONHASHSEED salts)
        for pid in dict.fromkeys([*prev, *curr]):
            prev_map = build(prev.get(pid, []))
            curr_map = build(curr.get(pid, []))
            for h, snak in prev_map.items():
                if h in curr_map:
                    continue
                change_detected = True
                val, dtype, _ = parse_snak_datavalue(snak)
                self._save_qualifier_change(
                    id_to_int(stmt_pid), stmt_value_id, id_to_int(pid), h,
                    val, None, dtype, None, "", DELETE_QUALIFIER_VALUE)
            for h, snak in curr_map.items():
                if h in prev_map:
                    continue
                change_detected = True
                val, dtype, _ = parse_snak_datavalue(snak)
                self._save_qualifier_change(
                    id_to_int(stmt_pid), stmt_value_id, id_to_int(pid), h,
                    None, val, None, dtype, "", CREATE_QUALIFIER_VALUE)
        return change_detected

    # ----- reference differ (D10) -----
    def _handle_reference_changes(self, stmt_pid, stmt_value_id, prev_stmt, curr_stmt):
        prev_refs = prev_stmt.get("references", []) if prev_stmt else []
        curr_refs = curr_stmt.get("references", []) if curr_stmt else []
        if not prev_refs and not curr_refs:
            return False

        def build(refs):
            # key = (reference-level content hash, snak pid, snak value hash)
            m = {}
            for ref in refs:
                if not isinstance(ref.get("snaks"), dict):
                    continue
                ref_snaks = []
                for pid, snaks in ref["snaks"].items():
                    for snak in snaks:
                        snak = homogenize_snak(snak)
                        ref_snaks.append((pid, self._snak_hash(snak)))
                ref_content_hash = hashlib.sha1(
                    json.dumps(sorted(ref_snaks)).encode("utf-8")
                ).hexdigest()
                for pid, snaks in ref["snaks"].items():
                    for snak in snaks:
                        snak = homogenize_snak(snak)
                        h = self._snak_hash(snak)
                        snak["hash"] = h
                        m[(ref_content_hash, pid, h)] = snak
            return m

        prev_map = build(prev_refs)
        curr_map = build(curr_refs)
        change_detected = False
        for (ref_hash, pid, value_hash), snak in prev_map.items():
            if (ref_hash, pid, value_hash) in curr_map:
                continue
            change_detected = True
            val, dtype, _ = parse_snak_datavalue(snak)
            self._save_reference_change(
                id_to_int(stmt_pid), stmt_value_id, id_to_int(pid), ref_hash,
                value_hash, val, None, dtype, None, "", DELETE_REFERENCE_VALUE)
        for (ref_hash, pid, value_hash), snak in curr_map.items():
            if (ref_hash, pid, value_hash) in prev_map:
                continue
            change_detected = True
            val, dtype, _ = parse_snak_datavalue(snak)
            self._save_reference_change(
                id_to_int(stmt_pid), stmt_value_id, id_to_int(pid), ref_hash,
                value_hash, None, val, None, dtype, "", CREATE_REFERENCE_VALUE)
        return change_detected

    # ----- datatype-metadata differ (D11) -----
    def _handle_datatype_metadata_changes(self, old_md, new_md, value_id,
                                          old_datatype, new_datatype,
                                          property_id, change_type,
                                          old_hash=None, new_hash=None):
        def trim(key, v):
            # calendarmodel/unit URIs reduce to the trailing Q-id
            if key in ("calendarmodel", "unit") and v is not None:
                return v.split("/")[-1]
            return v

        def emit(key, old_meta, new_meta, to_value_change):
            # monolingualtext metadata (and any 'language' key on cross-datatype
            # updates) routes into value_change instead of datatype_metadata_change
            if to_value_change:
                self._save_change(
                    id_to_int(property_id), value_id, old_meta, new_meta,
                    old_datatype, new_datatype, key, change_type, old_hash, new_hash)
            else:
                self._save_datatype_metadata_change(
                    id_to_int(property_id), value_id, old_meta, new_meta,
                    old_datatype, new_datatype, key, change_type, old_hash, new_hash)

        if old_md and not new_md:  # deletion: expand every key
            for key in old_md.keys():
                emit(key, trim(key, old_md.get(key)), None,
                     old_datatype == "monolingualtext")
            return
        if new_md and not old_md:  # creation: expand every key
            for key in new_md.keys():
                emit(key, None, trim(key, new_md.get(key)),
                     new_datatype == "monolingualtext")
            return

        if old_datatype == new_datatype:
            # key-by-key diff over the OLD key set (a key present only in the
            # new snapshot is not reported — reference behavior)
            for key in (old_md or {}).keys():
                old_meta = trim(key, (old_md or {}).get(key))
                new_meta = trim(key, (new_md or {}).get(key))
                if old_meta != new_meta:
                    emit(key, old_meta, new_meta,
                         old_datatype == "monolingualtext")
        else:
            # cross-datatype update: pair keys positionally between the smaller
            # and larger key sets, remainder emitted one-sided
            old_keys = list((old_md or {}).keys())
            new_keys = list((new_md or {}).keys())
            if len(old_keys) > len(new_keys):
                big, small, big_old = old_keys, new_keys, True
            else:
                big, small, big_old = new_keys, old_keys, False
            skip = set()
            for key in small:
                if big_old:
                    new_meta = trim(key, (new_md or {}).get(key))
                    other = next((k for k in big if k not in skip), None)
                    old_meta = trim(other, (old_md or {}).get(other)) if other else None
                    if other is not None:
                        skip.add(other)
                else:
                    old_meta = trim(key, (old_md or {}).get(key))
                    other = next((k for k in big if k not in skip), None)
                    new_meta = trim(other, (new_md or {}).get(other)) if other else None
                    if other is not None:
                        skip.add(other)
                emit(key, old_meta, new_meta, key == "language")
            for key in [k for k in big if k not in skip]:
                if big_old:
                    emit(key, trim(key, (old_md or {}).get(key)), None,
                         key == "language")
                else:
                    emit(key, None, trim(key, (new_md or {}).get(key)),
                         key == "language")

    # ----- rank differ (D8) -----
    def _handle_rank_changes(self, prev_stmt, curr_stmt, pid, sid, old_hash,
                             new_hash, old_datatype, new_datatype):
        prev_rank = prev_stmt.get("rank") if prev_stmt else None
        curr_rank = curr_stmt.get("rank") if curr_stmt else None
        if not prev_stmt:
            self._save_change(id_to_int(pid), sid, None, curr_rank, old_datatype,
                              new_datatype, "rank", CREATE_PROPERTY_VALUE, None, new_hash)
            return True
        if not curr_stmt:
            self._save_change(id_to_int(pid), sid, prev_rank, None, old_datatype,
                              new_datatype, "rank", DELETE_PROPERTY_VALUE, old_hash, None)
            return True
        if prev_rank != curr_rank:
            self._save_change(id_to_int(pid), sid, prev_rank, curr_rank, old_datatype,
                              new_datatype, "rank", UPDATE_RANK, old_hash, new_hash)
            return True
        return False

    def _track_p31(self, pid, sid, old_value, new_value):
        """Keep `entity_data["p31_types"]`, the (statement id, value) pairs
        of the entity's P31 statements, current across one statement
        change. Only a string value (an item id) can match sa_types /
        ao_types, so no other value is recorded."""
        if pid != "P31":
            return
        types = self.entity_data["p31_types"]
        if isinstance(old_value, str):
            types.discard((sid, old_value))
        if isinstance(new_value, str):
            types.add((sid, new_value))

    # ----- full-create / full-delete expansion (D2, D3) -----
    def _changes_created_entity(self, revision):
        claims = safe_get_nested(revision, "claims")
        for property_id, stmts in claims.items():
            for stmt in stmts:
                value, datatype, _ = parse_statement_datavalue(stmt)
                # first-revision creates keep the upstream-provided snak hash
                new_hash = stmt["mainsnak"].get("hash", None) if stmt else None
                value_id = stmt.get("id", None)
                self._track_p31(property_id, value_id, None, value)
                self._save_change(id_to_int(property_id), value_id, None, value,
                                  None, datatype, None, CREATE_PROPERTY_VALUE,
                                  None, new_hash)
                self._handle_qualifier_changes(property_id, value_id, None, stmt)
                self._handle_reference_changes(property_id, value_id, None, stmt)
        self._label_description_expansion(revision, create=True)

    def _changes_cleaned_entity(self, previous_revision):
        claims = safe_get_nested(previous_revision, "claims")
        for property_id, stmts in claims.items():
            for stmt in stmts:
                stmt["mainsnak"] = homogenize_snak(stmt["mainsnak"])
                value, datatype, _ = parse_statement_datavalue(stmt)
                old_hash = self._stmt_hash(stmt.get("id"), stmt["mainsnak"]) if stmt else None
                value_id = stmt.get("id", None)
                self._track_p31(property_id, value_id, value, None)
                self._save_change(id_to_int(property_id), value_id, value, None,
                                  datatype, None, None, DELETE_PROPERTY_VALUE,
                                  old_hash, None)
                prev_rank = stmt.get("rank") if stmt else None
                self._save_change(id_to_int(property_id), value_id, prev_rank,
                                  None, datatype, None, "rank",
                                  DELETE_PROPERTY_VALUE, old_hash, None)
                self._handle_qualifier_changes(property_id, value_id, None, stmt)
                self._handle_reference_changes(property_id, value_id, None, stmt)
        self._label_description_expansion(previous_revision, create=False)

    def _label_description_expansion(self, revision, create: bool):
        lang = self.cfg.language
        labels = safe_get_nested(revision, "labels", lang, "value")
        descriptions = safe_get_nested(revision, "descriptions", lang, "value")
        for pid, val in ((LABEL_PROP_ID, labels), (DESCRIPTION_PROP_ID, descriptions)):
            if val:
                value_id = "label" if pid == LABEL_PROP_ID else "description"
                v = val if not isinstance(val, dict) else None
                if create:
                    self._save_change(pid, value_id, None, v, None, "string",
                                      None, CREATE_PROPERTY_VALUE, "", "")
                else:
                    self._save_change(pid, value_id, v, None, "string", None,
                                      None, DELETE_PROPERTY_VALUE, "", "")

    # ----- label/description diff (D4) -----
    @staticmethod
    def _label_change_type(old_value, new_value):
        if not old_value and new_value:
            return CREATE_PROPERTY_VALUE
        if old_value and not new_value:
            return DELETE_PROPERTY_VALUE
        if old_value and new_value and old_value != new_value:
            return UPDATE_PROPERTY_VALUE
        return None

    def _handle_description_label_change(self, previous_revision, current_revision):
        lang = self.cfg.language
        change_detected = False
        for field, pid, value_id in (
            ("labels", LABEL_PROP_ID, "label"),
            ("descriptions", DESCRIPTION_PROP_ID, "description"),
        ):
            prev = safe_get_nested(previous_revision, field, lang, "value") if previous_revision else None
            curr = safe_get_nested(current_revision, field, lang, "value")
            if curr != prev:
                change_detected = True
                old_value = prev if not isinstance(prev, dict) else None
                new_value = curr if not isinstance(curr, dict) else None
                self._save_change(
                    pid, value_id, old_value, new_value,
                    "string" if old_value is not None else None,
                    "string" if new_value is not None else None,
                    None, self._label_change_type(prev, curr), "", "")
        return change_detected

    # ----- new / removed / remaining P-ids (D5-D7) -----
    def _handle_new_pids(self, new_pids, curr_claims):
        for pid in new_pids:
            for s in curr_claims.get(pid, []):
                s["mainsnak"] = homogenize_snak(s["mainsnak"])
                new_value, new_datatype, new_md = parse_statement_datavalue(s)
                value_id = s.get("id", None)
                self._track_p31(pid, value_id, None, new_value)
                new_hash = self._stmt_hash(value_id, s["mainsnak"]) if s else None
                self._save_change(id_to_int(pid), value_id, None, new_value,
                                  None, new_datatype, None, CREATE_PROPERTY_VALUE,
                                  None, new_hash)
                if new_md and self.cfg.extract_datatype_metadata:
                    self._handle_datatype_metadata_changes(
                        None, new_md, value_id, None, new_datatype, pid,
                        CREATE_PROPERTY_VALUE, None, new_hash)
                curr_rank = s.get("rank") if s else None
                self._save_change(id_to_int(pid), value_id, None, curr_rank,
                                  None, new_datatype, "rank",
                                  CREATE_PROPERTY_VALUE, None, new_hash)
                self._handle_qualifier_changes(pid, value_id, None, s)
                self._handle_reference_changes(pid, value_id, None, s)

    def _handle_removed_pids(self, removed_pids, prev_claims):
        for pid in removed_pids:
            for s in prev_claims.get(pid, []):
                s["mainsnak"] = homogenize_snak(s["mainsnak"])
                old_value, old_datatype, old_md = parse_statement_datavalue(s)
                value_id = s.get("id", None)
                self._track_p31(pid, value_id, old_value, None)
                old_hash = self._stmt_hash(value_id, s["mainsnak"]) if s else None
                self._save_change(id_to_int(pid), value_id, old_value, None,
                                  old_datatype, None, None, DELETE_PROPERTY_VALUE,
                                  old_hash, None)
                if old_md and self.cfg.extract_datatype_metadata:
                    self._handle_datatype_metadata_changes(
                        old_md, {}, value_id, old_datatype, None, pid,
                        DELETE_PROPERTY_VALUE, old_hash, None)
                prev_rank = s.get("rank") if s else None
                self._save_change(id_to_int(pid), value_id, prev_rank, None,
                                  old_datatype, None, "rank",
                                  DELETE_PROPERTY_VALUE, old_hash, None)
                self._handle_qualifier_changes(pid, value_id, s, None)
                self._handle_reference_changes(pid, value_id, s, None)

    def _unchanged_stmts(self, pid, prev_stmts, curr_stmts):
        """The statements of property `pid` that are byte-identical to their
        raw form in the previous stored revision. Such a statement yields no
        row, so the diff skips its homogenize, hash, rank, qualifier and
        reference work. Returns True when the whole list is byte-identical
        (same statements, same order: the property is skipped with no
        per-statement work), else the set of unchanged statement ids.
        Records curr_stmts' raw bytes for the next revision, so call it
        before homogenize_snak rewrites them.

        The cached bytes count only if they were taken from the very list
        that is now prev_stmts: a no-change revision does not advance
        previous_revision. Bytes, not ==, because 1 == 1.0 == True hides
        changes the value hash sees. Callers pass only statements of an
        `exact` snapshot (values.load_json), whose bytes are injective. A
        list or statement that orjson cannot serialize is never skipped."""
        cached = self._raw_pids.get(pid)
        prev_raw, prev_by_id = None, {}
        if cached is not None and cached[0] is prev_stmts:
            _, prev_raw, prev_by_id = cached
        curr_raw = _raw_bytes(curr_stmts)
        if curr_raw is not None and curr_raw == prev_raw:
            self._raw_pids[pid] = (curr_stmts, curr_raw, prev_by_id)
            return True
        curr_by_id = {}
        for stmt in curr_stmts:
            raw = _raw_bytes(stmt)
            if raw is None:
                curr_by_id.pop(stmt["id"], None)
            else:
                curr_by_id[stmt["id"]] = raw
        self._raw_pids[pid] = (curr_stmts, curr_raw, curr_by_id)
        return {sid for sid, raw in curr_by_id.items()
                if prev_by_id.get(sid) == raw}

    def _handle_remaining_pids(self, remaining_pids, prev_claims, curr_claims):
        """Diff the properties present in both revisions, statement by
        statement, matched by statement id. In an `exact` snapshot a
        property or statement that is byte-identical to the previous stored
        revision is skipped first (_unchanged_stmts)."""
        change_detected = False
        exact = self._snapshot_exact
        unchanged = ()
        for pid in remaining_pids:
            prev_stmts = prev_claims[pid]
            curr_stmts = curr_claims[pid]
            if exact:
                unchanged = self._unchanged_stmts(pid, prev_stmts, curr_stmts)
                if unchanged is True:
                    continue
            prev_by_id = {stmt["id"]: stmt for stmt in prev_stmts}
            curr_by_id = {stmt["id"]: stmt for stmt in curr_stmts}
            for sid in dict.fromkeys([*prev_by_id, *curr_by_id]):
                if sid in unchanged:
                    continue
                prev_stmt = prev_by_id.get(sid)
                curr_stmt = curr_by_id.get(sid)
                old_hash = new_hash = None
                if prev_stmt:
                    prev_stmt["mainsnak"] = homogenize_snak(prev_stmt["mainsnak"])
                    old_hash = self._stmt_hash(sid, prev_stmt["mainsnak"])
                if curr_stmt:
                    curr_stmt["mainsnak"] = homogenize_snak(curr_stmt["mainsnak"])
                    new_hash = self._stmt_hash(sid, curr_stmt["mainsnak"])
                # datavalues parse lazily per branch: for an unchanged
                # statement (hashes equal — the overwhelmingly common case in
                # a full-snapshot revision) no value parsing happens at all
                old_value = old_datatype = old_md = None
                new_value = new_datatype = new_md = None
                if prev_stmt and not curr_stmt:
                    old_value, old_datatype, old_md = parse_statement_datavalue(prev_stmt)
                    new_value, new_datatype, new_md = None, None, None
                    change_detected = True
                    self._track_p31(pid, sid, old_value, None)
                    self._save_change(id_to_int(pid), sid, old_value, new_value,
                                      old_datatype, new_datatype, None,
                                      DELETE_PROPERTY_VALUE, old_hash, new_hash)
                    if old_md and self.cfg.extract_datatype_metadata:
                        self._handle_datatype_metadata_changes(
                            old_md, new_md, sid, old_datatype, old_datatype, pid,
                            DELETE_PROPERTY_VALUE, old_hash, new_hash)
                elif curr_stmt and not prev_stmt:
                    new_value, new_datatype, new_md = parse_statement_datavalue(curr_stmt)
                    old_value, old_datatype, old_md = None, None, None
                    change_detected = True
                    self._track_p31(pid, sid, None, new_value)
                    self._save_change(id_to_int(pid), sid, old_value, new_value,
                                      old_datatype, new_datatype, None,
                                      CREATE_PROPERTY_VALUE, old_hash, new_hash)
                    if new_md and self.cfg.extract_datatype_metadata:
                        self._handle_datatype_metadata_changes(
                            old_md, new_md, sid, None, new_datatype, pid,
                            CREATE_PROPERTY_VALUE, old_hash, new_hash)
                elif prev_stmt and curr_stmt and old_hash != new_hash:
                    new_value, new_datatype, new_md = parse_statement_datavalue(curr_stmt)
                    old_value, old_datatype, old_md = parse_statement_datavalue(prev_stmt)
                    change_detected = True
                    if (old_datatype != new_datatype) or (old_value != new_value):
                        if new_datatype == "time":
                            # suppress representation-only (+0000YYYY) diffs
                            oc = _TIME_PAD_RE.sub(r"\1", old_value)
                            nc = _TIME_PAD_RE.sub(r"\1", new_value)
                            if oc != nc:
                                self._save_change(
                                    id_to_int(pid), sid, oc, nc, old_datatype,
                                    new_datatype, None, UPDATE_PROPERTY_VALUE,
                                    old_hash, new_hash)
                        else:
                            self._save_change(
                                id_to_int(pid), sid, old_value, new_value,
                                old_datatype, new_datatype, None,
                                UPDATE_PROPERTY_VALUE, old_hash, new_hash)
                        self._track_p31(pid, sid, old_value, new_value)
                    if ((old_datatype != new_datatype or old_md != new_md)
                            and self.cfg.extract_datatype_metadata):
                        self._handle_datatype_metadata_changes(
                            old_md, new_md, sid, old_datatype, new_datatype, pid,
                            UPDATE_PROPERTY_DATATYPE_METADATA, old_hash, new_hash)

                if (prev_stmt and curr_stmt and old_datatype is None
                        and prev_stmt.get("rank") != curr_stmt.get("rank")):
                    # unchanged value but changed rank: the rank row carries
                    # the datatypes, so parse them now
                    _, old_datatype, _ = parse_statement_datavalue(prev_stmt)
                    _, new_datatype, _ = parse_statement_datavalue(curr_stmt)
                rank_changed = self._handle_rank_changes(
                    prev_stmt, curr_stmt, pid, sid, old_hash, new_hash,
                    old_datatype, new_datatype)
                qual_changed = self._handle_qualifier_changes(pid, sid, prev_stmt, curr_stmt)
                ref_changed = self._handle_reference_changes(pid, sid, prev_stmt, curr_stmt)
                change_detected = change_detected or rank_changed or qual_changed or ref_changed
        return change_detected

    # ----- top-level dispatch (D1) -----
    def _get_changes_from_revisions(self, current_revision, previous_revision):
        if previous_revision is None:
            self._changes_created_entity(current_revision)
            return True
        if "redirect" in current_revision:
            self.current_revision_redirect = True
            return True
        curr_label = safe_get_nested(current_revision, "labels")
        curr_desc = safe_get_nested(current_revision, "descriptions")
        curr_claims = safe_get_nested(current_revision, "claims")
        if not curr_claims and not curr_label and not curr_desc:
            curr_aliases = safe_get_nested(current_revision, "aliases")
            curr_sitelinks = safe_get_nested(current_revision, "sitelinks")
            if curr_aliases or curr_sitelinks:
                return False  # alias/sitelink-only revision: skip entirely
            # fully-empty snapshot: the entity was cleaned (merge)
            self._changes_cleaned_entity(previous_revision)
            return True

        change_detected = self._handle_description_label_change(previous_revision, current_revision)
        prev_claims = safe_get_nested(previous_revision, "claims")
        # property ids in snapshot order, so the row order is deterministic
        new_pids = [p for p in curr_claims if p not in prev_claims]
        if new_pids:
            change_detected = True
            self._handle_new_pids(new_pids, curr_claims)
        removed_pids = [p for p in prev_claims if p not in curr_claims]
        if removed_pids:
            change_detected = True
            self._handle_removed_pids(removed_pids, prev_claims)
        remaining = [p for p in prev_claims if p in curr_claims]
        if remaining:
            change_detected = self._handle_remaining_pids(remaining, prev_claims, curr_claims) or change_detected
        return change_detected

    # ----- the revision walk over a document's spans -----
    def process_doc(self, doc_id: str, spans, file_path: str = "") -> dict:
        """Diff a document's ordered revision spans into change-table rows.

        `spans`: iterable of dicts with keys kind/text/media_ref/offset, in any
        order (sorted by offset here). kind='text' spans carry the revision
        envelope JSON; kind='media' spans are preserved in the doc_spans lineage
        output and skipped by the differ. A text span whose envelope is not
        JSON, not an object, has no usable revision_id, has a username,
        timestamp, comment or text that is neither null nor a string, or
        whose snapshot is a JSON scalar is a poison span: it is skipped and
        does not advance the previous revision.

        Returns {table_name: [row tuples]} plus routing flags.
        """
        entity_id = id_to_int(doc_id)
        self._reset(entity_id, file_path)

        spans = sorted(spans, key=lambda s: s["offset"])
        self.doc_spans = []
        for idx, span in enumerate(spans):
            text = span.get("text") or ""
            self.doc_spans.append((
                doc_id, entity_id, idx, span.get("kind") or "",
                span.get("offset"), span.get("media_ref") or "",
                hashlib.sha1(text.encode("utf-8")).hexdigest() if text else "",
            ))

        previous_revision = None
        last_non_deleted_revision_id = -1

        for span in spans:
            if (span.get("kind") or "") != "text":
                continue
            try:
                envelope, exact = load_envelope(span["text"])
            except (json.JSONDecodeError, TypeError):
                continue  # malformed envelope: poison span, skip
            if not isinstance(envelope, dict):
                continue  # not an object: poison span, skip
            if envelope.get("deleted", False):
                # deleted revision: skipped; prev-pointer repair is implicit
                # because we track last_non_deleted_revision_id
                continue
            try:
                revision_id = int(envelope["revision_id"])
            except (KeyError, TypeError, ValueError, OverflowError):
                continue  # no usable revision id: poison span, skip
            username, timestamp, comment, raw_text = (
                envelope.get(k) for k in ("username", "timestamp", "comment",
                                          "text"))
            if not all(v is None or isinstance(v, str)
                       for v in (username, timestamp, comment, raw_text)):
                continue  # a field neither null nor a string: poison span, skip
            username = (username or "").strip()
            if raw_text is None and "entity" in envelope:
                # fast-path envelopes may carry the parsed snapshot directly
                current_revision = envelope["entity"]
            else:
                t_parse = time.perf_counter()
                current_revision, exact = load_json(raw_text, clean=True)
                self.stats["total_xml_parse_time_sec"] += time.perf_counter() - t_parse
            if isinstance(current_revision, (str, int, float)):
                continue  # a snapshot that is a JSON scalar: poison span, skip

            self.rev_meta = {
                "entity_id": entity_id,
                "revision_id": revision_id,
                "timestamp": (timestamp or "").strip(),
                "comment": (comment or "").strip(),
                "username": username,
                "user_id": str(envelope.get("user_id") or "").strip(),
                "user_type": classify_user(username),
                "file_path": file_path,
            }

            if current_revision is None:
                change = False  # JSON recovery failed: revision skipped,
                # previous_revision NOT advanced
            else:
                curr_label, curr_alias, curr_desc = self._get_label_alias_description(current_revision) \
                    if isinstance(current_revision, dict) else ("", "", "")
                if curr_label and self.entity_data["label"] != curr_label:
                    self.entity_data["label"] = curr_label
                if curr_desc and self.entity_data["description"] != curr_desc:
                    self.entity_data["description"] = curr_desc
                if curr_alias and self.entity_data["alias"] != curr_alias:
                    self.entity_data["alias"] = curr_alias
                self._snapshot_exact = exact
                t_diff = time.perf_counter()
                change = self._get_changes_from_revisions(current_revision, previous_revision)
                self.stats["total_revision_diff_time_sec"] += time.perf_counter() - t_diff
                self.stats["num_revisions_timed"] += 1

            if change:
                meta = self.rev_meta
                week, year_month, year = _time_buckets(meta["timestamp"])
                redirect_qid = None
                if self.current_revision_redirect and isinstance(current_revision, dict):
                    redirect_qid = id_to_int(current_revision.get("redirect", "Q-1"))
                self.revisions.append((
                    last_non_deleted_revision_id, revision_id, entity_id,
                    meta["timestamp"], week, year_month, year, meta["user_id"],
                    meta["username"], meta["user_type"], meta["comment"],
                    file_path, self.current_revision_redirect, redirect_qid,
                ))
                ut = meta["user_type"]
                if ut == "bot":
                    self.stats["num_bot_edits"] += 1
                elif ut == "anonymous":
                    self.stats["num_anonymous_edits"] += 1
                else:
                    self.stats["num_human_edits"] += 1
                self.current_revision_redirect = False
                last_non_deleted_revision_id = revision_id
                if current_revision is not None:
                    previous_revision = current_revision

        return self._finalize()

    # ----- finalize: revert tagging, label append, routing, stats -----
    def _finalize(self) -> dict:
        self.changes, revert_stats = tag_reverted_edits(
            self.changes_by_pv, self.changes,
            self.cfg.revert_time_threshold_seconds)
        self.stats.update(revert_stats)

        entity_label = self.entity_data["label"]
        self.revisions = [r + (entity_label,) for r in self.revisions]
        self.changes = [c + (entity_label,) for c in self.changes]
        self.reference_changes = [c + (entity_label,) for c in self.reference_changes]
        self.qualifier_changes = [c + (entity_label,) for c in self.qualifier_changes]
        if self.cfg.extract_datatype_metadata:
            self.datatype_metadata_changes = [
                c + (entity_label,) for c in self.datatype_metadata_changes]
        if self.cfg.extract_features:
            self.entity_features = [
                f + (entity_label, 0.0, 0.0, "") for f in self.entity_features]
            self.text_features = [
                f + (entity_label, 0.0, "") for f in self.text_features]
            self.time_features = [
                f + (entity_label, "") for f in self.time_features]
            self.globecoordinate_features = [
                f + (entity_label, "", "") for f in self.globecoordinate_features]
            self.quantity_features = [
                f + (entity_label, "") for f in self.quantity_features]

        types_31 = list({type_id for _vid, type_id in self.entity_data["p31_types"]})

        is_sa = False
        if self.cfg.extract_scholarly_articles:
            is_sa = any(t in self.sa_types for t in types_31)
        is_ao = False
        if self.cfg.extract_astronomical_objects:
            is_ao = any(t in self.ao_types for t in types_31)
        has_less = False
        if self.cfg.extract_less and not is_sa and not is_ao:
            has_less = self.stats["num_value_changes"] <= self.cfg.less_changes_threshold

        s = self.stats
        s["num_revisions"] = len(self.revisions)
        s["num_qualifier_changes"] = len(self.qualifier_changes)
        s["num_reference_changes"] = len(self.reference_changes)
        s["entity_label"] = entity_label if entity_label else self.entity_data["alias"]
        s["entity_types_31"] = ", ".join(sorted(t for t in types_31 if t is not None))
        s["first_revision_timestamp"] = self.revisions[0][3] if self.revisions else None
        s["last_revision_timestamp"] = self.revisions[-1][3] if self.revisions else None
        s["file_path"] = self.file_path
        s["total_process_time_sec"] = time.perf_counter() - self._t_doc_start
        for c in ("total_xml_parse_time_sec", "total_process_time_sec",
                  "total_revision_diff_time_sec", "total_feature_creation_sec"):
            s[c] = round(s[c], 6)

        from .constants import ENTITY_STATS_COLS

        return {
            "revision": self.revisions,
            "value_change": self.changes,
            "qualifier_change": self.qualifier_changes,
            "reference_change": self.reference_changes,
            "datatype_metadata_change": (
                self.datatype_metadata_changes if self.cfg.extract_datatype_metadata else []),
            "features_entity": self.entity_features if self.cfg.extract_features else [],
            "features_text": self.text_features if self.cfg.extract_features else [],
            "features_time": self.time_features if self.cfg.extract_features else [],
            "features_globecoordinate": (
                self.globecoordinate_features if self.cfg.extract_features else []),
            "features_quantity": self.quantity_features if self.cfg.extract_features else [],
            "entity_stats": [tuple(s.get(col) for col in ENTITY_STATS_COLS)],
            "doc_spans": self.doc_spans,
            "is_scholarly_article": is_sa,
            "is_astronomical_object": is_ao,
            "has_less_revisions": has_less,
        }
