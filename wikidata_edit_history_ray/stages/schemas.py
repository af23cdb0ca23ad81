"""Arrow schemas for every logical output table.

Named, typed schemas replace the reference's position-indexed tuples +
SQL DDL (scripts/const.py:113-446, sql/*.sql). Each change table additionally
carries `doc_id` (the partitioning/lineage key) and the three routing flags
that replace the reference's table suffixes ''/_sa/_ao/_less
(scripts/db_writer.py:146-156).
"""
from __future__ import annotations

import pyarrow as pa

from ..core.constants import TABLE_COLS

# per-column type overrides; anything not listed is pa.string()
_TYPE_OVERRIDES = {
    "revision_id": pa.int64(),
    "prev_revision_id": pa.int64(),
    "entity_id": pa.int64(),
    "property_id": pa.int32(),
    "qual_property_id": pa.int32(),
    "ref_property_id": pa.int32(),
    "redirect": pa.bool_(),
    "q_id_redirect": pa.int64(),
    "is_reverted": pa.int8(),
    "reversion": pa.int8(),
    "revision_id_reversion": pa.int64(),
    "span_index": pa.int32(),
    "offset": pa.int32(),
    # entity stats counters
    **{c: pa.int64() for c in (
        "num_revisions", "num_value_changes", "num_value_change_creates",
        "num_value_change_deletes", "num_value_change_updates",
        "num_rank_changes", "num_rank_creates", "num_rank_deletes",
        "num_rank_updates", "num_qualifier_changes", "num_reference_changes",
        "num_datatype_metadata_changes", "num_datatype_metadata_creates",
        "num_datatype_metadata_deletes", "num_datatype_metadata_updates",
        "num_bot_edits", "num_anonymous_edits", "num_human_edits",
        "num_reverted_edits", "num_reversions", "num_reverted_edits_create",
        "num_reverted_edits_delete", "num_reverted_edits_update",
        "num_revisions_timed", "num_feature_creations_timed",
    )},
    **{c: pa.float64() for c in (
        "total_xml_parse_time_sec", "total_process_time_sec",
        "total_revision_diff_time_sec", "total_feature_creation_sec",
    )},
    # feature columns
    **{c: pa.float64() for c in (
        "token_overlap", "edit_distance_ratio", "value_cosine_similarity",
        "label_cosine_similarity", "description_cosine_similarity",
    )},
    **{c: pa.int64() for c in (
        "old_in_new", "new_in_old", "complete_replacement", "length_diff_abs",
        "token_count_old", "token_count_new", "levenshtein_distance",
        "same_value_without_special_char", "special_char_count_diff",
        "char_insertions", "char_deletions", "char_substitutions",
        "adjacent_char_swap", "has_significant_prefix", "has_significant_suffix",
        "date_diff_days", "sign_change", "change_one_to_zero", "day_added",
        "day_removed", "month_added", "month_removed", "different_year",
        "different_day", "different_month", "precision_change",
        "length_increase", "length_decrease", "whole_number_change",
        "old_is_prefix_of_new", "new_is_prefix_of_old", "same_float_value",
        "latitude_sign_change", "longitude_sign_change",
        "latitude_whole_number_change", "longitude_whole_number_change",
        "latitude_precision_change", "longitude_precision_change",
        "latitude_length_increase", "latitude_length_decrease",
        "longitude_length_increase", "longitude_length_decrease",
        "latitude_old_is_prefix_of_new", "latitude_new_is_prefix_of_old",
        "latitude_same_float_value", "longitude_old_is_prefix_of_new",
        "longitude_new_is_prefix_of_old", "longitude_same_float_value",
        "is_link_change", "old_value_subclass_new_value",
        "new_value_subclass_old_value", "old_value_located_in_new_value",
        "new_value_located_in_old_value", "old_value_has_parts_new_value",
        "new_value_has_parts_old_value", "old_value_part_of_new_value",
        "new_value_part_of_old_value",
    )},
}

ROUTING_COLS = [
    ("doc_id", pa.string()),
    ("is_scholarly_article", pa.bool_()),
    ("is_astronomical_object", pa.bool_()),
    ("has_less_revisions", pa.bool_()),
]


def _schema_for(table: str) -> pa.Schema:
    fields = [(c, _TYPE_OVERRIDES.get(c, pa.string())) for c in TABLE_COLS[table]]
    if table == "doc_spans":
        return pa.schema(fields)
    return pa.schema(fields + ROUTING_COLS)


TABLE_SCHEMAS = {t: _schema_for(t) for t in TABLE_COLS}

ERRORS_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("error", pa.string()),
])

MANIFEST_SCHEMA = pa.schema([
    ("partition_id", pa.string()),
    ("input_fingerprint", pa.string()),
    ("num_docs", pa.int64()),
    ("num_spans", pa.int64()),
    ("rows_per_table", pa.string()),  # JSON {table: count}
    ("extract_seconds", pa.float64()),
    ("write_seconds", pa.float64()),
    ("resumed", pa.bool_()),
    ("run_key", pa.string()),  # stages.extract.run_key of the producing run
])
