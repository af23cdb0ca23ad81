"""Differential oracle for the differ's byte-identical skips.

In an `exact` snapshot the differ skips a property whose statement list is
byte-identical to its previous form, and within a changed property each
byte-identical statement. Forcing `exact` to False disables both skips, so
the differ then diffs every statement of every revision. Over random
histories in the style of both benchmark workloads (short random scripts, and
wide entities edited one statement at a time, with the edits that stress the
skip mixed in), every table must come out the same, row for row and in the
same order, and no history may send its entity to `errors`.
"""
import contextlib
import random
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wikidata_edit_history_ray.core import differ
from wikidata_edit_history_ray.core.constants import ENTITY_STATS_COLS
from wikidata_edit_history_ray.core.differ import DiffConfig, PageDiffer
from wikidata_edit_history_ray.sources import corpus


def _long_tail(rng):
    return corpus.build_doc("Q77", rng, n_revisions=rng.randint(2, 12))


def _reverse_keys(d):
    if isinstance(d, dict):
        return {k: _reverse_keys(d[k]) for k in reversed(list(d))}
    if isinstance(d, list):
        return [_reverse_keys(x) for x in d]
    return d


def _hot(rng, escape):
    """A wide entity edited one statement at a time, with the edits that
    stress the skip: no-change revisions, statements reordered within a
    property, moved to another property under the same id, re-serialized
    with other key order, and amounts flipped between 1, 1.0, "+1", "1" and
    true."""
    sim = corpus.EntitySim("Q78", rng, rev_base=78000)
    kw = {"escape": escape}
    sim.op_create_entity(type_qids=[rng.choice(corpus.OTHER_TYPES)],
                         n_statements=rng.randint(4, 30), label="Hot",
                         desc="hot", **kw)

    def reorder():
        pid = rng.choice(list(sim.claims))
        rng.shuffle(sim.claims[pid])
        sim.snapshot_revision(**kw)

    def move():
        pid, stmt = sim._pick_statement()
        if stmt is None:
            return
        sim.claims[pid].remove(stmt)
        if not sim.claims[pid]:
            del sim.claims[pid]
        targets = list(sim.claims) + ["P300"]
        sim.claims.setdefault(rng.choice(targets), []).append(stmt)
        sim.snapshot_revision(**kw)

    def rekey():
        pid, stmt = sim._pick_statement()
        if stmt is None:
            return
        i = sim.claims[pid].index(stmt)
        sim.claims[pid][i] = _reverse_keys(stmt)
        sim.snapshot_revision(**kw)

    def flip_number():
        pid, stmt = sim._pick_statement()
        if stmt is None:
            return
        stmt["mainsnak"]["datavalue"] = {
            "value": {"amount": rng.choice([1, 1.0, "+1", "1", True]),
                      "unit": "1"},
            "type": "quantity"}
        sim.snapshot_revision(**kw)

    ops = [
        (6, lambda: sim.op_update_value(**kw)),
        (2, lambda: sim.op_add_statement(with_qualifier=rng.random() < 0.3,
                                         with_reference=rng.random() < 0.3,
                                         **kw)),
        (2, lambda: sim.op_add_qualifier(**kw)),
        (1, lambda: sim.op_rank_change(**kw)),
        (1, lambda: sim.op_delete_statement(**kw)),
        (1, lambda: sim.op_remove_qualifier(**kw)),
        (1, lambda: sim.op_add_reference(**kw)),
        (1, lambda: sim.op_label_change(f"Hot v{rng.randint(2, 9)}", **kw)),
        (1, lambda: sim.op_alias_only_revision(**kw)),
        (1, lambda: sim.op_deleted_revision()),
        (1, lambda: sim.op_malformed_revision()),
        (2, lambda: sim.snapshot_revision(**kw)),  # no change
        (1, reorder),
        (1, move),
        (1, rekey),
        (1, flip_number),
    ]
    weights = [w for w, _ in ops]
    fns = [f for _, f in ops]
    for _ in range(rng.randint(1, 25)):
        rng.choices(fns, weights=weights, k=1)[0]()
    return sim


def _tables(out):
    tables = {k: v for k, v in out.items() if isinstance(v, list)}
    tables["entity_stats"] = [  # the per-entity timers vary run to run
        tuple(v for c, v in zip(ENTITY_STATS_COLS, r)
              if not (c.startswith("total_") and c.endswith("_sec")))
        for r in out["entity_stats"]]
    flags = {k: v for k, v in out.items() if not isinstance(v, list)}
    return tables, flags


def _inexact(load):
    def wrapped(*args, **kwargs):
        return load(*args, **kwargs)[0], False
    return wrapped


def _diff(sim, skip: bool):
    """The differ's tables and routing flags, or the exception it raised."""
    differ_ = PageDiffer(DiffConfig(), scholarly_article_types=set(corpus.SA_TYPES),
                         astronomical_object_types=set(corpus.AO_TYPES))
    with contextlib.ExitStack() as stack:
        if not skip:
            for name in ("load_json", "load_envelope"):
                stack.enter_context(mock.patch.object(
                    differ, name, _inexact(getattr(differ, name))))
        try:
            return _tables(differ_.process_doc(sim.qid, sim.spans))
        except Exception as e:  # extraction routes it to the errors table
            return f"{type(e).__name__}: {e}"


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), style=st.sampled_from(["long_tail", "hot"]),
       escape=st.booleans())
def test_skip_changes_no_row(seed, style, escape):
    rng = random.Random(seed)
    sim = _long_tail(rng) if style == "long_tail" else _hot(rng, escape)
    with_skip = _diff(sim, skip=True)
    assert with_skip == _diff(sim, skip=False)
    assert not isinstance(with_skip, str), with_skip
    assert len(with_skip[0]) == 12


def test_oracle_histories_skip(monkeypatch):
    """The hot histories above do reach both skips, so the oracle compares
    two different code paths."""
    whole = partial = 0
    unchanged_stmts = PageDiffer._unchanged_stmts

    def spy(self, pid, prev_stmts, curr_stmts):
        nonlocal whole, partial
        hit = unchanged_stmts(self, pid, prev_stmts, curr_stmts)
        if hit is True:
            whole += 1
        else:
            partial += len(hit)
        return hit

    monkeypatch.setattr(PageDiffer, "_unchanged_stmts", spy)
    for seed in range(5):
        _diff(_hot(random.Random(seed), escape=seed % 2 == 1), skip=True)
    assert whole > 0 and partial > 0
