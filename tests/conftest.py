"""Session-scoped Ray fixture: one ray.init per pytest session."""
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, log_to_driver=False)
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session")
def small_corpus():
    """(docs_table, expectations) — 120 random-script docs, fixed seed."""
    from wikidata_edit_history_ray.sources.corpus import make_corpus

    return make_corpus(120, seed=42)


@pytest.fixture(scope="session")
def corpus_parquet(tmp_path_factory, small_corpus):
    import pyarrow.parquet as pq

    path = tmp_path_factory.mktemp("corpus") / "docs.parquet"
    pq.write_table(small_corpus[0], str(path), row_group_size=20)
    return str(path)


@pytest.fixture
def ray_data_log(ray_session):
    """Records (INFO and up) the `ray.data` logger emits during the test,
    with 'Starting execution of Dataset' announced for every execution."""
    import logging

    import ray.data

    class _Collect(logging.Handler):
        def emit(self, record):
            records.append(record)

    records = []
    handler = _Collect(logging.INFO)
    logger = logging.getLogger("ray.data")
    ctx = ray.data.DataContext.get_current()
    level, announce = logger.level, ctx.print_on_execution_start
    logger.setLevel(logging.INFO)
    ctx.print_on_execution_start = True
    logger.addHandler(handler)
    try:
        yield records
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
        ctx.print_on_execution_start = announce


@pytest.fixture
def reduce_buckets(ray_session, monkeypatch):
    """Sets the bucket count of `materialize_graph` and `dedup_changes`: a
    call makes one bucket per `TARGET_PARTITION_BYTES` of its partials'
    bytes, so `reduce_buckets(n)` has every materialized Dataset report
    `n` byte targets. One byte target cannot set the count by itself: the
    graph replay's partials and the dedup's differ in bytes for one input,
    and an empty input has none."""
    from ray.data.dataset import MaterializedDataset

    from wikidata_edit_history_ray.stages import extract

    def set_buckets(n: int):
        monkeypatch.setattr(MaterializedDataset, "size_bytes",
                            lambda self: n * extract.TARGET_PARTITION_BYTES)
    return set_buckets
