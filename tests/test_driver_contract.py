"""In-repo replica of the driver's side-by-side comparison: run EVERY
queries() entry and its oracle_sql() through DuckDB at sf0.001 and require
exact (rows, schema, values) matches — the same gate CORRECTNESS_r{N}.json
applies at sf0.01. SUBSET enumerates queries() dynamically so a new query
can never ship driver-unverified.
"""
import os

import duckdb
import pandas as pd
import pytest

# sf0.001 keeps the 66-query sweep short in the suite; point
# GRAFT_CONTRACT_SF at another tier (e.g. sf0.01) to run the same sweep there
SF = os.environ.get("GRAFT_CONTRACT_SF", "/root/testdata/sf0.001")


def _all_query_names():
    import __ray_entry__ as E

    return sorted(E.queries())


SUBSET = _all_query_names()


@pytest.fixture(scope="module")
def contract():
    import __ray_entry__ as E

    return E.queries(), E.oracle_sql(sf_dir=SF)


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"):
        c.execute(f"CREATE VIEW {t} AS SELECT * "
                  f"FROM read_parquet('{SF}/{t}.parquet')")
    return c


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="mergesort") \
        .reset_index(drop=True)


def _to_df(res) -> pd.DataFrame:
    if isinstance(res, pd.DataFrame):
        return res
    return res.to_pandas()


@pytest.mark.parametrize("name", SUBSET)
def test_query_matches_oracle(ray_session, contract, con, name):
    queries, oracles = contract
    got = _canon(_to_df(queries[name](SF)))
    exp = _canon(con.execute(oracles[name]).df())
    assert list(got.columns) == list(exp.columns)
    assert len(got) == len(exp) > 0 or name == "kg_errors"
    pd.testing.assert_frame_equal(got.astype(str), exp.astype(str))


def test_every_query_has_oracle(contract):
    queries, oracles = contract
    assert set(queries) == set(oracles)
