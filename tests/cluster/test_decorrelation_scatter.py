"""Scatter-path parity for the rewrite-rule fixtures.

The coordinator applies only the *ast-safe* rules (constant folding,
predicate split, filter pushdown) before unparsing segments for the
shards; physical rules — decorrelation, materialization, index selection,
hash joins — fire shard-locally.  These tests prove the split is sound:
correlated-subquery and shared-LET statements answered by a sharded
cluster return exactly the rows the embedded engine returns on the same
data, and the shard-local plans really do decorrelate — and, inside
subquery bodies, probe indexes (UniBench Q4: products and feedback are
co-partitioned on the product number, so each shard answers its
products' correlated ``LET praise`` from its own feedback index).
"""

import json

import pytest

from repro import MultiModelDB
from repro.cluster import start_cluster
from repro.query.optimizer import optimize
from repro.query.parser import parse
from repro.query.unparse import unparse
from repro.unibench.generator import generate, load_into_multimodel
from repro.unibench.workloads import QUERIES_B

#: orders is hash-partitioned on customer_id, customers on id — the
#: correlated subquery is aligned with the enclosing partition value, so
#: the coordinator scatters it and every shard decorrelates locally.
SEMI_INLINE = """
FOR c IN customers
  FILTER LENGTH(FOR o IN orders
                  FILTER o.customer_id == c.id RETURN o) > 0
  RETURN c.id
"""

ANTI_LET = """
FOR c IN customers
  LET mine = (FOR o IN orders FILTER o.customer_id == c.id RETURN o)
  FILTER LENGTH(mine) == 0
  RETURN c.id
"""

#: Mixed-variable conjunction over an aligned join: predicate_split +
#: pushdown happen on the coordinator (ast-safe), the join on the shards.
SPLIT_JOIN = """
FOR c IN customers
  FOR o IN orders
    FILTER o.customer_id == c.id AND c.city == @city
    RETURN {order: o.Order_no, total: o.total}
"""


Q4_TEXT, Q4_BINDS = QUERIES_B["Q4"]

#: An uncorrelated LET inside a correlated one: two nesting levels for
#: the coordinator's ast-safe pass to rewrite (split, pushdown, folding).
NESTED_LET = """
FOR c IN customers
  LET mine = (FOR o IN orders
                FILTER o.customer_id == c.id AND o.total > 2 * 50
                LET pricey = (FOR p IN products
                                FILTER p.price > 10 + 40 AND p.category == 'Book'
                                RETURN p.product_no)
                RETURN {order: o.Order_no, n: LENGTH(pricey)})
  RETURN {id: c.id, mine}
"""


def _canon(rows):
    return sorted(
        json.dumps(row, sort_keys=True, default=str) for row in rows
    )


@pytest.fixture(scope="module")
def data():
    return generate(scale_factor=1, seed=11)


@pytest.fixture(scope="module")
def embedded(data):
    db = MultiModelDB()
    load_into_multimodel(db, data)
    return db


@pytest.fixture(scope="module", params=[1, 3], ids=["1shard", "3shards"])
def cluster(request, data):
    with start_cluster(num_shards=request.param, data=data) as handle:
        with handle.client() as client:
            yield client


@pytest.mark.parametrize(
    "text,binds",
    [
        (SEMI_INLINE, {}),
        (ANTI_LET, {}),
        (SPLIT_JOIN, {"city": "Prague"}),
        (Q4_TEXT, Q4_BINDS),
    ],
    ids=["semi_inline", "anti_let", "split_join", "q4"],
)
def test_cluster_rows_equal_embedded_rows(text, binds, embedded, cluster):
    expected = embedded.query(text, binds).rows
    got = cluster.query(text, binds).rows
    assert _canon(got) == _canon(expected)
    assert len(got) > 0, "vacuous equivalence"


def test_shard_local_plans_decorrelate(cluster):
    result = cluster.query("EXPLAIN ANALYZE " + SEMI_INLINE)
    # Every shard's analyzed segment report shows the rewritten operator.
    assert "SemiJoin" in result.analyzed


def test_shard_local_plans_probe_inner_indexes(cluster):
    result = cluster.query("EXPLAIN ANALYZE " + Q4_TEXT, Q4_BINDS)
    assert (
        "IndexScan f IN feedback USING hash index "
        "'hash:doc:feedback:product_no' ON product_no == p.product_no"
    ) in result.analyzed


@pytest.mark.parametrize(
    "text",
    [SEMI_INLINE, ANTI_LET, Q4_TEXT, NESTED_LET],
    ids=["semi_inline", "anti_let", "q4", "nested_let"],
)
def test_coordinator_rewrite_of_subqueries_round_trips(text):
    optimized = optimize(parse(text), None, ast_only=True)
    assert parse(unparse(optimized)) == optimized
