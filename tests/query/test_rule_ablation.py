"""Rule-ablation differential suite.

Every rewrite rule must be *semantically invisible*: for each workload
query, disabling any single rule must produce row-identical results to
the all-rules-on baseline.  The workload is UniBench Q1–Q5 (the
recommendation query and the cross-model mix) plus correlated-subquery
and shared-LET fixtures built to exercise the new rules specifically,
and nested-body fixtures whose subqueries the rules rewrite in place
(index probes inside correlated LETs, RETURN subqueries and materialized
LETs; NULL and int-vs-float probes).  The nested shapes also run with the
plan cache cold and warm, and inside an explicit transaction, where an
inner index scan falls back to scan + filter.

The suite also pins the EXPLAIN contract: ``rules_fired`` never contains
a disabled rule, and always stays within the enabled set.
"""

import json

import pytest

from repro.query.optimizer import optimize
from repro.query.parser import parse
from repro.query.plan import IndexScanOp
from repro.query.rules import nested_bodies, rule_names
from repro.unibench import build_multimodel, generate
from repro.unibench.workloads import QUERIES_B

#: Queries whose statements impose a total order on the result.
ORDERED = {"Q3", "Q4"}

#: Fixtures aimed at the new rules: correlated existence subqueries in
#: both polarities and spellings, and an uncorrelated shared LET.
EXTRA_QUERIES = {
    "semi_inline": (
        """
        FOR c IN customers
          FILTER LENGTH(FOR o IN orders
                          FILTER o.customer_id == c.id RETURN o) > 0
          RETURN c.id
        """,
        {},
    ),
    "anti_let": (
        """
        FOR c IN customers
          LET mine = (FOR o IN orders
                        FILTER o.customer_id == c.id RETURN o)
          FILTER LENGTH(mine) == 0
          RETURN c.id
        """,
        {},
    ),
    "semi_residual": (
        """
        FOR c IN customers
          FILTER LENGTH(FOR o IN orders
                          FILTER o.customer_id == c.id
                            AND o.total >= @floor
                          RETURN o) >= 1
          RETURN c.id
        """,
        {"floor": 100},
    ),
    "shared_let": (
        """
        FOR c IN customers
          LET big_spenders = (FOR o IN orders
                                FILTER o.total >= @floor
                                RETURN o.customer_id)
          FILTER c.id IN big_spenders
          RETURN c.id
        """,
        {"floor": 100},
    ),
}

#: Shapes whose subquery bodies the rules rewrite (Q4 is the UniBench
#: one).  ``feedback`` gains reviews with a NULL or missing
#: ``product_no`` (see the ``db`` fixture), which an index leaves out but
#: ``==`` matches against a NULL probe.
NESTED_QUERIES = {
    "Q4": QUERIES_B["Q4"],
    "nested_two_level": (
        """
        FOR c IN customers
          FILTER c.id <= 25
          LET reviewed = (
            FOR o IN orders
              FILTER o.customer_id == c.id
              LET praise = (
                FOR f IN feedback
                  FILTER f.product_no == o.Orderlines[0].Product_no
                  RETURN f._key
              )
              RETURN {order: o.Order_no, praise: praise}
          )
          RETURN {id: c.id, reviewed: reviewed}
        """,
        {},
    ),
    "return_subquery": (
        """
        FOR p IN products
          FILTER p.category == @category
          RETURN {product: p.product_no,
                  reviews: (FOR f IN feedback
                              FILTER f.product_no == p.product_no
                              RETURN f._key)}
        """,
        {"category": "Book"},
    ),
    "materialized_indexed": (
        """
        FOR c IN customers
          LET buyers = (FOR o IN orders
                          FILTER o.Order_no == @order
                          RETURN o.customer_id)
          FILTER c.id IN buyers
          RETURN c.id
        """,
        {"order": "o000007"},
    ),
    "null_probe": (
        """
        FOR c IN customers
          FILTER c.id <= 10
          LET orphans = (FOR f IN feedback
                           FILTER f.product_no == c.favourite_product
                           SORT f._key
                           RETURN f._key)
          RETURN {id: c.id, orphans: orphans}
        """,
        {},
    ),
    "int_float_probe": (
        """
        FOR c IN customers
          FILTER c.id <= 20
          LET mine = (FOR o IN orders
                        FILTER o.customer_id == c.id * 1.0
                        RETURN o.Order_no)
          RETURN {id: c.id, mine: mine}
        """,
        {},
    ),
}

ALL_QUERIES = {**QUERIES_B, **EXTRA_QUERIES, **NESTED_QUERIES}


def _canon(rows, ordered):
    if ordered:
        return [json.dumps(row, sort_keys=True, default=str) for row in rows]
    return sorted(
        json.dumps(row, sort_keys=True, default=str) for row in rows
    )


@pytest.fixture(scope="module")
def db():
    database = build_multimodel(generate(scale_factor=1, seed=11))
    feedback = database.collection("feedback")
    feedback.insert({"_key": "f_null", "product_no": None, "positive": True})
    feedback.insert({"_key": "f_missing", "positive": False})
    return database


@pytest.fixture(autouse=True)
def reset_toggles(db):
    yield
    for name in rule_names():
        db.optimizer_rules.enable(name)


@pytest.fixture(scope="module")
def baselines(db):
    out = {}
    for query_id, (text, binds) in ALL_QUERIES.items():
        out[query_id] = db.query(text, binds).rows
    return out


@pytest.mark.parametrize("rule", sorted(rule_names()))
@pytest.mark.parametrize("query_id", sorted(ALL_QUERIES))
def test_single_rule_ablation_preserves_rows(db, baselines, query_id, rule):
    text, binds = ALL_QUERIES[query_id]
    db.optimizer_rules.disable(rule)
    rows = db.query(text, binds).rows
    ordered = query_id in ORDERED
    assert _canon(rows, ordered) == _canon(baselines[query_id], ordered), (
        f"{query_id} changed rows with rule {rule!r} disabled"
    )


@pytest.mark.parametrize("rule", sorted(rule_names()))
@pytest.mark.parametrize("query_id", sorted(ALL_QUERIES))
def test_rules_fired_matches_enabled_set(db, query_id, rule):
    text, _binds = ALL_QUERIES[query_id]
    db.optimizer_rules.disable(rule)
    plan = optimize(parse(text), db)
    fired = set(plan.rules_fired)
    assert rule not in fired
    assert fired <= (set(rule_names()) - {rule})


def test_fixtures_are_not_vacuous(db, baselines):
    for query_id in ALL_QUERIES:
        assert baselines[query_id], f"{query_id} returned nothing"


def test_new_rules_actually_fire_on_fixtures(db):
    fired_anywhere = set()
    for query_id, (text, _binds) in EXTRA_QUERIES.items():
        fired_anywhere |= set(optimize(parse(text), db).rules_fired)
    assert "decorrelate_subquery" in fired_anywhere
    assert "materialize_let" in fired_anywhere


def test_all_rules_off_equals_all_rules_on(db, baselines):
    for name in rule_names():
        db.optimizer_rules.disable(name)
    for query_id, (text, binds) in ALL_QUERIES.items():
        rows = db.query(text, binds).rows
        ordered = query_id in ORDERED
        assert _canon(rows, ordered) == _canon(
            baselines[query_id], ordered
        ), f"{query_id} changed rows with every rule disabled"


def _inner_operations(query):
    """Every operation of every body nested (at any depth) in *query*."""
    for operation in query.operations:
        for body in nested_bodies(operation):
            yield from body.operations
            yield from _inner_operations(body)


@pytest.mark.parametrize("query_id", sorted(NESTED_QUERIES))
def test_nested_bodies_probe_indexes(db, query_id):
    text, _binds = NESTED_QUERIES[query_id]
    plan = optimize(parse(text), db)
    assert any(isinstance(op, IndexScanOp) for op in _inner_operations(plan))
    assert "index_selection" in plan.rules_fired


def test_null_probe_matches_null_and_missing_keys(baselines):
    # The index leaves both reviews out; the rows must still carry them.
    rows = baselines["null_probe"]
    assert rows and all(
        row["orphans"] == ["f_missing", "f_null"] for row in rows
    )


@pytest.mark.parametrize("mode", ["plan_cache", "transaction"])
@pytest.mark.parametrize("rule", [None, *sorted(rule_names())])
@pytest.mark.parametrize("query_id", sorted(NESTED_QUERIES))
def test_nested_shapes_hold_on_every_path(db, baselines, query_id, rule, mode):
    text, binds = NESTED_QUERIES[query_id]
    if rule is not None:
        db.optimizer_rules.disable(rule)
    ordered = query_id in ORDERED
    expected = _canon(baselines[query_id], ordered)
    if mode == "transaction":
        with db.transaction() as txn:
            result = db.query(text, binds, txn=txn)
        # Inside a snapshot every index scan falls back to scan + filter.
        assert result.stats["index_lookups"] == 0
        assert _canon(result.rows, ordered) == expected
        return
    db.plan_cache.clear()
    cold = db.query(text, binds)
    warm = db.query(text, binds)
    assert not cold.stats["plan_cached"] and warm.stats["plan_cached"]
    assert _canon(cold.rows, ordered) == expected
    assert _canon(warm.rows, ordered) == expected
