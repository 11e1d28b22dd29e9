"""Seeded statement streams for the UniBench benchmark, with the expected
answer of every statement.

A stream is an endless iterator of :class:`Op` values drawn from one
``random.Random``.  Every read carries an ``expect`` callable that computes
the right answer from a :class:`Model` of the committed state *just before
the statement runs*; the answer is compared after the timed loop, so no
check runs inside the measured window.

* ``b_stream`` — Workload B: Q1–Q5 in equal seeded shares (each block of
  five is a shuffled Q1..Q5), bind values drawn per call.
* ``oltp_stream`` — Workloads A+C: 70 % bound point reads over the
  relational, document, key/value and graph data, 20 % new-order
  transactions, 10 % ad-hoc lookups with inlined literals.  A stream only
  touches the mutable state (credit, cart, new orders) of the customers it
  is given, so two streams over disjoint customer halves never conflict.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from repro.unibench.workloads import QUERIES_B

READ_REL = "FOR c IN customers FILTER c.id == @id RETURN c"
READ_DOC = "FOR o IN orders FILTER o._key == @key RETURN o.total"
READ_KV = "RETURN KV_GET('cart', @key)"
READ_GRAPH = "FOR v IN 1..1 OUTBOUND @start GRAPH social LABEL 'knows' RETURN v._key"
READ_TEXTS = (READ_REL, READ_DOC, READ_KV, READ_GRAPH)

#: Ad-hoc lookups inline their literal, so every distinct value is a
#: distinct statement text (and a distinct plan-cache key).
ADHOC_ORDER = "FOR o IN orders FILTER o.Order_no == '{}' RETURN o.total"
ADHOC_PRODUCT = "FOR p IN products FILTER p.product_no == '{}' RETURN p.price"
ADHOC_CUSTOMER = "FOR c IN customers FILTER c.name == '{}' RETURN c.city"

#: The remote transaction: the new-order flow as MMQL DML inside
#: ``begin``/``commit``.
DML_INSERT_ORDER = "INSERT @order INTO orders"
DML_POINT_CART = "UPDATE @key WITH @order_no IN cart"
DML_DEBIT = (
    "LET c = DOCUMENT('customers', @id) "
    "UPDATE @id WITH {credit_limit: c.credit_limit - @total} IN customers"
)

#: min_credit 0 selects every customer.  With five values each takes 4 %
#: of the B stream, which puts the stream's median latency inside the
#: dense Q3 cluster instead of on the edge between two query classes.
Q1_CREDITS = (0, 1000, 2000, 3000, 5000)
CITIES = ("Prague", "Helsinki", "Brno", "Espoo", "Tampere", "Ostrava")
CATEGORIES = ("Toy", "Book", "Computer", "Garden", "Music", "Sport")
B_IDS = ("Q1", "Q2", "Q3", "Q4", "Q5")
#: Queries whose result order is fixed by a SORT; the others are compared
#: as multisets.
ORDERED_B = ("Q3", "Q4")


@dataclass
class Op:
    """One statement of a stream.  ``cls`` is the operation class the
    latency is reported under (``read``/``txn``/``adhoc``/``q1``..``q5``)."""

    cls: str
    text: str = ""
    binds: dict = field(default_factory=dict)
    expect: Optional[Callable[[], Any]] = None
    ordered: bool = True
    customer: int = 0
    order: Optional[dict] = None


class Model:
    """The committed state a stream's reads must observe."""

    def __init__(self, data):
        self.customers = {row["id"]: dict(row) for row in data.customers}
        self.initial_credit = {cid: row["credit_limit"] for cid, row in self.customers.items()}
        self.cart = dict(data.carts)
        self.order_total = {order["_key"]: order["total"] for order in data.orders}
        self.new_orders: dict[str, dict] = {}
        self.out: dict[str, list] = {}
        for source, target in data.knows_edges:
            self.out.setdefault(source, []).append(target)

    def commit_order(self, customer: int, order: dict) -> None:
        key = order["_key"]
        self.new_orders[key] = order
        self.order_total[key] = order["total"]
        self.cart[str(customer)] = key
        self.customers[customer]["credit_limit"] -= order["total"]


def canonical(rows: list) -> list:
    return sorted(json.dumps(row, sort_keys=True, default=str) for row in rows)


def rows_match(rows: list, expected: list, ordered: bool) -> bool:
    if rows == expected:
        return True
    return not ordered and canonical(rows) == canonical(expected)


def q5_starts(data) -> list[str]:
    """Customers with a friend first reached at depth two (the traversal
    visits each vertex once, at its smallest depth) whose cart points at an
    order."""
    out: dict[str, set] = {}
    for source, target in data.knows_edges:
        out.setdefault(source, set()).add(target)
    starts = []
    for row in data.customers:
        start = str(row["id"])
        first = out.get(start, set())
        second = set().union(*(out.get(friend, set()) for friend in first)) - first - {start}
        if any(hop in data.carts for hop in second):
            starts.append(start)
    return starts


def b_domain(data) -> list[tuple[str, dict]]:
    """Every (query, bind values) pair ``b_stream`` can draw: the bind
    values for which the data set holds an answer."""
    ordering = {row["id"]: row["city"] for row in data.customers}
    cities = {ordering[order["customer_id"]] for order in data.orders}
    praised = {review["product_no"] for review in data.feedback if review["positive"]}
    categories = {p["category"] for p in data.products if p["product_no"] in praised}
    domain = [("Q1", {"min_credit": credit}) for credit in Q1_CREDITS]
    domain += [("Q2", {"city": city}) for city in CITIES if city in cities]
    domain.append(("Q3", {}))
    domain += [("Q4", {"category": c}) for c in CATEGORIES if c in categories]
    domain += [("Q5", {"start": start}) for start in q5_starts(data)]
    return domain


def b_key(query_id: str, binds: dict) -> str:
    return query_id + json.dumps(binds, sort_keys=True)


def b_stream(data, seed: int, reference: dict) -> Iterator[Op]:
    """Workload B.  *reference* maps :func:`b_key` to the embedded rows.

    Bind values are drawn without replacement from a seeded permutation
    of each query's domain, refilled when spent, so every value gets an
    equal share of a run."""
    rng = random.Random(seed)
    domains: dict[str, list] = {}
    for query_id, binds in b_domain(data):
        domains.setdefault(query_id, []).append(binds)
    pools: dict[str, list] = {query_id: [] for query_id in B_IDS}
    while True:
        block = list(B_IDS)
        rng.shuffle(block)
        for query_id in block:
            pool = pools[query_id]
            if not pool:
                pool.extend(domains[query_id])
                rng.shuffle(pool)
            binds = pool.pop()
            key = b_key(query_id, binds)
            yield Op(
                query_id.lower(),
                QUERIES_B[query_id][0],
                binds,
                expect=lambda key=key: reference[key],
                ordered=query_id in ORDERED_B,
            )


def oltp_stream(data, model: Model, seed: int, customers: list[int], tag: str) -> Iterator[Op]:
    """Workloads A+C over *customers* (the ids this stream may write)."""
    rng = random.Random(seed)
    initial_orders = [order["_key"] for order in data.orders]
    vertices = [str(row["id"]) for row in data.customers]
    products = data.products
    mine: list[str] = []  # new orders this stream committed
    pending = None
    serial = 0
    while True:
        if pending is not None and pending in model.new_orders:
            mine.append(pending)
        pending = None
        roll = rng.random()
        if roll < 0.70:
            kind = rng.randrange(4)
            if kind == 0:
                cid = rng.choice(customers)
                yield Op("read", READ_REL, {"id": cid},
                         expect=lambda cid=cid: [dict(model.customers[cid])])
            elif kind == 1:
                pool = mine if mine and rng.random() < 0.5 else initial_orders
                key = rng.choice(pool)
                yield Op("read", READ_DOC, {"key": key},
                         expect=lambda key=key: [model.order_total[key]])
            elif kind == 2:
                key = str(rng.choice(customers))
                yield Op("read", READ_KV, {"key": key},
                         expect=lambda key=key: [model.cart.get(key)])
            else:
                start = rng.choice(vertices)
                yield Op("read", READ_GRAPH, {"start": start},
                         expect=lambda start=start: list(model.out.get(start, ())),
                         ordered=False)
        elif roll < 0.90:
            serial += 1
            cid = rng.choice(customers)
            lines = []
            for _ in range(rng.randint(1, 3)):
                product = rng.choice(products)
                lines.append({
                    "Product_no": product["product_no"],
                    "Product_Name": product["name"],
                    "Price": product["price"],
                    "Quantity": rng.randint(1, 3),
                })
            key = f"n{tag}-{serial:07d}"
            order = {
                "_key": key,
                "Order_no": key,
                "customer_id": cid,
                "total": sum(line["Price"] * line["Quantity"] for line in lines),
                "Orderlines": lines,
            }
            pending = key
            yield Op("txn", customer=cid, order=order)
        else:
            kind = rng.randrange(3)
            if kind == 0:
                order = rng.choice(data.orders)
                yield Op("adhoc", ADHOC_ORDER.format(order["Order_no"]),
                         expect=lambda total=order["total"]: [total])
            elif kind == 1:
                product = rng.choice(products)
                yield Op("adhoc", ADHOC_PRODUCT.format(product["product_no"]),
                         expect=lambda price=product["price"]: [price])
            else:
                row = rng.choice(data.customers)
                yield Op("adhoc", ADHOC_CUSTOMER.format(row["name"]),
                         expect=lambda city=row["city"]: [city])
