"""The repository's UniBench benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports ``src/repro``).  The
seed draws the data set and every statement; the same seed gives the same
inputs.  Workloads (details in ``perfbench/catalog.json``):

* ``xmodel_b``  — embedded Workload B, Q1–Q5 with seeded bind values;
* ``oltp_ac``   — embedded Workloads A+C: point reads, new-order
  transactions with the WAL attached, ad-hoc lookups;
* ``remote_ac`` — the ``oltp_ac`` stream over 2 wire connections to a
  server process (runnable, but left out of ``BENCHMARK.json`` as
  unsteady; see ``catalog.json``);
* ``cluster_b`` — the ``xmodel_b`` stream through ``ClusterClient`` to 2
  shard server processes.

Every statement's answer is checked against the seeded model or the
embedded rows after the timed loop.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the same loop in alternating untraced and
traced blocks and prints the per-layer metrics, writing the spans to
``.perfbench_work/``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

#: Set-ups per run (setup_s is their median): in-process builds for the
#: embedded workloads, server or shard starts for the others.
SETUP_REPEATS = 5
SERVER_STARTS = 3
WARMUP_SECONDS = 0.5
#: Trace mode alternates untraced and traced blocks of this length.
TRACE_BLOCK_SECONDS = 0.25
REMOTE_CHECK_OPS = 40
#: p99_ms is the median of the p99s of this many equal parts of the timed
#: loop, so a host slowdown over less than half of the loop does not set
#: the run's tail.
P99_PARTS = 10
SERVER_TIMEOUT = 60.0

WORKLOADS = {
    "xmodel_b": ("b", "embedded"),
    "oltp_ac": ("oltp", "embedded"),
    "remote_ac": ("oltp", "remote"),
    "cluster_b": ("b", "cluster"),
}
B_CLASSES = ("q1", "q2", "q3", "q4", "q5")


def load_catalog() -> dict:
    with open(os.path.join(HERE, "catalog.json"), encoding="utf-8") as handle:
        return json.load(handle)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


class Failures:
    """Attempted and failed operations and checks, with the first few
    failure messages for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._lock = threading.Lock()

    def check(self, ok: bool, message: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.messages) < 20:
                    self.messages.append(message)
        return ok


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def build_embedded(scale: int, seed: int, repeats: int):
    """*repeats* in-process generate+load runs; returns the last data set
    and database with the per-run timings."""
    from repro.core.database import MultiModelDB
    from repro.unibench.generator import generate, load_into_multimodel

    timings = {"generate": [], "load": [], "total": []}
    data = db = None
    for _ in range(repeats):
        db = data = None
        started = time.perf_counter()
        data = generate(scale, seed)
        generated = time.perf_counter()
        db = MultiModelDB()
        load_into_multimodel(db, data)
        loaded = time.perf_counter()
        timings["generate"].append(generated - started)
        timings["load"].append(loaded - generated)
        timings["total"].append(loaded - started)
    return data, db, timings


class ServerProcess:
    """One ``perfbench/serve.py`` process."""

    def __init__(self, args: list[str]):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, HERE, env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve.py"), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env, cwd=ROOT,
        )
        self.port = None
        self.report: dict = {}

    def wait_ready(self) -> int:
        line = self.proc.stdout.readline()
        if not line.startswith("READY "):
            raise RuntimeError(f"server did not start (exit {self.proc.poll()})")
        self.port = int(line.split()[1])
        return self.port

    def stop(self) -> dict:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                output = self.proc.stdout.read()
                self.proc.wait(timeout=SERVER_TIMEOUT)
                lines = [line for line in output.splitlines() if line.startswith("{")]
                if lines:
                    self.report = json.loads(lines[-1])
            except (OSError, ValueError, subprocess.TimeoutExpired):
                pass
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()
        return self.report


def free_port() -> int:
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def ping(port: int) -> None:
    from repro.client import ReproClient

    deadline = time.monotonic() + SERVER_TIMEOUT
    while True:
        try:
            with ReproClient(port=port, retries=1) as client:
                client.ping()
                return
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.01)


def start_servers(transport: str, scale: int, seed: int, tag: str) -> list:
    """Start the server(s) of one topology and wait for the first ping.
    Files are named after *tag*: ``<tag>.wal`` and ``<tag>.map.json``."""
    if transport == "remote":
        server = ServerProcess([
            "--seed", str(seed), "--scale", str(scale),
            "--wal", os.path.join(WORK, f"{tag}.wal"),
        ])
        try:
            ping(server.wait_ready())
        except BaseException:
            server.stop()
            raise
        return [server]
    from repro.cluster.shardmap import ShardMap, demo_placements

    ports = [free_port(), free_port()]
    shard_map = ShardMap([f"127.0.0.1:{port}" for port in ports], demo_placements())
    map_path = os.path.join(WORK, f"{tag}.map.json")
    shard_map.save(map_path)
    cpus = sorted(os.sched_getaffinity(0))
    servers = [
        ServerProcess([
            "--seed", str(seed), "--scale", str(scale), "--port", str(port),
            "--shard-map", map_path, "--shard-id", str(shard_id),
            # One CPU per shard, so the scheduler cannot stack both
            # shards on one CPU for a whole run.
            "--cpu", str(cpus[shard_id % len(cpus)]),
        ])
        for shard_id, port in enumerate(ports)
    ]
    try:
        for server in servers:
            ping(server.wait_ready())
    except BaseException:
        for server in servers:
            server.stop()
        raise
    return servers


# ---------------------------------------------------------------------------
# Executors: one per transport, each returns (rows, stats) for a statement
# and runs a new-order transaction.
# ---------------------------------------------------------------------------


class Embedded:
    def __init__(self, db, tracer):
        self.db = db
        self.tracer = tracer

    def query(self, op, traced):
        result = self.db.query(op.text, op.binds)
        return result.rows, result.stats

    def txn(self, op, traced):
        from repro.unibench.workloads import new_order_transaction

        span = self.tracer.span if traced else _no_span
        db = self.db
        with span("txn.begin"):
            txn = db.begin()
        try:
            with span("txn.body"):
                new_order_transaction(db, op.customer, op.order, txn=txn)
            with span("txn.commit"):
                db.commit(txn)
        except BaseException:
            if txn.is_active:
                db.abort(txn)
            raise


class Remote:
    def __init__(self, client, tracer):
        self.client = client
        self.tracer = tracer

    def query(self, op, traced):
        span = self.tracer.span if traced else _no_span
        with span("client.query") as record:
            cursor = self.client.query(op.text, op.binds)
            rows = cursor.rows
        stats = cursor.stats or {}
        if record is not None:
            record.attrs["server_phases"] = stats.get("server_phases", {})
        return rows, stats

    def txn(self, op, traced):
        from workloads import DML_DEBIT, DML_INSERT_ORDER, DML_POINT_CART

        span = self.tracer.span if traced else _no_span
        client = self.client
        order = op.order
        with span("txn.begin"):
            client.begin()
        try:
            with span("txn.body"):
                client.query(DML_INSERT_ORDER, {"order": order}).rows
                client.query(DML_POINT_CART, {"key": str(op.customer), "order_no": order["_key"]}).rows
                client.query(DML_DEBIT, {"id": op.customer, "total": order["total"]}).rows
            with span("txn.commit"):
                client.commit()
        except BaseException:
            if client.in_txn:
                try:
                    client.abort()
                except Exception:  # the transaction's own error is the one reported
                    pass
            raise


class Cluster:
    def __init__(self, client):
        self.client = client

    def query(self, op, traced):
        result = self.client.query(op.text, op.binds)
        return result.rows, result.stats


def _no_span(name):
    return nullcontext()


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Record:
    """One timed operation: its answer, the expected answer, and whether
    it ran in a traced block (``root`` is its operation span's id)."""

    cls: str
    started: float
    latency: float
    rows: Optional[list]
    stats: Optional[dict]
    expected: Any
    ordered: bool
    error: Optional[str]
    traced: bool
    root: Optional[int]


def run_op(executor, op, model, tracer, traced) -> Record:
    """Run one operation; the expected answer is taken from the model just
    before the statement runs."""
    expected = op.expect() if op.expect is not None else None
    rows = stats = error = None
    root = None
    span = tracer.span if traced else _no_span
    started = time.perf_counter()
    try:
        with span("op." + op.cls) as record:
            if record is not None:
                root = record.id
                tracer.share(record)
            if op.cls == "txn":
                executor.txn(op, traced)
            else:
                rows, stats = executor.query(op, traced)
    except Exception as failure:  # counted, reported, and the loop goes on
        error = f"{op.cls}: {type(failure).__name__}: {failure}"
    latency = time.perf_counter() - started
    tracer.share(None)
    if op.cls == "txn" and error is None:
        model.commit_order(op.customer, op.order)
    return Record(op.cls, started, latency, rows, stats, expected, op.ordered, error, traced, root)


class Blocks:
    """Trace mode's time grid: blocks of TRACE_BLOCK_SECONDS alternate
    between untraced (even) and traced (odd); always untraced otherwise."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.start = time.perf_counter()

    def traced(self, now: float) -> bool:
        return self.enabled and int((now - self.start) / TRACE_BLOCK_SECONDS) % 2 == 1


def closed_loop(executor, stream, model, tracer, seconds, blocks, hooks=None) -> tuple[list, float]:
    """Run *stream* until *seconds* pass.  With *hooks*, this loop also
    installs and removes the layer wrappers as the blocks change."""
    records = []
    started = time.perf_counter()
    deadline = started + seconds
    hooked = False
    while True:
        now = time.perf_counter()
        if now >= deadline:
            break
        traced = blocks.traced(now)
        if hooks is not None and traced != hooked:
            hooks(traced)
            hooked = traced
        records.append(run_op(executor, next(stream), model, tracer, traced))
    if hooked:
        hooks(False)
    return records, time.perf_counter() - started


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_records(records, failures: Failures) -> None:
    from workloads import rows_match

    for record in records:
        if record.error is not None:
            failures.check(False, record.error)
        elif record.cls == "txn":
            failures.check(True, "")
        elif record.cls in B_CLASSES:
            failures.check(
                bool(record.rows) and rows_match(record.rows, record.expected, record.ordered),
                f"{record.cls}: rows differ from the embedded rows or are empty",
            )
        else:
            failures.check(
                rows_match(record.rows, record.expected, record.ordered),
                f"{record.cls}: got {record.rows!r:.120} expected {record.expected!r:.120}",
            )


def b_reference(db, data, failures: Failures) -> dict:
    """Embedded rows for every (query, binds) the B stream can draw; every
    one must return a row, and Q1 must equal the hand-written API result."""
    from repro.unibench.workloads import QUERIES_B, workload_b_api
    from workloads import Q1_CREDITS, b_domain, b_key

    reference = {}
    for query_id, binds in b_domain(data):
        rows = db.query(QUERIES_B[query_id][0], binds).rows
        failures.check(bool(rows), f"{query_id} {binds}: no rows")
        reference[b_key(query_id, binds)] = rows
    for credit in Q1_CREDITS:
        api = workload_b_api(db, credit)
        mmql = reference[b_key("Q1", {"min_credit": credit})]
        failures.check(
            sorted(api) == sorted(mmql) and len(set(mmql)) == len(mmql),
            f"Q1 min_credit={credit}: MMQL rows differ from workload_b_api",
        )
    return reference


def audit_state(source, model, failures: Failures, label: str) -> None:
    """Workload C audit against the model: every committed order is
    stored, every customer's cart points at that customer's latest order,
    and each credit equals the initial credit minus the totals of the
    customer's committed orders.  *source* is the embedded database or a
    wire client: anything with ``query(text).rows``."""
    rows = source.query(
        "FOR c IN customers RETURN [c.id, c.credit_limit, KV_GET('cart', TO_STRING(c.id))]"
    ).rows
    stored = set(source.query("FOR o IN orders RETURN o._key").rows)
    debits: dict[int, int] = {}
    for order in model.new_orders.values():
        debits[order["customer_id"]] = debits.get(order["customer_id"], 0) + order["total"]
    failures.check(len(rows) == len(model.initial_credit), f"{label}: customers lost")
    for cid, credit, pointer in rows:
        expected = model.initial_credit[cid] - debits.get(cid, 0)
        failures.check(credit == expected, f"{label}: customer {cid} credit {credit} != {expected}")
        failures.check(
            pointer == model.cart.get(str(cid)),
            f"{label}: cart of customer {cid} is {pointer!r}, not {model.cart.get(str(cid))!r}",
        )
    for key in model.new_orders:
        failures.check(key in stored, f"{label}: committed order {key} missing")


def wal_replay_check(wal_path, scale, seed, model, failures: Failures, label: str) -> None:
    """Replay the WAL into a fresh database loaded from the same seed; it
    must hold the committed orders, carts and credits of the model."""
    from repro.core.database import MultiModelDB
    from repro.unibench.generator import generate, load_into_multimodel

    fresh = MultiModelDB()
    load_into_multimodel(fresh, generate(scale, seed))
    fresh.recover(wal_path)
    audit_state(fresh, model, failures, label + " WAL replay")


# ---------------------------------------------------------------------------
# Probes: timed calls into single layers, outside the loop
# ---------------------------------------------------------------------------


def time_per_call(function, calls: int, repeats: int = 5) -> float:
    """Median over *repeats* of the mean seconds per call."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(calls):
            function()
        samples.append((time.perf_counter() - started) / calls)
    return median(samples)


def probe_front_end(db, data, metrics: dict) -> None:
    """parse and optimize per statement class, and rules fired."""
    from repro.query.optimizer import optimize
    from repro.query.parser import parse
    from repro.unibench.workloads import QUERIES_B
    from workloads import ADHOC_CUSTOMER, ADHOC_ORDER, ADHOC_PRODUCT, READ_TEXTS

    adhoc = (
        [ADHOC_ORDER.format(order["Order_no"]) for order in data.orders[:10]]
        + [ADHOC_PRODUCT.format(product["product_no"]) for product in data.products[:10]]
        + [ADHOC_CUSTOMER.format(row["name"]) for row in data.customers[:10]]
    )
    classes = {
        "read": list(READ_TEXTS),
        "adhoc": adhoc,
        "b": [text for text, _ in QUERIES_B.values()],
    }
    fired = []
    for cls, texts in classes.items():
        parse_s, optimize_s = [], []
        for text in texts:
            parse_s.append(time_per_call(lambda: parse(text), 3))
            trees = [parse(text) for _ in range(15)]
            optimize_s.append(time_per_call(lambda: optimize(trees.pop(), db), 3))
            fired.append(len(getattr(optimize(parse(text), db), "rules_fired", ()) or ()))
        metrics[f"query.parser.parse_ms.{cls}"] = statistics.fmean(parse_s) * 1000
        metrics[f"query.optimizer.optimize_ms.{cls}"] = statistics.fmean(optimize_s) * 1000
    metrics["query.optimizer.rules_fired"] = statistics.fmean(fired)


def probe_stores(db, data, metrics: dict) -> None:
    from repro.core import datamodel
    from repro.unibench.workloads import workload_b_api
    from workloads import Q1_CREDITS

    values = (
        [order["Order_no"] for order in data.orders[:100]]
        + [line["Product_no"] for order in data.orders[:50] for line in order["Orderlines"]]
        + [row["id"] for row in data.customers[:100]]
    )
    pairs = list(zip(values, values[1:] + values[:1]))

    def hash_all():
        for value in values:
            datamodel.hash_value(value)

    def compare_all():
        for left, right in pairs:
            datamodel.compare(left, right)

    metrics["core.datamodel.hash_value_us"] = time_per_call(hash_all, 5) / len(values) * 1e6
    metrics["core.datamodel.compare_us"] = time_per_call(compare_all, 5) / len(pairs) * 1e6
    metrics["stores.q1_handwritten_ms"] = statistics.fmean(
        time_per_call(lambda credit=credit: workload_b_api(db, credit), 1, 3)
        for credit in Q1_CREDITS
    ) * 1000

    ids = [row["id"] for row in data.customers[:200]]
    keys = [order["_key"] for order in data.orders[:200]]
    names = [str(cid) for cid in ids]
    customers, orders = db.table("customers"), db.collection("orders")
    cart, social = db.bucket("cart"), db.graph("social")
    gets = {
        "relational": lambda: [customers.get(cid) for cid in ids],
        "document": lambda: [orders.get(key) for key in keys],
        "keyvalue": lambda: [cart.get(name) for name in names],
        "graph": lambda: [social.vertex(name) for name in names],
    }
    for model_name, function in gets.items():
        metrics[f"stores.get_us.{model_name}"] = time_per_call(function, 1) / 200 * 1e6


def probe_ping(port: int, metrics: dict) -> None:
    from repro.client import ReproClient

    with ReproClient(port=port) as client:
        client.ping()
        metrics["client.ping_us"] = time_per_call(client.ping, 40) * 1e6


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def class_medians(records, metrics: dict) -> None:
    by_class: dict[str, list] = {}
    for record in records:
        by_class.setdefault(record.cls, []).append(record.latency)
    for cls in ("read", "txn", "adhoc") + B_CLASSES:
        metrics[f"{cls}_p50_ms"] = median(by_class.get(cls, ())) * 1000


def query_stats(records, metrics: dict) -> None:
    scanned = rows = lookups = queries = 0
    fan_out = []
    for record in records:
        if record.stats is None or record.rows is None:
            continue
        queries += 1
        scanned += record.stats.get("scanned", 0)
        lookups += record.stats.get("index_lookups", 0)
        rows += len(record.rows)
        if "fan_out" in record.stats:
            fan_out.append(record.stats["fan_out"])
    metrics["query.executor.scanned_per_row"] = scanned / rows if rows else 0.0
    metrics["query.executor.index_lookups"] = lookups / queries if queries else 0.0
    metrics["cluster.fan_out"] = statistics.fmean(fan_out) if fan_out else 0.0


def trace_overhead(records) -> float:
    """Traced latency against what the untraced blocks of the same run
    predict for the same operation classes, in percent."""
    untraced: dict[str, list] = {}
    for record in records:
        if not record.traced:
            untraced.setdefault(record.cls, []).append(record.latency)
    means = {cls: statistics.fmean(values) for cls, values in untraced.items()}
    actual = predicted = 0.0
    for record in records:
        if record.traced and record.cls in means:
            actual += record.latency
            predicted += means[record.cls]
    return (actual / predicted - 1.0) * 100 if predicted else 0.0


def span_metrics(tracer, records, transport: str, metrics: dict) -> None:
    classes = {record.root: record.cls for record in records if record.root is not None}

    def all_spans(name):
        return [span for span in tracer.spans if span.name == name]

    grouped: dict[str, list] = {}
    if transport == "embedded":
        for cls, spans in tracer.by_root_class("query.executor.execute", classes).items():
            grouped[cls] = [span.duration * 1000 for span in spans]
    else:
        # The server-side execute phase; on a scatter the slowest shard
        # sets the query's time.
        slowest: dict[int, float] = {}
        for span in all_spans("client.query"):
            phases = span.attrs.get("server_phases") or {}
            slowest[span.root] = max(slowest.get(span.root, 0.0), phases.get("execute", 0.0))
        for root, value in slowest.items():
            if root in classes:
                grouped.setdefault(classes[root], []).append(value)
    execute = {cls: median(values) for cls, values in grouped.items()}
    for cls in ("read",) + B_CLASSES:
        metrics[f"query.executor.execute_ms.{cls}"] = execute.get(cls, 0.0)

    body = all_spans("txn.body")
    commit = all_spans("txn.commit")
    metrics["txn.body_us"] = median(span.duration for span in body) * 1e6
    metrics["txn.commit_us"] = median(span.duration for span in commit) * 1e6

    encode = all_spans("server.protocol.encode")
    decode = all_spans("server.protocol.decode")
    metrics["server.protocol.encode_us"] = median(span.duration for span in encode) * 1e6
    metrics["server.protocol.decode_us"] = median(span.duration for span in decode) * 1e6

    rpcs = all_spans("client.query")
    wire, queue, server_execute = [], [], []
    for span in rpcs:
        phases = span.attrs.get("server_phases") or {}
        queue.append(phases.get("queue", 0.0))
        server_execute.append(phases.get("execute", 0.0))
        wire.append(span.duration * 1000 - phases.get("queue", 0.0) - phases.get("execute", 0.0))
    metrics["client.wire_ms"] = median(wire)
    metrics["server.queue_ms"] = median(queue)
    metrics["server.execute_ms"] = median(server_execute)
    metrics["cluster.plan_ms"] = median(span.duration for span in all_spans("cluster.plan")) * 1000


def install_hooks(tracer, transport: str):
    """Return ``hooks(on)`` that wraps (on) or restores (off) the public
    layer functions this transport calls in the benchmark's process."""

    def hooks(on: bool) -> None:
        tracer.unwrap_all()
        if not on:
            return
        if transport == "embedded":
            from repro.query import engine

            tracer.wrap(engine, "parse", "query.parser.parse")
            tracer.wrap(engine, "optimize", "query.optimizer.optimize")
            tracer.wrap(engine, "execute", "query.executor.execute")
            return
        from repro.server import protocol

        tracer.wrap(protocol, "encode_frame", "server.protocol.encode")
        tracer.wrap(protocol, "decode_payload", "server.protocol.decode")
        if transport == "cluster":
            from repro.client.client import ReproClient
            from repro.cluster.coordinator import Coordinator

            def note_phases(span, cursor):
                span.attrs["server_phases"] = (cursor.stats or {}).get("server_phases", {})

            tracer.wrap(Coordinator, "plan", "cluster.plan")
            tracer.wrap(ReproClient, "query", "client.query", after=note_phases)

    return hooks


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def start_topology(transport: str, scale: int, seed: int, tag: str):
    """SERVER_STARTS starts of the server(s) until the first ping; all but
    the last are stopped again.  Returns (setup seconds, servers, tag of
    the kept start)."""
    setup_runs = []
    for attempt in range(SERVER_STARTS):
        started = time.perf_counter()
        servers = start_servers(transport, scale, seed, f"{tag}-{attempt}")
        setup_runs.append(time.perf_counter() - started)
        if attempt < SERVER_STARTS - 1:
            for server in servers:
                server.stop()
    return median(setup_runs), servers, f"{tag}-{SERVER_STARTS - 1}"


def p99_of_parts(records) -> float:
    """Median over P99_PARTS equal parts of the loop (an operation belongs
    to the part it started in) of each part's p99 latency."""
    start = min(record.started for record in records)
    end = max(record.started + record.latency for record in records)
    width = (end - start) / P99_PARTS
    parts: list[list[float]] = [[] for _ in range(P99_PARTS)]
    for record in records:
        parts[min(int((record.started - start) / width), P99_PARTS - 1)].append(record.latency)
    return median(percentile(part, 0.99) for part in parts if part)


def hit_ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def local_loop(kind, transport, db, data, model, seed, seconds, trace, tracer, failures,
               wal_path, map_path, metrics, clients):
    """The single-client closed loop of xmodel_b, oltp_ac and cluster_b."""
    from workloads import b_stream, oltp_stream

    if kind == "b":
        reference = b_reference(db, data, failures)
        stream = b_stream(data, seed, reference)
    else:
        db.attach_wal(wal_path, sync=False)
        customers = [row["id"] for row in data.customers]
        stream = oltp_stream(data, model, seed, customers, "e")
    if transport == "embedded":
        executor = Embedded(db, tracer)
    else:
        from repro.cluster.client import ClusterClient
        from repro.cluster.shardmap import ShardMap

        cluster = ClusterClient(ShardMap.load(map_path))
        clients.append(cluster)
        # Every call's rows are compared with the embedded reference rows.
        executor = Cluster(cluster)
    warm, _ = closed_loop(executor, stream, model, tracer, WARMUP_SECONDS, Blocks(False))
    before = db.plan_cache.stats()
    records, elapsed = closed_loop(
        executor, stream, model, tracer, seconds, Blocks(trace), install_hooks(tracer, transport)
    )
    after = db.plan_cache.stats()
    check_records(warm + records, failures)
    if transport == "embedded":
        metrics["query.engine.plan_cache_hit_ratio"] = hit_ratio(
            after["hits"] - before["hits"], after["misses"] - before["misses"]
        )
        metrics["txn.versions"] = db.stats()["transactions"]["versions"]
    return records, elapsed


def wal_metrics(wal_path: str, model, fsyncs: int, metrics: dict) -> None:
    commits = len(model.new_orders)
    metrics["storage.wal.bytes_per_txn"] = os.path.getsize(wal_path) / commits if commits else 0.0
    metrics["storage.wal.fsyncs"] = fsyncs


def run(workload: str, seed: int, seconds: float, trace: bool, scale: int) -> dict:
    from memory import peak_rss_mb
    from repro.obs import metrics as obs_metrics
    from tracer import Tracer
    from workloads import Model

    kind, transport = WORKLOADS[workload]
    tag = f"{workload}-{seed}-{os.getpid()}"
    failures = Failures()
    # Pool threads of the one driving thread (cluster scatter) attach their
    # spans to its operation; with several driving threads they cannot.
    tracer = Tracer(share_root=transport != "remote")
    metrics: dict = {}

    builds = SETUP_REPEATS if transport == "embedded" else SERVER_STARTS
    data, db, timings = build_embedded(scale, seed, builds)
    metrics["unibench.generate_s"] = median(timings["generate"])
    metrics["unibench.load_s"] = median(timings["load"])
    model = Model(data)
    servers: list = []
    clients: list = []
    fsyncs = obs_metrics.counter("wal_fsyncs_total")
    try:
        if transport == "embedded":
            setup_s = median(timings["total"])
            kept = tag
        else:
            setup_s, servers, kept = start_topology(transport, scale, seed, tag)
        wal_path = os.path.join(WORK, f"{kept}.wal")
        if transport == "remote":
            records, elapsed = remote_oltp(
                servers[0].port, db, data, model, seed, seconds, trace, tracer,
                install_hooks(tracer, transport), failures,
            )
            check_records(records, failures)
            from repro.client import ReproClient

            with ReproClient(port=servers[0].port) as client:
                audit_state(client, model, failures, "remote_ac")
        else:
            fsyncs_before = fsyncs.value
            records, elapsed = local_loop(
                kind, transport, db, data, model, seed, seconds, trace, tracer, failures,
                wal_path, os.path.join(WORK, f"{kept}.map.json"), metrics, clients,
            )
            if kind == "oltp":
                audit_state(db, model, failures, "oltp_ac")
                db.close()
                wal_metrics(wal_path, model, fsyncs.value - fsyncs_before, metrics)
        if trace and servers:
            probe_ping(servers[0].port, metrics)
    finally:
        for client in clients:
            client.close()
        reports = [server.stop() for server in servers]

    for index, report in enumerate(reports):
        failures.check(bool(report), f"server {index} did not report on shutdown")
    if reports:
        metrics["query.engine.plan_cache_hit_ratio"] = hit_ratio(
            sum(report.get("plan_cache", {}).get("hits", 0) for report in reports),
            sum(report.get("plan_cache", {}).get("misses", 0) for report in reports),
        )
    if transport == "remote":
        wal_metrics(wal_path, model, reports[0].get("wal_fsyncs", 0), metrics)
        metrics["txn.versions"] = reports[0].get("db", {}).get("transactions", {}).get("versions", 0)
    if kind == "oltp":
        wal_replay_check(wal_path, scale, seed, model, failures, workload)

    latencies = [record.latency for record in records]
    if trace:
        class_medians([record for record in records if not record.traced], metrics)
        query_stats(records, metrics)
        span_metrics(tracer, records, transport, metrics)
        probe_front_end(db, data, metrics)
        probe_stores(db, data, metrics)
        metrics["obs.trace_overhead_pct"] = trace_overhead(records)
        metrics["fail_ratio"] = failures.failed / failures.attempted if failures.attempted else 0.0
        tracer.dump(os.path.join(WORK, f"trace-{workload}-seed{seed}.json"))
    else:
        metrics["setup_s"] = setup_s
        metrics["ops_per_s"] = sum(1 for record in records if record.error is None) / elapsed
        metrics["p50_ms"] = median(latencies) * 1000
        metrics["p99_ms"] = p99_of_parts(records) * 1000
        if transport == "embedded":
            metrics["peak_rss_mb"] = peak_rss_mb()
        else:
            metrics["peak_rss_mb"] = sum(report.get("peak_rss_mb", 0.0) for report in reports)
    classes: dict = {}
    class_medians(records, classes)
    summary = " ".join(f"{name}={value:.3f}" for name, value in classes.items() if value)
    return {"failures": failures, "metrics": metrics, "samples": len(latencies),
            "summary": summary}


def remote_oltp(port, db, data, model, seed, seconds, trace, tracer, hooks, failures):
    """Two connections, each a closed loop over its own half of the
    customers.  The first REMOTE_CHECK_OPS operations of each stream run
    on the server and on the embedded database and must agree."""
    from repro.client import ReproClient
    from workloads import oltp_stream, rows_match

    ids = [row["id"] for row in data.customers]
    halves = [ids[0::2], ids[1::2]]
    streams = [
        oltp_stream(data, model, seed * 2 + index, half, f"r{index}")
        for index, half in enumerate(halves)
    ]
    clients = [ReproClient(port=port) for _ in halves]
    try:
        for client in clients:
            client.connect()
        embedded = Embedded(db, tracer)
        for index, client in enumerate(clients):
            remote = Remote(client, tracer)
            for _ in range(REMOTE_CHECK_OPS):
                op = next(streams[index])
                if op.cls == "txn":
                    embedded.txn(op, False)
                    remote_record = run_op(remote, op, model, tracer, False)
                    failures.check(remote_record.error is None, str(remote_record.error))
                    continue
                local_rows, _ = embedded.query(op, False)
                remote_record = run_op(remote, op, model, tracer, False)
                failures.check(
                    remote_record.error is None
                    and rows_match(remote_record.rows, local_rows, op.ordered),
                    f"remote {op.cls} {op.text} {op.binds}: rows differ from embedded",
                )

        results: list = [None, None]
        barrier = threading.Barrier(len(clients) + 1)
        blocks = Blocks(trace)

        def drive(index):
            try:
                barrier.wait(timeout=SERVER_TIMEOUT)
                results[index] = closed_loop(
                    Remote(clients[index], tracer), streams[index], model, tracer,
                    seconds, blocks,
                )
            except Exception as failure:  # reported as a failed check below
                results[index] = failure

        threads = [threading.Thread(target=drive, args=(index,)) for index in range(len(clients))]
        for thread in threads:
            thread.start()
        barrier.wait(timeout=SERVER_TIMEOUT)
        blocks.start = time.perf_counter()
        if trace:
            # This thread installs and removes the wrappers on the blocks'
            # grid, waking only at block boundaries so that it does not
            # compete with the driving threads for the interpreter lock.
            hooked = False
            while any(thread.is_alive() for thread in threads):
                now = time.perf_counter()
                traced = blocks.traced(now)
                if traced != hooked:
                    hooks(traced)
                    hooked = traced
                elapsed_in_block = (now - blocks.start) % TRACE_BLOCK_SECONDS
                time.sleep(TRACE_BLOCK_SECONDS - elapsed_in_block + 0.0005)
            hooks(False)
        for thread in threads:
            thread.join(SERVER_TIMEOUT)
        records = []
        elapsed = 0.0
        for index, result in enumerate(results):
            if not failures.check(isinstance(result, tuple), f"connection {index}: {result!r}"):
                continue
            records.extend(result[0])
            elapsed = max(elapsed, result[1])
        return records, elapsed
    finally:
        for client in clients:
            client.close()


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, default=None,
                        help="UniBench scale factor (default: the catalog's, 4)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}/repro; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    catalog = load_catalog()
    scale = args.scale or catalog["scale"]
    os.makedirs(WORK, exist_ok=True)
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), scale)
    finally:
        # The run's WALs and shard maps; the trace dump stays.
        for name in os.listdir(WORK):
            if name.startswith(f"{args.workload}-{args.seed}-{os.getpid()}"):
                os.unlink(os.path.join(WORK, name))

    failures = outcome["failures"]
    names = catalog["per_layer"] if args.trace else catalog["end_to_end"]
    metrics = {
        name: {"value": float(outcome["metrics"].get(name, 0.0)), "unit": spec["unit"]}
        for name, spec in names.items()
    }
    for message in failures.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} scale={scale} trace={args.trace}: "
          f"{outcome['samples']} timed operations, {failures.attempted} checked, "
          f"{failures.failed} failed; class medians (ms): {outcome['summary']}")
    print(json.dumps({
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
