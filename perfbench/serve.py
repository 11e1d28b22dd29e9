"""Server process for the remote and sharded workloads.

Generates the UniBench data set from ``--seed``, loads it (one shard's
slice with ``--shard-map``/``--shard-id``), optionally attaches a WAL,
serves it with :class:`repro.server.ReproServer`, and prints ``READY
<port>``.  It serves until its standard input closes, then stops the
server, closes the database and prints one JSON line with the counters
the program reports: plan-cache statistics, ``db.stats()``, WAL fsyncs
and the process's peak resident memory.

    python3 perfbench/serve.py --seed 1 --scale 4 [--wal PATH]
        [--port P --shard-map MAP.json --shard-id N --cpu C]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from memory import peak_rss_mb


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--wal")
    parser.add_argument("--shard-map")
    parser.add_argument("--shard-id", type=int)
    parser.add_argument("--cpu", type=int, help="run on this CPU only")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    from repro.core.database import MultiModelDB
    from repro.obs import metrics as obs_metrics
    from repro.server import ReproServer
    from repro.unibench.generator import generate, load_into_multimodel

    data = generate(args.scale, args.seed)
    shard_map = None
    if args.shard_map:
        from repro.cluster.bootstrap import load_sharded_unibench
        from repro.cluster.shardmap import ShardMap

        shard_map = ShardMap.load(args.shard_map)
        slices = [MultiModelDB() for _ in range(shard_map.num_shards)]
        load_sharded_unibench(slices, data, shard_map)
        db = slices[shard_map.all_shard_ids().index(args.shard_id)]
        del slices
    else:
        db = MultiModelDB()
        load_into_multimodel(db, data)
    del data
    if args.wal:
        db.attach_wal(args.wal, sync=False)
    fsyncs = obs_metrics.counter("wal_fsyncs_total")
    fsyncs_before = fsyncs.value

    server = ReproServer(db, port=args.port, shard_id=args.shard_id, shard_map=shard_map)
    _, port = server.start_in_thread()
    print(f"READY {port}", flush=True)
    try:
        sys.stdin.read()
    finally:
        server.stop()
        db.close()
    print(json.dumps({
        "plan_cache": db.plan_cache.stats(),
        "db": db.stats(),
        "wal_fsyncs": fsyncs.value - fsyncs_before,
        "peak_rss_mb": peak_rss_mb(),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
