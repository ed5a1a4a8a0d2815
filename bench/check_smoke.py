#!/usr/bin/env python3
"""Gates of the bench-smoke CI job, runnable on a local run's outputs.

Smoke check (default) -- reads, from --dir (default: the working directory):
  bench-smoke.json          subset_rp_bench --summary-only --small --threads 1,4
  bench-smoke-oracle.json   two_fault_oracle_table --threads 4
  bench-smoke-serve.json    serve_bench --small --threads 1,4 --large-n 100000
  bench-smoke-metrics.json  ... its --metrics-out
  bench-smoke-traces.jsonl  ... its --trace-out

Million-node check -- `--million-node PATH` reads the JSON of
  serve_bench --small --threads 1 --queries 500 --graph-file big-1m.rcsr

Any failed gate raises AssertionError (non-zero exit) naming the row.
"""
import argparse
import json
import os

# Interleaved trials behind every timing gate of serve_bench (its kTrials):
# the serve and serve_eps gates read the median of this many runs per mode.
TRIALS = 5


def check_smoke(d):
    def path(name):
        return os.path.join(d, name)

    rows = json.load(open(path("bench-smoke.json")))
    assert rows, "bench emitted no rows"
    for r in rows:
        assert r["alg1_ms"] > 0, f"zero-time row (bench broken?): {r}"
        assert r["naive_ms"] > 0, f"zero-time row (bench broken?): {r}"
    t1 = [r for r in rows if r["threads"] == 1]
    t4 = [r for r in rows if r["threads"] == 4]
    assert t1 and t4, "missing a --threads axis point"

    oracle = json.load(open(path("bench-smoke-oracle.json")))
    assert oracle, "oracle bench emitted no rows"
    for r in oracle:
        assert r["correct"] == r["queries"], f"oracle answered wrong: {r}"

    serve = json.load(open(path("bench-smoke-serve.json")))
    assert serve, "serve bench emitted no rows"
    for r in serve:
        assert r["correct"] == r["checked"], f"server answered wrong: {r}"
        # serve_burst rows report apply/recovery latency, not qps.
        if "qps" in r:
            assert r["qps"] > 0, f"zero-qps row (bench broken?): {r}"
    for r in serve:
        if r["bench"] in ("serve", "serve_eps"):
            trials = r["qps_trials"].split(",")
            assert len(trials) == TRIALS, \
                f"qps is not the median of {TRIALS} trials: {r}"
    # speedup_vs_off is the ratio of the two modes' median qps (qps_trials
    # holds each mode's interleaved trials); cache_off recomputes every tree.
    on = [r for r in serve if r["mode"] == "cache_on"]
    assert on, "missing cache_on rows"
    for r in on:
        assert r["hit_rate"] > 0.5, f"cache never hit: {r}"
        assert r["speedup_vs_off"] >= 2, f"cache slower than recompute: {r}"
        # The artifact must record the cache memory high-water mark
        # and the flush-shape telemetry.
        assert r["cache_sum_shard_peak_bytes"] > 0, f"no peak-bytes stat: {r}"
        assert "batch_hist" in r and "max_queue_depth" in r, \
            f"missing batcher telemetry: {r}"
        off = [o for o in serve if o["mode"] == "cache_off"
               and o["family"] == r["family"]
               and o["threads"] == r["threads"]]
        assert off and r["bytes_per_query"] < off[0]["bytes_per_query"], \
            f"zero-copy serving did not reduce bytes/query: {r}"

    # Admission scenario: segmented must keep the base trees at least
    # as hot as the flat LRU under the fault scan.
    scan = [r for r in serve if r["bench"] == "serve_scan"]
    assert scan, "missing serve_scan rows"
    for r in [s for s in scan if s["mode"] == "scan_segmented"]:
        flat = [s for s in scan if s["mode"] == "scan_flat"
                and s["family"] == r["family"]
                and s["threads"] == r["threads"]]
        assert flat, f"scan_segmented row without flat baseline: {r}"
        assert r["base_hit_rate"] >= flat[0]["base_hit_rate"], \
            f"segmented admission lost base trees vs flat LRU: {r}"

    # Churn scenario: across seeded edge flaps through apply_update,
    # (a) every sampled answer matched a from-scratch rebuild of that
    # phase's topology (already covered by the correct == checked
    # assertion above), (b) a positive fraction of cached trees was
    # carried forward instead of recomputed, and (c) post-update
    # phases kept serving from the cache -- no full flush.
    churn = [r for r in serve if r["bench"] == "serve_churn"]
    assert churn, "missing serve_churn rows"
    for r in churn:
        assert r["checked"] > 0, f"churn run sampled nothing: {r}"
        assert r["carried_fraction"] > 0 and r["carried_total"] > 0, \
            f"no trees carried forward across updates: {r}"
        assert r["invalidated_total"] > 0, \
            f"flaps never invalidated an affected root: {r}"
        assert "seed" in r, f"churn row does not record its seed: {r}"
        traj = [float(x) for x in r["hit_rate_trajectory"].split(",")]
        assert len(traj) == r["flaps"] + 1, f"trajectory truncated: {r}"
        assert min(traj[1:]) > 0, \
            f"a post-update phase served with a flushed cache: {r}"

    # Burst scenario: ONE apply_updates batch (one cache walk, one
    # epoch bump, one repair engine batch) must beat the k single-flap
    # applies of the SAME deltas, with incremental repairs actually
    # firing and every sampled answer bit-identical to a rebuild (the
    # correct == checked assertion above covers burst rows too).
    # apply_ms is the median of the interleaved trials (apply_ms_trials).
    burst = [r for r in serve if r["bench"] == "serve_burst"]
    assert burst, "missing serve_burst rows"
    for r in [b for b in burst if b["mode"] == "burst"]:
        single = [s for s in burst if s["mode"] == "single"
                  and s["family"] == r["family"]
                  and s["threads"] == r["threads"]]
        assert single, f"burst row without single-flap baseline: {r}"
        assert r["apply_ms"] < single[0]["apply_ms"], \
            f"batched burst slower than k single flaps: {r} vs {single[0]}"
        assert r["repaired_total"] > 0, \
            f"burst never repaired a tree incrementally: {r}"

    # Epoch-pinned (RCU) scenario: structural and correctness checks
    # only -- NO timing asserts (shared CI runners make the
    # p99_churn / p99_nochurn ratio noisy in both directions; the
    # committed BENCH_SERVE.json is the honest trajectory record).
    # Every sampled answer under churn must have matched a rebuild
    # of one of the two live topologies (correct == checked above),
    # epoch-pinned reads are the only mode (the shared-lock regime
    # is deleted), and the generation counters must show publishes
    # happened and retirement kept pace (<= 2 generations ever live).
    rcu = [r for r in serve if r["bench"] == "serve_churn_rcu"]
    assert rcu, "missing serve_churn_rcu rows"
    for r in rcu:
        assert r["checked"] > 0, f"rcu run sampled nothing: {r}"
        assert r["updates"] > 0, f"mutator never applied an update: {r}"
    modes = {r["mode"] for r in rcu}
    assert modes == {"rcu"}, f"unexpected concurrency modes: {modes}"
    for r in rcu:
        assert r["gen_published"] >= r["updates"], \
            f"updates outran generation publishes: {r}"
        assert r["gen_retired"] >= r["gen_published"] - 2, \
            f"generation retirement fell behind: {r}"
        assert r["gen_live"] <= 2, f"more than 2 generations live: {r}"

    # Approximate-tier scenario: exact (epsilon 0) and approximate
    # (--epsilon) servers ran the IDENTICAL shortcut-churn schedule.
    # (a) every sampled approximate answer lay within the
    # (1+eps)^d_exact * d_exact stretch bound of a from-scratch exact
    # rebuild (within_bound == checked; the correct == checked assert
    # above covers it because serve_eps rows define correct as
    # contract-correct), (b) the approximate tier sustained at least
    # the exact tier's throughput on the same schedule (its slack
    # survival test carries trees across the churn that the exact
    # tier recomputes; qps is the median of the interleaved trials,
    # qps_trials), and (c) its churn carried fraction is at least the
    # exact tier's.
    eps_rows = [r for r in serve if r["bench"] == "serve_eps"]
    assert eps_rows, "missing serve_eps rows"
    for r in eps_rows:
        assert r["checked"] > 0, f"eps run sampled nothing: {r}"
        assert r["within_bound"] == r["checked"], \
            f"answer outside the (1+eps)^d stretch bound: {r}"
    for r in [x for x in eps_rows if x["mode"] == "approx"]:
        exact = [x for x in eps_rows if x["mode"] == "exact"
                 and x["family"] == r["family"]
                 and x["threads"] == r["threads"]
                 and x["epsilon"] == r["epsilon"]]
        assert exact, f"approx row without exact baseline: {r}"
        assert r["qps"] >= exact[0]["qps"], \
            f"approx tier slower than exact on the same churn: " \
            f"{r['qps']} vs {exact[0]['qps']}"
        assert r["carried_fraction"] >= exact[0]["carried_fraction"], \
            f"eps slack carried fewer trees than exact: {r}"
        assert r["invalidated_total"] + r["carried_total"] > 0, \
            f"churn never adjudicated a tree: {r}"
        if r["metrics"] == "on":
            assert r["approx_hit"] > 0, \
                f"approx tier never served an approximate hit: {r}"
            assert r["stretch_samples"] > 0 and \
                r["escalations_stretch_recheck"] > 0, \
                f"stretch re-check sampling never fired: {r}"

    # Large-graph capacity scenario: the published (compact) form on
    # the 10^5-node generated graph, in memory and over mmap, under a
    # budget sized to hold exactly hot_roots / 2 FAT trees. (a) bytes
    # per tree must be <= 0.6x the fat probe's (the layout guarantees
    # 0.5x on connected graphs -- 0.6 leaves allocator slack), (b) the
    # same budget must hold STRICTLY more trees than the hot_roots / 2
    # it fits in fat form (the whole point of the form), and (c) every
    # sampled answer must equal a from-scratch reference tree's --
    # compaction and the frozen-CSR mmap round-trip change bytes,
    # never answers.
    large = [r for r in serve if r["bench"] == "serve_large"]
    assert large, "missing serve_large rows"
    for r in large:
        assert r["samples"] > 0, f"serve_large sampled nothing: {r}"
        assert r["samples_match"] == r["samples"], \
            f"answers diverged from the reference trees: {r}"
        assert r["trees_resident"] > 0 and r["bytes_per_tree"] > 0, r
        assert r["bytes_per_tree"] <= 0.6 * r["fat_bytes_per_tree"], \
            f"compact trees did not shrink enough: {r}"
        assert r["trees_resident"] > r["hot_roots"] / 2, \
            f"compaction did not raise residency at fixed budget: {r}"
    large_modes = {r["mode"] for r in large}
    assert large_modes == {"compact", "compact_mmap"}, \
        f"missing a serve_large mode: {large_modes}"
    for r in [x for x in large if x["mode"] == "compact_mmap"]:
        assert r["load_ms"] > 0 and r["file_bytes"] > 0, \
            f"frozen-CSR restart path never loaded: {r}"

    # Sharded-serving scenario: across shards {1, 2, 4}, (a) the
    # deterministic digest stream must be bit-identical to the
    # shards=1 reference (and to a from-scratch rebuild of each churn
    # phase's topology -- the correct == checked assertion above
    # covers that half), (b) the group-by-shard front-end must batch
    # BELOW one serve_batch submission per routed sub-query and cut
    # submissions >= 2x against one per sub-query (the naive
    # front-end) on the cross-shard fan-out workload, and (c) the
    # front-end outcome classes must account for every routed
    # sub-query and every churn flap must have gone through the
    # epoch-coherent fan-out.
    sharded = [r for r in serve if r["bench"] == "serve_sharded"]
    assert sharded, "missing serve_sharded rows"
    shard_axis = {r["shards"] for r in sharded}
    assert {1, 4} <= shard_axis, f"missing a shard-count axis: {shard_axis}"
    for r in sharded:
        assert r["samples"] > 0, f"sharded run sampled nothing: {r}"
        assert r["samples_match"] == r["samples"], \
            f"answers diverged from the shards=1 stream: {r}"
        assert r["remote_hits"] + r["aggregated"] == r["subqueries"], \
            f"front-end outcomes do not sum to subqueries: {r}"
        assert r["fanouts"] == r["flaps"], \
            f"a churn flap skipped the epoch-coherent fan-out: {r}"
        assert r["driver_threads"] + r["engine_threads"] == \
            max(2, r["threads"]), f"thread split does not add up: {r}"
        assert r["submissions_per_subquery"] < 1.0, \
            f"front-end never batched below 1 submission/sub-query: {r}"
        assert r["submissions"] * 2 <= r["subqueries"], \
            f"front-end cut submissions by < 2x: {r}"

    # Observability: the --metrics-out document must cover EVERY
    # component of the serving stack (one MetricsRegistry::snapshot()
    # per measured server, flat per-metric rows tagged with their
    # measurement), the latency decomposition must be present on the
    # cache_on serve rows, and the sampled JSONL traces must parse
    # with a single root span per trace.
    metrics = json.load(open(path("bench-smoke-metrics.json")))
    assert metrics, "metrics dump emitted no rows"
    components = {m["component"] for m in metrics}
    expected = {"server", "cache", "batcher", "generations", "engine"}
    assert components >= expected, \
        f"metrics document missing components: {expected - components}"
    on_components = {m["component"] for m in metrics
                     if m["bench"] == "serve" and m["mode"] == "cache_on"}
    assert on_components >= expected, \
        f"cache_on snapshot incomplete: {expected - on_components}"
    for m in metrics:
        assert m["kind"] in ("counter", "gauge", "histogram"), m
        if m["kind"] == "histogram":
            bucket_total = sum(int(x) for x in m["buckets"].split(","))
            assert bucket_total == m["value"], \
                f"histogram count != bucket sum: {m}"
    for r in on:
        for f in ("base_hit", "fault_hit", "miss_coalesced",
                  "miss_leader", "queue_wait_ms", "coalesce_wait_ms",
                  "compute_ms", "repair_ms", "metrics"):
            assert f in r, f"serve row missing decomposition field {f}: {r}"
        fetches = (r["base_hit"] + r["fault_hit"] +
                   r["miss_coalesced"] + r["miss_leader"])
        assert fetches > 0, f"no classified fetches recorded: {r}"

    traces = [json.loads(l) for l in open(path("bench-smoke-traces.jsonl"))
              if l.strip()]
    assert traces, "tracer emitted no sampled traces"
    for t in traces:
        roots = [s for s in t["spans"] if s["parent"] == -1]
        assert len(roots) == 1 and roots[0]["name"] == "query", \
            f"trace without a single query root: {t}"
        for s in t["spans"]:
            assert s["parent"] < s["id"], f"child precedes parent: {t}"

    print(f"OK: {len(rows)} subset-rp rows, {len(oracle)} oracle rows, "
          f"{len(serve)} serve rows ({len(scan)} admission-scan rows, "
          f"{len(churn)} churn rows, {len(burst)} burst rows, "
          f"{len(rcu)} rcu rows, {len(eps_rows)} eps rows, "
          f"{len(large)} large rows, {len(sharded)} sharded rows), "
          f"{len(metrics)} metric rows over "
          f"{len(components)} components, {len(traces)} traces")


def check_million_node(json_path):
    rows = [r for r in json.load(open(json_path))
            if r["bench"] == "serve_large"]
    assert rows, "million-node run emitted no serve_large rows"
    for r in rows:
        assert r["n"] >= 1000000, f"not the million-node graph: {r}"
        assert r["samples"] > 0 and r["samples_match"] == r["samples"], \
            f"answers diverged from the reference trees at n=10^6: {r}"
    print(f"OK: {len(rows)} million-node rows")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dir", default=".",
                    help="directory holding the bench-smoke outputs")
    ap.add_argument("--million-node", metavar="PATH",
                    help="check this million-node serve_bench JSON instead")
    args = ap.parse_args()
    if args.million_node:
        check_million_node(args.million_node)
    else:
        check_smoke(args.dir)


if __name__ == "__main__":
    main()
