package main

// metric declares one reported number. The two lists below are what
// BENCHMARK.json declares; the smoke test holds them equal.
type metric struct {
	name, unit string
	// bound is the share by which an end-to-end metric may get worse
	// before a change counts as a regression; the repeat check uses it.
	bound float64
	// lower says a smaller value is better.
	lower bool
}

// endToEnd are the metrics a user of the system sees; an untraced run
// reports all of them on every workload.
//
//	throughput_ops_s  vpair_cold: closed phase; vpair_hot, vpair_rw: all
//	                  operations ÷ wall; apair_batch: rounds ÷ wall
//	latency_p50_ms    vpair_cold: open phase, from the due time; vpair_hot,
//	latency_p90_ms    vpair_rw: reads; apair_batch: one round
//	cpu_ms_per_op     process CPU time (user+system) of the timed region ÷
//	                  its operations: what halo replication and GC cost
//	                  even when a second core hides them from throughput
//	setup_s           median serving set-up: generate, her.New, restore
//	                  models, host views, build engines, warm up
//	train_s           TrainPathModel + TrainRanker, once per run
//	heap_live_mb      heap in use after a collection at the end of the timed
//	                  region, the measured system still alive: what the
//	                  graphs, engines and caches hold. Peak RSS is a
//	                  per-layer metric: on the small tiers it is mostly
//	                  garbage of set-up and differs by a quarter between
//	                  runs of the same code
var endToEnd = []metric{
	{"throughput_ops_s", "ops/s", 0.25, false},
	{"latency_p50_ms", "ms", 0.25, true},
	{"latency_p90_ms", "ms", 0.25, true},
	{"cpu_ms_per_op", "ms", 0.25, true},
	{"setup_s", "s", 0.25, true},
	{"train_s", "s", 0.25, true},
	{"heap_live_mb", "MB", 0.25, true},
}

// perLayer are the metrics of single layers, named after the package
// they measure; a traced run reports all of them on every workload. The
// ones that come from the timed region (loadgen, runtime, shard queue
// and cache series, write latencies) describe that workload's traffic
// and are 0 where the workload does not use the layer; the others come
// from the probes, which run on the workload's dataset.
var perLayer = []metric{
	{name: "dataset.generate_ms", unit: "ms"},
	{name: "rdb2rdf.map_ms", unit: "ms"},
	{name: "view.compile_direct_ms", unit: "ms"},
	{name: "index.build_ms", unit: "ms"},
	{name: "index.tokens", unit: "count"},
	{name: "learn.train_path_model_s", unit: "s"},
	{name: "learn.train_ranker_s", unit: "s"},
	{name: "text.tokenize_ns_op", unit: "ns"},
	{name: "embed.embed_cold_ns_op", unit: "ns"},
	{name: "embed.mvscore_ns_op", unit: "ns"},
	{name: "index.lookup_us", unit: "us"},
	{name: "index.candidates_per_lookup", unit: "count"},
	{name: "ranking.topk_cold_us", unit: "us"},
	{name: "ranking.topk_warm_ns", unit: "ns"},
	{name: "core.match_cold_us", unit: "us"},
	{name: "core.match_allocs_op", unit: "count"},
	{name: "core.calls_per_vpair", unit: "count"},
	{name: "core.vpair_cold_ms", unit: "ms"},
	{name: "core.cache_hit_ratio", unit: "ratio"},
	{name: "core.cleanups", unit: "count"},
	{name: "core.rechecks", unit: "count"},
	{name: "her.vpair_seq_ms", unit: "ms"},
	{name: "her.apair_seq_ms", unit: "ms"},
	{name: "her.f_measure", unit: "ratio"},
	{name: "her.add_tuple_ms", unit: "ms"},
	{name: "her.add_graph_edge_ms", unit: "ms"},
	{name: "shard.build_ms", unit: "ms"},
	{name: "shard.halo_radius", unit: "count"},
	{name: "shard.replication_factor", unit: "ratio"},
	{name: "shard.vpair_miss_ms", unit: "ms"},
	{name: "shard.vpair_hit_us", unit: "us"},
	{name: "shard.work_amplification", unit: "ratio"},
	{name: "shard.queue_wait_ms_mean", unit: "ms"},
	{name: "shard.compute_ms_mean", unit: "ms"},
	{name: "shard.gather_ms_mean", unit: "ms"},
	{name: "shard.cache_hit_ratio", unit: "ratio"},
	{name: "shard.singleflight_waits", unit: "count"},
	{name: "shard.shed_total", unit: "count"},
	{name: "shard.deltas_per_write", unit: "ratio"},
	{name: "shard.fragment_rebuilds_per_write", unit: "ratio"},
	{name: "shard.full_rebuilds", unit: "count"},
	{name: "shard.cache_survival_ratio", unit: "ratio"},
	{name: "shard.cache_evicted_per_write", unit: "ratio"},
	{name: "server.hit_overhead_us", unit: "us"},
	{name: "server.allocs_per_hit", unit: "count"},
	{name: "server.bytes_per_response", unit: "count"},
	{name: "graph.clone_ms", unit: "ms"},
	{name: "graph.clone_bytes", unit: "count"},
	{name: "graph.partition_ms", unit: "ms"},
	{name: "bsp.apair_bsp_ms", unit: "ms"},
	{name: "bsp.apair_async_ms", unit: "ms"},
	{name: "bsp.supersteps", unit: "count"},
	{name: "bsp.messages", unit: "count"},
	{name: "bsp.invalidations", unit: "count"},
	{name: "bsp.worker_imbalance", unit: "ratio"},
	{name: "bsp.superstep_ms_max", unit: "ms"},
	{name: "runtime.num_gc", unit: "count"},
	{name: "runtime.gc_pause_total_ms", unit: "ms"},
	{name: "runtime.alloc_bytes_per_op", unit: "count"},
	{name: "runtime.peak_rss_mb", unit: "MB"},
	{name: "loadgen.latency_p99_ms", unit: "ms"},
	{name: "loadgen.write_latency_p50_ms", unit: "ms"},
	{name: "loadgen.write_latency_p90_ms", unit: "ms"},
	{name: "loadgen.slo_miss_ratio", unit: "ratio"},
	{name: "loadgen.error_ratio", unit: "ratio"},
	{name: "loadgen.late_p99_ms", unit: "ms"},
	{name: "loadgen.backlog_max", unit: "count"},
	{name: "trace.unexplained_ratio", unit: "ratio"},
	{name: "trace.overhead_ratio", unit: "ratio"},
}
