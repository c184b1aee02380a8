package main

import "time"

// metricDecl names one metric. BENCHMARK.json carries the same lists; a
// test keeps the two in step. Bound is the share of the parent's median by
// which an end-to-end metric may get worse; per-layer metrics have none.
type metricDecl struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a caller of the service sees, on every workload. The
// benchmark contract wants every end-to-end metric from every workload and
// never zero, so the user-visible numbers that exist on one workload only
// (pages_per_query, stream_*, ingest_*, write_ack_*, fail_ratio) are
// reported with the per-layer set under their own names; see README.md.
//
// The bounds are three times the widest spread seen over ten seeds on the
// 2-core sandbox, rounded up: identical CPU-bound runs differ by 3-6 % there
// (README.md "Steadiness"), so the issue's 10 % would flap.
var endToEnd = []metricDecl{
	{"qps", "1/s", "higher", 0.20},
	{"q1_p50_ms", "ms", "lower", 0.20},
	{"q3_p50_ms", "ms", "lower", 0.20},
	{"q4_p50_ms", "ms", "lower", 0.20},
	{"query_p90_ms", "ms", "lower", 0.25},
	{"disk_bytes_per_edge", "B", "lower", 0.02},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is printed by the traced run: one block per package, plus the
// generator's own numbers and the single-workload caller-visible metrics.
var perLayer = []metricDecl{
	// Caller-visible, defined on one workload each (0 elsewhere).
	{"fail_ratio", "ratio", "lower", 0},
	{"pages_per_query", "count", "lower", 0},
	{"stream_rows_per_s", "1/s", "higher", 0},
	{"stream_first_row_p50_ms", "ms", "lower", 0},
	{"ingest_ops_per_s", "1/s", "higher", 0},
	{"write_ack_p50_ms", "ms", "lower", 0},
	{"write_ack_p90_ms", "ms", "lower", 0},

	{"client.requests", "count", "higher", 0},
	{"client.failed", "count", "lower", 0},
	{"client.http_overhead_us_p50", "us", "lower", 0},
	{"client.class_p50_ms.q1", "ms", "lower", 0},
	{"client.class_p50_ms.q3", "ms", "lower", 0},
	{"client.class_p50_ms.q4", "ms", "lower", 0},

	{"server.queue_ms_p50", "ms", "lower", 0},
	{"server.rejected_429", "count", "lower", 0},
	{"server.plan_cached_ratio", "ratio", "higher", 0},
	{"server.emit_rows_per_s", "1/s", "higher", 0},
	{"server.cohort_riders_mean", "count", "higher", 0},
	{"server.shared_pages_ratio", "ratio", "higher", 0},
	{"server.compactions", "count", "higher", 0},
	{"server.compact_ms_p50", "ms", "lower", 0},
	{"server.overlay_vertices_max", "count", "lower", 0},

	{"plan.prepare_us.q1", "us", "lower", 0},
	{"plan.prepare_us.q3", "us", "lower", 0},
	{"plan.prepare_us.q4", "us", "lower", 0},
	{"plan.cache_hit_ns", "ns", "lower", 0},
	{"plan.prep_share", "ratio", "lower", 0},
	{"graph.canonical_us", "us", "lower", 0},

	{"core.exec_ms_p50.q1", "ms", "lower", 0},
	{"core.exec_ms_p50.q3", "ms", "lower", 0},
	{"core.exec_ms_p50.q4", "ms", "lower", 0},
	{"core.io_wait_share", "ratio", "lower", 0},
	{"core.pin_wait_ms", "ms", "lower", 0},
	{"core.windows_per_query", "count", "lower", 0},
	{"core.windows_level1", "count", "lower", 0},
	{"core.pages_read_per_query.q1", "count", "lower", 0},
	{"core.pages_read_per_query.q3", "count", "lower", 0},
	{"core.pages_read_per_query.q4", "count", "lower", 0},
	{"core.model_distance.q1", "ratio", "lower", 0},
	{"core.model_distance.q4", "ratio", "lower", 0},
	{"core.silvestri_distance.q1", "ratio", "lower", 0},
	{"core.silvestri_distance.q4", "ratio", "lower", 0},
	{"core.embeddings_per_s", "1/s", "higher", 0},
	{"core.steal_splits", "count", "higher", 0},
	{"core.direct_run_ms.q1", "ms", "lower", 0},
	{"core.direct_run_ms.q4", "ms", "lower", 0},
	{"core.sweep_load_us_per_window", "us", "lower", 0},
	{"core.load_share_est", "ratio", "lower", 0},

	{"buffer.hit_ratio", "ratio", "higher", 0},
	{"buffer.coalesced_pages_per_run", "count", "higher", 0},
	{"buffer.prefetch_useful_ratio", "ratio", "higher", 0},
	{"buffer.evictions", "count", "lower", 0},
	{"buffer.pin_ns.hit100", "ns", "lower", 0},
	{"buffer.pin_ns.hit50", "ns", "lower", 0},
	{"buffer.pin_ns.hit0", "ns", "lower", 0},
	{"buffer.run_read_pages_per_s", "1/s", "higher", 0},

	{"storage.read_ns_per_page.seq", "ns", "lower", 0},
	{"storage.read_ns_per_page.rand", "ns", "lower", 0},
	{"storage.parse_ns_per_page.plain", "ns", "lower", 0},
	{"storage.parse_ns_per_page.compressed", "ns", "lower", 0},
	{"storage.parse_lazy_ns_per_page.compressed", "ns", "lower", 0},
	{"storage.parse_ns_per_record", "ns", "lower", 0},
	{"storage.build_ns_per_edge.plain", "ns", "lower", 0},
	{"storage.build_ns_per_edge.compressed", "ns", "lower", 0},
	{"storage.compact_ms", "ms", "lower", 0},
	{"storage.stamp_epoch_us", "us", "lower", 0},
	{"storage.adj_bytes_per_edge", "B", "lower", 0},
	{"storage.fill_factor", "ratio", "higher", 0},

	{"graph.intersect_ns_per_elem.balanced", "ns", "lower", 0},
	{"graph.intersect_ns_per_elem.skewed", "ns", "lower", 0},
	{"graph.intersect_compressed_ns_per_elem", "ns", "lower", 0},
	{"graph.intersect_kway_ns_per_elem", "ns", "lower", 0},
	{"graph.decode_ns_per_elem", "ns", "lower", 0},
	{"graph.gallop_ratio", "ratio", "higher", 0},
	{"graph.kway_ratio", "ratio", "higher", 0},

	{"delta.apply_us_per_batch.empty", "us", "lower", 0},
	{"delta.apply_us_per_batch.10k", "us", "lower", 0},
	{"delta.snapshot_apply_ns_per_vertex", "ns", "lower", 0},

	{"obs.profile_overhead_pct", "%", "lower", 0},

	{"process.peak_heap_mb", "MB", "lower", 0},
	{"process.gc_pause_ms", "ms", "lower", 0},
	{"process.cpu_s", "s", "lower", 0},
}

// Query classes. "q3s" is q3 in embeddings mode: the same plan, every row
// streamed back as NDJSON.
const (
	classQ1       = "q1"
	classQ3       = "q3"
	classQ4       = "q4"
	classQ3Stream = "q3s"
)

// countClasses are the classes with a per-class latency metric.
var countClasses = []string{classQ1, classQ3, classQ4}

// workload is one traffic mix and the server configuration it runs on.
type workload struct {
	Name string
	// Why is the one line BENCHMARK.json carries.
	Why string
	// Compress builds the database delta-varint compressed.
	Compress bool
	// Clients holds one class list per closed-loop query connection: the
	// cycle that client steps through.
	Clients [][]string
	// Relabel spells every second request as a relabelled edge list
	// isomorphic to the named query, so the canonical form and the plan
	// cache are on the path.
	Relabel bool
	// Engines and Threads size the server's pool.
	Engines, Threads int
	// BufferFraction is the global buffer as a share of the database's
	// pages; above 1 the whole graph stays resident.
	BufferFraction float64
	// PrefetchFrames is the per-level cross-window prefetch carve.
	PrefetchFrames int
	// PerPageLatency and SeekLatency are the engine's simulated device.
	PerPageLatency, SeekLatency time.Duration
	// ShareScan turns on cohort execution with CohortRiders seats.
	ShareScan    bool
	CohortRiders int
	// Writer adds one closed-loop connection posting an edge batch every
	// WriterPeriod to a mutable server that compacts every CompactEvery ops.
	Writer       bool
	WriterPeriod time.Duration
	CompactEvery int
}

// writerBatch is the number of edge ops per POST /edges body.
const writerBatch = 50

// The buffer fractions sit above the issue's (0.30, 0.15, 0.30): the graph
// was shrunk to a third so that a 20 s box holds the sample floors, and at
// 129 plain / 72 compressed pages the issue's fractions leave fewer frames
// than one maximal vertex plus a rider share needs. See README.md "Sizing".
var workloads = []workload{
	{
		Name:    "slow_disk",
		Why:     "buffer well below the graph on a simulated HDD: pages read, run coalescing and I/O overlap decide latency",
		Clients: [][]string{{classQ1, classQ3, classQ4}},
		Engines: 1, Threads: 2, BufferFraction: 0.40,
		// The prefetch carve needs a level allocation of 64 frames before it
		// engages, so it is idle on the default tier and live on the large one.
		PrefetchFrames: 16,
		PerPageLatency: 200 * time.Microsecond, SeekLatency: 2 * time.Millisecond,
	},
	{
		Name:    "warm_enum",
		Why:     "buffer above the graph, every pin a hit: kernels, match scheduling and NDJSON emit do all the work",
		Clients: [][]string{{classQ1, classQ3, classQ4, classQ3Stream}},
		Engines: 1, Threads: 2, BufferFraction: 1.2,
	},
	{
		// One client keeps a 4-clique sweep turning while the other boards
		// it with the two light classes. With both clients on the same
		// three-class cycle, offset by one, each class met two different
		// partners in turn and its latency had two modes whose median moved
		// by 5 % between identical runs; this way each class has one.
		Name:     "concurrent_mix",
		Why:      "two clients on a compressed graph with shared scans: window churn, lazy parse, cohorts and the plan cache",
		Compress: true, Clients: [][]string{{classQ1, classQ3}, {classQ4}}, Relabel: true,
		Engines: 2, Threads: 1, BufferFraction: 0.30, ShareScan: true, CohortRiders: 2,
	},
	{
		// The writer is paced, not saturating: back-to-back batches (800/s)
		// took every cycle the two cores had left and the reader's medians
		// then moved by 9-12 % between identical runs; at 200/s by 3-9 %,
		// at 100/s by 2-5 %, which is what the CPU-bound workloads without
		// a writer do on this machine.
		Name:    "ingest_mix",
		Why:     "an edge writer at 100 batches/s beside a reader: overlay merge, epoch stamps, plan invalidation and compaction",
		Clients: [][]string{{classQ1, classQ3, classQ4}},
		Engines: 1, Threads: 2, BufferFraction: 0.30,
		Writer: true, WriterPeriod: 10 * time.Millisecond, CompactEvery: 8000,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
