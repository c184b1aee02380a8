package core

import (
	"dualsim/internal/buffer"
	"dualsim/internal/obs"
	"dualsim/internal/storage"
)

// engineMetrics holds the engine's registered metric handles. Counters are
// cumulative across runs of one engine; Result.Metrics snapshots them at
// the end of each run. Hot-path increments happen at window granularity or
// batched per worker task, so the cost is negligible (see
// BenchmarkEnumerate ±5% acceptance in ISSUE 2).
type engineMetrics struct {
	runs          *obs.Counter
	windows       *obs.Counter
	windowsLevel1 *obs.Counter
	embInternal   *obs.Counter
	embExternal   *obs.Counter
	ioWaitNanos   *obs.Counter

	// checkpoints counts window-boundary checkpoints delivered to a run's
	// OnCheckpoint callback.
	checkpoints *obs.Counter

	windowLoadUS *obs.Histogram // per-window I/O wait to pin all pages (µs)
	windowPages  *obs.Histogram // pages per merged window
	candSize     *obs.Histogram // candidate list length per v-group child

	workerSubmitted *obs.Counter
	workerCompleted *obs.Counter

	// Kernel-selection counters: which intersection kernel the adaptive
	// dispatch picked (flushed per enumeration task from the arena).
	intersectLinear *obs.Counter
	intersectGallop *obs.Counter
	intersectKWay   *obs.Counter
	// Records/bytes of compressed adjacency loaded into windows (counted per
	// window load).
	compressedRecs  *obs.Counter
	compressedBytes *obs.Counter
	// stealSplits counts bounded work-stealing range splits: a running
	// enumeration task saw the queue drained and handed off half of its
	// remaining candidate range (each split spawns exactly one stolen task).
	stealSplits *obs.Counter
	// overlayVertices counts vertices whose window adjacency was merged
	// with the live-ingest overlay (counted per window load — one vertex
	// appearing in many windows counts once per window). Added from each
	// page's load callback for the records it merged, and from buildSide for
	// mutated multi-page vertices.
	overlayVertices *obs.Counter
}

// registerEngineMetrics wires the engine's components into reg. The buffer
// pool and retry reader keep their own atomic counters; those surface as
// func-backed metrics read at render time, avoiding double bookkeeping.
func registerEngineMetrics(reg *obs.Registry, pool *buffer.Pool, retry *storage.RetryReader) *engineMetrics {
	em := &engineMetrics{
		runs:          reg.Counter("dualsim_runs_total", "enumeration runs started"),
		windows:       reg.Counter("dualsim_windows_total", "merged vertex/page windows processed across all levels (the last level counts one streamed pass per window above it)"),
		windowsLevel1: reg.Counter("dualsim_windows_level1_total", "level-1 (internal area) window iterations"),
		embInternal:   reg.Counter("dualsim_embeddings_internal_total", "embeddings whose red match was entirely inside the internal area"),
		embExternal:   reg.Counter("dualsim_embeddings_external_total", "embeddings found by the external traversal"),
		ioWaitNanos:   reg.Counter("dualsim_io_wait_nanos_total", "orchestrator time blocked on page loads — a window's, or a last-level pass's while one of its reads is outstanding: device reads, pin waits and per-page indexing not hidden by overlap; page callbacks never wait for an enumeration worker and a pass blocked on matching alone is not counted, so no matching time is in it"),

		checkpoints: reg.Counter("dualsim_checkpoints_taken_total", "window-boundary checkpoints delivered to run callbacks"),

		windowLoadUS: reg.Histogram("dualsim_window_load_us", "per-window (last level: per-pass) I/O wait to pin all pages, microseconds"),
		windowPages:  reg.Histogram("dualsim_window_pages", "pages per merged window (last level: per streamed pass)"),
		candSize:     reg.Histogram("dualsim_candidate_size", "candidate vertex sequence length per v-group child"),

		workerSubmitted: reg.Counter("dualsim_worker_tasks_submitted_total", "enumeration tasks submitted to the worker pool"),
		workerCompleted: reg.Counter("dualsim_worker_tasks_completed_total", "enumeration tasks completed by the worker pool"),

		intersectLinear: reg.Counter("dualsim_intersect_linear_total", "pairwise intersections run on the linear-merge kernel"),
		intersectGallop: reg.Counter("dualsim_intersect_gallop_total", "pairwise intersections run on the galloping kernel (skewed list lengths)"),
		intersectKWay:   reg.Counter("dualsim_intersect_kway_total", "smallest-first k-way (>=3 list) intersections"),
		stealSplits:     reg.Counter("dualsim_steal_splits_total", "work-stealing range splits (each spawns one stolen enumeration task)"),

		compressedRecs:  reg.Counter("dualsim_compressed_records_total", "compressed adjacency records loaded into windows (counted per window load)"),
		compressedBytes: reg.Counter("dualsim_compressed_bytes_total", "on-disk bytes of compressed adjacency payloads loaded into windows"),

		overlayVertices: reg.Counter("dualsim_overlay_merged_vertices_total", "mutated records merged with the live-ingest overlay per window load, added by each page's load callback (multi-page vertices after the last one)"),
	}
	reg.CounterFunc("dualsim_embeddings_total", "embeddings found (internal + external)", func() uint64 {
		return em.embInternal.Value() + em.embExternal.Value()
	})
	reg.GaugeFunc("dualsim_worker_queue_depth", "enumeration tasks submitted but not yet completed", func() float64 {
		return float64(em.workerSubmitted.Value()) - float64(em.workerCompleted.Value())
	})

	reg.CounterFunc("dualsim_pages_read_total", "pages physically read from the device", func() uint64 {
		return pool.Stats().PhysicalReads
	})
	reg.CounterFunc("dualsim_logical_reads_total", "buffer pin requests (hit or miss)", func() uint64 {
		return pool.Stats().LogicalReads
	})
	reg.CounterFunc("dualsim_buffer_hits_total", "pin requests satisfied without I/O", func() uint64 {
		return pool.Stats().Hits
	})
	reg.CounterFunc("dualsim_buffer_evictions_total", "buffer frames recycled", func() uint64 {
		return pool.Stats().Evictions
	})
	reg.CounterFunc("dualsim_buffer_pin_wait_nanos_total", "time pinners blocked on in-flight page loads", func() uint64 {
		return pool.Stats().PinWaitNanos
	})
	reg.CounterFunc("dualsim_coalesced_runs_total", "multi-page stretches served with a single simulated seek", func() uint64 {
		return pool.Stats().CoalescedRuns
	})
	reg.CounterFunc("dualsim_coalesced_pages_total", "pages covered by coalesced run reads", func() uint64 {
		return pool.Stats().CoalescedPages
	})
	reg.GaugeFunc("dualsim_buffer_hit_ratio", "buffer hits / logical reads", func() float64 {
		st := pool.Stats()
		if st.LogicalReads == 0 {
			return 0
		}
		return float64(st.Hits) / float64(st.LogicalReads)
	})

	if retry != nil {
		reg.CounterFunc("dualsim_retry_retries_total", "transient-failure read re-attempts", func() uint64 {
			return retry.Stats().Retries
		})
		reg.CounterFunc("dualsim_retry_crc_rereads_total", "checksum-mismatch re-reads (torn-read tolerance)", func() uint64 {
			return retry.Stats().CRCRereads
		})
		reg.CounterFunc("dualsim_retry_recovered_total", "reads that failed at least once but succeeded", func() uint64 {
			return retry.Stats().Recovered
		})
		reg.CounterFunc("dualsim_retry_exhausted_total", "reads that failed even after the full retry budget", func() uint64 {
			return retry.Stats().Exhausted
		})
	}
	return em
}
