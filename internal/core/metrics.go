package core

import (
	"dualsim/internal/obs"
	"dualsim/internal/storage"
)

// engineMetrics holds the engine's registered metric handles. Counters are
// cumulative and live in the registry, so every engine on one registry (a
// server's pool, its cohort engine, their replacements after a compaction or
// a recycle) counts into the same ones; Result.Metrics snapshots them at the
// end of each run. What a query owns is counted only into its run's scope
// (obs.Scope): the counters that mirror a scope field are fed by the
// engine's settle, at every level-1 window release and the end of every run,
// rider or sweep. The pool's evictions and the retry reader's counts, which
// no query owns, settle beside them. The rest are counted straight into the
// registry.
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
	intersectProbe  *obs.Counter
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

	// The pool's and the retry layer's counters, as settled.
	pagesRead, logicalReads, bufferHits, evictions, pinWaitNanos *obs.Counter
	coalescedRuns, coalescedPages                                *obs.Counter
	retries, crcRereads, recovered, exhausted                    *obs.Counter
	// settledEvictions and settledRetry are this engine's pool evictions and
	// retry reader counts as of its last settle. Written under the engine's
	// run guard.
	settledEvictions uint64
	settledRetry     storage.RetryStats
}

// registerEngineMetrics wires the engine's metrics into reg, sharing any that
// another engine on reg registered first.
func registerEngineMetrics(reg *obs.Registry) *engineMetrics {
	em := &engineMetrics{
		runs:          reg.Counter("dualsim_runs_total", "enumeration runs started"),
		windows:       reg.Counter("dualsim_windows_total", "merged vertex/page windows processed across all levels (the last level counts one streamed pass per window above it), settled at level-1 window boundaries"),
		windowsLevel1: reg.Counter("dualsim_windows_level1_total", "level-1 (internal area) window iterations, settled at level-1 window boundaries"),
		embInternal:   reg.Counter("dualsim_embeddings_internal_total", "embeddings whose red match was entirely inside the internal area, settled at level-1 window boundaries"),
		embExternal:   reg.Counter("dualsim_embeddings_external_total", "embeddings found by the external traversal, settled at level-1 window boundaries"),
		ioWaitNanos:   reg.Counter("dualsim_io_wait_nanos_total", "orchestrator time blocked on page loads — a window's, or a last-level pass's while one of its reads is outstanding: device reads, pin waits and per-page indexing not hidden by overlap; page callbacks never wait for an enumeration worker and a pass blocked on matching alone is not counted, so no matching time is in it; settled at level-1 window boundaries"),

		checkpoints: reg.Counter("dualsim_checkpoints_taken_total", "window-boundary checkpoints delivered to run callbacks, settled at level-1 window boundaries"),

		windowLoadUS: reg.Histogram("dualsim_window_load_us", "per-window (last level: per-pass) I/O wait to pin all pages, microseconds"),
		windowPages:  reg.Histogram("dualsim_window_pages", "pages per merged window (last level: per streamed pass)"),
		candSize:     reg.Histogram("dualsim_candidate_size", "candidate vertex sequence length per v-group child"),

		workerSubmitted: reg.Counter("dualsim_worker_tasks_submitted_total", "enumeration tasks submitted to the worker pool"),
		workerCompleted: reg.Counter("dualsim_worker_tasks_completed_total", "enumeration tasks completed by the worker pool"),

		intersectLinear: reg.Counter("dualsim_intersect_linear_total", "pairwise intersections run on the linear-merge kernel, settled at level-1 window boundaries"),
		intersectGallop: reg.Counter("dualsim_intersect_gallop_total", "pairwise intersections run on the galloping kernel (skewed list lengths), settled at level-1 window boundaries"),
		intersectKWay:   reg.Counter("dualsim_intersect_kway_total", "smallest-first k-way (>=3 list) intersections, settled at level-1 window boundaries"),
		intersectProbe:  reg.Counter("dualsim_intersect_probe_total", "lists probed against the marked list of the position their sibling intersections share, settled at level-1 window boundaries"),
		stealSplits:     reg.Counter("dualsim_steal_splits_total", "work-stealing range splits (each spawns one stolen enumeration task), settled at level-1 window boundaries"),

		compressedRecs:  reg.Counter("dualsim_compressed_records_total", "compressed adjacency records loaded into windows (counted per window load)"),
		compressedBytes: reg.Counter("dualsim_compressed_bytes_total", "on-disk bytes of compressed adjacency payloads loaded into windows"),

		overlayVertices: reg.Counter("dualsim_overlay_merged_vertices_total", "mutated records merged with the live-ingest overlay per window load, added by each page's load callback (multi-page vertices after the last one)"),

		pagesRead:      reg.Counter("dualsim_pages_read_total", "pages physically read from the device, settled at level-1 window boundaries"),
		logicalReads:   reg.Counter("dualsim_logical_reads_total", "buffer pin requests, hit or miss, settled at level-1 window boundaries"),
		bufferHits:     reg.Counter("dualsim_buffer_hits_total", "pin requests satisfied without I/O, settled at level-1 window boundaries"),
		evictions:      reg.Counter("dualsim_buffer_evictions_total", "buffer frames recycled, settled at level-1 window boundaries"),
		pinWaitNanos:   reg.Counter("dualsim_buffer_pin_wait_nanos_total", "time pinners blocked on in-flight page loads, settled at level-1 window boundaries"),
		coalescedRuns:  reg.Counter("dualsim_coalesced_runs_total", "multi-page stretches served with a single simulated seek, settled at level-1 window boundaries"),
		coalescedPages: reg.Counter("dualsim_coalesced_pages_total", "pages covered by coalesced run reads, settled at level-1 window boundaries"),

		retries:    reg.Counter("dualsim_retry_retries_total", "transient-failure read re-attempts, settled at level-1 window boundaries"),
		crcRereads: reg.Counter("dualsim_retry_crc_rereads_total", "checksum-mismatch re-reads (torn-read tolerance), settled at level-1 window boundaries"),
		recovered:  reg.Counter("dualsim_retry_recovered_total", "reads that failed at least once but succeeded, settled at level-1 window boundaries"),
		exhausted:  reg.Counter("dualsim_retry_exhausted_total", "reads that failed even after the full retry budget, settled at level-1 window boundaries"),
	}
	reg.CounterFunc("dualsim_embeddings_total", "embeddings found (internal + external)", func() uint64 {
		return em.embInternal.Value() + em.embExternal.Value()
	})
	reg.GaugeFunc("dualsim_worker_queue_depth", "enumeration tasks submitted but not yet completed", func() float64 {
		return float64(em.workerSubmitted.Value()) - float64(em.workerCompleted.Value())
	})
	reg.GaugeFunc("dualsim_buffer_hit_ratio", "buffer hits / logical reads", func() float64 {
		logical := em.logicalReads.Value()
		if logical == 0 {
			return 0
		}
		return float64(em.bufferHits.Value()) / float64(logical)
	})
	return em
}

// settle moves what sc counted since its last settle into the counters
// that mirror its fields, and the pool's evictions and the retry reader's
// counts since the engine's last settle into theirs, and returns sc's delta.
// Called under the run guard, at every level-1 window boundary and at the end
// of every run, rider or sweep.
func (e *Engine) settle(sc *obs.Scope) obs.CostProfile {
	em, d := e.em, sc.Settle()
	em.pagesRead.Add(d.PagesRead)
	em.logicalReads.Add(d.LogicalReads)
	em.bufferHits.Add(d.BufferHits)
	em.pinWaitNanos.Add(uint64(d.PinWaitNS))
	em.coalescedRuns.Add(d.CoalescedRuns)
	em.coalescedPages.Add(d.CoalescedPages)
	em.ioWaitNanos.Add(uint64(d.IOWaitNS))
	em.windows.Add(d.Windows)
	em.windowsLevel1.Add(d.WindowsLevel1)
	em.intersectLinear.Add(d.IntersectLinear)
	em.intersectGallop.Add(d.IntersectGallop)
	em.intersectKWay.Add(d.IntersectKWay)
	em.intersectProbe.Add(d.IntersectProbe)
	em.stealSplits.Add(d.StealSplits)
	em.checkpoints.Add(d.Checkpoints)
	em.embInternal.Add(d.EmbInternal)
	em.embExternal.Add(d.EmbExternal)
	ev, rt, was := e.pool.Evictions(), e.RetryStats(), em.settledRetry
	em.evictions.Add(ev - em.settledEvictions)
	em.retries.Add(rt.Retries - was.Retries)
	em.crcRereads.Add(rt.CRCRereads - was.CRCRereads)
	em.recovered.Add(rt.Recovered - was.Recovered)
	em.exhausted.Add(rt.Exhausted - was.Exhausted)
	em.settledEvictions, em.settledRetry = ev, rt
	return d
}
