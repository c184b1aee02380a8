// Command metricsdoc maintains docs/METRICS.md, the generated reference of
// every metric the service registers: name, type, labels, help text, and
// the paper quantity it observes (DESIGN.md §6c).
//
// Modes:
//
//	metricsdoc -write    regenerate docs/METRICS.md
//	metricsdoc -check    fail (exit 1) if the committed file differs from
//	                     what the code would generate — the staleness gate
//	                     `make lint` and CI run, so a metric added, renamed,
//	                     or re-helped without regenerating the doc is an
//	                     error.
//
// The registry is populated the same way a running service populates it:
// a throwaway database is built in a temp dir and a server (retry layer
// on, so the recovery metrics register too) is constructed over it. Only
// metadata is rendered — no values — so the output is deterministic.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dualsim/internal/core"
	"dualsim/internal/graph"
	"dualsim/internal/obs"
	"dualsim/internal/server"
	"dualsim/internal/storage"
)

const docPath = "docs/METRICS.md"

func main() {
	write := flag.Bool("write", false, "regenerate "+docPath)
	check := flag.Bool("check", false, "fail if "+docPath+" is stale")
	flag.Parse()
	if *write == *check {
		fmt.Fprintln(os.Stderr, "metricsdoc: exactly one of -write or -check is required")
		os.Exit(2)
	}
	doc, err := generate()
	if err != nil {
		fmt.Fprintf(os.Stderr, "metricsdoc: %v\n", err)
		os.Exit(1)
	}
	if *write {
		if err := os.WriteFile(docPath, doc, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "metricsdoc: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("metricsdoc: wrote %s\n", docPath)
		return
	}
	committed, err := os.ReadFile(docPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metricsdoc: reading %s: %v (run `make metrics-doc`)\n", docPath, err)
		os.Exit(1)
	}
	if !bytes.Equal(committed, doc) {
		fmt.Fprintf(os.Stderr, "metricsdoc: %s is stale: the registered metric set or metadata changed.\nRun `make metrics-doc` and commit the result.\n", docPath)
		os.Exit(1)
	}
	fmt.Printf("metricsdoc: %s is up to date (%d metrics)\n", docPath, strings.Count(string(doc), "\n| `"))
}

// registerAll builds a throwaway database and stands up a server over it,
// which registers the full metric surface: engine, buffer pool, retry
// layer, plan cache, breaker, slow log, build info.
func registerAll() ([]obs.MetricInfo, error) {
	dir, err := os.MkdirTemp("", "metricsdoc")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "doc.db")
	// A few triangles; the content is irrelevant, only registration is.
	edges := [][2]graph.VertexID{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}}
	if _, err := storage.Build(path, storage.NewSliceSource(5, edges), storage.BuildOptions{}); err != nil {
		return nil, err
	}
	db, err := storage.Open(path)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	srv, err := server.New(db, server.Config{
		Engines:   1,
		ShareScan: true, // the cohort scheduler registers its metrics eagerly
		Engine: core.Options{
			Threads:      1,
			BufferFrames: 8,
			Retry:        &storage.RetryPolicy{MaxRetries: 1},
		},
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	return srv.Registry().List(), nil
}

// paperNotes maps metric names (exact, or trailing-* prefix) onto the
// paper quantity they observe — the DESIGN.md §6c table in machine form.
var paperNotes = []struct{ pattern, note string }{
	{"dualsim_pages_read_total", "Equation 1's I/O cost: the page reads the dual approach minimizes"},
	{"dualsim_logical_reads_total", "pin requests; with pages_read gives the effective hit rate of the windowed buffer"},
	{"dualsim_buffer_hits_total", "level-wise buffer allocation effectiveness (Figure 9 sweep)"},
	{"dualsim_buffer_hit_ratio", "level-wise buffer allocation effectiveness (Figure 9 sweep)"},
	{"dualsim_buffer_evictions_total", "frame recycling under the fixed page budget"},
	{"dualsim_buffer_pin_wait_nanos_total", "CPU–I/O overlap: enumeration stalls on in-flight reads"},
	{"dualsim_io_wait_nanos_total", "CPU–I/O overlap: orchestrator blocked on window loads"},
	{"dualsim_coalesced_*", "sequential-I/O preservation: multi-page stretches served with one seek"},
	{"dualsim_windows_total", "window iterations, all levels — Algorithm 2's loop structure"},
	{"dualsim_windows_level1_total", "level-1 (outermost) windows: full passes over the page range"},
	{"dualsim_window_pages", "pages per window — the unit the buffer budget divides into"},
	{"dualsim_window_load_us", "per-window load latency, the unit of the overlap analysis"},
	{"dualsim_candidate_size", "candidate-set distribution driving the Cartesian bound (Figure 4)"},
	{"dualsim_embeddings_internal_total", "internal/external split of intermediate results (Table 4)"},
	{"dualsim_embeddings_external_total", "internal/external split of intermediate results (Table 4)"},
	{"dualsim_embeddings_total", "occurrences found (exactly-once)"},
	{"dualsim_intersect_*", "adaptive kernel mix: linear merge vs galloping vs k-way"},
	{"dualsim_compressed_records_total", "compressed adjacency records entering windows — the share of Equation 1's I/O served from the compact encoding"},
	{"dualsim_compressed_bytes_total", "on-disk bytes of compressed adjacency loaded; with pages_read, the bytes-per-edge win of the encoding"},
	{"dualsim_steal_*", "work-stealing activity — parallel speedup headroom (Figure 16)"},
	{"dualsim_worker_*", "parallel speedup headroom (Figure 16): a drained queue means workers starve"},
	{"dualsim_retry_*", "resilient read path recovery activity (§6b)"},
	{"dualsim_checkpoints_taken_total", "checkpoint cadence of the failure-domain layers (§6b)"},
	{"dualsim_window_retries_total", "whole-window recoveries absorbed without losing exactness (§6b)"},
	{"dualsim_resumes_*", "resume-token outcomes (§6b); the stale_epoch label counts tokens invalidated by live ingest"},
	{"dualsim_ingest_*", "live ingest: edge-mutation batches entering the delta overlay (the mutable-graph extension of §4's static layout)"},
	{"dualsim_data_epoch", "monotone mutation clock: every query and resume token is pinned to one epoch"},
	{"dualsim_delta_overlay_vertices", "overlay size awaiting compaction — the memory cost of mutability over the immutable base file"},
	{"dualsim_compactions_total", "overlay folds into a fresh base file: mutability amortized back to §4's sequential layout"},
	{"dualsim_compaction_errors_total", "failed folds (overlay retained, base file unchanged)"},
	{"dualsim_overlay_merged_vertices_total", "page loads that merged live-ingest deltas into the adjacency before any task could read the page"},
	{"dualsim_breaker_*", "pool health: 0 closed / 2 open / 3 half-open (§6b)"},
	{"dualsim_slow_queries_total", "per-query attribution: completed queries at/over the slow-log threshold"},
	{"dualsim_build_info", "build identity (version/commit labels, constant 1)"},
	{"dualsim_runs_total", "enumeration runs executed"},
	{"dualsim_server_cohort_fallbacks_total", "shared-scan eligibility boundary: queries bounced to a solo engine"},
	{"dualsim_server_*", "serving layer: admission, queueing, streaming, drain (§7)"},
	{"dualsim_plan_cache_shared_builds_total", "singleflight plan construction: N concurrent arrivals, one Prepare"},
	{"dualsim_plan_cache_*", "canonical-form plan cache (§7): isomorphic queries share one plan"},
	{"dualsim_cohort_*", "shared-scan cohorts: one level-1 sweep amortized over N riders (§6's scan-sharing corollary)"},
	{"dualsim_shared_windows_total", "windows served once to a whole cohort — the amortized unit of Equation 1"},
	{"dualsim_shared_pages_total", "pages attributed to riders (page count x riders): logical consumption of the shared sweep"},
	{"dualsim_sweep_pages_read_total", "physical reads owned by shared sweeps; with pages_read_total, closes the attribution ledger"},
}

func noteFor(name string) string {
	for _, pn := range paperNotes {
		if strings.HasSuffix(pn.pattern, "*") {
			if strings.HasPrefix(name, strings.TrimSuffix(pn.pattern, "*")) {
				return pn.note
			}
		} else if name == pn.pattern {
			return pn.note
		}
	}
	return "—"
}

func generate() ([]byte, error) {
	metrics, err := registerAll()
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	b.WriteString("# Metrics reference\n\n")
	b.WriteString("Generated by `cmd/metricsdoc` from the live metric registry — do not\n")
	b.WriteString("edit by hand. Regenerate with `make metrics-doc`; `make lint` and CI\n")
	b.WriteString("fail when this file no longer matches the registered metric set.\n\n")
	b.WriteString("All metrics are served at `GET /metrics` (Prometheus text format) and\n")
	b.WriteString("`GET /debug/vars` (JSON snapshot). Histograms use log₂ buckets. The\n")
	b.WriteString("\"paper quantity\" column says what each metric observes from the\n")
	b.WriteString("DUALSIM analysis; see DESIGN.md §6c for the narrative version, and\n")
	b.WriteString("README.md §Observability for the per-query attribution surface\n")
	b.WriteString("(`?profile=1` cost profiles, spans, `GET /debug/slowlog`).\n\n")
	b.WriteString(fmt.Sprintf("%d metrics registered.\n\n", len(metrics)))
	b.WriteString("| metric | type | labels | meaning | paper quantity |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, m := range metrics {
		labels := "—"
		if len(m.Labels) > 0 {
			keys := make([]string, len(m.Labels))
			for i, l := range m.Labels {
				keys[i] = "`" + l.Key + "`"
			}
			labels = strings.Join(keys, ", ")
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n",
			m.Name, m.Kind, labels, escapeCell(m.Help), escapeCell(noteFor(m.Name)))
	}
	return b.Bytes(), nil
}

// escapeCell keeps help strings table-safe.
func escapeCell(s string) string {
	s = strings.ReplaceAll(s, "|", "\\|")
	s = strings.ReplaceAll(s, "\n", " ")
	return s
}
