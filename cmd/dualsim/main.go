// Command dualsim builds graph databases and enumerates subgraphs with the
// DUALSIM engine.
//
// Usage:
//
//	dualsim build  -edges edges.txt -db graph.db [-pagesize 4096] [-compress]
//	dualsim run    -db graph.db -q q1 [-threads 4] [-buffer 0.15] [-timeout 30s] [-print]
//	               [-json] [-profile] [-metrics-addr :8080] [-trace events.jsonl] [-progress 1s]
//	dualsim serve  -db graph.db -addr :8372 [-engines 4] [-queue 16] [-row-limit 100000]
//	               [-trace spans.jsonl] [-slow-query 500ms]
//	dualsim stats  -db graph.db
//	dualsim verify -db graph.db
//	dualsim -version
//
// Queries are q1 (triangle), q2 (square), q3 (chordal square), q4
// (4-clique), q5 (house), or an explicit edge list like "0-1,1-2,0-2".
// "query" is an alias for "run". Every run is attributed: -profile prints
// its cost profile. -timeout bounds a run through its context.
//
// Exit codes: 0 success, 1 generic error, 2 usage, 3 corruption detected,
// 4 I/O error, 124 run timed out, 130 interrupted (Ctrl-C).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dualsim"
	"dualsim/internal/buildinfo"
)

// Exit codes beyond the conventional 0/1/2.
const (
	exitCorrupt     = 3   // verify/query found corrupt pages
	exitIO          = 4   // unreadable pages (device trouble)
	exitTimeout     = 124 // run exceeded -timeout (as in coreutils timeout)
	exitInterrupted = 130 // canceled by SIGINT (128 + 2)
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = cmdBuild(os.Args[2:])
	case "run", "query":
		err = cmdQuery(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	case "-version", "--version", "version":
		fmt.Println("dualsim " + buildinfo.String())
		return
	default:
		fmt.Fprintf(os.Stderr, "dualsim: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dualsim: %v\n", err)
		os.Exit(exitCode(err))
	}
}

// exitCode maps the error taxonomy onto distinct process exit codes so
// scripts can tell corruption from device trouble from interruption.
func exitCode(err error) int {
	switch {
	case errors.Is(err, context.Canceled):
		return exitInterrupted
	case errors.Is(err, context.DeadlineExceeded):
		return exitTimeout
	}
	if _, ok := dualsim.IsCorrupt(err); ok {
		return exitCorrupt
	}
	var ioe *dualsim.IOError
	if errors.As(err, &ioe) {
		return exitIO
	}
	return 1
}

// runContext returns a context canceled by SIGINT/SIGTERM, so a Ctrl-C
// unwinds the engine cleanly (pins released, I/O drained) instead of
// killing the process mid-read.
func runContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

func usage() { usageTo(os.Stderr) }

func usageTo(w io.Writer) {
	fmt.Fprintln(w, `usage:
  dualsim build  -edges <edges.txt> -db <graph.db> [-pagesize N] [-compress]
  dualsim run    -db <graph.db> -q <q1..q5|edge list> [-threads N] [-buffer F] [-frames N] [-timeout D]
                 [-retries N] [-print] [-json] [-profile] [-metrics-addr :8080] [-trace events.jsonl] [-progress 1s]
  dualsim serve  -db <graph.db> [-addr :8372] [-engines N] [-queue N] [-queue-wait D] [-row-limit N]
                 [-buffer F] [-frames N] [-threads N] [-drain-timeout D]
                 [-trace spans.jsonl] [-slow-query D] [-share-scan] [-cohort-riders N]
                 [-mutable] [-compact-every N]
  dualsim -version
  dualsim stats  -db <graph.db>
  dualsim verify -db <graph.db>

"query" is an alias for "run". Exit codes: 3 corruption, 4 I/O error,
124 timeout, 130 interrupted.`)
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	edges := fs.String("edges", "", "edge-list text file (u v per line)")
	db := fs.String("db", "", "output database path")
	pageSize := fs.Int("pagesize", 4096, "page size in bytes")
	compress := fs.Bool("compress", false, "store adjacency lists delta+varint compressed (with skip pointers)")
	fs.Parse(args)
	if *edges == "" || *db == "" {
		return fmt.Errorf("build: -edges and -db are required")
	}
	stats, err := dualsim.BuildFromEdgeFile(*db, *edges, dualsim.BuildOptions{PageSize: *pageSize, Compress: *compress})
	if err != nil {
		return err
	}
	fmt.Printf("built %s: %d vertices, %d edges, %d pages (max degree %d) in %v\n",
		*db, stats.NumVertices, stats.NumEdges, stats.NumPages, stats.MaxDegree, stats.Elapsed)
	return nil
}

func parseQuery(spec string) (*dualsim.Query, error) {
	return dualsim.ParseQuery(spec)
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	dbPath := fs.String("db", "", "database path")
	qspec := fs.String("q", "q1", "query: q1..q5 or edge list 0-1,1-2,...")
	threads := fs.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
	buffer := fs.Float64("buffer", 0.15, "buffer size as a fraction of the database")
	frames := fs.Int("frames", 0, "buffer frames (overrides -buffer)")
	timeout := fs.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	retries := fs.Int("retries", 0, "retry transient read failures up to N times (0 = no retry layer)")
	print := fs.Bool("print", false, "print each embedding")
	profile := fs.Bool("profile", false, "print the run's per-query cost profile")
	jsonOut := fs.Bool("json", false, "emit the result and metrics snapshot as one JSON object on stdout")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address during the run")
	traceFile := fs.String("trace", "", "write a JSONL window/stage trace to this file")
	progress := fs.Duration("progress", 0, "print a progress line to stderr every interval (0 = off)")
	fs.Parse(args)
	if *dbPath == "" {
		return fmt.Errorf("run: -db is required")
	}
	q, err := parseQuery(*qspec)
	if err != nil {
		return err
	}
	db, err := dualsim.Open(*dbPath)
	if err != nil {
		return err
	}
	defer db.Close()
	opts := dualsim.Options{
		Threads:          *threads,
		BufferFraction:   *buffer,
		BufferFrames:     *frames,
		MetricsAddr:      *metricsAddr,
		ProgressInterval: *progress,
	}
	if *retries > 0 {
		opts.Retry = &dualsim.RetryPolicy{MaxRetries: *retries}
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return fmt.Errorf("run: creating trace file: %w", err)
		}
		defer f.Close()
		opts.TraceWriter = f
	}

	ctx, stop := runContext()
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var res *dualsim.Result
	if *print {
		res, err = db.EnumerateContext(ctx, q, opts, func(m dualsim.Embedding) {
			fmt.Println(m)
		})
	} else {
		eng, engErr := db.NewEngine(opts)
		if engErr != nil {
			return engErr
		}
		defer eng.Close()
		if addr := eng.MetricsAddr(); addr != "" {
			fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", addr)
		}
		res, err = eng.RunContext(ctx, q)
		if st := eng.RetryStats(); st.Retries > 0 || st.CRCRereads > 0 {
			fmt.Fprintf(os.Stderr, "retry layer: %d retries, %d CRC re-reads, %d reads recovered\n",
				st.Retries, st.CRCRereads, st.Recovered)
		}
	}
	if err != nil {
		return err
	}
	if !*profile {
		res.Profile = nil // every run is attributed; -profile prints it
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Printf("query %s: %d occurrences (%d internal, %d external)\n",
		q.Name(), res.Count, res.Internal, res.External)
	fmt.Printf("prep %v, exec %v, %d physical reads, %d frames, %d level-1 windows, %d red vertices in %d v-groups\n",
		res.PrepTime, res.ExecTime, res.PhysicalReads, res.BufferFrames, res.Level1Windows,
		res.RedVertices, res.VGroups)
	if res.Profile != nil {
		fmt.Println("--- cost profile ---")
		res.Profile.WriteReport(os.Stdout)
	}
	return nil
}

// cmdServe runs the long-lived query service until SIGINT/SIGTERM, then
// drains gracefully: in-flight queries finish (bounded by -drain-timeout),
// new requests get 503, and the process exits 0.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	dbPath := fs.String("db", "", "database path")
	addr := fs.String("addr", ":8372", "listen address (\":0\" picks a free port)")
	engines := fs.Int("engines", 0, "engine pool size = concurrent queries (0 = default 2)")
	queue := fs.Int("queue", 0, "admission queue depth (0 = 4x engines)")
	queueWait := fs.Duration("queue-wait", 0, "max time a queued request waits for an engine (0 = 2s)")
	rowLimit := fs.Int("row-limit", 0, "cap on streamed embedding rows per request (0 = 100000)")
	buffer := fs.Float64("buffer", 0.15, "global buffer budget as a fraction of the database, divided across engines")
	frames := fs.Int("frames", 0, "global buffer budget in frames (overrides -buffer), divided across engines")
	threads := fs.Int("threads", 0, "worker threads per engine (0 = GOMAXPROCS/engines)")
	retries := fs.Int("retries", 0, "retry transient read failures up to N times (0 = no retry layer)")
	traceFile := fs.String("trace", "", "write the service-wide JSONL span trace to this file (flushed on drain)")
	slowQuery := fs.Duration("slow-query", 0, "slow-query log threshold (0 = 500ms, negative = record all)")
	shareScan := fs.Bool("share-scan", false, "share one level-1 window sweep across concurrent queries (one big buffer, N riders)")
	cohortRiders := fs.Int("cohort-riders", 0, "max queries riding one shared sweep (0 = 4; needs -share-scan)")
	mutable := fs.Bool("mutable", false, "enable live ingest: POST /edges applies edge inserts/deletes via a delta overlay, bumping the data epoch")
	compactEvery := fs.Int("compact-every", 0, "overlay ops that trigger a background compaction into a fresh file, in the db's own encoding (0 = manual via POST /admin/compact; needs -mutable)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max time to let in-flight queries finish after SIGTERM")
	fs.Parse(args)
	if *dbPath == "" {
		return fmt.Errorf("serve: -db is required")
	}
	db, err := dualsim.Open(*dbPath)
	if err != nil {
		return err
	}
	defer db.Close()
	engOpts := dualsim.Options{
		Threads:        *threads,
		BufferFraction: *buffer,
		BufferFrames:   *frames,
	}
	if *retries > 0 {
		engOpts.Retry = &dualsim.RetryPolicy{MaxRetries: *retries}
	}
	cfg := dualsim.ServerConfig{
		Engines:            *engines,
		QueueDepth:         *queue,
		QueueWait:          *queueWait,
		RowLimit:           *rowLimit,
		SlowQueryThreshold: *slowQuery,
		ShareScan:          *shareScan,
		CohortMaxRiders:    *cohortRiders,
		Mutable:            *mutable,
		CompactEvery:       *compactEvery,
		Engine:             engOpts,
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return fmt.Errorf("serve: creating trace file: %w", err)
		}
		defer f.Close()
		cfg.TraceWriter = f
	}
	srv, err := db.NewServer(cfg)
	if err != nil {
		return err
	}
	if err := srv.Listen(*addr); err != nil {
		return err
	}
	// The signal handler goes in before the address line: that line is the
	// readiness signal, and a SIGTERM sent right after it must drain.
	ctx, stop := runContext()
	defer stop()
	// The bound address goes to stdout so scripts using -addr :0 can read
	// the port back.
	endpoints := "POST /query, GET /stats, GET /metrics"
	if *mutable {
		endpoints = "POST /query, POST /edges, GET /stats, GET /metrics"
	}
	fmt.Printf("serving %s on %s (%s)\n", *dbPath, srv.Addr(), endpoints)

	<-ctx.Done()
	stop() // further signals kill the process the usual way
	fmt.Fprintf(os.Stderr, "draining (up to %v)...\n", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		return fmt.Errorf("serve: drain: %w", err)
	}
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	dbPath := fs.String("db", "", "database path")
	fs.Parse(args)
	if *dbPath == "" {
		return fmt.Errorf("stats: -db is required")
	}
	db, err := dualsim.Open(*dbPath)
	if err != nil {
		return err
	}
	defer db.Close()
	fmt.Printf("vertices: %d\nedges:    %d\npages:    %d (x %d bytes)\n",
		db.NumVertices(), db.NumEdges(), db.NumPages(), db.PageSize())
	st, err := db.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("records:  %d (%d vertices span multiple pages)\nfill:     %.1f%%\n",
		st.Records, st.SplitVertices, 100*st.FillFactor)
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	dbPath := fs.String("db", "", "database path")
	fs.Parse(args)
	if *dbPath == "" {
		return fmt.Errorf("verify: -db is required")
	}
	db, err := dualsim.Open(*dbPath)
	if err != nil {
		return err
	}
	defer db.Close()

	// One pass: every page is read and validated — checksum, its own ID,
	// framing, a dense vertex-ID run — and checked against the page-first
	// array and the pages before it. ALL unreadable or corrupt pages are
	// reported (not just the first), each with its own reason, so an
	// operator sees the full extent of the damage in one run.
	rep := db.VerifyPages()
	fmt.Printf("scanned %d pages\n", rep.PagesScanned)
	for _, ce := range rep.Corrupt {
		fmt.Println(ce)
	}
	for _, ioe := range rep.IOErrors {
		fmt.Printf("page %d: unreadable: %v\n", ioe.Page, ioe.Err)
	}
	if err := rep.Err(); err != nil {
		return err
	}
	fmt.Println("ok")
	return nil
}
