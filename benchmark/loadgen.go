package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"dualsim"
)

// queryReply is the part of the POST /query reply (count mode) or trailer
// (embeddings mode) the benchmark reads.
type queryReply struct {
	Count      uint64               `json:"count"`
	Truncated  bool                 `json:"truncated"`
	PlanCached bool                 `json:"plan_cached"`
	PrepNS     int64                `json:"prep_ns"`
	ExecNS     int64                `json:"exec_ns"`
	QueueNS    int64                `json:"queue_ns"`
	Profile    *dualsim.CostProfile `json:"profile"`
	Done       bool                 `json:"done"`
}

// sample is one query request as the client saw it.
type sample struct {
	Client   int
	Class    string
	Stream   bool
	Start    time.Time
	Latency  time.Duration
	FirstRow time.Duration // embeddings mode: time to the first row
	Rows     uint64        // embeddings mode: rows received
	Status   int           // 0 on a transport error
	Err      string
	Reply    queryReply
	OK       bool // 200, complete and, where a reference exists, the right count
}

// writeSample is one POST /edges batch as the writer saw it.
type writeSample struct {
	Latency       time.Duration
	Ops           int
	OK            bool
	DeltaVertices int
}

// newHTTPClient returns a client that owns exactly one keep-alive
// connection: every generator goroutine gets its own.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
		DisableCompression: true,
	}}
}

// queryClient is one closed-loop query connection. With a span recorder it
// is a traced client: it asks for the cost profile and records spans.
type queryClient struct {
	id    int
	hc    *http.Client
	url   string
	rec   *spanRecorder
	label string // request id prefix for spans
	seq   int
}

func newQueryClient(id int, base, label string, rec *spanRecorder) *queryClient {
	url := base + "/query"
	if rec != nil {
		url += "?profile=1"
	}
	return &queryClient{id: id, hc: newHTTPClient(), url: url, rec: rec, label: label}
}

func (c *queryClient) close() { c.hc.CloseIdleConnections() }

// do sends one request and waits for the whole reply.
func (c *queryClient) do(r request) sample {
	s := sample{Client: c.id, Class: r.Class, Stream: r.Stream, Start: time.Now()}
	resp, err := c.hc.Post(c.url, "application/json", strings.NewReader(r.Body))
	if err != nil {
		s.Latency, s.Err = time.Since(s.Start), err.Error()
		return s
	}
	s.Status = resp.StatusCode
	if r.Stream && resp.StatusCode == http.StatusOK {
		err = readStream(resp.Body, &s)
	} else {
		var body []byte
		if body, err = io.ReadAll(resp.Body); err == nil && resp.StatusCode == http.StatusOK {
			err = json.Unmarshal(body, &s.Reply)
		}
	}
	resp.Body.Close()
	s.Latency = time.Since(s.Start)
	if err != nil {
		s.Err = err.Error()
	}
	if c.rec != nil {
		c.recordSpans(&s)
	}
	return s
}

// readStream consumes an NDJSON embeddings reply: row lines, interleaved
// resume-token records, and the trailer.
func readStream(body io.Reader, s *sample) error {
	br := bufio.NewReaderSize(body, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 1 {
			switch {
			case line[0] == '[':
				if s.Rows == 0 {
					s.FirstRow = time.Since(s.Start)
				}
				s.Rows++
			case bytes.HasPrefix(line, []byte(`{"resume_token"`)):
			default:
				if jerr := json.Unmarshal(line, &s.Reply); jerr != nil {
					return jerr
				}
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// recordSpans files the request under the client layer with the server's
// own account of it as children. The children carry durations the reply
// reports, laid back to back from the request's start: their position is
// nominal, their length is the server's. The client span's self time is
// then what HTTP, JSON and the loopback cost.
func (c *queryClient) recordSpans(s *sample) {
	c.seq++
	id := fmt.Sprintf("%s-c%d-%d", c.label, c.id, c.seq)
	end := s.Start.Add(s.Latency)
	root := c.rec.add(0, id, "client.request."+s.Class, s.Start, end)
	at := s.Start
	child := func(parent int, name string, ns int64) int {
		if ns <= 0 {
			return 0
		}
		return c.rec.add(parent, id, name, at, at.Add(time.Duration(ns)))
	}
	child(root, "server.queue", s.Reply.QueueNS)
	at = at.Add(time.Duration(s.Reply.QueueNS))
	child(root, "plan.prepare", s.Reply.PrepNS)
	at = at.Add(time.Duration(s.Reply.PrepNS))
	if exec := child(root, "core.exec", s.Reply.ExecNS); exec != 0 && s.Reply.Profile != nil {
		child(exec, "buffer.io_wait", s.Reply.Profile.IOWaitNS)
	}
}

// cycleStop is the whole-cycle stopping rule: a client stops at the end of
// the first cycle that ends at or after the time box, and, when maxCycles
// is positive, after exactly that many cycles whatever the clock says.
func cycleStop(elapsed, box time.Duration, cyclesDone, maxCycles int) bool {
	if maxCycles > 0 {
		return cyclesDone >= maxCycles
	}
	return elapsed >= box
}

// serverCounters is a reading of GET /stats and GET /debug/vars.
type serverCounters struct {
	Stats struct {
		Rejected uint64 `json:"rejected"`
		Cohort   *struct {
			RidersTotal    uint64 `json:"riders_total"`
			Sweeps         uint64 `json:"sweeps_total"`
			SharedPages    uint64 `json:"shared_pages_total"`
			SweepPagesRead uint64 `json:"sweep_pages_read_total"`
		} `json:"cohort"`
		Ingest *struct {
			Compactions uint64 `json:"compactions"`
		} `json:"ingest"`
	}
	Vars struct {
		Counters map[string]uint64 `json:"counters"`
	}
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func readCounters(base string) (serverCounters, error) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var c serverCounters
	if err := getJSON(hc, base+"/stats", &c.Stats); err != nil {
		return c, err
	}
	err := getJSON(hc, base+"/debug/vars", &c.Vars)
	return c, err
}

// counterDelta is after-before for counters that only grow; a counter that went
// backwards (compaction replaces engines and their pool counters restart)
// reads 0.
func counterDelta(after, before uint64) float64 {
	if after < before {
		return 0
	}
	return float64(after - before)
}

// windowSpec is one timed (or counted) stretch of load against a server.
type windowSpec struct {
	w      *workload
	f      *fixture
	base   string // http://host:port
	box    time.Duration
	cycles int           // when positive, run exactly this many cycles and ignore box
	rec    *spanRecorder // non-nil for a traced window
	label  string
	// check compares every count against the fixture's reference; off for
	// a reader running beside a writer, whose graph is moving.
	check bool
	// stream, when non-nil, is the writer's op generator.
	stream *edgeStream
}

// window is what one stretch of load produced.
type window struct {
	Samples       []sample
	Writes        []writeSample
	ClientElapsed []time.Duration
	WriterElapsed time.Duration
	Before, After serverCounters
	CPUSeconds    float64
	GCPauseMS     float64
	PeakHeapMB    float64
}

func rusageCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runWindow drives the workload's clients (and writer) against the server
// and returns everything they saw. Every goroutine it starts has ended
// when it returns.
func runWindow(spec windowSpec) (*window, error) {
	w := spec.w
	win := &window{ClientElapsed: make([]time.Duration, len(w.Clients))}
	var err error
	if win.Before, err = readCounters(spec.base); err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0, cpu0 := ms.PauseTotalNs, rusageCPU()

	// Heap sampler: HeapInuse every 100 ms for the window's length.
	stopSampler := make(chan struct{})
	var samplerDone sync.WaitGroup
	samplerDone.Add(1)
	go func() {
		defer samplerDone.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		var m runtime.MemStats
		for {
			runtime.ReadMemStats(&m)
			win.PeakHeapMB = max(win.PeakHeapMB, float64(m.HeapInuse)/(1<<20))
			select {
			case <-stopSampler:
				return
			case <-tick.C:
			}
		}
	}()

	perClient := make([][]sample, len(w.Clients))
	start := time.Now()
	var clients sync.WaitGroup
	for i := range w.Clients {
		clients.Add(1)
		go func() {
			defer clients.Done()
			c := newQueryClient(i, spec.base, spec.label, spec.rec)
			defer c.close()
			cycle := buildCycle(w, spec.f, i)
			for done := 0; ; {
				for _, r := range cycle {
					s := c.do(r)
					s.OK = s.Err == "" && s.Status == http.StatusOK && s.Reply.Done && !s.Reply.Truncated &&
						(!s.Stream || s.Rows == s.Reply.Count) &&
						(!spec.check || s.Reply.Count == spec.f.ref[s.Class])
					perClient[i] = append(perClient[i], s)
				}
				done++
				win.ClientElapsed[i] = time.Since(start)
				if cycleStop(win.ClientElapsed[i], spec.box, done, spec.cycles) {
					return
				}
			}
		}()
	}

	stopWriter := make(chan struct{})
	var writer sync.WaitGroup
	if spec.stream != nil {
		writer.Add(1)
		go func() {
			defer writer.Done()
			hc := newHTTPClient()
			defer hc.CloseIdleConnections()
			var body []byte
			// One batch per period, each sent only after the previous ack:
			// a writer that falls behind skips slots, it never queues.
			tick := time.NewTicker(w.WriterPeriod)
			defer tick.Stop()
			for {
				select {
				case <-stopWriter:
					win.WriterElapsed = time.Since(start)
					return
				case <-tick.C:
				}
				body = appendBody(body[:0], spec.stream.next(writerBatch))
				win.Writes = append(win.Writes, postBatch(hc, spec.base, body, spec.rec, spec.label, len(win.Writes)))
			}
		}()
	}

	clients.Wait()
	close(stopWriter)
	writer.Wait()
	close(stopSampler)
	samplerDone.Wait()

	runtime.ReadMemStats(&ms)
	win.GCPauseMS = float64(ms.PauseTotalNs-gc0) / 1e6
	win.CPUSeconds = rusageCPU() - cpu0
	for _, ss := range perClient {
		win.Samples = append(win.Samples, ss...)
	}
	if win.After, err = readCounters(spec.base); err != nil {
		return nil, err
	}
	return win, nil
}

// postBatch sends one NDJSON batch to POST /edges and waits for the ack.
func postBatch(hc *http.Client, base string, body []byte, rec *spanRecorder, label string, seq int) writeSample {
	ws := writeSample{Ops: writerBatch}
	start := time.Now()
	resp, err := hc.Post(base+"/edges", "application/x-ndjson", bytes.NewReader(body))
	if err == nil {
		var ack struct {
			Applied       int `json:"applied"`
			DeltaVertices int `json:"delta_vertices"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&ack)
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ws.OK = derr == nil && resp.StatusCode == http.StatusOK && ack.Applied == writerBatch
		ws.DeltaVertices = ack.DeltaVertices
	}
	end := time.Now()
	ws.Latency = end.Sub(start)
	if rec != nil {
		rec.add(0, fmt.Sprintf("%s-w-%d", label, seq), "client.write_batch", start, end)
	}
	return ws
}

// finalCheck runs one count query per class on an idle server and compares
// each with want. It is how a mutated graph is verified: after the writer
// stops, the server must count what the brute-force enumerator counts on
// the edge set the writer left behind.
func finalCheck(base string, want map[string]uint64) []sample {
	c := newQueryClient(0, base, "final", nil)
	defer c.close()
	var out []sample
	for _, class := range countClasses {
		ref, ok := want[class]
		if !ok {
			continue
		}
		s := c.do(request{Class: class, Body: countBody(class)})
		s.OK = s.Err == "" && s.Status == http.StatusOK && s.Reply.Done && s.Reply.Count == ref
		out = append(out, s)
	}
	return out
}

// timedCompactions posts a few batches and then times POST /admin/compact,
// rounds times over, returning each fold's duration in milliseconds.
func timedCompactions(base string, stream *edgeStream, rec *spanRecorder, rounds int) ([]float64, error) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var ms []float64
	var body []byte
	for r := 0; r < rounds; r++ {
		for b := 0; b < 20; b++ {
			body = appendBody(body[:0], stream.next(writerBatch))
			if ws := postBatch(hc, base, body, nil, "", 0); !ws.OK {
				return nil, fmt.Errorf("compaction probe: batch not applied")
			}
		}
		var reply struct {
			Compacted bool `json:"compacted"`
		}
		var err error
		d := rec.time(fmt.Sprintf("compact-%d", r), "server.compact", func() {
			var resp *http.Response
			if resp, err = hc.Post(base+"/admin/compact", "application/json", nil); err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusConflict {
				return // a background fold is running; not a sample
			}
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("POST /admin/compact: %s", resp.Status)
				return
			}
			err = json.NewDecoder(resp.Body).Decode(&reply)
		})
		if err != nil {
			return nil, err
		}
		if reply.Compacted {
			ms = append(ms, float64(d)/1e6)
		}
	}
	return ms, nil
}
