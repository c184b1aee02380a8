package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dualsim"
)

func TestParseQueryCatalog(t *testing.T) {
	for _, spec := range []string{"q1", "q2", "q3", "q4", "q5", "triangle", "house"} {
		q, err := parseQuery(spec)
		if err != nil {
			t.Errorf("parseQuery(%q): %v", spec, err)
			continue
		}
		if q.NumVertices() == 0 {
			t.Errorf("parseQuery(%q): empty query", spec)
		}
	}
}

func TestParseQueryEdgeList(t *testing.T) {
	q, err := parseQuery("0-1,1-2,0-2")
	if err != nil {
		t.Fatal(err)
	}
	if q.NumVertices() != 3 || q.NumEdges() != 3 {
		t.Fatalf("custom triangle: %d vertices %d edges", q.NumVertices(), q.NumEdges())
	}
	// Whitespace tolerated.
	if _, err := parseQuery("0-1, 1-2, 2-0"); err != nil {
		t.Fatal(err)
	}
}

func TestParseQueryErrors(t *testing.T) {
	for _, spec := range []string{"", "q9", "0-", "a-b", "0-1,5-5", "0-1 2-3"} {
		if _, err := parseQuery(spec); err == nil {
			t.Errorf("parseQuery(%q): expected error", spec)
		}
	}
	// Disconnected custom query.
	if _, err := parseQuery("0-1,2-3"); err == nil {
		t.Error("disconnected query accepted")
	}
}

// buildTestDB writes a small graph (two triangles sharing an edge plus a
// tail) and builds a database from it.
func buildTestDB(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	edgeFile := filepath.Join(dir, "edges.txt")
	content := "0 1\n1 2\n0 2\n1 3\n2 3\n3 4\n"
	if err := os.WriteFile(edgeFile, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	dbPath := filepath.Join(dir, "g.db")
	if _, err := dualsim.BuildFromEdgeFile(dbPath, edgeFile, dualsim.BuildOptions{PageSize: 128, TempDir: dir}); err != nil {
		t.Fatal(err)
	}
	return dbPath
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns what
// it wrote.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	defer func() { os.Stdout = old }()
	fn()
	w.Close()
	return <-done
}

// TestCmdQueryJSON runs `run -json -trace` end to end: stdout must be one
// JSON object carrying the result and the metrics snapshot, and the trace
// file must be valid JSONL bracketed by run_start/run_end.
func TestCmdQueryJSON(t *testing.T) {
	dbPath := buildTestDB(t)
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	var cmdErr error
	out := captureStdout(t, func() {
		cmdErr = cmdQuery([]string{"-db", dbPath, "-q", "q1", "-frames", "8", "-json", "-trace", tracePath})
	})
	if cmdErr != nil {
		t.Fatal(cmdErr)
	}
	var res struct {
		Count   uint64 `json:"count"`
		Metrics *struct {
			Counters map[string]uint64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("stdout is not one JSON object: %v\n%s", err, out)
	}
	if res.Count != 2 {
		t.Errorf("count = %d, want 2 triangles", res.Count)
	}
	if res.Metrics == nil {
		t.Fatal("metrics snapshot missing from JSON output")
	}
	if res.Metrics.Counters["dualsim_pages_read_total"] == 0 {
		t.Error("dualsim_pages_read_total = 0 in JSON output")
	}
	if res.Metrics.Counters["dualsim_windows_total"] == 0 {
		t.Error("dualsim_windows_total = 0 in JSON output")
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var events []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("corrupt trace line %q: %v", sc.Text(), err)
		}
		events = append(events, e.Event)
	}
	if len(events) < 2 || events[0] != "run_start" || events[len(events)-1] != "run_end" {
		t.Errorf("trace events = %v, want run_start ... run_end", events)
	}
}

// TestCmdQueryHumanOutput keeps the default text output intact.
func TestCmdQueryHumanOutput(t *testing.T) {
	dbPath := buildTestDB(t)
	var cmdErr error
	out := captureStdout(t, func() {
		cmdErr = cmdQuery([]string{"-db", dbPath, "-q", "q1", "-frames", "8"})
	})
	if cmdErr != nil {
		t.Fatal(cmdErr)
	}
	if want := "query q1-triangle: 2 occurrences"; !strings.Contains(out, want) {
		t.Errorf("output %q missing %q", out, want)
	}
}

// TestCmdQueryPrint: `run -print` writes one line per embedding, in
// fmt.Println's form, before the summary.
func TestCmdQueryPrint(t *testing.T) {
	dbPath := buildTestDB(t)
	var cmdErr error
	out := captureStdout(t, func() {
		cmdErr = cmdQuery([]string{"-db", dbPath, "-q", "q1", "-frames", "8", "-print"})
	})
	if cmdErr != nil {
		t.Fatal(cmdErr)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	rows := map[string]bool{}
	for _, line := range lines {
		if strings.HasPrefix(line, "[") {
			var a, b, c int
			if _, err := fmt.Sscanf(line, "[%d %d %d]", &a, &b, &c); err != nil {
				t.Errorf("row %q is not a printed triangle: %v", line, err)
			}
			rows[line] = true
		}
	}
	if len(rows) != 2 || !strings.Contains(out, "query q1-triangle: 2 occurrences") {
		t.Errorf("want two distinct triangles and the summary, got:\n%s", out)
	}
}

// TestCmdQueryTimeoutExit: a run that outlives -timeout fails with the
// context's deadline, which the process reports as exit code 124.
func TestCmdQueryTimeoutExit(t *testing.T) {
	dbPath := buildTestDB(t)
	var cmdErr error
	captureStdout(t, func() {
		cmdErr = cmdQuery([]string{"-db", dbPath, "-q", "q1", "-frames", "8", "-timeout", "1ns"})
	})
	if got := exitCode(cmdErr); got != exitTimeout {
		t.Errorf("run past -timeout: err %v, exit code %d, want %d", cmdErr, got, exitTimeout)
	}
}

// TestCmdVerifyNamesReason runs `verify` on a clean file, then on the same
// file with the second record of page 0 moved off the page's dense vertex-ID
// run and the page checksum written over the damage, so only the structural
// checks can tell: the page must be named with that reason, not as a
// checksum mismatch, and the command must exit as corruption.
func TestCmdVerifyNamesReason(t *testing.T) {
	dbPath := buildTestDB(t)
	var err error
	out := captureStdout(t, func() { err = cmdVerify([]string{"-db", dbPath}) })
	if err != nil || !strings.HasSuffix(out, "ok\n") {
		t.Fatalf("clean file: err %v, output:\n%s", err, out)
	}

	db, err := dualsim.Open(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	pageSize := db.PageSize()
	db.Close()
	f, err := os.OpenFile(dbPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Data page 0 follows the superblock's page. Its slots grow backward
	// from the page end (offset uint16, length uint16), a record starts with
	// its vertex (uint32), and the CRC-32 at offset 8 covers the page with
	// that field zeroed.
	page := make([]byte, pageSize)
	if _, err := f.ReadAt(page, int64(pageSize)); err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint16(page[4:]) < 2 {
		t.Fatal("page 0 holds fewer than two records")
	}
	off := binary.LittleEndian.Uint16(page[pageSize-8:])
	binary.LittleEndian.PutUint32(page[off:], binary.LittleEndian.Uint32(page[off:])+7)
	binary.LittleEndian.PutUint32(page[8:], 0)
	binary.LittleEndian.PutUint32(page[8:], crc32.ChecksumIEEE(page))
	if _, err := f.WriteAt(page, int64(pageSize)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	out = captureStdout(t, func() { err = cmdVerify([]string{"-db", dbPath}) })
	if got := exitCode(err); got != exitCorrupt {
		t.Errorf("corrupt file: err %v, exit code %d, want %d", err, got, exitCorrupt)
	}
	if !strings.Contains(out, "page 0 corrupt: slot 1 holds vertex") || !strings.Contains(out, "not a dense vertex-ID run") ||
		strings.Contains(out, "checksum") {
		t.Errorf("corrupt file: page 0 not named by its reason:\n%s", out)
	}
}

// TestUsageListsAllSubcommands keeps the usage text in sync with the
// dispatcher: every subcommand main routes must be advertised.
func TestUsageListsAllSubcommands(t *testing.T) {
	var buf strings.Builder
	usageTo(&buf)
	out := buf.String()
	for _, sub := range []string{"build", "run", "serve", "stats", "verify"} {
		if !strings.Contains(out, "dualsim "+sub) {
			t.Errorf("usage does not list subcommand %q:\n%s", sub, out)
		}
	}
}

// TestCmdServeRoundTrip exercises the serve subcommand end to end inside the
// test process: start it on a free port, read the bound address off stdout,
// post a query, then deliver SIGTERM and require a clean (nil-error) drain.
func TestCmdServeRoundTrip(t *testing.T) {
	dbPath := buildTestDB(t)

	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()

	served := make(chan error, 1)
	go func() {
		served <- cmdServe([]string{"-db", dbPath, "-addr", "127.0.0.1:0", "-engines", "2", "-frames", "16", "-drain-timeout", "10s"})
	}()

	// The first stdout line carries the bound address.
	line, err := bufio.NewReader(r).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	fields := strings.Fields(line)
	var addr string
	for i, f := range fields {
		if f == "on" && i+1 < len(fields) {
			addr = fields[i+1]
		}
	}
	if addr == "" {
		t.Fatalf("no address in serve output %q", line)
	}

	resp, err := http.Post("http://"+addr+"/query", "application/json",
		strings.NewReader(`{"query":"q1"}`))
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Count uint64 `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if res.Count != 2 {
		t.Errorf("served count = %d, want 2 triangles", res.Count)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("cmdServe returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("cmdServe did not drain after SIGTERM")
	}
	w.Close()
}
