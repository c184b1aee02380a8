package faultdb

import (
	"errors"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"dualsim/internal/graph"
	"dualsim/internal/storage"
)

func testDB(t *testing.T) *storage.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	edges := make([][2]graph.VertexID, 0, 600)
	for i := 0; i < 600; i++ {
		edges = append(edges, [2]graph.VertexID{
			graph.VertexID(rng.Intn(120)), graph.VertexID(rng.Intn(120)),
		})
	}
	g := graph.MustNewGraph(120, edges)
	dir := t.TempDir()
	path := filepath.Join(dir, "f.db")
	if _, err := storage.BuildFromGraph(path, g, storage.BuildOptions{PageSize: 256, TempDir: dir}); err != nil {
		t.Fatal(err)
	}
	db, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func readPage(t *testing.T, f *DB, pid storage.PageID) error {
	t.Helper()
	buf := make([]byte, f.PageSize())
	_, err := f.ReadPagesInto(pid, buf)
	return err
}

func TestWrapPassThrough(t *testing.T) {
	db := testDB(t)
	f := Wrap(db, Options{})
	buf := make([]byte, f.PageSize())
	for pid := 0; pid < f.NumPages(); pid++ {
		if _, err := f.ReadPagesInto(storage.PageID(pid), buf); err != nil {
			t.Fatalf("page %d: %v", pid, err)
		}
		if err := storage.VerifyPageChecksum(buf); err != nil {
			t.Fatalf("page %d served corrupt by pass-through: %v", pid, err)
		}
	}
	if f.NumVertices() != db.NumVertices() || f.NumEdges() != db.NumEdges() ||
		f.PageSize() != db.PageSize() || f.NumPages() != db.NumPages() {
		t.Fatal("delegated metadata disagrees with inner db")
	}
	if !slices.Equal(f.PageFirsts(), db.PageFirsts()) {
		t.Fatal("delegated page-first array disagrees with inner db")
	}
	st := f.Stats()
	if st.Reads != int64(f.NumPages()) || st.Injected != 0 || st.Flipped != 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestFailNth(t *testing.T) {
	db := testDB(t)
	boom := errors.New("boom")
	f := Wrap(db, Options{}).FailNth(3, boom)
	for i := 1; i <= 5; i++ {
		err := readPage(t, f, 0)
		if i == 3 && !errors.Is(err, boom) {
			t.Fatalf("read %d: want boom, got %v", i, err)
		}
		if i != 3 && err != nil {
			t.Fatalf("read %d: unexpected %v", i, err)
		}
	}
	if st := f.Stats(); st.Injected != 1 {
		t.Fatalf("injected = %d, want 1", st.Injected)
	}
}

func TestFailAfter(t *testing.T) {
	db := testDB(t)
	f := Wrap(db, Options{}).FailAfter(2, nil)
	for i := 1; i <= 5; i++ {
		err := readPage(t, f, 0)
		if i <= 2 && err != nil {
			t.Fatalf("read %d: unexpected %v", i, err)
		}
		if i > 2 && !errors.Is(err, ErrInjected) {
			t.Fatalf("read %d: want ErrInjected, got %v", i, err)
		}
	}
}

func TestFailPagesAndHeal(t *testing.T) {
	db := testDB(t)
	if db.NumPages() < 3 {
		t.Skip("too few pages")
	}
	f := Wrap(db, Options{}).FailPages(nil, 1, 2)
	if err := readPage(t, f, 0); err != nil {
		t.Fatalf("page 0 should pass: %v", err)
	}
	for _, pid := range []storage.PageID{1, 2} {
		if err := readPage(t, f, pid); !errors.Is(err, ErrInjected) {
			t.Fatalf("page %d: want ErrInjected, got %v", pid, err)
		}
	}
	f.Heal()
	for _, pid := range []storage.PageID{1, 2} {
		if err := readPage(t, f, pid); err != nil {
			t.Fatalf("page %d after heal: %v", pid, err)
		}
	}
}

func TestTransientPages(t *testing.T) {
	db := testDB(t)
	f := Wrap(db, Options{}).TransientPages(2, 0)
	for i := 1; i <= 2; i++ {
		err := readPage(t, f, 0)
		if !storage.IsTransient(err) {
			t.Fatalf("read %d: want transient error, got %v", i, err)
		}
		var ioe *storage.IOError
		if !errors.As(err, &ioe) || ioe.Page != 0 {
			t.Fatalf("read %d: transient error does not name page 0: %v", i, err)
		}
	}
	if err := readPage(t, f, 0); err != nil {
		t.Fatalf("page should have healed: %v", err)
	}
	if got := f.PageReads(0); got != 3 {
		t.Fatalf("PageReads(0) = %d, want 3", got)
	}
}

func TestBitFlipTripsChecksum(t *testing.T) {
	db := testDB(t)
	f := Wrap(db, Options{}).BitFlip(0)
	buf := make([]byte, f.PageSize())
	for i := 0; i < 3; i++ {
		if _, err := f.ReadPagesInto(0, buf); err != nil {
			t.Fatalf("bit flip must not fail the read itself: %v", err)
		}
		if _, ok := storage.IsCorrupt(storage.VerifyPageChecksum(buf)); !ok {
			t.Fatalf("read %d: flipped page passed its checksum", i)
		}
	}
	if st := f.Stats(); st.Flipped != 3 {
		t.Fatalf("flipped = %d, want 3", st.Flipped)
	}
}

// TestMisdirect: a read of page p serves page q's image with its checksum
// intact, so only a parse told which page it reads rejects it, as a permanent
// corruption of p; Heal serves p again.
func TestMisdirect(t *testing.T) {
	db := testDB(t)
	f := Wrap(db, Options{}).Misdirect(1, 2)
	buf, want := make([]byte, f.PageSize()), make([]byte, f.PageSize())
	if _, err := f.ReadPagesInto(1, buf); err != nil || db.ReadPageInto(2, want) != nil || !slices.Equal(buf, want) {
		t.Fatalf("read of page 1: %v, or not page 2's image", err)
	}
	err := storage.ParsePageInto(&storage.Page{}, buf, 1)
	if ce, ok := storage.IsCorrupt(err); !ok || ce.Page != 1 || storage.IsTransient(err) {
		t.Fatalf("parse of page 2's image read as page 1: %v, want a permanent corruption of page 1", err)
	}
	f.Heal()
	if _, err := f.ReadPagesInto(1, buf); err != nil || storage.ParsePageInto(&storage.Page{}, buf, 1) != nil {
		t.Fatalf("after Heal, page 1 reads or parses with an error: %v", err)
	}
}

func TestBitFlipOnceHeals(t *testing.T) {
	db := testDB(t)
	f := Wrap(db, Options{}).BitFlipOnce(0)
	buf := make([]byte, f.PageSize())
	if _, err := f.ReadPagesInto(0, buf); err != nil {
		t.Fatal(err)
	}
	if storage.VerifyPageChecksum(buf) == nil {
		t.Fatal("first read should be torn")
	}
	if _, err := f.ReadPagesInto(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := storage.VerifyPageChecksum(buf); err != nil {
		t.Fatalf("second read should be clean: %v", err)
	}
}

func TestFailRandomDeterministic(t *testing.T) {
	run := func(seed int64) []bool {
		db := testDB(t)
		f := Wrap(db, Options{Seed: seed}).FailRandom(0.3, nil)
		out := make([]bool, 50)
		for i := range out {
			out[i] = readPage(t, f, 0) != nil
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at read %d", i)
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
	fails := 0
	for _, x := range a {
		if x {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("p=0.3 produced %d/%d failures", fails, len(a))
	}
}

func TestLatencyEveryNth(t *testing.T) {
	db := testDB(t)
	f := Wrap(db, Options{}).Latency(time.Millisecond, 2)
	for i := 0; i < 4; i++ {
		if err := readPage(t, f, 0); err != nil {
			t.Fatal(err)
		}
	}
	if st := f.Stats(); st.Delayed != 2 {
		t.Fatalf("delayed = %d, want 2 (every 2nd of 4 reads)", st.Delayed)
	}
}

func TestOnReadObservesEveryRead(t *testing.T) {
	db := testDB(t)
	var ns []int64
	var pids []storage.PageID
	f := Wrap(db, Options{OnRead: func(n int64, pid storage.PageID) {
		ns = append(ns, n)
		pids = append(pids, pid)
	}}).FailNth(2, nil)
	readPage(t, f, 0)
	readPage(t, f, 1)
	readPage(t, f, 0)
	if len(ns) != 3 || ns[0] != 1 || ns[1] != 2 || ns[2] != 3 {
		t.Fatalf("OnRead indexes = %v", ns)
	}
	if pids[1] != 1 {
		t.Fatalf("OnRead pids = %v", pids)
	}
}

func TestRulesCompose(t *testing.T) {
	// A latency rule and a transient rule together: the read is delayed
	// AND fails while the transient schedule is active.
	db := testDB(t)
	f := Wrap(db, Options{}).Latency(time.Millisecond, 1).TransientPages(1, 0)
	err := readPage(t, f, 0)
	if !storage.IsTransient(err) {
		t.Fatalf("want transient, got %v", err)
	}
	if err := readPage(t, f, 0); err != nil {
		t.Fatalf("second read should heal: %v", err)
	}
	st := f.Stats()
	if st.Delayed != 2 || st.Injected != 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}
