package buffer

import (
	"context"
	"sync"
	"testing"
	"time"

	"dualsim/internal/storage"
)

// TestStatsRaceFree hammers Stats/ResetStats from one goroutine while
// pinners and async I/O workers drive every counter. Under -race this
// vouches that snapshots need no lock against the I/O path.
func TestStatsRaceFree(t *testing.T) {
	db := testDB(t, 300, 1200, 128, 42)
	p, err := NewPool(db, Options{Frames: 6, IOWorkers: 3, PerPageLatency: 50 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			n := db.NumPages()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				pid := storage.PageID((seed*31 + i) % n)
				var ioWG sync.WaitGroup
				ioWG.Add(1)
				p.AsyncReadRunContext(context.Background(), pid, 1, &ioWG, func(_ storage.PageID, _ *storage.Page, err error) {
					if err == nil {
						p.Unpin(pid)
					}
				})
				ioWG.Wait()
			}
		}(w)
	}

	deadline := time.After(200 * time.Millisecond)
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			st := p.Stats()
			if st.Hits > st.LogicalReads {
				t.Errorf("hits %d > logical reads %d", st.Hits, st.LogicalReads)
				done = true
			}
			p.ResetStats()
		}
	}
	close(stop)
	wg.Wait()
}

// TestPinWaitNanos forces two pinners onto the same slow page: the second
// must block on the in-flight load and account its wait.
func TestPinWaitNanos(t *testing.T) {
	db := testDB(t, 100, 300, 256, 7)
	p, err := NewPool(db, Options{Frames: 4, PerPageLatency: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := p.Pin(0); err != nil {
			t.Error(err)
			return
		}
		p.Unpin(0)
	}()
	// Give the loader a head start so this pin lands mid-load.
	time.Sleep(2 * time.Millisecond)
	if _, err := p.Pin(0); err != nil {
		t.Fatal(err)
	}
	p.Unpin(0)
	wg.Wait()
	st := p.Stats()
	if st.PhysicalReads != 1 {
		t.Fatalf("physical reads = %d, want 1 (second pin rides the in-flight load)", st.PhysicalReads)
	}
	if st.PinWaitNanos == 0 {
		t.Error("PinWaitNanos = 0, want > 0 for a pin blocked on a 20ms load")
	}
	p.ResetStats()
	if p.Stats().PinWaitNanos != 0 {
		t.Error("ResetStats did not zero PinWaitNanos")
	}
}
