package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkerPoolQueueDepth(t *testing.T) {
	p := newWorkerPool(2, nil, nil)
	defer p.close()
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(2)
	// Two blockers occupy both workers; two more tasks sit in the queue.
	for i := 0; i < 2; i++ {
		p.submit(func() {
			started.Done()
			<-release
		})
	}
	started.Wait()
	for i := 0; i < 2; i++ {
		p.submit(func() {})
	}
	if d := p.queueDepth(); d != 4 {
		t.Errorf("queue depth = %d, want 4 (2 running + 2 queued)", d)
	}
	close(release)
	p.drain()
	if d := p.queueDepth(); d != 0 {
		t.Errorf("queue depth after drain = %d, want 0", d)
	}
}

func TestWorkerPoolMinimumOneThread(t *testing.T) {
	p := newWorkerPool(0, nil, nil)
	defer p.close()
	done := make(chan struct{})
	p.submit(func() { close(done) })
	<-done
}

// TestWorkerPoolCloseIdempotentDrain checks close after heavy concurrent
// submission terminates cleanly (no leaked workers, all tasks ran).
func TestWorkerPoolCloseDrains(t *testing.T) {
	p := newWorkerPool(4, nil, nil)
	var ran atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p.submit(func() { ran.Add(1) })
			}
		}()
	}
	wg.Wait()
	p.close()
	if got := ran.Load(); got != 400 {
		t.Fatalf("close lost tasks: ran %d, want 400", got)
	}
}

// TestWorkerPoolTrySubmit pins trySubmit's non-blocking contract: it must
// refuse (not block) when the channel is full, and succeed otherwise.
func TestWorkerPoolTrySubmit(t *testing.T) {
	p := newWorkerPool(1, nil, nil)
	defer p.close()
	release := make(chan struct{})
	var entered sync.WaitGroup
	entered.Add(1)
	p.submit(func() { entered.Done(); <-release })
	entered.Wait()
	// Fill the queue (capacity 4*threads = 4), then one more must refuse.
	accepted := 0
	for i := 0; i < 10; i++ {
		if p.trySubmit(func() {}) {
			accepted++
		}
	}
	if accepted == 0 || accepted >= 10 {
		t.Fatalf("trySubmit accepted %d of 10 with a blocked pool; want some refused", accepted)
	}
	close(release)
	p.drain()
}
