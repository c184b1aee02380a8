package core

import (
	"sync"
	"sync/atomic"

	"dualsim/internal/obs"
)

// workerPool is the enumeration thread pool. Internal and external tasks
// share it, which realizes the paper's thread morphing: whichever kind of
// work finishes first, idle workers immediately pick up the other kind.
//
// The pool counts submissions and completions so observers can see queue
// depth and per-run task volume, and tracks idle workers so running tasks
// can detect a drained queue and split their remaining range (bounded
// work-stealing — Kimmig et al. identify work imbalance as the dominant
// scaling limiter; static per-window partitioning lets one high-degree
// candidate region stall the whole window).
type workerPool struct {
	tasks   chan func()
	pending sync.WaitGroup
	done    sync.WaitGroup

	// idle counts workers blocked waiting for a task. Together with an
	// empty channel it is the "queue drained" signal that triggers splits.
	idle atomic.Int32

	// submitted/completed count tasks; their difference is the queue depth
	// (queued + running). Engine-provided counters land directly in the
	// metrics registry; standalone pools get private ones.
	submitted *obs.Counter
	completed *obs.Counter
}

// newWorkerPool starts threads workers. submitted and completed, when
// non-nil, receive the pool's task accounting (pass registry counters to
// expose them); nil creates unregistered counters.
func newWorkerPool(threads int, submitted, completed *obs.Counter) *workerPool {
	threads = max(threads, 1)
	if submitted == nil {
		submitted = &obs.Counter{}
	}
	if completed == nil {
		completed = &obs.Counter{}
	}
	p := &workerPool{
		tasks:     make(chan func(), 4*threads),
		submitted: submitted,
		completed: completed,
	}
	p.done.Add(threads)
	for i := 0; i < threads; i++ {
		go func() {
			defer p.done.Done()
			for {
				p.idle.Add(1)
				task, ok := <-p.tasks
				p.idle.Add(-1)
				if !ok {
					return
				}
				task()
				p.completed.Inc()
				p.pending.Done()
			}
		}()
	}
	return p
}

// submit schedules a task, waiting for a queue slot. Only the run's
// orchestrator may call it — for a window's internal chunks, and inside a
// last-level pass for a multi-page vertex or a page task trySubmit refused
// (reports to the pass are buffered, so nothing waits on the orchestrator
// while it waits here): a task that blocked here would deadlock the pool
// while draining, and an I/O worker would stall page loads behind
// enumeration — both use trySubmit, which never blocks.
func (p *workerPool) submit(task func()) {
	p.submitted.Inc()
	p.pending.Add(1)
	p.tasks <- task
}

// trySubmit schedules a task without ever blocking: it reports false (and
// schedules nothing) when the channel is full; the caller — a running task
// splitting its range, or a last-level page callback, which then hands the
// task to the orchestrator — copes. The Add here cannot race a drain at
// zero: a running task's own pending count keeps the WaitGroup non-zero,
// and a pass's page callbacks run while the orchestrator — the only
// goroutine that drains — is still serving that pass (stream.run), which
// ends only after every callback has reported.
func (p *workerPool) trySubmit(task func()) bool {
	p.pending.Add(1)
	select {
	case p.tasks <- task:
		p.submitted.Inc()
		return true
	default:
		p.pending.Done()
		return false
	}
}

// hungry reports that the queue is empty and at least one worker is idle —
// the signal for a running task to split off half of its remaining range.
// Racy by design: a false positive merely produces one extra small task.
func (p *workerPool) hungry() bool {
	return len(p.tasks) == 0 && p.idle.Load() > 0
}

// stats returns the cumulative submitted and completed task counts.
func (p *workerPool) stats() (submitted, completed uint64) {
	return p.submitted.Value(), p.completed.Value()
}

// queueDepth returns the number of tasks submitted but not yet completed
// (queued plus currently running).
func (p *workerPool) queueDepth() int {
	s, c := p.stats()
	return int(s - c)
}

// drain blocks until every submitted task has finished.
func (p *workerPool) drain() { p.pending.Wait() }

// close drains and terminates the workers.
func (p *workerPool) close() {
	p.drain()
	close(p.tasks)
	p.done.Wait()
}
