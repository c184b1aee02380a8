// Package pregel is a miniature vertex-centric BSP engine (the Giraph-style
// substrate PSgL runs on): supersteps with message passing between vertex
// partitions owned by simulated workers, per-worker memory accounting, and
// the memory-overrun failure mode the paper observes for PSgL. Messages are
// uint32 vectors (partial embeddings).
package pregel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dualsim/internal/graph"
)

// ErrMemoryOverrun is returned when a worker's queued message bytes exceed
// its budget — the failure mode that makes PSgL "fail for many queries due
// to memory overruns".
var ErrMemoryOverrun = errors.New("pregel: worker memory overrun")

// Config describes the simulated cluster.
type Config struct {
	// Workers is the number of simulated machines (default 1).
	Workers int
	// MemoryPerWorker caps the bytes of messages queued at one worker
	// between supersteps (zero = unlimited).
	MemoryPerWorker int64
	// MaxSupersteps bounds execution (default 64).
	MaxSupersteps int
}

// Compute processes one vertex in one superstep. At superstep 0 it runs for
// every vertex with msgs == nil; afterwards only for vertices with incoming
// messages. It may send messages and add to the global counter through ctx.
type Compute func(ctx *Context, v graph.VertexID, msgs [][]uint32) error

// Stats reports one run.
type Stats struct {
	Supersteps     int
	TotalMessages  uint64
	TotalMsgBytes  uint64
	MaxWorkerBytes int64
	Count          uint64
	// MessagesPerStep[i] is the number of messages sent during superstep i.
	MessagesPerStep []uint64
}

// Engine executes a vertex program over a graph.
type Engine struct {
	g       *graph.Graph
	cfg     Config
	compute Compute
}

// NewEngine creates an engine for g running compute.
func NewEngine(g *graph.Graph, compute Compute, cfg Config) *Engine {
	cfg.Workers = max(cfg.Workers, 1)
	if cfg.MaxSupersteps <= 0 {
		cfg.MaxSupersteps = 64
	}
	return &Engine{g: g, cfg: cfg, compute: compute}
}

// Context is passed to Compute; valid only during the call.
type Context struct {
	eng       *Engine
	superstep int
	out       []map[graph.VertexID][][]uint32 // per destination worker
	outBytes  []int64
	count     uint64
}

// Superstep returns the current superstep number (0-based).
func (c *Context) Superstep() int { return c.superstep }

// Graph returns the data graph (read-only). The real distributed system
// would fetch remote adjacency over the network; sharing it here preserves
// semantics while the per-worker accounting still charges the partial
// results, which are what explode.
func (c *Context) Graph() *graph.Graph { return c.eng.g }

// Send queues msg for vertex dst in the next superstep.
func (c *Context) Send(dst graph.VertexID, msg []uint32) {
	w := int(dst) % c.eng.cfg.Workers
	if c.out[w] == nil {
		c.out[w] = make(map[graph.VertexID][][]uint32)
	}
	c.out[w][dst] = append(c.out[w][dst], msg)
	c.outBytes[w] += int64(4*len(msg) + 24)
}

// AddCount adds n to the run's global counter (complete matches).
func (c *Context) AddCount(n uint64) { c.count += n }

// Run executes supersteps until no messages remain.
func (e *Engine) Run() (*Stats, error) {
	stats := &Stats{}
	workers := e.cfg.Workers
	// inbox[w] holds messages for worker w's vertices.
	inbox := make([]map[graph.VertexID][][]uint32, workers)

	for step := 0; step < e.cfg.MaxSupersteps; step++ {
		active := step == 0
		for w := 0; w < workers; w++ {
			if len(inbox[w]) > 0 {
				active = true
			}
		}
		if !active {
			break
		}
		stats.Supersteps = step + 1

		nextBytes := make([]int64, workers)
		next := make([]map[graph.VertexID][][]uint32, workers)
		var mu sync.Mutex
		var firstErr atomic.Value
		var totalMsgs, totalBytes, totalCount atomic.Uint64

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ctx := &Context{
					eng:       e,
					superstep: step,
					out:       make([]map[graph.VertexID][][]uint32, workers),
					outBytes:  make([]int64, workers),
				}
				var err error
				if step == 0 {
					for v := w; v < e.g.NumVertices(); v += workers {
						if err = e.compute(ctx, graph.VertexID(v), nil); err != nil {
							break
						}
					}
				} else {
					for v, msgs := range inbox[w] {
						if err = e.compute(ctx, v, msgs); err != nil {
							break
						}
					}
				}
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				totalCount.Add(ctx.count)
				// Merge outgoing queues into the global next-step inbox.
				mu.Lock()
				for dw := 0; dw < workers; dw++ {
					if ctx.out[dw] == nil {
						continue
					}
					if next[dw] == nil {
						next[dw] = make(map[graph.VertexID][][]uint32)
					}
					for dst, msgs := range ctx.out[dw] {
						next[dw][dst] = append(next[dw][dst], msgs...)
						totalMsgs.Add(uint64(len(msgs)))
					}
					nextBytes[dw] += ctx.outBytes[dw]
					totalBytes.Add(uint64(ctx.outBytes[dw]))
				}
				mu.Unlock()
			}(w)
		}
		wg.Wait()
		stats.TotalMessages += totalMsgs.Load()
		stats.MessagesPerStep = append(stats.MessagesPerStep, totalMsgs.Load())
		stats.TotalMsgBytes += totalBytes.Load()
		stats.Count += totalCount.Load()
		if v := firstErr.Load(); v != nil {
			return stats, v.(error)
		}
		for w := 0; w < workers; w++ {
			stats.MaxWorkerBytes = max(stats.MaxWorkerBytes, nextBytes[w])
			if e.cfg.MemoryPerWorker > 0 && nextBytes[w] > e.cfg.MemoryPerWorker {
				return stats, fmt.Errorf("%w: worker %d queued %d bytes (limit %d) at superstep %d",
					ErrMemoryOverrun, w, nextBytes[w], e.cfg.MemoryPerWorker, step)
			}
		}
		inbox = next
	}
	return stats, nil
}
