package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"

	"dualsim/internal/delta"
	"dualsim/internal/graph"
	"dualsim/internal/storage"
)

// maxIngestBatch bounds one POST /edges body. A batch is applied
// atomically under the store's writer lock; an unbounded body would let
// one client hold the ingest path (and the handler's memory) hostage.
const maxIngestBatch = 100_000

// maxIngestBody bounds a POST /edges body (read through http.MaxBytesReader):
// room for maxIngestBatch ops of 64 bytes, more than the longest compact op
// with in-range endpoints takes, its newline included.
const maxIngestBody = maxIngestBatch * 64

// EdgeOp is one mutation in a POST /edges body: a single JSON object, or
// a stream of them (NDJSON / concatenated JSON). The whole body is ONE
// atomic batch — it applies entirely or not at all, and bumps the data
// epoch by exactly one.
type EdgeOp struct {
	// Op is "insert" or "delete" (default "insert").
	Op string `json:"op,omitempty"`
	// U and V are the edge's endpoints (undirected, u != v, both within
	// the graph's fixed vertex range).
	U int64 `json:"u"`
	V int64 `json:"v"`
}

// IngestResponse is the POST /edges reply.
type IngestResponse struct {
	Applied int `json:"applied"`
	// Epoch is the data epoch after this batch; queries admitted from now
	// on observe the mutation and report this (or a later) epoch.
	Epoch uint64 `json:"epoch"`
	// DeltaVertices is the overlay's current footprint: vertices with
	// pending mutations awaiting compaction.
	DeltaVertices int `json:"delta_vertices"`
}

// CompactResponse is the POST /admin/compact reply.
type CompactResponse struct {
	// Compacted is false when there was nothing to fold (empty overlay)
	// or a compaction was already running.
	Compacted bool   `json:"compacted"`
	Epoch     uint64 `json:"epoch"`
}

// handleEdges is POST /edges: decode the body as one or more EdgeOp
// objects, apply them as a single atomic batch, and stamp the new epoch into
// the base file's superblock.
func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Done()
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}

	n := s.current().db.NumVertices()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody))
	var ops []delta.Op
	for {
		var eo EdgeOp
		if err := dec.Decode(&eo); err == io.EOF {
			break
		} else if err != nil {
			s.sm.ingestRejected.Inc()
			if !writeTooLarge(w, err) {
				writeError(w, http.StatusBadRequest, "bad edge op %d: %v", len(ops), err)
			}
			return
		}
		var insert bool
		switch eo.Op {
		case "", "insert":
			insert = true
		case "delete":
		default:
			s.sm.ingestRejected.Inc()
			writeError(w, http.StatusBadRequest, "bad edge op %d: op %q (want insert or delete)", len(ops), eo.Op)
			return
		}
		if eo.U < 0 || eo.V < 0 || eo.U >= int64(n) || eo.V >= int64(n) {
			s.sm.ingestRejected.Inc()
			writeError(w, http.StatusBadRequest, "bad edge op %d: endpoints (%d,%d) outside [0,%d)", len(ops), eo.U, eo.V, n)
			return
		}
		if len(ops) >= maxIngestBatch {
			s.sm.ingestRejected.Inc()
			writeError(w, http.StatusRequestEntityTooLarge, "batch exceeds %d ops", maxIngestBatch)
			return
		}
		ops = append(ops, delta.Op{Insert: insert, U: graph.VertexID(eo.U), V: graph.VertexID(eo.V)})
	}
	if len(ops) == 0 {
		s.sm.ingestRejected.Inc()
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}

	epoch, err := s.store.Apply(ops)
	if err != nil {
		s.sm.ingestRejected.Inc()
		writeError(w, http.StatusBadRequest, "rejected batch: %v", err)
		return
	}
	s.sm.ingestBatches.Inc()
	s.sm.ingestOps.Add(uint64(len(ops)))
	s.opsSinceCompact.Add(uint64(len(ops)))
	s.advanceEpoch()
	s.maybeCompact()
	writeJSON(w, http.StatusOK, IngestResponse{
		Applied:       len(ops),
		Epoch:         epoch,
		DeltaVertices: s.store.Snapshot().Len(),
	})
}

// advanceEpoch publishes the store's current epoch: the base file's
// superblock is stamped so tooling (and the compactor's output) can see how
// far the content on disk lags the truth. Cached plans are untouched —
// plan.Prepare reads nothing from the data; resume tokens carry the epoch
// guard. stampMu serializes concurrent batches so a slower writer can never
// publish an older epoch over a newer one.
func (s *Server) advanceEpoch() {
	s.stampMu.Lock()
	defer s.stampMu.Unlock()
	epoch := s.store.Epoch()
	if sdb, ok := s.current().db.(*storage.DB); ok {
		if err := storage.StampEpoch(sdb.Path(), epoch); err != nil {
			log.Printf("dualsim/server: stamping epoch %d: %v", epoch, err)
		}
	}
}

// dataEpoch is the service's current data epoch: the overlay store's when
// live ingest is on, the base file's content epoch otherwise (zero for
// non-storage backends such as the chaos harness's fault wrapper).
func (s *Server) dataEpoch() uint64 {
	if s.store != nil {
		return s.store.Epoch()
	}
	if sdb, ok := s.current().db.(*storage.DB); ok {
		return sdb.Epoch()
	}
	return 0
}

// handleCompact is POST /admin/compact: fold the overlay into a fresh
// base file synchronously. 409 when a compaction is already running, 200
// with compacted=false when the overlay was empty.
func (s *Server) handleCompact(w http.ResponseWriter, _ *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Done()
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	did, err := s.compactOnce()
	switch {
	case errors.Is(err, errCompactBusy):
		writeError(w, http.StatusConflict, "compaction already in progress")
	case err != nil:
		writeError(w, http.StatusInternalServerError, "compaction failed: %v", err)
	default:
		writeJSON(w, http.StatusOK, CompactResponse{Compacted: did, Epoch: s.dataEpoch()})
	}
}

// maybeCompact kicks a background compaction once the overlay has
// absorbed CompactEvery ops since the last fold. The compaction joins the
// drain barrier before the calling handler leaves it, so Drain and Close
// wait for it and close whatever generation it publishes.
func (s *Server) maybeCompact() {
	if s.cfg.CompactEvery <= 0 || s.opsSinceCompact.Load() < uint64(s.cfg.CompactEvery) {
		return
	}
	if _, ok := s.current().db.(*storage.DB); !ok {
		return
	}
	s.inflight.Add(1)
	go func() {
		defer s.inflight.Done()
		if _, err := s.compactOnce(); err != nil && !errors.Is(err, errCompactBusy) {
			log.Printf("dualsim/server: background compaction: %v", err)
		}
	}()
}

var errCompactBusy = errors.New("server: compaction already in progress")

// compactOnce folds the overlay snapshot into a fresh database file and
// swaps it live, one generation for the next. The protocol, in order:
//
//  1. Snapshot the overlay at epoch E; write the folded file NEXT TO the
//     live one, in one pass over the live file, its superblock carrying E.
//  2. rename(2) it over the live path, under the stamp lock, restamping it
//     with the current epoch if batches landed since E. Open descriptors
//     keep reading the old inode, so in-flight runs finish against the
//     graph they started on; only this step is a point of no return, and
//     it is atomic.
//  3. Open the new file and build the next generation over it — every
//     engine, the cohort's included. If any step fails, what was built is
//     closed and the current generation keeps serving, its overlay whole:
//     the next compaction folds the old base plus the overlay again.
//  4. Publish the new generation: requests admitted from here on run on
//     the folded file, merging the still-undrained overlay, which is
//     idempotent there — inserts it already contains and deletes it
//     already lacks are no-ops.
//  5. Wait for every request admitted to the old generation (queued
//     waiters and cohort riders included) to return its engines, then
//     close the old generation.
//  6. Rebase the overlay: subtract exactly the folded snapshot, keeping
//     ops applied after E, and close the old file. The epoch does not
//     move — compaction changes the representation, not the data.
//
// The overlay is only rebased once no request reads the old file, so no
// window can miss a mutation; until then the idempotent overlay
// double-covers the folded ops.
func (s *Server) compactOnce() (bool, error) {
	if !s.compacting.CompareAndSwap(false, true) {
		return false, errCompactBusy
	}
	defer s.compacting.Store(false)

	old := s.current()
	sdb, ok := old.db.(*storage.DB)
	if !ok {
		return false, fmt.Errorf("server: base %T is not compactable", old.db)
	}
	snap := s.store.Snapshot()
	if snap.Empty() {
		return false, nil
	}
	fail := func(err error) (bool, error) {
		s.compactErrors.Add(1)
		return false, err
	}

	live := sdb.Path()
	tmp := live + ".compact"
	defer os.Remove(tmp)
	if _, err := storage.Compact(tmp, sdb, snap.Apply, snap.Epoch(), storage.BuildOptions{}); err != nil {
		return fail(err)
	}
	// A batch applied since the snapshot stamped its epoch into the file
	// being replaced; the folded one carries the snapshot's until restamped.
	s.stampMu.Lock()
	err := storage.SwapFile(tmp, live)
	if epoch := s.store.Epoch(); err == nil && epoch > snap.Epoch() {
		if serr := storage.StampEpoch(live, epoch); serr != nil {
			log.Printf("dualsim/server: stamping epoch %d: %v", epoch, serr)
		}
	}
	s.stampMu.Unlock()
	if err != nil {
		return fail(err)
	}
	ndb, err := storage.Open(live)
	if err != nil {
		// The path now holds the folded file but every reader still has the
		// old inode: serving continues, the overlay keeps double-covering,
		// and the next compaction folds base+overlay again (idempotent).
		return fail(fmt.Errorf("server: reopening compacted db: %w", err))
	}
	next, err := s.newGeneration(ndb)
	if err != nil {
		ndb.Close()
		return fail(fmt.Errorf("server: building engines over compacted db: %w", err))
	}

	s.mu.Lock()
	s.gen = next
	s.mu.Unlock()
	old.runs.Wait()
	old.close()

	s.store.Rebase(snap)
	s.opsSinceCompact.Store(0)
	s.compactions.Add(1)
	sdb.Close()
	return true, nil
}
