package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"dualsim"
	"dualsim/internal/storage"
)

// stack is one workload's system under test: the database built from the
// fixture and the public Server in front of it on a loopback listener.
type stack struct {
	path      string
	db        *dualsim.DB
	srv       *dualsim.Server
	base      string // http://127.0.0.1:port
	build     *dualsim.BuildStats
	fileBytes int64
	frames    int // global buffer budget in pages
}

// serverConfig is the ServerConfig a workload runs on. Everything a default
// would derive from the machine (threads, buffer) is set explicitly.
func serverConfig(w *workload, pages int) dualsim.ServerConfig {
	frames := int(math.Ceil(w.BufferFraction * float64(pages)))
	return dualsim.ServerConfig{
		Engines:         w.Engines,
		RowLimit:        streamRowLimit,
		ShareScan:       w.ShareScan,
		CohortMaxRiders: w.CohortRiders,
		Mutable:         w.Writer,
		CompactEvery:    w.CompactEvery,
		Engine: dualsim.Options{
			Threads:        w.Threads,
			BufferFrames:   frames,
			PrefetchFrames: w.PrefetchFrames,
			PerPageLatency: w.PerPageLatency,
			SeekLatency:    w.SeekLatency,
		},
	}
}

// startStack builds the workload's database under dir, opens it and starts
// the server. The caller owns the returned stack and must stop it.
func startStack(w *workload, f *fixture, dir string) (*stack, error) {
	s := &stack{path: filepath.Join(dir, w.Name+".db")}
	var err error
	s.build, err = dualsim.BuildFromEdges(s.path, f.n, f.edges, dualsim.BuildOptions{
		Compress: w.Compress, TempDir: dir,
	})
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", s.path, err)
	}
	if st, err := os.Stat(s.path); err == nil {
		s.fileBytes = st.Size()
	}
	if s.db, err = dualsim.Open(s.path); err != nil {
		return nil, fmt.Errorf("open %s: %w", s.path, err)
	}
	cfg := serverConfig(w, s.db.NumPages())
	s.frames = cfg.Engine.BufferFrames
	if s.srv, err = s.db.NewServer(cfg); err != nil {
		s.db.Close()
		return nil, fmt.Errorf("server for %s: %w", w.Name, err)
	}
	if err = s.srv.Listen("127.0.0.1:0"); err != nil {
		s.srv.Close()
		s.db.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.base = "http://" + s.srv.Addr()
	return s, nil
}

// stop drains the server, closes the database and removes its file.
func (s *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Drain(ctx)
	// A compaction swaps the file under a mutable server, which then closes
	// the handle it was given.
	if cerr := s.db.Close(); err == nil && !errors.Is(cerr, os.ErrClosed) {
		err = cerr
	}
	if rerr := os.Remove(s.path); err == nil {
		err = rerr
	}
	return err
}

// liveEdges reads the database back in its own id space (the build reorders
// vertices by degree, so generator ids do not survive): the edge list the
// writer mutates and the final counts are checked against.
func liveEdges(path string) (int, [][2]dualsim.VertexID, error) {
	db, err := storage.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer db.Close()
	g, err := db.LoadGraph()
	if err != nil {
		return 0, nil, err
	}
	return g.NumVertices(), g.EdgeList(), nil
}
