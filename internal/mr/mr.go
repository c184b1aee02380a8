// Package mr is a miniature MapReduce engine: hash-partitioned map output
// spilled to disk, per-reducer external sort, and grouped reduce — the
// substrate on which the TwinTwigJoin baseline executes. It simulates a
// cluster inside one process: "workers" are goroutines with individual
// memory budgets, map output is really written to and shuffled through
// files, and two failure modes of the real frameworks are modeled — Hadoop
// spill exhaustion and Spark's oversized-partition failure.
package mr

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrPartitionTooLarge models Spark SQL's failure when a shuffle partition
// block exceeds its limit (the paper's TTJ-SparkSQL failures).
var ErrPartitionTooLarge = errors.New("mr: shuffle partition exceeds worker memory limit")

// ErrSpillExhausted models Hadoop's spill failure when intermediate results
// outgrow the configured spill budget (the paper's TTJ failure on LJ-q3).
var ErrSpillExhausted = errors.New("mr: intermediate results exceed spill budget")

// KV is one key/value record.
type KV struct {
	Key   []byte
	Value []byte
}

// Emit receives records from mappers and reducers.
type Emit func(key, value []byte) error

// Mapper transforms one input record.
type Mapper func(rec []byte, emit Emit) error

// Reducer folds all values sharing a key.
type Reducer func(key []byte, values [][]byte, emit Emit) error

// Config describes the simulated cluster.
type Config struct {
	// Workers is the number of simulated machines (default 1).
	Workers int
	// TempDir holds shuffle and output files (required).
	TempDir string
	// MemoryPerWorker caps a reducer's in-memory shuffle data in bytes;
	// beyond it, data spills to disk (Hadoop) or the job fails
	// (FailOnOverflow, Spark). Zero means unlimited.
	MemoryPerWorker int64
	// FailOnOverflow makes partitions larger than MemoryPerWorker fatal
	// instead of spilling.
	FailOnOverflow bool
	// MaxSpillBytes caps total spilled bytes per job (zero = unlimited).
	MaxSpillBytes int64
}

// Counters aggregates job statistics.
type Counters struct {
	MapInput     uint64
	MapOutput    uint64
	ReduceOutput uint64
	ShuffleBytes uint64
	SpilledBytes uint64
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.MapInput += other.MapInput
	c.MapOutput += other.MapOutput
	c.ReduceOutput += other.ReduceOutput
	c.ShuffleBytes += other.ShuffleBytes
	c.SpilledBytes += other.SpilledBytes
}

// Dataset is a partitioned on-disk record collection.
type Dataset struct {
	parts []string // one file per partition
}

// NumPartitions returns the partition count.
func (d *Dataset) NumPartitions() int { return len(d.parts) }

// writeRecord writes a length-prefixed record.
func writeRecord(w io.Writer, rec []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(rec)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(rec)
	return err
}

func readRecord(r *bufio.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("mr: truncated record: %w", err)
	}
	return buf, nil
}

// CreateDataset materializes records into partitions under dir.
func CreateDataset(dir, name string, partitions int, records [][]byte) (*Dataset, error) {
	partitions = max(partitions, 1)
	d := &Dataset{}
	writers := make([]*bufio.Writer, partitions)
	files := make([]*os.File, partitions)
	for i := 0; i < partitions; i++ {
		path := filepath.Join(dir, fmt.Sprintf("%s-%05d.part", name, i))
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		files[i] = f
		writers[i] = bufio.NewWriter(f)
		d.parts = append(d.parts, path)
	}
	for i, rec := range records {
		if err := writeRecord(writers[i%partitions], rec); err != nil {
			return nil, err
		}
	}
	for i := range writers {
		if err := writers[i].Flush(); err != nil {
			return nil, err
		}
		if err := files[i].Close(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Scan streams every record of the dataset to fn.
func (d *Dataset) Scan(fn func(rec []byte) error) error {
	for _, path := range d.parts {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		r := bufio.NewReaderSize(f, 1<<16)
		var buf []byte
		for {
			rec, err := readRecord(r, buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				return err
			}
			buf = rec
			if err := fn(rec); err != nil {
				f.Close()
				return err
			}
		}
		f.Close()
	}
	return nil
}

// Count returns the number of records in the dataset.
func (d *Dataset) Count() (uint64, error) {
	var n uint64
	err := d.Scan(func([]byte) error { n++; return nil })
	return n, err
}

// Remove deletes the dataset's files.
func (d *Dataset) Remove() {
	for _, p := range d.parts {
		os.Remove(p)
	}
}

// Job is one MapReduce round.
type Job struct {
	Name   string
	Map    Mapper
	Reduce Reducer
	// Combine, when non-nil, pre-aggregates map output per mapper task
	// before the shuffle (a Hadoop combiner), reducing shuffle volume for
	// aggregation-shaped jobs. It must be semantically idempotent with
	// Reduce over partial groups.
	Combine Reducer
}

var jobSeq atomic.Uint64

// Run executes a job over the inputs and returns the output dataset. All
// inputs are mapped; the union of map output is shuffled and reduced.
func Run(cfg Config, job Job, inputs ...*Dataset) (*Dataset, Counters, error) {
	cfg.Workers = max(cfg.Workers, 1)
	if cfg.TempDir == "" {
		return nil, Counters{}, fmt.Errorf("mr: TempDir required")
	}
	id := jobSeq.Add(1)
	jobDir := filepath.Join(cfg.TempDir, fmt.Sprintf("job-%s-%d", sanitize(job.Name), id))
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		return nil, Counters{}, err
	}

	var counters Counters
	shuffleFiles, mapCounters, err := mapPhase(cfg, job, jobDir, inputs)
	counters.Add(mapCounters)
	if err != nil {
		return nil, counters, err
	}
	out, redCounters, err := reducePhase(cfg, job, jobDir, shuffleFiles)
	counters.Add(redCounters)
	if err != nil {
		return nil, counters, err
	}
	return out, counters, nil
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r == '/' || r == ' ' {
			r = '_'
		}
		out = append(out, r)
	}
	return string(out)
}

// mapPhase runs mappers over input partitions, hash-partitioning emitted
// pairs into per-reducer shuffle files.
func mapPhase(cfg Config, job Job, jobDir string, inputs []*Dataset) ([][]string, Counters, error) {
	var counters Counters
	shuffle := make([][]string, cfg.Workers) // [reducer] -> files
	var shuffleMu sync.Mutex

	type task struct {
		path string
		id   int
	}
	var tasks []task
	for _, in := range inputs {
		for _, p := range in.parts {
			tasks = append(tasks, task{path: p, id: len(tasks)})
		}
	}

	var mapIn, mapOut, shufBytes atomic.Uint64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Workers)
	for _, tk := range tasks {
		wg.Add(1)
		sem <- struct{}{}
		go func(tk task) {
			defer func() { <-sem; wg.Done() }()
			files, err := runMapTask(cfg, job, jobDir, tk.path, tk.id, &mapIn, &mapOut, &shufBytes)
			if err != nil {
				firstErr.CompareAndSwap(nil, err)
				return
			}
			shuffleMu.Lock()
			for r, f := range files {
				if f != "" {
					shuffle[r] = append(shuffle[r], f)
				}
			}
			shuffleMu.Unlock()
		}(tk)
	}
	wg.Wait()
	counters.MapInput = mapIn.Load()
	counters.MapOutput = mapOut.Load()
	counters.ShuffleBytes = shufBytes.Load()
	if v := firstErr.Load(); v != nil {
		return nil, counters, v.(error)
	}
	return shuffle, counters, nil
}

func runMapTask(cfg Config, job Job, jobDir, inputPath string, taskID int, mapIn, mapOut, shufBytes *atomic.Uint64) ([]string, error) {
	writers := make([]*bufio.Writer, cfg.Workers)
	files := make([]*os.File, cfg.Workers)
	names := make([]string, cfg.Workers)
	getWriter := func(r int) (*bufio.Writer, error) {
		if writers[r] == nil {
			name := filepath.Join(jobDir, fmt.Sprintf("shuf-m%d-r%d.bin", taskID, r))
			f, err := os.Create(name)
			if err != nil {
				return nil, err
			}
			files[r] = f
			writers[r] = bufio.NewWriterSize(f, 1<<15)
			names[r] = name
		}
		return writers[r], nil
	}
	shuffleOut := func(key, value []byte) error {
		r := int(fnv1a(key) % uint64(cfg.Workers))
		w, err := getWriter(r)
		if err != nil {
			return err
		}
		rec := encodeKV(key, value)
		mapOut.Add(1)
		shufBytes.Add(uint64(len(rec)))
		return writeRecord(w, rec)
	}

	emit := shuffleOut
	var pending map[string][][]byte
	if job.Combine != nil {
		pending = make(map[string][][]byte)
		emit = func(key, value []byte) error {
			pending[string(key)] = append(pending[string(key)], append([]byte(nil), value...))
			return nil
		}
	}

	in := &Dataset{parts: []string{inputPath}}
	err := in.Scan(func(rec []byte) error {
		mapIn.Add(1)
		return job.Map(rec, emit)
	})
	if err == nil && job.Combine != nil {
		for key, values := range pending {
			if cerr := job.Combine([]byte(key), values, shuffleOut); cerr != nil {
				err = cerr
				break
			}
		}
	}
	for r := range writers {
		if writers[r] != nil {
			if ferr := writers[r].Flush(); ferr != nil && err == nil {
				err = ferr
			}
			if cerr := files[r].Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		return nil, err
	}
	return names, nil
}

func fnv1a(b []byte) uint64 {
	var h uint64 = 14695981039346656037
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func encodeKV(key, value []byte) []byte {
	rec := make([]byte, 4+len(key)+len(value))
	binary.LittleEndian.PutUint32(rec, uint32(len(key)))
	copy(rec[4:], key)
	copy(rec[4+len(key):], value)
	return rec
}

// DecodeKV splits an output record of a job into its key and value.
func DecodeKV(rec []byte) (key, value []byte, err error) {
	if len(rec) < 4 {
		return nil, nil, fmt.Errorf("mr: short kv record")
	}
	kl := binary.LittleEndian.Uint32(rec)
	if int(4+kl) > len(rec) {
		return nil, nil, fmt.Errorf("mr: corrupt kv record")
	}
	return rec[4 : 4+kl], rec[4+kl:], nil
}

// reducePhase sorts each reducer's shuffle input (spilling or failing per
// config) and folds groups through the reducer.
func reducePhase(cfg Config, job Job, jobDir string, shuffle [][]string) (*Dataset, Counters, error) {
	var counters Counters
	out := &Dataset{parts: make([]string, cfg.Workers)}
	var spilled, reduceOut atomic.Uint64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for r := 0; r < cfg.Workers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			outPath := filepath.Join(jobDir, fmt.Sprintf("out-%05d.part", r))
			out.parts[r] = outPath
			if err := runReduceTask(cfg, job, jobDir, r, shuffle[r], outPath, &spilled, &reduceOut); err != nil {
				firstErr.CompareAndSwap(nil, err)
			}
		}(r)
	}
	wg.Wait()
	counters.SpilledBytes = spilled.Load()
	counters.ReduceOutput = reduceOut.Load()
	if v := firstErr.Load(); v != nil {
		return nil, counters, v.(error)
	}
	return out, counters, nil
}

func runReduceTask(cfg Config, job Job, jobDir string, r int, inFiles []string, outPath string, spilled, reduceOut *atomic.Uint64) error {
	outF, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer outF.Close()
	outW := bufio.NewWriterSize(outF, 1<<15)
	emit := func(key, value []byte) error {
		reduceOut.Add(1)
		return writeRecord(outW, encodeKV(key, value))
	}

	sorter := newKVSorter(cfg, jobDir, r, spilled)
	in := &Dataset{parts: inFiles}
	err = in.Scan(func(rec []byte) error {
		cp := make([]byte, len(rec))
		copy(cp, rec)
		return sorter.add(cp)
	})
	if err != nil {
		return err
	}
	// Stream groups to the reducer.
	var curKey []byte
	var values [][]byte
	flushGroup := func() error {
		if curKey == nil {
			return nil
		}
		err := job.Reduce(curKey, values, emit)
		curKey, values = nil, values[:0]
		return err
	}
	err = sorter.merge(func(rec []byte) error {
		key, value, err := DecodeKV(rec)
		if err != nil {
			return err
		}
		if curKey == nil || !bytes.Equal(key, curKey) {
			if err := flushGroup(); err != nil {
				return err
			}
			curKey = append([]byte(nil), key...)
		}
		values = append(values, append([]byte(nil), value...))
		return nil
	})
	if err != nil {
		return err
	}
	if err := flushGroup(); err != nil {
		return err
	}
	return outW.Flush()
}

// kvSorter buffers records up to the memory budget, spilling sorted runs.
type kvSorter struct {
	cfg     Config
	dir     string
	reducer int
	buf     [][]byte
	bufSize int64
	runs    []string
	spilled *atomic.Uint64
	total   int64
}

func newKVSorter(cfg Config, dir string, reducer int, spilled *atomic.Uint64) *kvSorter {
	return &kvSorter{cfg: cfg, dir: dir, reducer: reducer, spilled: spilled}
}

func (s *kvSorter) add(rec []byte) error {
	s.buf = append(s.buf, rec)
	s.bufSize += int64(len(rec))
	s.total += int64(len(rec))
	if s.cfg.MemoryPerWorker > 0 && s.bufSize > s.cfg.MemoryPerWorker {
		if s.cfg.FailOnOverflow {
			return fmt.Errorf("%w: reducer %d holds %d bytes (limit %d)",
				ErrPartitionTooLarge, s.reducer, s.bufSize, s.cfg.MemoryPerWorker)
		}
		return s.spill()
	}
	return nil
}

func (s *kvSorter) spill() error {
	if len(s.buf) == 0 {
		return nil
	}
	if s.cfg.MaxSpillBytes > 0 && int64(s.spilled.Load())+s.bufSize > s.cfg.MaxSpillBytes {
		return fmt.Errorf("%w: reducer %d (spilled %d + %d > %d)",
			ErrSpillExhausted, s.reducer, s.spilled.Load(), s.bufSize, s.cfg.MaxSpillBytes)
	}
	s.sortBuf()
	path := filepath.Join(s.dir, fmt.Sprintf("spill-r%d-%d.bin", s.reducer, len(s.runs)))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<15)
	for _, rec := range s.buf {
		if err := writeRecord(w, rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	s.spilled.Add(uint64(s.bufSize))
	s.runs = append(s.runs, path)
	s.buf = s.buf[:0]
	s.bufSize = 0
	return nil
}

func (s *kvSorter) sortBuf() {
	sort.Slice(s.buf, func(i, j int) bool { return bytes.Compare(s.buf[i], s.buf[j]) < 0 })
}

// merge streams all records in key order.
func (s *kvSorter) merge(fn func(rec []byte) error) error {
	if len(s.runs) == 0 {
		s.sortBuf()
		for _, rec := range s.buf {
			if err := fn(rec); err != nil {
				return err
			}
		}
		return nil
	}
	if err := s.spill(); err != nil {
		return err
	}
	defer func() {
		for _, p := range s.runs {
			os.Remove(p)
		}
	}()
	type cursor struct {
		r   *bufio.Reader
		f   *os.File
		rec []byte
	}
	var cursors []*cursor
	for _, path := range s.runs {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		c := &cursor{f: f, r: bufio.NewReaderSize(f, 1<<15)}
		rec, err := readRecord(c.r, nil)
		if err == io.EOF {
			f.Close()
			continue
		}
		if err != nil {
			f.Close()
			return err
		}
		c.rec = append([]byte(nil), rec...)
		cursors = append(cursors, c)
	}
	for len(cursors) > 0 {
		best := 0
		for i := 1; i < len(cursors); i++ {
			if bytes.Compare(cursors[i].rec, cursors[best].rec) < 0 {
				best = i
			}
		}
		if err := fn(cursors[best].rec); err != nil {
			return err
		}
		rec, err := readRecord(cursors[best].r, nil)
		if err == io.EOF {
			cursors[best].f.Close()
			cursors = append(cursors[:best], cursors[best+1:]...)
			continue
		}
		if err != nil {
			return err
		}
		cursors[best].rec = append(cursors[best].rec[:0], rec...)
	}
	return nil
}
