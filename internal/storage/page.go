// Package storage implements the disk format of the DUALSIM reproduction:
// adjacency lists stored as (v, adj(v)) records in slotted pages, a page
// file with a vertex directory, and the degree-ordering preprocessing step
// (an external merge sort, as in Table 3 of the paper). Adjacency lists
// larger than a page are broken into sublists stored on consecutive pages.
package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"dualsim/internal/graph"
)

// PageID identifies a data page. Pages are numbered 0..NumPages-1 and hold
// vertices in increasing ID order, so P(v) is monotone in v (Lemma 1).
type PageID uint32

// InvalidPage is a sentinel for "no page".
const InvalidPage PageID = ^PageID(0)

// Page layout (little endian):
//
//	offset 0:  pageID     uint32
//	offset 4:  recordCnt  uint16
//	offset 6:  freeStart  uint16 (offset of first free byte in the record area)
//	offset 8:  checksum   uint32 (IEEE CRC-32 of the page with this field zeroed)
//	records grow forward from offset 12
//	slot array grows backward from the page end; slot i (from the end):
//	    offset uint16, length uint16
//
// Record payload:
//
//	vertex   uint32
//	flags    uint8 (bit 0: continues on next page; bit 1: continuation;
//	               bit 2: delta-varint compressed; bit 3: skip table)
//	reserved uint8
//	count    uint16 (adjacency entries in this sublist)
//	payload  count × uint32 raw entries, or (for flagCompressed) the
//	         compressed stream — see docs/STORAGE.md for the full layout
const (
	pageHeaderSize   = 12
	checksumOffset   = 8
	slotSize         = 4
	recordHeaderSize = 8

	flagContinues    = 1 << 0
	flagContinuation = 1 << 1
	flagCompressed   = 1 << 2
	flagSkips        = 1 << 3 // compressed payload starts with a skip table
)

// MinPageSize is the smallest supported page size: room for the header, one
// record with one adjacency entry, and one slot — and for the superblock
// (superblockSize bytes), which lives in the file's first page frame and
// must not spill into data page 0.
const MinPageSize = superblockSize

// MaxPageSize is the largest supported page size: slot offsets and lengths,
// freeStart and entry counts are uint16, so no byte of a larger page could
// be addressed.
const MaxPageSize = 1 << 16

// DefaultPageSize is used when BuildOptions.PageSize is zero.
const DefaultPageSize = 4096

// Record is one (vertex, adjacency sublist) entry parsed from a page.
type Record struct {
	// Vertex is the vertex this sublist belongs to.
	Vertex graph.VertexID
	// Adj is the decoded adjacency sublist. ParsePage decodes every record
	// into it, stored compressed or not; only ParsePageLazy leaves it nil
	// for a compressed record, which then carries Comp instead.
	Adj []graph.VertexID
	// Comp is the validated zero-copy view of a compressed record's
	// payload, set by ParsePageLazy alone: the engine never parses lazily.
	// Its slices alias the page buffer and are valid only as long as that
	// buffer is.
	Comp graph.CompressedAdj
	// CompBytes is the on-disk payload size in bytes when the record was
	// stored compressed, 0 for raw records. It is set in both parse
	// modes and feeds dualsim_compressed_{records,bytes}_total.
	CompBytes int
	// Continues is set when the adjacency list continues on the next page.
	Continues bool
	// Continuation is set when this sublist continues a previous page's.
	Continuation bool
}

// Count returns the number of adjacency entries in the sublist regardless
// of parse mode.
func (r *Record) Count() int {
	if r.Adj == nil && r.CompBytes > 0 {
		return r.Comp.Count
	}
	return len(r.Adj)
}

// Decoded returns the record's adjacency sublist, decoding a lazily
// parsed compressed record by appending to dst (pass reusable scratch;
// dst may be nil). Already-decoded records return Adj directly and
// ignore dst.
func (r *Record) Decoded(dst []graph.VertexID) []graph.VertexID {
	if r.Adj == nil && r.CompBytes > 0 {
		return r.Comp.AppendTo(dst)
	}
	return r.Adj
}

// Page is a parsed data page.
type Page struct {
	// ID is the page's position in the file.
	ID PageID
	// Records are the adjacency records stored on the page, in slot order.
	Records []Record
}

// MaxEntriesPerPage returns how many adjacency entries fit in a fresh page
// of the given size alongside a single record.
func MaxEntriesPerPage(pageSize int) int {
	return (pageSize - pageHeaderSize - recordHeaderSize - slotSize) / 4
}

// PageWriter assembles one page image.
type PageWriter struct {
	buf     []byte
	id      PageID
	nrec    int
	free    int // offset of first free record byte
	slotTop int // offset of the lowest slot byte
	scratch []byte
}

// NewPageWriter returns a writer for a fresh page with the given ID.
func NewPageWriter(pageSize int, id PageID) *PageWriter {
	if pageSize < MinPageSize {
		panic(fmt.Sprintf("storage: page size %d below minimum %d", pageSize, MinPageSize))
	}
	w := &PageWriter{buf: make([]byte, pageSize), id: id}
	w.reset(id)
	return w
}

// Reset clears the writer for a new page with the given ID, reusing the
// underlying buffer.
func (w *PageWriter) Reset(id PageID) { w.reset(id) }

func (w *PageWriter) reset(id PageID) {
	for i := range w.buf {
		w.buf[i] = 0
	}
	w.id = id
	w.nrec = 0
	w.free = pageHeaderSize
	w.slotTop = len(w.buf)
}

// FreeEntryCapacity returns how many adjacency entries a new record added to
// this page could hold (0 if not even an empty record fits).
func (w *PageWriter) FreeEntryCapacity() int {
	space := w.slotTop - w.free - slotSize - recordHeaderSize
	if space < 0 {
		return -1
	}
	return space / 4
}

// Add appends a record. It returns false without modifying the page when
// the record does not fit.
func (w *PageWriter) Add(v graph.VertexID, adj []graph.VertexID, continues, continuation bool) bool {
	need := recordHeaderSize + 4*len(adj)
	if w.free+need+slotSize > w.slotTop {
		return false
	}
	off := w.free
	binary.LittleEndian.PutUint32(w.buf[off:], uint32(v))
	var flags byte
	if continues {
		flags |= flagContinues
	}
	if continuation {
		flags |= flagContinuation
	}
	w.buf[off+4] = flags
	binary.LittleEndian.PutUint16(w.buf[off+6:], uint16(len(adj)))
	p := off + recordHeaderSize
	for _, x := range adj {
		binary.LittleEndian.PutUint32(w.buf[p:], uint32(x))
		p += 4
	}
	w.free += need
	w.slotTop -= slotSize
	binary.LittleEndian.PutUint16(w.buf[w.slotTop:], uint16(off))
	binary.LittleEndian.PutUint16(w.buf[w.slotTop+2:], uint16(need))
	w.nrec++
	return true
}

// NumRecords returns the number of records added so far.
func (w *PageWriter) NumRecords() int { return w.nrec }

// Bytes finalizes the header (including the CRC-32 checksum) and returns
// the page image. The slice aliases the writer's buffer and is invalidated
// by Reset.
func (w *PageWriter) Bytes() []byte {
	binary.LittleEndian.PutUint32(w.buf[0:], uint32(w.id))
	binary.LittleEndian.PutUint16(w.buf[4:], uint16(w.nrec))
	binary.LittleEndian.PutUint16(w.buf[6:], uint16(w.free))
	binary.LittleEndian.PutUint32(w.buf[checksumOffset:], 0)
	sum := crc32.ChecksumIEEE(w.buf)
	binary.LittleEndian.PutUint32(w.buf[checksumOffset:], sum)
	return w.buf
}

// ParsePage decodes a page image. Each compressed record is validated and
// decoded in one walk (graph.DecodeCompressed: every check ParseCompressed
// makes), straight into the page's slab. Adjacency slices are decoded copies:
// the page aliases nothing of buf, which the caller may reuse at once. All
// records of a page share the slab, so parsing a page costs a constant
// number of allocations regardless of record count.
func ParsePage(buf []byte) (*Page, error) { return parsePage(buf, false) }

// ParsePageLazy parses like ParsePage but leaves records stored compressed
// as validated zero-copy views (Record.Comp) instead of decoding them; raw
// records still decode into the shared slab. The views alias buf, which the
// caller must keep alive and unmodified for as long as the page is used.
// The engine reads pages with ParsePage only; this is the comparator of the
// parse micro-benchmark and of the compressed-domain kernels.
func ParsePageLazy(buf []byte) (*Page, error) { return parsePage(buf, true) }

func parsePage(buf []byte, lazy bool) (*Page, error) {
	if len(buf) < MinPageSize {
		return nil, fmt.Errorf("storage: page buffer %d bytes, below minimum %d", len(buf), MinPageSize)
	}
	p := &Page{ID: PageID(binary.LittleEndian.Uint32(buf[0:]))}
	stored := binary.LittleEndian.Uint32(buf[checksumOffset:])
	if sum := pageChecksum(buf); sum != stored {
		return nil, &CorruptPageError{Page: p.ID, StoredCRC: stored, ComputedCRC: sum, Reason: "checksum mismatch"}
	}
	nrec := int(binary.LittleEndian.Uint16(buf[4:]))
	freeStart := int(binary.LittleEndian.Uint16(buf[6:]))
	slotBase := len(buf) - nrec*slotSize
	if slotBase < freeStart || freeStart < pageHeaderSize {
		return nil, &CorruptPageError{Page: p.ID, Reason: fmt.Sprintf("corrupt header (nrec=%d freeStart=%d)", nrec, freeStart)}
	}
	// Pass 1: validate slot framing and size the decode slab — entries that
	// will materialize as []VertexID (raw always; compressed only when
	// decoding eagerly).
	total := 0
	for i := 0; i < nrec; i++ {
		slotOff := len(buf) - (i+1)*slotSize
		off := int(binary.LittleEndian.Uint16(buf[slotOff:]))
		length := int(binary.LittleEndian.Uint16(buf[slotOff+2:]))
		if off+length > slotBase || off < pageHeaderSize || length < recordHeaderSize {
			return nil, &CorruptPageError{Page: p.ID, Reason: fmt.Sprintf("slot %d out of bounds (off=%d len=%d)", i, off, length)}
		}
		flags := buf[off+4]
		count := int(binary.LittleEndian.Uint16(buf[off+6:]))
		if flags&flagCompressed == 0 {
			if flags&flagSkips != 0 {
				return nil, &CorruptPageError{Page: p.ID, Reason: fmt.Sprintf("slot %d: skip flag on raw record", i)}
			}
			if recordHeaderSize+4*count != length {
				return nil, &CorruptPageError{Page: p.ID, Reason: fmt.Sprintf("slot %d count %d disagrees with length %d", i, count, length)}
			}
			total += count
		} else {
			// Every varint is at least one byte, so the payload bounds the
			// entry count; checking here keeps the slab pre-allocation
			// honest against hostile counts.
			if count > length-recordHeaderSize {
				return nil, &CorruptPageError{Page: p.ID, Reason: fmt.Sprintf("slot %d: %d entries claimed in a %d-byte payload", i, count, length-recordHeaderSize)}
			}
			if !lazy {
				total += count
			}
		}
	}
	slab := make([]graph.VertexID, 0, total)
	p.Records = make([]Record, 0, nrec)
	for i := 0; i < nrec; i++ {
		slotOff := len(buf) - (i+1)*slotSize
		off := int(binary.LittleEndian.Uint16(buf[slotOff:]))
		length := int(binary.LittleEndian.Uint16(buf[slotOff+2:]))
		rec := Record{Vertex: graph.VertexID(binary.LittleEndian.Uint32(buf[off:]))}
		flags := buf[off+4]
		rec.Continues = flags&flagContinues != 0
		rec.Continuation = flags&flagContinuation != 0
		count := int(binary.LittleEndian.Uint16(buf[off+6:]))
		if flags&flagCompressed != 0 {
			payload := buf[off+recordHeaderSize : off+length]
			skips := flags&flagSkips != 0
			var err error
			if lazy {
				rec.Comp, err = graph.ParseCompressed(payload, count, skips)
			} else {
				start := len(slab)
				slab, err = graph.DecodeCompressed(slab, payload, count, skips)
				rec.Adj = slab[start:len(slab):len(slab)]
			}
			if err != nil {
				return nil, &CorruptPageError{Page: p.ID, Reason: fmt.Sprintf("slot %d: %v", i, err)}
			}
			rec.CompBytes = len(payload)
			p.Records = append(p.Records, rec)
			continue
		}
		start := len(slab)
		q := off + recordHeaderSize
		for j := 0; j < count; j++ {
			slab = append(slab, graph.VertexID(binary.LittleEndian.Uint32(buf[q:])))
			q += 4
		}
		rec.Adj = slab[start:len(slab):len(slab)]
		p.Records = append(p.Records, rec)
	}
	return p, nil
}

// Vertices returns the distinct vertices that have a record on the page, in
// record order.
func (p *Page) Vertices() []graph.VertexID {
	out := make([]graph.VertexID, 0, len(p.Records))
	for _, r := range p.Records {
		if len(out) == 0 || out[len(out)-1] != r.Vertex {
			out = append(out, r.Vertex)
		}
	}
	return out
}
