// Package storage implements the disk format of the DUALSIM reproduction:
// adjacency lists stored as (v, adj(v)) records in slotted pages, a page
// file with one directory entry per page (PageFirsts), and the
// degree-ordering preprocessing step (an external merge sort, as in Table 3
// of the paper). Adjacency lists larger than a page are broken into sublists
// stored on consecutive pages.
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

// Record is one (vertex, adjacency sublist) entry parsed from a page. No
// reader of the page file builds one: ParsePage and ParsePageLazy return them
// for benchmark/'s record count and the lazy-parse comparison alone, and
// ROADMAP item 1(c) deletes them with ParsePageLazy.
type Record struct {
	// Vertex is the vertex this sublist belongs to.
	Vertex graph.VertexID
	// Adj is the decoded adjacency sublist. ParsePage fills it from the slot
	// index for every record; only ParsePageLazy leaves it nil for a
	// compressed record, which then carries Comp instead.
	Adj []graph.VertexID
	// Comp is the validated zero-copy view of a compressed record's
	// payload, set by ParsePageLazy alone. Its slices alias the page buffer
	// and are valid only as long as that buffer is.
	Comp graph.CompressedAdj
	// CompBytes is the on-disk payload size in bytes when the record was
	// stored compressed, 0 for raw records. It is set in both parses.
	CompBytes int
	// Continues is set when the adjacency list continues on the next page.
	Continues bool
	// Continuation is set when this sublist continues a previous page's.
	Continuation bool
}

// Page is a parsed data page.
type Page struct {
	// ID is the page's position in the file.
	ID PageID
	// Records are the adjacency records stored on the page, in slot order,
	// filled by ParsePage and ParsePageLazy only (see Record). A page parsed
	// by ParsePageInto — every reader of the page file — has none and is
	// read through its slot index alone (Slots, List, Chunk).
	Records []Record

	// first is slot 0's vertex. slab holds every record's decoded list back
	// to back, and index, in the same allocation right after it, the slot
	// index lists resolve through: per slot its list's start in slab and a
	// meta word (the list's forward split, and the chunk bits
	// metaContinues and metaContinuation), then slab's end once, so slot i
	// is index[2i : 2i+3]. slab's capacity is the whole allocation, which
	// ParsePageInto parses the next image into. A page parsed lazily has no
	// index and resolves nothing.
	first graph.VertexID
	slab  []graph.VertexID
	index []graph.VertexID // offsets and meta words, not vertices
	// compRecs and compBytes count the records with a compressed payload and
	// its bytes (Compressed).
	compRecs, compBytes int
}

// The chunk bits of a slot's meta word: the record continues on the next
// page, or continues the previous page's — either way it is a chunk of a
// multi-page vertex, and no single record holds that list. A split never
// reaches them: a sublist has at most 65 535 entries.
const (
	metaContinues    = 1 << 31
	metaContinuation = 1 << 30
	metaChunk        = metaContinues | metaContinuation
)

// indexWords is the length of the slot index of a page of nrec records.
func indexWords(nrec int) int { return 2*nrec + 1 }

// pageFor returns an empty page whose slab holds the parse of any image of
// pageSize bytes, so ParsePageInto never grows it: every entry takes at least
// one byte of payload for its one word, every record 12 bytes of header and
// slot for its two index words, and the page header's 12 bytes cover the
// index's closing word.
func pageFor(pageSize int) *Page {
	return &Page{slab: make([]graph.VertexID, 0, pageSize)}
}

// setSlot writes slot i of a page's index: the start of its list in the
// slab, and its forward split and chunk bits.
func setSlot(index []graph.VertexID, i, start, split int, continues, continuation bool) {
	meta := graph.VertexID(split)
	if continues {
		meta |= metaContinues
	}
	if continuation {
		meta |= metaContinuation
	}
	index[2*i], index[2*i+1] = graph.VertexID(start), meta
}

// Slots returns the number of slots the page's index resolves: its record
// count, or 0 for a page without an index.
func (p *Page) Slots() int { return len(p.index) / 2 }

// First returns the vertex of the page's first record.
func (p *Page) First() graph.VertexID { return p.first }

// Slot returns the slot of v's record on a page whose records are the dense
// ascending vertex-ID run from First, or false when v is outside that run.
func (p *Page) Slot(v graph.VertexID) (int, bool) {
	i := int(v - p.first)
	return i, v >= p.first && i < p.Slots()
}

// List returns slot i's decoded list, its forward split — list[:split] are
// the neighbours below the record's vertex, list[split:] those above — and
// whether the record is a chunk of a multi-page vertex, whose sublist is not
// its vertex's list. It reads 12 bytes of the index, not the Record.
func (p *Page) List(i int) (list []graph.VertexID, split int, chunk bool) {
	ix := p.index[2*i : 2*i+3 : 2*i+3]
	meta := ix[1]
	return p.slab[ix[0]:ix[2]:ix[2]], int(meta &^ metaChunk), meta&metaChunk != 0
}

// Chunk returns slot i's chunk bits: whether its vertex's list continues on
// the next page, and whether the record continues the previous page's.
func (p *Page) Chunk(i int) (continues, continuation bool) {
	meta := p.index[2*i+1]
	return meta&metaContinues != 0, meta&metaContinuation != 0
}

// Compressed returns how many of the page's records carry a compressed
// payload (Record.CompBytes > 0), and its bytes in all.
func (p *Page) Compressed() (records, bytes int) { return p.compRecs, p.compBytes }

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

// ParsePage parses a page image into a fresh page (ParsePageInto) and fills
// its Records from the slot index: each record's Adj aliases the page's
// slab, not buf, which the caller may reuse at once.
func ParsePage(buf []byte) (*Page, error) {
	p := &Page{}
	if err := p.parse(buf, parseIndex, InvalidPage); err != nil {
		return nil, err
	}
	p.Records = make([]Record, p.Slots())
	for i := range p.Records {
		rec := &p.Records[i]
		rec.Vertex = p.first + graph.VertexID(i)
		rec.Adj, _, _ = p.List(i)
		rec.Continues, rec.Continuation = p.Chunk(i)
		if off, length := slotRecord(buf, i); buf[off+4]&flagCompressed != 0 {
			rec.CompBytes = length - recordHeaderSize
		}
	}
	return p, nil
}

// ParsePageLazy parses like ParsePageInto, under the same checks, but leaves
// records stored compressed as validated zero-copy views (Record.Comp)
// instead of decoding them, and builds Records, not the slot index; raw
// records still decode into the shared slab. The views alias buf, which the
// caller must keep alive and unmodified for as long as the page is used.
// No reader of the page file parses lazily; this is the comparator of the
// parse micro-benchmark and of the compressed-domain kernels.
func ParsePageLazy(buf []byte) (*Page, error) {
	p := &Page{}
	if err := p.parse(buf, parseLazy, InvalidPage); err != nil {
		return nil, err
	}
	return p, nil
}

// ParsePageInto parses the image of page pid into p, reusing its memory —
// the parse of every reader of the page file: the buffer pool, verification,
// statistics, LoadGraph and compaction. An image whose header names another
// page — a misdirected read or write, which its checksum cannot see — is
// rejected as corrupt, naming pid (InvalidPage checks no ID: an image that
// was never read from a file). Each compressed record is validated
// and decoded in one walk (graph.DecodeCompressed: every check
// ParseCompressed makes), straight into the page's slab, whose spare
// capacity holds the slot index and its chunk bits; the page also totals its
// compressed records (Compressed) and aliases nothing of buf. The slab is
// allocated only when the image needs more than p's holds. The records must
// be a dense ascending vertex-ID run (the builder writes one record per
// vertex per page), since the index is addressed by vertex: a page that is
// not is rejected as corrupt, by every parse. Whatever was read from p before
// is overwritten, and on error p holds nothing usable until a parse succeeds.
func ParsePageInto(p *Page, buf []byte, pid PageID) error { return p.parse(buf, parseIndex, pid) }

// parseMode selects what parse builds besides the checks every mode makes.
type parseMode uint8

const (
	parseIndex parseMode = iota // the slot index (ParsePageInto)
	parseLazy                   // Records with compressed views, no index (ParsePageLazy)
)

// slotRecord returns the offset and length of slot i's record in a page
// image.
func slotRecord(buf []byte, i int) (off, length int) {
	slot := len(buf) - (i+1)*slotSize
	return int(binary.LittleEndian.Uint16(buf[slot:])), int(binary.LittleEndian.Uint16(buf[slot+2:]))
}

// parse is the one decode loop of both parse modes; want is the page the
// image was read as, InvalidPage when the caller did not read it from a file.
func (p *Page) parse(buf []byte, mode parseMode, want PageID) error {
	if len(buf) < MinPageSize {
		return fmt.Errorf("storage: page buffer %d bytes, below minimum %d", len(buf), MinPageSize)
	}
	p.ID = PageID(binary.LittleEndian.Uint32(buf[0:]))
	stored := binary.LittleEndian.Uint32(buf[checksumOffset:])
	if sum := pageChecksum(buf); sum != stored {
		return &CorruptPageError{Page: p.ID, StoredCRC: stored, ComputedCRC: sum, Reason: "checksum mismatch"}
	}
	if want != InvalidPage && p.ID != want {
		return &CorruptPageError{Page: want, Reason: fmt.Sprintf("page claims ID %d", p.ID)}
	}
	nrec := int(binary.LittleEndian.Uint16(buf[4:]))
	freeStart := int(binary.LittleEndian.Uint16(buf[6:]))
	slotBase := len(buf) - nrec*slotSize
	if slotBase < freeStart || freeStart < pageHeaderSize {
		return &CorruptPageError{Page: p.ID, Reason: fmt.Sprintf("corrupt header (nrec=%d freeStart=%d)", nrec, freeStart)}
	}
	// Pass 1: validate slot framing and size the decode slab — entries that
	// will materialize as []VertexID (raw always; compressed unless lazy).
	total := 0
	for i := 0; i < nrec; i++ {
		off, length := slotRecord(buf, i)
		if off+length > slotBase || off < pageHeaderSize || length < recordHeaderSize {
			return &CorruptPageError{Page: p.ID, Reason: fmt.Sprintf("slot %d out of bounds (off=%d len=%d)", i, off, length)}
		}
		flags := buf[off+4]
		count := int(binary.LittleEndian.Uint16(buf[off+6:]))
		if flags&flagCompressed == 0 {
			if flags&flagSkips != 0 {
				return &CorruptPageError{Page: p.ID, Reason: fmt.Sprintf("slot %d: skip flag on raw record", i)}
			}
			if recordHeaderSize+4*count != length {
				return &CorruptPageError{Page: p.ID, Reason: fmt.Sprintf("slot %d count %d disagrees with length %d", i, count, length)}
			}
			total += count
		} else {
			// Every varint is at least one byte, so the payload bounds the
			// entry count; checking here keeps the slab pre-allocation
			// honest against hostile counts.
			if count > length-recordHeaderSize {
				return &CorruptPageError{Page: p.ID, Reason: fmt.Sprintf("slot %d: %d entries claimed in a %d-byte payload", i, count, length-recordHeaderSize)}
			}
			if mode == parseIndex {
				total += count
			}
		}
	}
	words := total
	if mode == parseIndex {
		words += indexWords(nrec)
	}
	slab := p.slab[:0]
	if cap(slab) < words {
		slab = make([]graph.VertexID, 0, words)
	}
	index := slab[total:words]                // the slot index, in the slab's spare capacity
	p.Records, p.index, p.first = nil, nil, 0 // resolves nothing until it succeeds
	p.slab = slab                             // kept for the next parse if this one fails
	if mode == parseLazy {
		p.Records = make([]Record, 0, nrec)
	}
	p.compRecs, p.compBytes = 0, 0
	for i := 0; i < nrec; i++ {
		off, length := slotRecord(buf, i)
		v := graph.VertexID(binary.LittleEndian.Uint32(buf[off:]))
		if i == 0 {
			p.first = v
		} else if v != p.first+graph.VertexID(i) {
			return &CorruptPageError{Page: p.ID,
				Reason: fmt.Sprintf("slot %d holds vertex %d: records are not a dense vertex-ID run from %d", i, v, p.first)}
		}
		flags := buf[off+4]
		continues, continuation := flags&flagContinues != 0, flags&flagContinuation != 0
		count := int(binary.LittleEndian.Uint16(buf[off+6:]))
		start, split := len(slab), 0
		payload := buf[off+recordHeaderSize : off+length]
		var comp graph.CompressedAdj
		compBytes := 0
		if flags&flagCompressed != 0 {
			skips := flags&flagSkips != 0
			var err error
			if mode == parseLazy {
				comp, err = graph.ParseCompressed(payload, count, skips)
			} else {
				slab, split, err = graph.DecodeCompressed(slab, payload, count, skips, v)
			}
			if err != nil {
				return &CorruptPageError{Page: p.ID, Reason: fmt.Sprintf("slot %d: %v", i, err)}
			}
			if compBytes = len(payload); compBytes > 0 {
				p.compRecs++ // counted as Record.CompBytes tells them: a payload
				p.compBytes += compBytes
			}
		} else {
			for q := 0; q+4 <= len(payload); q += 4 {
				x := graph.VertexID(binary.LittleEndian.Uint32(payload[q:]))
				if x < v {
					split++ // the forward split, counted while decoding
				}
				slab = append(slab, x)
			}
		}
		if mode == parseIndex {
			setSlot(index, i, start, split, continues, continuation)
			continue
		}
		rec := Record{Vertex: v, Comp: comp, CompBytes: compBytes, Continues: continues, Continuation: continuation}
		if compBytes == 0 {
			rec.Adj = slab[start:len(slab):len(slab)]
		}
		p.Records = append(p.Records, rec)
	}
	if mode == parseIndex {
		index[len(index)-1] = graph.VertexID(len(slab))
		p.slab, p.index = slab, index
	}
	return nil
}
