package graph

// Compressed adjacency payloads.
//
// The storage layer delta-varint-encodes sorted adjacency lists (see
// docs/STORAGE.md for the byte layout); this file owns that layout:
//
//   - AppendCompressed and MaxCompressedEntries write it and size it;
//   - DecodeCompressed is how the engine reads it: one walk validates a
//     record and appends its entries to the page's slab, so a page is
//     decoded once, as it lands, and matching sees plain lists only;
//   - a skip table — one (lastValue, byteOffset) entry per SkipInterval
//     deltas — is checked by that walk against the stream it indexes;
//   - CompressedAdj, ParseCompressed, CompCursor and IntersectCompressed
//     are the compressed-domain operand: a zero-copy view validated by the
//     same walk, a cursor that seeks through the skip table without
//     decoding, and the 16x-skew dispatch of IntersectSorted against it.
//     Nothing in the engine reads a page this way; they are kept for the
//     parse and kernel micro-benchmarks.
//
// Encoding lives here rather than in storage so the byte layout has one
// authority (storage imports graph, not vice versa).

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// SkipInterval is the number of adjacency entries per skip block. A skip
// table is emitted only for lists longer than one block; each entry costs
// skipEntrySize bytes, so the table overhead is ~6/32 = 0.19 bytes per
// entry against the ~1-2 byte deltas it lets a seek jump over.
const SkipInterval = 32

// skipEntrySize is the byte size of one skip-table entry:
// uint32 lastValue + uint16 byteOffset.
const skipEntrySize = 6

// CompressedAdj is a validated view of one record's compressed adjacency
// payload. The Skips and Data slices alias the source buffer (typically a
// pinned buffer-pool frame) and are valid only as long as that buffer; the
// view itself is a plain value and copies freely.
type CompressedAdj struct {
	// Count is the number of adjacency entries in the stream.
	Count int
	// Skips is the raw skip table: Count/SkipInterval-ish entries of
	// skipEntrySize bytes each (empty for short lists). Entry j holds the
	// value of element (j+1)*SkipInterval-1 and the byte offset within
	// Data of element (j+1)*SkipInterval's varint.
	Skips []byte
	// Data is the delta-varint stream: the first entry absolute, each
	// subsequent entry the difference to its predecessor.
	Data []byte
}

// skipTableBytes returns the encoded size of the skip table (including its
// uint16 entry-count header) for a list of n entries — 0 when the list fits
// in one block and no table is emitted.
func skipTableBytes(n int) int {
	if n <= SkipInterval {
		return 0
	}
	return 2 + ((n-1)/SkipInterval)*skipEntrySize
}

// AppendCompressed appends the compressed encoding of the sorted
// duplicate-free list adj to dst and reports whether a skip table was
// written (true exactly when len(adj) > SkipInterval). With a table the
// payload is [uint16 nSkips][nSkips skip entries][delta varints]; without,
// it is the bare delta stream — byte-identical to the pre-skip format.
func AppendCompressed(dst []byte, adj []VertexID) ([]byte, bool) {
	n := len(adj)
	tableLen := skipTableBytes(n)
	if tableLen == 0 {
		return appendDeltas(dst, adj), false
	}
	nSkips := (n - 1) / SkipInterval
	base := len(dst)
	for i := 0; i < tableLen; i++ {
		dst = append(dst, 0)
	}
	binary.LittleEndian.PutUint16(dst[base:], uint16(nSkips))
	dataBase := len(dst)
	prev := uint32(0)
	var tmp [binary.MaxVarintLen32]byte
	for i, v := range adj {
		if i > 0 && i%SkipInterval == 0 {
			e := base + 2 + (i/SkipInterval-1)*skipEntrySize
			binary.LittleEndian.PutUint32(dst[e:], prev)
			binary.LittleEndian.PutUint16(dst[e+4:], uint16(len(dst)-dataBase))
		}
		var d uint64
		if i == 0 {
			d = uint64(v)
		} else {
			d = uint64(uint32(v) - prev)
		}
		k := binary.PutUvarint(tmp[:], d)
		dst = append(dst, tmp[:k]...)
		prev = uint32(v)
	}
	return dst, true
}

// appendDeltas appends the bare delta-varint stream of adj to dst.
func appendDeltas(dst []byte, adj []VertexID) []byte {
	prev := uint32(0)
	var tmp [binary.MaxVarintLen32]byte
	for i, v := range adj {
		var d uint64
		if i == 0 {
			d = uint64(v)
		} else {
			d = uint64(uint32(v) - prev)
		}
		k := binary.PutUvarint(tmp[:], d)
		dst = append(dst, tmp[:k]...)
		prev = uint32(v)
	}
	return dst
}

// MaxCompressedEntries returns how many leading entries of adj encode
// (skip table included, when one would be emitted) into at most maxBytes,
// and the total encoded byte count. It is the page-boundary splitter for
// compressed records: skipTableBytes is a monotone step function of the
// entry count, so the greedy scan is exact.
func MaxCompressedEntries(adj []VertexID, maxBytes int) (n, bytes int) {
	prev := uint32(0)
	deltaBytes := 0
	var tmp [binary.MaxVarintLen32]byte
	for _, v := range adj {
		var d uint64
		if n == 0 {
			d = uint64(v)
		} else {
			d = uint64(uint32(v) - prev)
		}
		sz := binary.PutUvarint(tmp[:], d)
		if deltaBytes+sz+skipTableBytes(n+1) > maxBytes {
			return n, bytes
		}
		deltaBytes += sz
		n++
		bytes = deltaBytes + skipTableBytes(n)
		prev = uint32(v)
	}
	return n, bytes
}

// ParseCompressed validates a compressed payload of count entries and
// returns a view of it. hasSkips says whether the payload begins with a
// skip table (the record's flag bit). The whole stream is walked once —
// varint framing, trailing bytes, and every skip entry's (value, offset)
// pair are checked against the walk — so cursors over the returned view
// can assume well-formed input. The view aliases payload.
func ParseCompressed(payload []byte, count int, hasSkips bool) (CompressedAdj, error) {
	c, _, _, err := walkCompressed(payload, count, hasSkips, nil, false, 0)
	return c, err
}

// DecodeCompressed validates a compressed payload exactly as ParseCompressed
// does and, in the same walk, appends its count entries to dst and counts
// those below v — for an ascending list, the index of its first entry not
// below v. The result aliases nothing of payload. On error dst comes back
// with its length unchanged.
func DecodeCompressed(dst []VertexID, payload []byte, count int, hasSkips bool, v VertexID) (out []VertexID, below int, err error) {
	_, dst, below, err = walkCompressed(payload, count, hasSkips, dst, true, v)
	return dst, below, err
}

// walkCompressed is the one validating walk over a payload: ParseCompressed
// keeps the view, DecodeCompressed (decode set) the values and the count of
// those below v.
func walkCompressed(payload []byte, count int, hasSkips bool, dst []VertexID, decode bool, v VertexID) (CompressedAdj, []VertexID, int, error) {
	c := CompressedAdj{Count: count}
	data := payload
	if hasSkips {
		if count <= SkipInterval {
			return c, dst, 0, fmt.Errorf("skip table on %d-entry list (max %d without one)", count, SkipInterval)
		}
		if len(payload) < 2 {
			return c, dst, 0, fmt.Errorf("payload %d bytes, too short for skip-table header", len(payload))
		}
		nSkips := int(binary.LittleEndian.Uint16(payload))
		if want := (count - 1) / SkipInterval; nSkips != want {
			return c, dst, 0, fmt.Errorf("skip table has %d entries, want %d for %d-entry list", nSkips, want, count)
		}
		tableLen := nSkips * skipEntrySize
		if len(payload) < 2+tableLen {
			return c, dst, 0, fmt.Errorf("payload %d bytes, too short for %d skip entries", len(payload), nSkips)
		}
		c.Skips = payload[2 : 2+tableLen]
		data = payload[2+tableLen:]
	}
	c.Data = data
	var out []VertexID // the decoded entries, written in place
	if decode {
		dst = slices.Grow(dst, count)
		out = dst[len(dst) : len(dst)+count]
	}
	prev := uint32(0) // the first delta is absolute: 0 + d
	pos, below := 0, 0
	// One block of SkipInterval deltas at a time: a skip entry is checked
	// where its block starts.
	for i := 0; i < count; {
		if i > 0 && len(c.Skips) > 0 {
			e := (i/SkipInterval - 1) * skipEntrySize
			lastVal := binary.LittleEndian.Uint32(c.Skips[e:])
			off := int(binary.LittleEndian.Uint16(c.Skips[e+4:]))
			if lastVal != prev || off != pos {
				return c, dst, 0, fmt.Errorf("skip entry %d is (val=%d off=%d), stream says (val=%d off=%d)",
					i/SkipInterval-1, lastVal, off, prev, pos)
			}
		}
		for end := min(i+SkipInterval, count); i < end; i++ {
			// Most deltas of a degree-ordered list fit one byte.
			if pos < len(data) && data[pos] < 0x80 {
				prev += uint32(data[pos])
				pos++
			} else {
				d, n := binary.Uvarint(data[pos:])
				if n <= 0 {
					return c, dst, 0, fmt.Errorf("corrupt varint at entry %d", i)
				}
				pos += n
				prev += uint32(d)
			}
			if decode {
				out[i] = VertexID(prev)
				if VertexID(prev) < v {
					below++
				}
			}
		}
	}
	if pos != len(data) {
		return c, dst, 0, fmt.Errorf("%d trailing bytes after %d entries", len(data)-pos, count)
	}
	return c, dst[:len(dst)+len(out)], below, nil
}

// AppendTo fully decodes the list, appending to dst (callers pass reusable
// scratch; dst may be nil).
func (c CompressedAdj) AppendTo(dst []VertexID) []VertexID {
	prev := uint32(0)
	pos := 0
	for i := 0; i < c.Count; i++ {
		d, n := binary.Uvarint(c.Data[pos:])
		if n <= 0 {
			break // unreachable on a ParseCompressed-validated view
		}
		pos += n
		if i == 0 {
			prev = uint32(d)
		} else {
			prev += uint32(d)
		}
		dst = append(dst, VertexID(prev))
	}
	return dst
}

// CompCursor streams a CompressedAdj in ascending order. Next decodes one
// entry; SeekGE consults the skip table to jump whole blocks forward
// without decoding them. The zero cursor of a view starts before the first
// entry; cursors only move forward.
type CompCursor struct {
	c       CompressedAdj
	pos     int    // byte position of the next varint in c.Data
	idx     int    // index of the next entry to decode
	prev    uint32 // value of the last decoded entry (valid when idx > 0)
	pending bool   // prev was found by SeekGE and not yet consumed by Next
	// SkipSeeks counts skip-table-guided jumps, flushed into
	// IntersectStats.SkipSeeks by IntersectCompressed.
	SkipSeeks uint64
}

// Cursor returns a cursor positioned before the first entry.
func (c CompressedAdj) Cursor() CompCursor { return CompCursor{c: c} }

// Next returns the next entry and consumes it; ok is false past the end.
func (cu *CompCursor) Next() (v VertexID, ok bool) {
	if cu.pending {
		cu.pending = false
		return VertexID(cu.prev), true
	}
	if cu.idx >= cu.c.Count {
		return 0, false
	}
	d, n := binary.Uvarint(cu.c.Data[cu.pos:])
	if n <= 0 {
		cu.idx = cu.c.Count
		return 0, false
	}
	cu.pos += n
	if cu.idx == 0 {
		cu.prev = uint32(d)
	} else {
		cu.prev += uint32(d)
	}
	cu.idx++
	return VertexID(cu.prev), true
}

// SeekGE advances to the first remaining entry >= target and returns it
// without consuming it: a following SeekGE with a target at or below the
// returned value returns the same entry, so ascending probe sequences see
// every entry exactly once. ok is false when no such entry exists. When
// the skip table places target beyond the cursor's current block, the
// intervening blocks are skipped undecoded.
func (cu *CompCursor) SeekGE(target VertexID) (v VertexID, ok bool) {
	if cu.pending && VertexID(cu.prev) >= target {
		return VertexID(cu.prev), true
	}
	cu.pending = false
	if n := len(cu.c.Skips) / skipEntrySize; n > 0 {
		// Binary search for the last entry whose block-final value is
		// still below target; decoding resumes at the block after it.
		lo, hi := 0, n
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if VertexID(binary.LittleEndian.Uint32(cu.c.Skips[mid*skipEntrySize:])) < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if j := lo - 1; j >= 0 {
			if tgt := (j + 1) * SkipInterval; tgt > cu.idx {
				e := j * skipEntrySize
				cu.prev = binary.LittleEndian.Uint32(cu.c.Skips[e:])
				cu.pos = int(binary.LittleEndian.Uint16(cu.c.Skips[e+4:]))
				cu.idx = tgt
				cu.SkipSeeks++
			}
		}
	}
	for {
		val, more := cu.Next()
		if !more {
			return 0, false
		}
		if val >= target {
			cu.pending = true
			return val, true
		}
	}
}

// IntersectCompressed intersects the sorted duplicate-free list a with a
// compressed operand, appending the result to dst (dst may be a[:0]: as
// with IntersectSorted, writes trail reads). The dispatch mirrors the
// 16x-skew rule of IntersectSorted: when the compressed side is much
// longer, each element of a is located by SeekGE (skip-gallop, decoding
// only the blocks that candidates land in); when a is much longer, the
// compressed side is streamed and a is galloped; otherwise both sides walk
// in a linear merge, the compressed side from the block a[0] falls in.
// Kernel choices and skip seeks are recorded in stats
// when it is non-nil.
func IntersectCompressed(a []VertexID, c CompressedAdj, dst []VertexID, stats *IntersectStats) []VertexID {
	cu := c.Cursor()
	switch {
	case c.Count >= gallopRatio*len(a):
		if stats != nil {
			stats.Gallop++
			stats.Compressed++
		}
		for _, v := range a {
			got, ok := cu.SeekGE(v)
			if !ok {
				break
			}
			if got == v {
				dst = append(dst, v)
			}
		}
	case len(a) >= gallopRatio*c.Count:
		if stats != nil {
			stats.Gallop++
			stats.Compressed++
		}
		// Stream the short compressed side; gallop through a.
		lo := 0
		for {
			v, ok := cu.Next()
			if !ok || lo >= len(a) {
				break
			}
			step := 1
			for lo+step < len(a) && a[lo+step] < v {
				step <<= 1
			}
			hi := lo + step
			if hi > len(a) {
				hi = len(a)
			}
			i, j := lo, hi
			for i < j {
				m := int(uint(i+j) >> 1)
				if a[m] < v {
					i = m + 1
				} else {
					j = m
				}
			}
			if i == len(a) {
				break
			}
			lo = i
			if a[i] == v {
				dst = append(dst, v)
				lo = i + 1
			}
		}
	default:
		if stats != nil {
			stats.Linear++
			stats.Compressed++
		}
		// Start where a starts: a is often a clipped suffix whose first entry
		// lies blocks into the span (a no-op without a skip table).
		if len(a) > 0 {
			cu.SeekGE(a[0])
		}
		i := 0
		v, ok := cu.Next()
		for ok && i < len(a) {
			switch {
			case a[i] < v:
				i++
			case a[i] > v:
				v, ok = cu.Next()
			default:
				dst = append(dst, v)
				i++
				v, ok = cu.Next()
			}
		}
	}
	if stats != nil {
		stats.SkipSeeks += cu.SkipSeeks
	}
	return dst
}
