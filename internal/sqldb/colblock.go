package sqldb

// The checkpoint file: compressed columnar blocks, a directory, nothing
// else.
//
// columns.blk is the one durable encoding of the tables (persist.go
// says when it is written and how it pairs with the WAL). Every
// (chunk, column) of every non-temporary table is cut into blocks of
// vecMorselRows rows, and each block is stored compressed with a
// CRC-32C and a zone map (min/max, null count, NaN flag). Three readers
// share the one encoding: Open, which reads only the directory and
// creates every table cold; the first access to a table's rows, which
// decodes that table's blocks and no other's (schema.go); and the
// vectorized scan, which consults the zone maps BEFORE touching data —
// a col<lit / BETWEEN / IN / IS NULL predicate prunes whole blocks
// without decompression — and rebuilds an evicted column vector by
// decoding its block instead of re-walking boxed rows.
//
// File layout (v3; v2 stored a timestamp as a per-row MarshalBinary
// payload, and neither it nor v1 is read):
//
//	header   8-byte magic "PBCOL3\r\n" + uint64 LE epoch
//	extents  one per table, in directory order, each
//	           block payloads   chunk by chunk, column by column
//	           block-meta segment, parsed when the table is first touched:
//	             per chunk × column × block
//	               uvarint offset (from the extent's start), uvarint length,
//	               uint32 LE CRC-32C(payload), encoding byte, uvarint rows,
//	               uvarint nulls, flag byte (1 has min/max, 2 has NaN), then
//	               min and max by type class: zig-zag varints, float64 LE
//	               bit patterns, or uvarint-length strings
//	             uint32 LE CRC-32C of the segment so far
//	footer   uvarint epoch
//	         schema pool: uvarint count, each uvarint columns ×
//	           (uvarint-length name, type byte)
//	         directory: uvarint count, each table — sorted by key, empty
//	           ones included —
//	           uvarint-length name, uvarint schema id,
//	           uvarint indexes × uvarint column ordinal,
//	           uvarint rows, uvarint chunks × uvarint length,
//	           uvarint extent offset, uvarint payload bytes,
//	           uvarint segment bytes
//	trailer  uint64 LE footer offset + uint32 LE CRC-32C(footer) +
//	         8-byte magic "PBCOLIDX"
//
// Offsets inside an extent are relative to it, so a checkpoint carries a
// table it has no reason to re-encode — one still cold, or unchanged
// since the checkpoint before — by copying the extent's bytes; only the
// directory entry changes.
//
// Block payload layout:
//
//	1 byte null-bitmap flag; if set, ceil(rows/64) uint64 LE words
//	(bit i set = row i NULL), then the encoded data.
//
// Encodings (chosen per block, smallest wins):
//
//	raw    — type-native: int64/float64 as 8-byte LE words, strings as
//	         uvarint(len)+bytes
//	rle    — one constant value for the whole block
//	delta  — int64: zig-zag varint of the first value, then zig-zag
//	         varint deltas
//	dict   — strings: uvarint(#entries) + entries, then one uvarint
//	         code per row
//
// Integer, Boolean (0/1) and Timestamp (Unix nanoseconds) columns are
// int64 columns: they share the int64 encodings and zone maps.
//
// A block decodes to exactly the colVec buildColVec would produce from
// the same rows (NULL positions hold the zero value), so block-hydrated
// and row-built vectors are interchangeable byte for byte.
//
// Corruption contract: there is no second copy to fall back on, so
// damage is reported, never papered over. A footer that fails its
// magic, bounds or CRC fails Open; a segment or block that fails its
// CRC or does not decode fails the statement that first touches that
// table — both with ErrCorruptCheckpoint, naming the table, column and
// block — and every other table keeps answering.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"perfbase/internal/failpoint"
	"perfbase/internal/value"
)

const blockFile = "columns.blk"

var (
	colMagic    = [8]byte{'P', 'B', 'C', 'O', 'L', '3', '\r', '\n'}
	colMagicV1  = [8]byte{'P', 'B', 'C', 'O', 'L', '1', '\r', '\n'}
	colMagicV2  = [8]byte{'P', 'B', 'C', 'O', 'L', '2', '\r', '\n'}
	colIdxMagic = [8]byte{'P', 'B', 'C', 'O', 'L', 'I', 'D', 'X'}
)

const (
	colHeaderSize  = 16
	colTrailerSize = 20 // uint64 footer offset + uint32 CRC + magic
)

// ErrCorruptCheckpoint is returned (wrapped, test with errors.Is) when
// the checkpoint file fails a magic, bounds, CRC or decode check: by
// Open for the footer, by the first statement to touch the table for
// one of its blocks. Nothing is recovered from a damaged checkpoint
// automatically; `pbserver -blockdump` says what is damaged.
var ErrCorruptCheckpoint = errors.New("sqldb: corrupt checkpoint")

// ErrOldFormat is returned by Open for a directory written by an older
// version: it holds a snapshot.gob, or a v1 or v2 columns.blk, and
// nothing this version reads. There is no migration reader; export with
// the version that wrote the directory.
var ErrOldFormat = errors.New("sqldb: database directory is in a format this version no longer reads")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorruptCheckpoint}, args...)...)
}

// Block encodings.
const (
	blkEncRaw uint8 = iota
	blkEncRLE
	blkEncDelta
	blkEncDict
)

// blkDictMaxCard caps a dictionary-encoded block's distinct strings:
// past it a dictionary no longer pays for itself.
const blkDictMaxCard = 1024

func encName(e uint8) string {
	switch e {
	case blkEncRaw:
		return "raw"
	case blkEncRLE:
		return "rle"
	case blkEncDelta:
		return "delta"
	case blkEncDict:
		return "dict"
	}
	return fmt.Sprintf("enc%d", e)
}

// Failpoint sites of the checkpoint file. Armed by the torture matrix to
// tear a block payload write or kill the process before the footer —
// both inside the durability path now, and both must leave the previous
// checkpoint and a replayable WAL — and to fail the read path.
var (
	fpColWrite  = failpoint.Site("sqldb/colblk/write")
	fpColFooter = failpoint.Site("sqldb/colblk/footer")
	fpColRead   = failpoint.Site("sqldb/colblk/read")
)

// blockMeta is one block's entry in its table's meta segment: where it
// lives (Off counts from the start of the table's extent), how it is
// encoded, and its zone map. The min/max fields are per type class
// (ints serve Integer, Boolean and Timestamp, floats serve Float,
// strings serve String and Version); HasMM is false when every row is
// NULL (or, for floats, NaN), in which case min/max are meaningless. HasNaN records
// that a float block contains NaN, which compares "equal" to
// everything in this engine — such a block is never pruned by a
// comparison zone check.
type blockMeta struct {
	Off   int64
	Len   int
	CRC   uint32
	Enc   uint8
	Rows  int
	Nulls int

	HasMM      bool
	MinI, MaxI int64
	MinF, MaxF float64
	MinS, MaxS string
	HasNaN     bool
}

// ------------------------------------------------------- encoding

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func appendUvarint(dst []byte, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	return append(dst, buf[:n]...)
}

// encodeColBlock encodes rows' column ci as one block payload, picking
// the cheapest encoding, and computes the zone map. rows must be at
// most vecMorselRows long.
func encodeColBlock(rows []Row, ci int, typ value.Type) (blockMeta, []byte) {
	n := len(rows)
	meta := blockMeta{Rows: n}
	v := buildColVec(rows, ci, typ)
	for i := 0; i < n; i++ {
		if v.null(i) {
			meta.Nulls++
		}
	}
	var payload []byte
	if v.nulls != nil {
		payload = append(payload, 1)
		for _, w := range v.nulls {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], w)
			payload = append(payload, b[:]...)
		}
	} else {
		payload = append(payload, 0)
	}
	switch typ {
	case value.Integer, value.Boolean, value.Timestamp:
		meta.Enc, payload = encodeInts(v, payload, &meta)
	case value.Float:
		meta.Enc, payload = encodeFloats(v, payload, &meta)
	default: // String, Version
		meta.Enc, payload = encodeStrs(v, payload, &meta)
	}
	meta.Len = len(payload)
	meta.CRC = crc32.Checksum(payload, walCRC)
	return meta, payload
}

func encodeInts(v *colVec, payload []byte, meta *blockMeta) (uint8, []byte) {
	// Zone map over non-null values.
	for i, x := range v.ints {
		if v.null(i) {
			continue
		}
		if !meta.HasMM {
			meta.HasMM, meta.MinI, meta.MaxI = true, x, x
		} else if x < meta.MinI {
			meta.MinI = x
		} else if x > meta.MaxI {
			meta.MaxI = x
		}
	}
	constant := true
	for _, x := range v.ints {
		if x != v.ints[0] {
			constant = false
			break
		}
	}
	if constant {
		return blkEncRLE, appendUvarint(payload, zigzag(v.ints[0]))
	}
	// Delta + zig-zag varint vs raw 8-byte words: smallest wins.
	delta := make([]byte, 0, len(v.ints)*2)
	prev := int64(0)
	for _, x := range v.ints {
		delta = appendUvarint(delta, zigzag(x-prev))
		prev = x
	}
	if len(delta) < 8*len(v.ints) {
		return blkEncDelta, append(payload, delta...)
	}
	for _, x := range v.ints {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		payload = append(payload, b[:]...)
	}
	return blkEncRaw, payload
}

func encodeFloats(v *colVec, payload []byte, meta *blockMeta) (uint8, []byte) {
	for i, x := range v.floats {
		if v.null(i) {
			continue
		}
		if math.IsNaN(x) {
			meta.HasNaN = true
			continue
		}
		if !meta.HasMM {
			meta.HasMM, meta.MinF, meta.MaxF = true, x, x
		} else if x < meta.MinF {
			meta.MinF = x
		} else if x > meta.MaxF {
			meta.MaxF = x
		}
	}
	constant := true
	for _, x := range v.floats {
		if math.Float64bits(x) != math.Float64bits(v.floats[0]) {
			constant = false
			break
		}
	}
	if constant {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.floats[0]))
		return blkEncRLE, append(payload, b[:]...)
	}
	for _, x := range v.floats {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		payload = append(payload, b[:]...)
	}
	return blkEncRaw, payload
}

func encodeStrs(v *colVec, payload []byte, meta *blockMeta) (uint8, []byte) {
	for i, s := range v.strs {
		if v.null(i) {
			continue
		}
		if !meta.HasMM {
			meta.HasMM, meta.MinS, meta.MaxS = true, s, s
		} else if s < meta.MinS {
			meta.MinS = s
		} else if s > meta.MaxS {
			meta.MaxS = s
		}
	}
	constant := true
	for _, s := range v.strs {
		if s != v.strs[0] {
			constant = false
			break
		}
	}
	if constant {
		payload = appendUvarint(payload, uint64(len(v.strs[0])))
		return blkEncRLE, append(payload, v.strs[0]...)
	}
	// Dictionary: low-cardinality columns store each distinct string
	// once plus a small code per row. Falls back to raw when the
	// dictionary would not pay for itself.
	idx := make(map[string]int, 64)
	var vals []string
	ok := true
	for _, s := range v.strs {
		if _, seen := idx[s]; !seen {
			if len(vals) >= blkDictMaxCard {
				ok = false
				break
			}
			idx[s] = len(vals)
			vals = append(vals, s)
		}
	}
	rawSize := 0
	for _, s := range v.strs {
		rawSize += 1 + len(s) // uvarint len is usually 1 byte
	}
	if ok {
		dict := make([]byte, 0, rawSize/2)
		dict = appendUvarint(dict, uint64(len(vals)))
		for _, s := range vals {
			dict = appendUvarint(dict, uint64(len(s)))
			dict = append(dict, s...)
		}
		for _, s := range v.strs {
			dict = appendUvarint(dict, uint64(idx[s]))
		}
		if len(dict) < rawSize {
			return blkEncDict, append(payload, dict...)
		}
	}
	for _, s := range v.strs {
		payload = appendUvarint(payload, uint64(len(s)))
		payload = append(payload, s...)
	}
	return blkEncRaw, payload
}

// ------------------------------------------------------- decoding

// errBlockCorrupt is a payload that does not decode under its recorded
// encoding — with a matching CRC, so written wrong or crafted.
var errBlockCorrupt = corruptf("column block does not decode")

// splitNulls strips the null-bitmap prefix off a block payload.
func splitNulls(payload []byte, rows int) (nulls []uint64, rest []byte, err error) {
	if len(payload) < 1 {
		return nil, nil, errBlockCorrupt
	}
	flag, rest := payload[0], payload[1:]
	if flag == 0 {
		return nil, rest, nil
	}
	words := (rows + 63) / 64
	if len(rest) < 8*words {
		return nil, nil, errBlockCorrupt
	}
	nulls = make([]uint64, words)
	for i := range nulls {
		nulls[i] = binary.LittleEndian.Uint64(rest[8*i:])
	}
	return nulls, rest[8*words:], nil
}

// decodeColBlock decodes one block payload into a colVec identical to
// what buildColVec would produce over the source rows.
func decodeColBlock(enc uint8, payload []byte, typ value.Type, rows int) (*colVec, error) {
	nulls, data, err := splitNulls(payload, rows)
	if err != nil {
		return nil, err
	}
	v := &colVec{typ: typ, nulls: nulls}
	switch typ {
	case value.Integer, value.Boolean, value.Timestamp:
		v.ints = make([]int64, rows)
		if err := decodeIntData(enc, data, v.ints); err != nil {
			return nil, err
		}
		v.bytes = 8 * rows
	case value.Float:
		v.floats = make([]float64, rows)
		if err := decodeFloatData(enc, data, v.floats); err != nil {
			return nil, err
		}
		v.bytes = 8 * rows
	case value.String, value.Version:
		v.strs = make([]string, rows)
		if err := decodeStrData(enc, data, v.strs); err != nil {
			return nil, err
		}
		v.bytes = 16 * rows
	default:
		return nil, errorf("column block: unsupported vector type %v", typ)
	}
	v.bytes += 8 * len(v.nulls)
	return v, nil
}

func decodeIntData(enc uint8, data []byte, out []int64) error {
	switch enc {
	case blkEncRLE:
		u, n := binary.Uvarint(data)
		if n <= 0 {
			return errBlockCorrupt
		}
		x := unzigzag(u)
		for i := range out {
			out[i] = x
		}
	case blkEncDelta:
		prev := int64(0)
		for i := range out {
			u, n := binary.Uvarint(data)
			if n <= 0 {
				return errBlockCorrupt
			}
			prev += unzigzag(u)
			out[i] = prev
			data = data[n:]
		}
	case blkEncRaw:
		if len(data) < 8*len(out) {
			return errBlockCorrupt
		}
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
	default:
		return errBlockCorrupt
	}
	return nil
}

func decodeFloatData(enc uint8, data []byte, out []float64) error {
	switch enc {
	case blkEncRLE:
		if len(data) < 8 {
			return errBlockCorrupt
		}
		x := math.Float64frombits(binary.LittleEndian.Uint64(data))
		for i := range out {
			out[i] = x
		}
	case blkEncRaw:
		if len(data) < 8*len(out) {
			return errBlockCorrupt
		}
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
	default:
		return errBlockCorrupt
	}
	return nil
}

func decodeStrData(enc uint8, data []byte, out []string) error {
	readStr := func() (string, bool) {
		u, n := binary.Uvarint(data)
		if n <= 0 || u > uint64(len(data)-n) {
			return "", false
		}
		s := string(data[n : n+int(u)])
		data = data[n+int(u):]
		return s, true
	}
	switch enc {
	case blkEncRLE:
		s, ok := readStr()
		if !ok {
			return errBlockCorrupt
		}
		for i := range out {
			out[i] = s
		}
	case blkEncDict:
		u, n := binary.Uvarint(data)
		if n <= 0 || u > uint64(len(data)) { // an entry takes a byte at least
			return errBlockCorrupt
		}
		data = data[n:]
		vals := make([]string, u)
		for i := range vals {
			s, ok := readStr()
			if !ok {
				return errBlockCorrupt
			}
			vals[i] = s
		}
		for i := range out {
			c, n := binary.Uvarint(data)
			if n <= 0 || c >= uint64(len(vals)) {
				return errBlockCorrupt
			}
			out[i] = vals[c]
			data = data[n:]
		}
	case blkEncRaw:
		for i := range out {
			s, ok := readStr()
			if !ok {
				return errBlockCorrupt
			}
			out[i] = s
		}
	default:
		return errBlockCorrupt
	}
	return nil
}

// decodeColInto decodes one block into dst[0], dst[stride], ... — with
// stride the row width, one column of a chunk's backing array.
func decodeColInto(dst []value.Value, stride int, enc uint8, payload []byte, typ value.Type, rows int) error {
	v, err := decodeColBlock(enc, payload, typ, rows)
	if err != nil {
		return err
	}
	for i := 0; i < rows; i++ {
		dst[i*stride] = v.box(i)
	}
	return nil
}

// ------------------------------------------------------- meta segment

const (
	zoneHasMM  = 1
	zoneHasNaN = 2
)

func appendString(dst []byte, s string) []byte {
	return append(appendUvarint(dst, uint64(len(s))), s...)
}

// appendBlockMeta appends one block's segment entry.
func appendBlockMeta(dst []byte, b *blockMeta, typ value.Type) []byte {
	dst = appendUvarint(dst, uint64(b.Off))
	dst = appendUvarint(dst, uint64(b.Len))
	dst = binary.LittleEndian.AppendUint32(dst, b.CRC)
	dst = append(dst, b.Enc)
	dst = appendUvarint(dst, uint64(b.Rows))
	dst = appendUvarint(dst, uint64(b.Nulls))
	var flags byte
	if b.HasMM {
		flags |= zoneHasMM
	}
	if b.HasNaN {
		flags |= zoneHasNaN
	}
	dst = append(dst, flags)
	if !b.HasMM {
		return dst
	}
	switch typ {
	case value.Integer, value.Boolean, value.Timestamp:
		dst = appendUvarint(appendUvarint(dst, zigzag(b.MinI)), zigzag(b.MaxI))
	case value.Float:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.MinF))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.MaxF))
	case value.String, value.Version:
		dst = appendString(appendString(dst, b.MinS), b.MaxS)
	}
	return dst
}

// byteReader is a cursor over a footer or segment. A read past the end
// sets bad and returns zero; callers check bad once, at the end.
type byteReader struct {
	b   []byte
	s   string // the same bytes: str returns substrings of it, not copies
	p   int
	bad bool
}

func newByteReader(b []byte) *byteReader { return &byteReader{b: b, s: string(b)} }

func (r *byteReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.p:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.p += n
	return v
}

// int reads a uvarint that must fit an int with room to add a few up.
func (r *byteReader) int() int {
	v := r.uvarint()
	if v > 1<<48 {
		r.bad = true
		return 0
	}
	return int(v)
}

// count reads a uvarint that counts things at least min bytes long each
// still to come, so a damaged count cannot ask for a huge allocation.
func (r *byteReader) count(min int) int {
	v := r.uvarint()
	if v > uint64(len(r.b)-r.p)/uint64(min) {
		r.bad = true
		return 0
	}
	return int(v)
}

func (r *byteReader) fixed(n int) []byte {
	if r.bad || len(r.b)-r.p < n {
		r.bad = true
		return make([]byte, n)
	}
	r.p += n
	return r.b[r.p-n : r.p]
}

func (r *byteReader) byte() byte { return r.fixed(1)[0] }

func (r *byteReader) str() string {
	n := r.count(1)
	if r.bad {
		return ""
	}
	r.p += n
	return r.s[r.p-n : r.p]
}

// parseSegment decodes the block-meta segment of the table at loc into
// one storeChunk per chunk; lens are the chunk lengths the directory
// recorded. The chunks, their columns and their blocks come out of three
// allocations, however many there are.
func parseSegment(seg []byte, name string, schema Schema, lens []int, loc *diskLoc) ([]storeChunk, error) {
	if len(seg) < 4 || crc32.Checksum(seg[:len(seg)-4], walCRC) != binary.LittleEndian.Uint32(seg[len(seg)-4:]) {
		return nil, corruptf("table %q: block-meta segment CRC mismatch", name)
	}
	r := newByteReader(seg[:len(seg)-4])
	nblocks, key, w := 0, lower(name), len(schema)
	for _, n := range lens {
		nblocks += (n + vecMorselRows - 1) / vecMorselRows
	}
	out := make([]storeChunk, len(lens))
	cols := make([][]blockMeta, len(lens)*w)
	metas := make([]blockMeta, nblocks*w)
	for k, n := range lens {
		sc := &out[k]
		*sc = storeChunk{f: loc.f, base: loc.off, table: key, schema: schema, rows: n, cols: cols[k*w : (k+1)*w : (k+1)*w]}
		nb := (n + vecMorselRows - 1) / vecMorselRows
		for ci, c := range schema {
			blocks := metas[:nb:nb]
			metas = metas[nb:]
			covered := 0
			for bi := range blocks {
				b := &blocks[bi]
				b.Off = int64(r.int())
				b.Len = r.int()
				b.CRC = binary.LittleEndian.Uint32(r.fixed(4))
				b.Enc = r.byte()
				b.Rows = r.int()
				b.Nulls = r.int()
				flags := r.byte()
				b.HasMM, b.HasNaN = flags&zoneHasMM != 0, flags&zoneHasNaN != 0
				if b.HasMM {
					switch c.Type {
					case value.Integer, value.Boolean, value.Timestamp:
						b.MinI, b.MaxI = unzigzag(r.uvarint()), unzigzag(r.uvarint())
					case value.Float:
						b.MinF = math.Float64frombits(binary.LittleEndian.Uint64(r.fixed(8)))
						b.MaxF = math.Float64frombits(binary.LittleEndian.Uint64(r.fixed(8)))
					case value.String, value.Version:
						b.MinS, b.MaxS = r.str(), r.str()
					}
				}
				if r.bad || b.Off+int64(b.Len) > loc.payload || b.Rows != min(vecMorselRows, n-covered) {
					return nil, corruptf("table %q column %q chunk %d block %d: bad block metadata", name, c.Name, k, bi)
				}
				covered += b.Rows
			}
			sc.cols[ci] = blocks
		}
	}
	if r.p != len(r.b) {
		return nil, corruptf("table %q: %d stray bytes in the block-meta segment", name, len(r.b)-r.p)
	}
	return out, nil
}

// ------------------------------------------------------- directory

// dirTable is one table's entry in the checkpoint directory.
type dirTable struct {
	name    string
	schema  int   // index into the schema pool
	indexes []int // ordinals of the indexed columns
	nrows   int
	lens    []int // chunk lengths
	loc     diskLoc
}

// diskLoc is a table's extent in a checkpoint: payload bytes of blocks
// from off on, then seg bytes of block-meta segment. f is the checkpoint
// file, or the image a replica bootstrapped from (ImportState). A file
// stays open for as long as a diskLoc or a storeChunk points at it (a
// rename over it only unlinks the name), and the runtime closes it when
// none does. Every checkpoint re-points the current tables and every
// chunk they have built at itself, so what still names an older file is
// a version only a pinned Snapshot holds — which is what lets that
// Snapshot hydrate a table from a checkpoint two generations old, and
// all that keeps the file.
type diskLoc struct {
	f       io.ReaderAt
	off     int64
	payload int64
	seg     int64
}

// read returns n bytes of the extent from byte from on: all of it, or
// just the segment.
func (loc *diskLoc) read(from, n int64) ([]byte, error) {
	if err := fpColRead.Inject(); err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	if _, err := loc.f.ReadAt(buf, loc.off+from); err != nil {
		return nil, fmt.Errorf("sqldb: reading %s: %w", sourceName(loc.f), err)
	}
	return buf, nil
}

// sourceName names what a checkpoint is read from, for an error: the
// file's path, or an image received in memory.
func sourceName(r io.ReaderAt) string {
	if f, ok := r.(*os.File); ok {
		return f.Name()
	}
	return "checkpoint image"
}

func appendDirectory(dst []byte, epoch uint64, schemas []Schema, tables []dirTable) []byte {
	dst = appendUvarint(dst, epoch)
	dst = appendUvarint(dst, uint64(len(schemas)))
	for _, s := range schemas {
		dst = appendUvarint(dst, uint64(len(s)))
		for _, c := range s {
			dst = append(appendString(dst, c.Name), byte(c.Type))
		}
	}
	dst = appendUvarint(dst, uint64(len(tables)))
	for i := range tables {
		t := &tables[i]
		dst = appendUvarint(appendString(dst, t.name), uint64(t.schema))
		dst = appendUvarint(dst, uint64(len(t.indexes)))
		for _, ci := range t.indexes {
			dst = appendUvarint(dst, uint64(ci))
		}
		dst = appendUvarint(appendUvarint(dst, uint64(t.nrows)), uint64(len(t.lens)))
		for _, n := range t.lens {
			dst = appendUvarint(dst, uint64(n))
		}
		dst = appendUvarint(dst, uint64(t.loc.off))
		dst = appendUvarint(dst, uint64(t.loc.payload))
		dst = appendUvarint(dst, uint64(t.loc.seg))
	}
	return dst
}

// parseDirectory is the inverse of appendDirectory. The footer passed
// its CRC, so anything it rejects was written wrong, not torn — it is
// reported as corruption all the same. end is where the extents stop
// (the footer's own offset).
func parseDirectory(footer []byte, f io.ReaderAt, epoch uint64, end int64) ([]Schema, []dirTable, error) {
	r := newByteReader(footer)
	if e := r.uvarint(); e != epoch && !r.bad {
		return nil, nil, corruptf("header says epoch %d, footer epoch %d", epoch, e)
	}
	schemas := make([]Schema, r.count(1))
	for i := range schemas {
		schemas[i] = make(Schema, r.count(2))
		for j := range schemas[i] {
			schemas[i][j] = Column{Name: r.str(), Type: value.Type(r.byte())}
		}
	}
	tables := make([]dirTable, r.count(8))
	// Every table's chunk lengths go into one slice, cut up once it has
	// stopped growing.
	var lens []int
	nchunks := make([]int, len(tables))
	next := int64(colHeaderSize)
	for i := range tables {
		t := &tables[i]
		t.name, t.schema = r.str(), r.int()
		if r.bad || t.schema >= len(schemas) {
			return nil, nil, corruptf("directory entry %d: bad name or schema", i)
		}
		if i > 0 && lower(tables[i-1].name) >= lower(t.name) {
			return nil, nil, corruptf("directory entry %d: table %q out of order", i, t.name)
		}
		if n := r.count(1); n > 0 {
			t.indexes = make([]int, n)
			for j := range t.indexes {
				if t.indexes[j] = r.int(); t.indexes[j] >= len(schemas[t.schema]) {
					r.bad = true
				}
			}
		}
		t.nrows = r.int()
		nchunks[i] = r.count(1)
		sum := 0
		for j := 0; j < nchunks[i]; j++ {
			n := r.int()
			if n == 0 {
				r.bad = true
			}
			lens = append(lens, n)
			sum += n
		}
		t.loc = diskLoc{f: f, off: int64(r.int()), payload: int64(r.int()), seg: int64(r.int())}
		if r.bad || sum != t.nrows || t.loc.off != next || t.loc.seg < 4 || t.loc.off+t.loc.payload+t.loc.seg > end {
			return nil, nil, corruptf("directory entry %d (table %q): bad row counts or extent", i, t.name)
		}
		next = t.loc.off + t.loc.payload + t.loc.seg
	}
	if r.bad || r.p != len(r.b) || next != end {
		return nil, nil, corruptf("directory does not match the file it describes")
	}
	for i, n := range nchunks {
		tables[i].lens, lens = lens[:n:n], lens[n:]
	}
	return schemas, tables, nil
}

// ------------------------------------------------------- writer

// writtenTable is what writeCheckpointTo reports per table: where it
// went and, for a table it encoded (rather than copied), the blocks of
// each of its chunks. Their f is unset until adoptCheckpoint names the
// file they went to.
type writtenTable struct {
	loc    *diskLoc
	blocks []*storeChunk
}

// writeCheckpoint writes tables — sorted by key — as the checkpoint of
// epoch (see writeCheckpointTo): to path.tmp, fsynced, then renamed over
// path. On any failure the tmp file is removed, path is untouched and
// the error returned. The returned file is open for ReadAt.
func writeCheckpoint(path string, epoch uint64, tables []*table) (*os.File, []writtenTable, error) {
	if err := fpPersistSave.Inject(); err != nil {
		return nil, nil, err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, nil, err
	}
	out, err := writeCheckpointTo(f, epoch, tables)
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = fpPersistRen.Inject()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, nil, fmt.Errorf("sqldb: checkpoint %s: %w", path, err)
	}
	return f, out, nil
}

// writeCheckpointTo writes tables — sorted by key — to dst as the
// checkpoint image of epoch: the bytes of a checkpoint file, or of the
// image a replica bootstraps from (ExportState). A table that an earlier
// checkpoint already holds (table.disk) is carried over by copying its
// extent, whatever state its rows are in; the others are encoded. Only a
// file is torn or stopped by the crash sites: an image in memory is not
// on the durability path.
func writeCheckpointTo(dst io.Writer, epoch uint64, tables []*table) ([]writtenTable, error) {
	file, _ := dst.(*os.File)
	w := bufio.NewWriterSize(dst, 1<<16)
	var hdr [colHeaderSize]byte
	copy(hdr[:8], colMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], epoch)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, err
	}
	off := int64(colHeaderSize)

	out := make([]writtenTable, len(tables))
	dir := make([]dirTable, len(tables))
	var schemas []Schema
	schemaID := map[string]int{}
	var sig, seg []byte
	var carry extentRun // carried extents not yet copied
	for i, t := range tables {
		d := &dir[i]
		d.name, d.nrows, d.lens = t.name, t.nrows, t.chunkLens()
		sig = sig[:0]
		for _, c := range t.schema {
			sig = append(appendString(sig, c.Name), byte(c.Type))
		}
		id, ok := schemaID[string(sig)]
		if !ok {
			id = len(schemas)
			schemaID[string(sig)] = id
			schemas = append(schemas, t.schema)
		}
		d.schema = id
		for ci, c := range t.schema {
			if t.hasIndex(lower(c.Name)) {
				d.indexes = append(d.indexes, ci)
			}
		}
		d.loc = diskLoc{off: off}
		out[i].loc = &d.loc

		if old := t.disk.Load(); old != nil {
			// Carried over: the extent's bytes as they are. Tables lie in
			// key order in every file, so the extents of a run of carried
			// tables are usually adjacent and copied in one go.
			n := old.payload + old.seg
			if carry.f != old.f || carry.off+carry.n != old.off {
				if err := carry.copyTo(w); err != nil {
					return nil, err
				}
				carry = extentRun{f: old.f, off: old.off}
			}
			carry.n += n
			d.loc.payload, d.loc.seg = old.payload, old.seg
			off += n
			continue
		}
		if err := carry.copyTo(w); err != nil {
			return nil, err
		}
		carry = extentRun{}

		// Encoded: not carried, so never cold — every chunk has its rows.
		seg = seg[:0]
		for _, ch := range t.builtChunks() {
			rows := ch.rows()
			sc := &storeChunk{base: d.loc.off, table: t.key, schema: t.schema, rows: len(rows), cols: make([][]blockMeta, len(t.schema))}
			for ci, c := range t.schema {
				for lo := 0; lo < len(rows); lo += vecMorselRows {
					meta, payload := encodeColBlock(rows[lo:min(lo+vecMorselRows, len(rows))], ci, c.Type)
					meta.Off = off - d.loc.off
					// Torn-write site: crash(N) lets the first N bytes of this
					// block reach the tmp file, then kills the process. The
					// rename never happens, so reopen sees the previous
					// checkpoint and the WAL that extends it.
					if file != nil {
						if err := fpColWrite.InjectWrite(file, payload); err != nil {
							return nil, err
						}
					}
					if _, err := w.Write(payload); err != nil {
						return nil, err
					}
					off += int64(len(payload))
					seg = appendBlockMeta(seg, &meta, c.Type)
					sc.cols[ci] = append(sc.cols[ci], meta)
				}
			}
			out[i].blocks = append(out[i].blocks, sc)
		}
		seg = binary.LittleEndian.AppendUint32(seg, crc32.Checksum(seg, walCRC))
		if _, err := w.Write(seg); err != nil {
			return nil, err
		}
		d.loc.payload, d.loc.seg = off-d.loc.off, int64(len(seg))
		off += int64(len(seg))
	}

	if err := carry.copyTo(w); err != nil {
		return nil, err
	}
	// A crash from here on leaves a tmp file with no (or a partial)
	// footer, which nothing ever opens.
	if file != nil {
		if err := fpColFooter.Inject(); err != nil {
			return nil, err
		}
	}
	footer := appendDirectory(nil, epoch, schemas, dir)
	var trailer [colTrailerSize]byte
	binary.LittleEndian.PutUint64(trailer[:8], uint64(off))
	binary.LittleEndian.PutUint32(trailer[8:12], crc32.Checksum(footer, walCRC))
	copy(trailer[12:], colIdxMagic[:])
	if _, err := w.Write(append(footer, trailer[:]...)); err != nil {
		return nil, err
	}
	return out, w.Flush()
}

// extentRun is a run of bytes in an earlier checkpoint that the one
// being written takes over as they are.
type extentRun struct {
	f      io.ReaderAt
	off, n int64
}

func (r extentRun) copyTo(w *bufio.Writer) error {
	if r.n == 0 {
		return nil
	}
	if err := fpColRead.Inject(); err != nil {
		return err
	}
	// bufio reads straight into its own buffer; io.Copy would bring one
	// of its own per call.
	if _, err := w.ReadFrom(io.NewSectionReader(r.f, r.off, r.n)); err != nil {
		return fmt.Errorf("carrying tables over from %s: %w", sourceName(r.f), err)
	}
	return nil
}

// ------------------------------------------------------- reader

// checkpoint is a read checkpoint's directory.
type checkpoint struct {
	epoch   uint64
	schemas []Schema
	tables  []dirTable
	read    int64 // bytes read to get this far
}

// openCheckpoint opens a checkpoint file and reads its directory (see
// readCheckpoint). A missing file is (nil, nil, nil). The caller owns
// the returned file, which the directory's extents read from.
func openCheckpoint(path string) (*checkpoint, *os.File, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	err = fpPersistLoad.Inject()
	var ck *checkpoint
	if err == nil {
		var st os.FileInfo
		if st, err = f.Stat(); err == nil {
			ck, err = readCheckpoint(f, st.Size())
		}
	}
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return ck, f, nil
}

// readCheckpoint reads the directory of the size-byte checkpoint in f —
// a file, or an image in memory: the header, the trailer and one read of
// the footer, whatever the tables hold. A checkpoint of the previous
// format is ErrOldFormat; anything else wrong is ErrCorruptCheckpoint.
func readCheckpoint(f io.ReaderAt, size int64) (*checkpoint, error) {
	var hdr [colHeaderSize]byte
	if n, _ := f.ReadAt(hdr[:], 0); n >= len(colMagicV1) && (string(hdr[:8]) == string(colMagicV1[:]) || string(hdr[:8]) == string(colMagicV2[:])) {
		return nil, ErrOldFormat
	}
	if size < colHeaderSize+colTrailerSize {
		return nil, corruptf("%d bytes is too short for a checkpoint", size)
	}
	if string(hdr[:8]) != string(colMagic[:]) {
		return nil, corruptf("bad file magic")
	}
	ck := &checkpoint{epoch: binary.LittleEndian.Uint64(hdr[8:])}
	var trailer [colTrailerSize]byte
	if _, err := f.ReadAt(trailer[:], size-colTrailerSize); err != nil {
		return nil, err
	}
	if string(trailer[12:]) != string(colIdxMagic[:]) {
		return nil, corruptf("bad trailer magic (truncated file?)")
	}
	footerOff := int64(binary.LittleEndian.Uint64(trailer[:8]))
	if footerOff < colHeaderSize || footerOff > size-colTrailerSize {
		return nil, corruptf("footer offset %d outside the file", footerOff)
	}
	footer := make([]byte, size-colTrailerSize-footerOff)
	if _, err := f.ReadAt(footer, footerOff); err != nil {
		return nil, err
	}
	if crc32.Checksum(footer, walCRC) != binary.LittleEndian.Uint32(trailer[8:12]) {
		return nil, corruptf("footer CRC mismatch")
	}
	ck.read = int64(len(hdr) + len(trailer) + len(footer))
	var err error
	ck.schemas, ck.tables, err = parseDirectory(footer, f, ck.epoch, footerOff)
	return ck, err
}

// coldTables creates one cold table version per directory entry, owned
// by db: everything the catalog knows about a table, and none of its
// rows. The versions, their hydration state and their extents come out
// of three allocations, not three per table.
func (ck *checkpoint) coldTables(db *DB) []*table {
	tabs := make([]table, len(ck.tables))
	colds := make([]coldState, len(ck.tables))
	out := make([]*table, len(ck.tables))
	for i := range ck.tables {
		d := &ck.tables[i]
		t, c := &tabs[i], &colds[i]
		t.name, t.key = d.name, lower(d.name)
		t.schema = ck.schemas[d.schema] // shared: a published schema is never written
		t.ver = db.schemaVer.Add(1)
		t.nrows = d.nrows
		t.coldIndexes(d.indexes)
		c.env, c.lens = db.env, d.lens
		t.cold = c
		t.disk.Store(&d.loc)
		out[i] = t
	}
	return out
}

// parseChunks builds a cold version's chunk objects from its block-meta
// segment, once: seg is the segment's bytes when the caller has read them
// already (hydration reads the whole extent), else it is read here. The
// objects and their blocks come out of a constant number of allocations,
// as the versions themselves do in coldTables. The caller holds
// t.cold.mu.
func (t *table) parseChunks(loc *diskLoc, seg []byte) error {
	if t.list != nil {
		return nil
	}
	c := t.cold
	if seg == nil {
		var err error
		if seg, err = loc.read(loc.payload, loc.seg); err != nil {
			return err
		}
		c.env.ckptRead.Add(loc.seg)
	}
	scs, err := parseSegment(seg, t.name, t.schema, c.lens, loc)
	if err != nil {
		return err
	}
	objs, list := make([]chunk, len(scs)), make([]*chunk, len(scs))
	for k := range scs {
		objs[k].blocks.Store(&scs[k])
		list[k] = &objs[k]
	}
	t.list = list
	return nil
}

// loadColdTable reads a cold version's extent — one ReadAt — checks
// every block against its CRC and decodes the rows of each of the
// version's chunks into one backing array, for table.hydrate, which
// holds the version's hydration lock, to fill the chunk objects with in
// place: the blocks a scan or EXPLAIN found on them, and the vectors
// cached under them, stay theirs.
func loadColdTable(t *table) ([][]Row, error) {
	c, loc := t.cold, t.disk.Load()
	buf, err := loc.read(0, loc.payload+loc.seg)
	if err != nil {
		return nil, err
	}
	if err := t.parseChunks(loc, buf[loc.payload:]); err != nil {
		return nil, err
	}
	width := len(t.schema)
	chunks := make([][]Row, len(t.list))
	for k, ch := range t.list {
		// Offsets count from the extent's start, in whichever file a
		// checkpoint has moved the blocks to since: a cold version is only
		// ever carried over, byte for byte.
		sc := ch.blocks.Load()
		backing := make([]value.Value, sc.rows*width)
		rows := make([]Row, sc.rows)
		for i := range rows {
			rows[i] = backing[i*width : (i+1)*width : (i+1)*width]
		}
		for ci, col := range t.schema {
			at := 0
			for bi := range sc.cols[ci] {
				b := &sc.cols[ci][bi]
				payload := buf[b.Off : b.Off+int64(b.Len)]
				if crc32.Checksum(payload, walCRC) != b.CRC {
					return nil, corruptf("table %q column %q chunk %d block %d: CRC mismatch", t.name, col.Name, k, bi)
				}
				if err := decodeColInto(backing[at*width+ci:], width, b.Enc, payload, col.Type, b.Rows); err != nil {
					return nil, fmt.Errorf("table %q column %q chunk %d block %d: %w", t.name, col.Name, k, bi, err)
				}
				at += b.Rows
			}
		}
		chunks[k] = rows
	}
	c.env.hydrated.Add(1)
	c.env.ckptRead.Add(int64(len(buf)))
	return chunks, nil
}

// ------------------------------------------------------- chunk blocks

// storeChunk is where a checkpoint holds one chunk: its table's extent
// starts at base in f, and block offsets count from there. It hangs off
// the chunk object (chunk.blocks), which every checkpoint re-points.
type storeChunk struct {
	f      io.ReaderAt
	base   int64
	table  string
	schema Schema
	rows   int
	cols   [][]blockMeta // [column][block]
}

// block returns the metadata of block bi of column ci if it covers
// exactly nrows rows, else nil: the zone checks treat a nil as "cannot
// prune".
func (sc *storeChunk) block(ci, bi, nrows int) *blockMeta {
	if ci >= len(sc.cols) || bi >= len(sc.cols[ci]) {
		return nil
	}
	if b := &sc.cols[ci][bi]; b.Rows == nrows {
		return b
	}
	return nil
}

// readBlock fetches, CRC-checks and decodes block bi of column ci.
func (sc *storeChunk) readBlock(ci, bi int) (*colVec, error) {
	if ci >= len(sc.cols) || bi >= len(sc.cols[ci]) {
		return nil, corruptf("table %q: no block %d in column %d", sc.table, bi, ci)
	}
	meta := &sc.cols[ci][bi]
	if err := fpColRead.Inject(); err != nil {
		return nil, err
	}
	buf := make([]byte, meta.Len)
	if _, err := sc.f.ReadAt(buf, sc.base+meta.Off); err != nil {
		return nil, fmt.Errorf("sqldb: reading table %q column %q block %d: %w", sc.table, sc.schema[ci].Name, bi, err)
	}
	if crc32.Checksum(buf, walCRC) != meta.CRC {
		return nil, corruptf("table %q column %q block %d: CRC mismatch", sc.table, sc.schema[ci].Name, bi)
	}
	return decodeColBlock(meta.Enc, buf, sc.schema[ci].Type, meta.Rows)
}

// adoptCheckpoint makes f, just renamed into place holding tables as
// written says, the file everything reads from: every table points at
// its new extent and every chunk it has built at its blocks there — the
// ones just encoded, or the ones it had, moved — so the file before can
// go as soon as nothing pinned reads from it any more. The extent moves
// first: a cold version's parse racing this builds its chunks on the new
// file, or on the old one before builtChunks returns them to be moved.
func adoptCheckpoint(f *os.File, tables []*table, written []writtenTable) {
	for i, t := range tables {
		w := &written[i]
		w.loc.f = f
		t.disk.Store(w.loc)
		for k, ch := range t.builtChunks() {
			if w.blocks != nil {
				w.blocks[k].f = f
				ch.blocks.Store(w.blocks[k])
			} else if sc := ch.blocks.Load(); sc != nil {
				moved := *sc
				moved.f, moved.base = f, w.loc.off
				ch.blocks.Store(&moved)
			}
		}
	}
}

// dominantEnc picks the most frequent encoding across a column's
// blocks (ties broken by encoding tag order, deterministically).
func dominantEnc(chunks []*storeChunk, col int) string {
	var counts [5]int
	for _, sc := range chunks {
		if col < len(sc.cols) {
			for _, b := range sc.cols[col] {
				if int(b.Enc) < len(counts) {
					counts[b.Enc]++
				}
			}
		}
	}
	best, bestN := 0, -1
	for e, n := range counts {
		if n > bestN {
			best, bestN = e, n
		}
	}
	if bestN <= 0 {
		return "none"
	}
	return encName(uint8(best))
}

// ------------------------------------------------------- inspection

// BlockInfo describes one column block, for offline inspection.
type BlockInfo struct {
	Table    string
	Chunk    int
	Column   string
	Encoding string
	Rows     int
	Nulls    int
	Offset   int64
	Size     int
	CRCOK    bool
	// Zone renders the block's zone map: "min..max" (by type), with
	// "+NaN" appended when a float block contains NaN, or "all-null".
	Zone string
}

// BlockTableInfo is one table's entry in the checkpoint directory.
type BlockTableInfo struct {
	Table     string
	Rows      int
	ChunkLens []int
	Indexes   []string
	Schema    int   // id in the file's schema pool
	Offset    int64 // extent: block payloads, then the block-meta segment
	Size      int64
	// Err is why the table's block-meta segment could not be read, empty
	// when it could; the table then has no entries in Blocks.
	Err string
}

// BlockFileInfo is the result of scanning a checkpoint file without a
// database open — the `pbserver -blockdump` view.
type BlockFileInfo struct {
	Epoch  uint64
	Dir    []BlockTableInfo // one entry per table, empty ones included
	Blocks []BlockInfo
}

// Damaged counts the tables whose segment is unreadable plus the blocks
// that fail their CRC: what a database opened on this file would answer
// ErrCorruptCheckpoint for.
func (i *BlockFileInfo) Damaged() int {
	n := 0
	for _, t := range i.Dir {
		if t.Err != "" {
			n++
		}
	}
	for _, b := range i.Blocks {
		if !b.CRCOK {
			n++
		}
	}
	return n
}

// damage names the first damage Damaged counts, nil when there is none.
func (i *BlockFileInfo) damage() error {
	for _, t := range i.Dir {
		if t.Err != "" {
			return corruptf("table %q: %s", t.Table, t.Err)
		}
	}
	for _, b := range i.Blocks {
		if !b.CRCOK {
			return corruptf("table %q column %q chunk %d: block at offset %d: CRC mismatch", b.Table, b.Column, b.Chunk, b.Offset)
		}
	}
	return nil
}

// ScanBlockFile reads a checkpoint file and reports its directory, zone
// maps, encodings and per-block CRC status. It is the file's fsck:
// unlike Open it reads every segment and verifies every block's payload
// checksum. A damaged footer is an error; damage below it is reported in
// the result (see Damaged).
func ScanBlockFile(path string) (*BlockFileInfo, error) {
	ck, f, err := openCheckpoint(path)
	if err != nil {
		return nil, err
	}
	if ck == nil {
		return nil, fmt.Errorf("%s: %w", path, os.ErrNotExist)
	}
	defer f.Close()
	return ck.scan(), nil
}

// scan is ScanBlockFile's walk over a checkpoint read by readCheckpoint,
// a file's or an image's.
func (ck *checkpoint) scan() *BlockFileInfo {
	info := &BlockFileInfo{Epoch: ck.epoch}
	for i := range ck.tables {
		d := &ck.tables[i]
		schema := ck.schemas[d.schema]
		ti := BlockTableInfo{Table: d.name, Rows: d.nrows, ChunkLens: d.lens, Schema: d.schema,
			Offset: d.loc.off, Size: d.loc.payload + d.loc.seg}
		for _, ci := range d.indexes {
			ti.Indexes = append(ti.Indexes, schema[ci].Name)
		}
		buf, err := d.loc.read(0, ti.Size)
		var chunks []storeChunk
		if err == nil {
			chunks, err = parseSegment(buf[d.loc.payload:], d.name, schema, d.lens, &d.loc)
		}
		if err != nil {
			ti.Err = err.Error()
		}
		info.Dir = append(info.Dir, ti)
		for k := range chunks {
			sc := &chunks[k]
			for ci, col := range schema {
				for _, b := range sc.cols[ci] {
					info.Blocks = append(info.Blocks, BlockInfo{
						Table:    d.name,
						Chunk:    k,
						Column:   col.Name,
						Encoding: encName(b.Enc),
						Rows:     b.Rows,
						Nulls:    b.Nulls,
						Offset:   d.loc.off + b.Off,
						Size:     b.Len,
						CRCOK:    crc32.Checksum(buf[b.Off:b.Off+int64(b.Len)], walCRC) == b.CRC,
						Zone:     zoneString(&b, col.Type),
					})
				}
			}
		}
	}
	return info
}

func zoneString(b *blockMeta, typ value.Type) string {
	if !b.HasMM {
		if b.HasNaN {
			return "all-null+NaN"
		}
		return "all-null"
	}
	var s string
	switch typ {
	case value.Integer, value.Boolean, value.Timestamp:
		s = fmt.Sprintf("%d..%d", b.MinI, b.MaxI)
	case value.Float:
		s = fmt.Sprintf("%g..%g", b.MinF, b.MaxF)
	default:
		s = fmt.Sprintf("%q..%q", b.MinS, b.MaxS)
	}
	if b.HasNaN {
		s += "+NaN"
	}
	return s
}
