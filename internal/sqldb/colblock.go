package sqldb

// Disk-backed compressed columnar block storage.
//
// Checkpoint persists, next to snapshot.gob, a columnar mirror of the
// committed row chunks: every (chunk, column) is cut into blocks of
// vecMorselRows rows and each block is stored compressed with a
// CRC-32C and a zone map (min/max, null count, NaN flag) in a block
// index footer. The vectorized scan path consults the zone maps BEFORE
// touching data — a col<lit / BETWEEN / IN / IS NULL predicate prunes
// whole blocks without decompression — and the column cache hydrates
// evicted vectors by decoding a block instead of re-walking boxed rows.
//
// The file is purely DERIVED state: rows always live in memory (the
// snapshot + WAL remain the durability contract), so a missing, stale,
// torn or corrupt block file never fails recovery — it is simply
// ignored and vectors are rebuilt from row chunks. Like the WAL, the
// file is epoch-stamped: a crash between the snapshot rename and the
// block rename leaves a block file whose epoch disagrees with the
// snapshot, and Open discards it.
//
// File layout:
//
//	header:  8-byte magic "PBCOL1\r\n" + uint64 LE epoch
//	body:    concatenated block payloads (offsets in the index)
//	index:   gob(blockIndex) — per table, per chunk, per column block
//	         metadata: encoding, offset/length, CRC-32C, zone map
//	trailer: uint64 LE index offset + uint32 LE CRC-32C(index) +
//	         8-byte magic "PBCOLIDX"
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
//	time   — timestamps: uvarint(len)+MarshalBinary per row (used by
//	         replica bootstrap; never decoded to vectors)
//
// A block decodes to exactly the colVec buildColVec would produce from
// the same rows (NULL positions hold the zero value), so block-hydrated
// and row-built vectors are interchangeable byte for byte.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sync/atomic"
	"time"

	"perfbase/internal/failpoint"
	"perfbase/internal/value"
)

const blockFile = "columns.blk"

var (
	colMagic    = [8]byte{'P', 'B', 'C', 'O', 'L', '1', '\r', '\n'}
	colIdxMagic = [8]byte{'P', 'B', 'C', 'O', 'L', 'I', 'D', 'X'}
)

const (
	colHeaderSize  = 16
	colTrailerSize = 20 // uint64 index offset + uint32 CRC + magic
)

// Block encodings.
const (
	blkEncRaw uint8 = iota
	blkEncRLE
	blkEncDelta
	blkEncDict
	blkEncTime
)

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
	case blkEncTime:
		return "time"
	}
	return fmt.Sprintf("enc%d", e)
}

// Failpoint sites of the block storage layer. Armed by the torture
// matrix to tear a block payload write, kill the process before the
// footer, or fail the read/CRC path — all of which must degrade to
// row-chunk fallback with zero acknowledged-write loss.
var (
	fpColWrite  = failpoint.Site("sqldb/colblk/write")
	fpColFooter = failpoint.Site("sqldb/colblk/footer")
	fpColRead   = failpoint.Site("sqldb/colblk/read")
)

// blockMeta is one block's entry in the index: where it lives, how it
// is encoded, and its zone map. The min/max fields are per type class
// (ints serve Integer and Boolean, floats serve Float, strings serve
// String and Version); HasMM is false when every row is NULL (or, for
// floats, NaN), in which case min/max are meaningless. HasNaN records
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

// blockColIdx is the block list of one column of one chunk.
type blockColIdx struct {
	Blocks []blockMeta
}

// blockChunkIdx is one (non-empty) chunk: its row count and one block
// list per column.
type blockChunkIdx struct {
	Rows int
	Cols []blockColIdx
}

// blockTableIdx is one table in the index. Chunks appear in storage
// order, skipping empty chunks, and must match the snapshot's chunk
// structure exactly (Open records chunk lengths in the snapshot for
// this purpose).
type blockTableIdx struct {
	Name   string
	Names  []string
	Types  []int
	Chunks []blockChunkIdx
}

type blockIndex struct {
	Tables []blockTableIdx
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
	if typ == value.Timestamp {
		return encodeTimeBlock(rows, ci, meta)
	}
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
	case value.Integer, value.Boolean:
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
			if len(vals) >= colDictMaxCard {
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

// encodeTimeBlock stores timestamps as per-row MarshalBinary payloads.
// These blocks exist for replica bootstrap; the vectorized path never
// touches Timestamp columns, so they are never decoded to vectors.
func encodeTimeBlock(rows []Row, ci int, meta blockMeta) (blockMeta, []byte) {
	nullWords := make([]uint64, (len(rows)+63)/64)
	hasNulls := false
	var data []byte
	for i, row := range rows {
		c := &row[ci]
		if c.IsNull() {
			nullWords[i>>6] |= 1 << (uint(i) & 63)
			hasNulls = true
			meta.Nulls++
			data = appendUvarint(data, 0)
			continue
		}
		b, err := c.Time().MarshalBinary()
		if err != nil {
			// Unmarshalable time (cannot happen for values built by the
			// engine): store NULL; the row fallback keeps results right.
			nullWords[i>>6] |= 1 << (uint(i) & 63)
			hasNulls = true
			meta.Nulls++
			data = appendUvarint(data, 0)
			continue
		}
		data = appendUvarint(data, uint64(len(b)))
		data = append(data, b...)
	}
	var payload []byte
	if hasNulls {
		payload = append(payload, 1)
		for _, w := range nullWords {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], w)
			payload = append(payload, b[:]...)
		}
	} else {
		payload = append(payload, 0)
	}
	payload = append(payload, data...)
	meta.Enc = blkEncTime
	meta.Len = len(payload)
	meta.CRC = crc32.Checksum(payload, walCRC)
	return meta, payload
}

// ------------------------------------------------------- decoding

var errBlockCorrupt = errorf("corrupt column block")

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
	case value.Integer, value.Boolean:
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
		if n <= 0 {
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

// decodeColValues decodes one block into boxed values of the column
// type — the replica-bootstrap reconstruction path.
func decodeColValues(enc uint8, payload []byte, typ value.Type, rows int) ([]value.Value, error) {
	out := make([]value.Value, rows)
	if typ == value.Timestamp {
		nulls, data, err := splitNulls(payload, rows)
		if err != nil {
			return nil, err
		}
		isNull := func(i int) bool {
			return nulls != nil && nulls[i>>6]&(1<<(uint(i)&63)) != 0
		}
		for i := 0; i < rows; i++ {
			u, n := binary.Uvarint(data)
			if n <= 0 || u > uint64(len(data)-n) {
				return nil, errBlockCorrupt
			}
			b := data[n : n+int(u)]
			data = data[n+int(u):]
			if isNull(i) || len(b) == 0 {
				out[i] = value.Null(typ)
				continue
			}
			var t time.Time
			if err := t.UnmarshalBinary(b); err != nil {
				return nil, errBlockCorrupt
			}
			out[i] = value.NewTimestamp(t)
		}
		return out, nil
	}
	v, err := decodeColBlock(enc, payload, typ, rows)
	if err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		if v.null(i) {
			out[i] = value.Null(typ)
			continue
		}
		switch typ {
		case value.Integer:
			out[i] = value.NewInt(v.ints[i])
		case value.Boolean:
			out[i] = value.NewBool(v.ints[i] != 0)
		case value.Float:
			out[i] = value.NewFloat(v.floats[i])
		case value.String:
			out[i] = value.NewString(v.strs[i])
		default: // Version
			out[i] = value.NewVersion(v.strs[i])
		}
	}
	return out, nil
}

// ------------------------------------------------------- file writer

// blockWriteTable is one table handed to writeBlockFile: its chunks in
// storage order (empty chunks skipped by the writer).
type blockWriteTable struct {
	name   string
	names  []string
	types  []value.Type
	chunks [][]Row
}

// writeBlockFile writes the columnar mirror of tables to path
// atomically (tmp + fsync + rename), stamped with epoch. Returns the
// index it wrote, for in-process registration.
func writeBlockFile(path string, epoch uint64, tables []blockWriteTable) (*blockIndex, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*blockIndex, error) {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	var hdr [colHeaderSize]byte
	copy(hdr[:8], colMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], epoch)
	if _, err := f.Write(hdr[:]); err != nil {
		return fail(err)
	}
	off := int64(colHeaderSize)
	idx := &blockIndex{}
	for _, bt := range tables {
		ti := blockTableIdx{Name: bt.name, Names: bt.names}
		for _, typ := range bt.types {
			ti.Types = append(ti.Types, int(typ))
		}
		for _, ch := range bt.chunks {
			if len(ch) == 0 {
				continue
			}
			ci := blockChunkIdx{Rows: len(ch)}
			for col := range bt.types {
				var bc blockColIdx
				for lo := 0; lo < len(ch); lo += vecMorselRows {
					hi := min(lo+vecMorselRows, len(ch))
					meta, payload := encodeColBlock(ch[lo:hi], col, bt.types[col])
					meta.Off = off
					// Torn-write site: crash(N) lets the first N bytes of
					// this block reach the tmp file, then kills the process.
					// The rename never happens, so reopen sees either no
					// block file or the previous epoch's — both discarded.
					if err := fpColWrite.InjectWrite(f, payload); err != nil {
						return fail(err)
					}
					if _, err := f.Write(payload); err != nil {
						return fail(err)
					}
					off += int64(len(payload))
					bc.Blocks = append(bc.Blocks, meta)
				}
				ci.Cols = append(ci.Cols, bc)
			}
			ti.Chunks = append(ti.Chunks, ci)
		}
		idx.Tables = append(idx.Tables, ti)
	}
	// Footer: gob index + fixed trailer. A crash here leaves a body
	// with no (or a partial) trailer; the opener validates the trailer
	// magic and index CRC and discards the file.
	if err := fpColFooter.Inject(); err != nil {
		return fail(err)
	}
	var idxBuf bytes.Buffer
	if err := gob.NewEncoder(&idxBuf).Encode(idx); err != nil {
		return fail(err)
	}
	if _, err := f.Write(idxBuf.Bytes()); err != nil {
		return fail(err)
	}
	var trailer [colTrailerSize]byte
	binary.LittleEndian.PutUint64(trailer[:8], uint64(off))
	binary.LittleEndian.PutUint32(trailer[8:12], crc32.Checksum(idxBuf.Bytes(), walCRC))
	copy(trailer[12:], colIdxMagic[:])
	if _, err := f.Write(trailer[:]); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	return idx, nil
}

// readBlockIndex opens a block file, validates header magic, trailer
// magic and index CRC, and returns the decoded index and epoch. The
// returned file is open for concurrent ReadAt; the caller owns it.
func readBlockIndex(path string) (*os.File, uint64, *blockIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, nil, err
	}
	fail := func(err error) (*os.File, uint64, *blockIndex, error) {
		f.Close()
		return nil, 0, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		return fail(err)
	}
	if st.Size() < colHeaderSize+colTrailerSize {
		return fail(errorf("block file too short"))
	}
	var hdr [colHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return fail(err)
	}
	if string(hdr[:8]) != string(colMagic[:]) {
		return fail(errorf("bad block file magic"))
	}
	epoch := binary.LittleEndian.Uint64(hdr[8:])
	var trailer [colTrailerSize]byte
	if _, err := f.ReadAt(trailer[:], st.Size()-colTrailerSize); err != nil {
		return fail(err)
	}
	if string(trailer[12:]) != string(colIdxMagic[:]) {
		return fail(errorf("bad block index magic"))
	}
	idxOff := int64(binary.LittleEndian.Uint64(trailer[:8]))
	if idxOff < colHeaderSize || idxOff > st.Size()-colTrailerSize {
		return fail(errorf("bad block index offset"))
	}
	idxBuf := make([]byte, st.Size()-colTrailerSize-idxOff)
	if _, err := f.ReadAt(idxBuf, idxOff); err != nil {
		return fail(err)
	}
	if crc32.Checksum(idxBuf, walCRC) != binary.LittleEndian.Uint32(trailer[8:12]) {
		return fail(errorf("block index CRC mismatch"))
	}
	idx := &blockIndex{}
	if err := gob.NewDecoder(bytes.NewReader(idxBuf)).Decode(idx); err != nil {
		return fail(err)
	}
	return f, epoch, idx, nil
}

// ------------------------------------------------------- registry

// storeChunk is the block metadata of one registered chunk, looked up
// by chunk identity (the address of the chunk's first row — the same
// keying the column cache uses; the pointer keeps the chunk's backing
// array alive, so an address can never be reused while registered).
type storeChunk struct {
	table string
	types []value.Type
	cols  []blockColIdx
}

// blockStore maps live chunks to their on-disk blocks. Immutable after
// construction but for the damaged flag (Checkpoint swaps in a whole
// new store); the file is read with ReadAt, safe for concurrent morsel
// workers.
type blockStore struct {
	f     *os.File
	path  string
	epoch uint64
	m     map[*Row]*storeChunk
	// damaged is set once a block failed its read, CRC or decode: the
	// file no longer mirrors the snapshot, and Close rewrites it.
	damaged atomic.Bool
	// encs caches the dominant per-column encoding label per table
	// (lower-cased), for EXPLAIN and tests.
	encs map[string][]string
}

func (s *blockStore) chunkFor(ch []Row) *storeChunk {
	if s == nil || len(ch) == 0 {
		return nil
	}
	return s.m[&ch[0]]
}

// readBlock fetches, CRC-checks and decodes block bi of column ci.
func (s *blockStore) readBlock(sc *storeChunk, ci, bi int) (*colVec, error) {
	if ci >= len(sc.cols) || bi >= len(sc.cols[ci].Blocks) {
		return nil, errBlockCorrupt
	}
	meta := &sc.cols[ci].Blocks[bi]
	if err := fpColRead.Inject(); err != nil {
		return nil, err
	}
	buf := make([]byte, meta.Len)
	if _, err := s.f.ReadAt(buf, meta.Off); err != nil {
		return nil, err
	}
	if crc32.Checksum(buf, walCRC) != meta.CRC {
		return nil, errorf("column block CRC mismatch (table %s col %d block %d)", sc.table, ci, bi)
	}
	return decodeColBlock(meta.Enc, buf, sc.types[ci], meta.Rows)
}

func (s *blockStore) close() {
	if s != nil && s.f != nil {
		s.f.Close()
	}
}

// dominantEnc picks the most frequent encoding across a column's
// blocks (ties broken by encoding tag order, deterministically).
func dominantEnc(idx *blockTableIdx, col int) string {
	var counts [5]int
	for _, ch := range idx.Chunks {
		if col < len(ch.Cols) {
			for _, b := range ch.Cols[col].Blocks {
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

// buildBlockStore pairs a decoded index with live table chunks,
// registering every chunk whose shape (row counts in order, column
// types) matches its index entry exactly. Tables or chunks that do not
// match are skipped — the scan path simply builds those vectors from
// rows.
func buildBlockStore(f *os.File, path string, epoch uint64, idx *blockIndex, cat catalog) *blockStore {
	s := &blockStore{f: f, path: path, epoch: epoch, m: map[*Row]*storeChunk{}, encs: map[string][]string{}}
	for i := range idx.Tables {
		ti := &idx.Tables[i]
		key := lower(ti.Name)
		t := cat.get(key)
		if t == nil || t.temp || len(ti.Types) != len(t.schema) {
			continue
		}
		match := true
		for ci, typ := range ti.Types {
			if value.Type(typ) != t.schema[ci].Type {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		var live [][]Row
		for _, ch := range t.chunks {
			if len(ch) > 0 {
				live = append(live, ch)
			}
		}
		if len(live) != len(ti.Chunks) {
			continue
		}
		for k, ch := range live {
			if ti.Chunks[k].Rows != len(ch) {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		types := make([]value.Type, len(ti.Types))
		for ci, typ := range ti.Types {
			types[ci] = value.Type(typ)
		}
		for k, ch := range live {
			s.m[&ch[0]] = &storeChunk{table: key, types: types, cols: ti.Chunks[k].Cols}
		}
		labels := make([]string, len(ti.Types))
		for ci := range ti.Types {
			labels[ci] = dominantEnc(ti, ci)
		}
		s.encs[key] = labels
	}
	return s
}

// openBlockStore loads dir's block file and registers it against the
// given tables. Any failure — missing file, stale epoch, torn footer,
// CRC mismatch, shape mismatch — returns nil: the block file is
// derived data and recovery proceeds on rows alone.
func openBlockStore(path string, epoch uint64, cat catalog) *blockStore {
	f, fileEpoch, idx, err := readBlockIndex(path)
	if err != nil {
		return nil
	}
	if fileEpoch != epoch {
		// Stale (or future) generation: a crash hit the checkpoint
		// between the snapshot and block renames. Discard, like a stale
		// WAL.
		f.Close()
		return nil
	}
	return buildBlockStore(f, path, epoch, idx, cat)
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

// BlockFileInfo is the result of scanning a block file without a
// database open — the `pbserver -blockdump` view.
type BlockFileInfo struct {
	Epoch  uint64
	Tables int
	Blocks []BlockInfo
}

// ScanBlockFile reads a columnar block file and reports its index,
// zone maps, encodings and per-block CRC status. Unlike the engine's
// open path it verifies every block's payload checksum.
func ScanBlockFile(path string) (*BlockFileInfo, error) {
	f, epoch, idx, err := readBlockIndex(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info := &BlockFileInfo{Epoch: epoch, Tables: len(idx.Tables)}
	for ti := range idx.Tables {
		tbl := &idx.Tables[ti]
		for ci, chunk := range tbl.Chunks {
			for col := range chunk.Cols {
				typ := value.Type(0)
				if col < len(tbl.Types) {
					typ = value.Type(tbl.Types[col])
				}
				name := fmt.Sprintf("#%d", col)
				if col < len(tbl.Names) {
					name = tbl.Names[col]
				}
				for _, b := range chunk.Cols[col].Blocks {
					buf := make([]byte, b.Len)
					crcOK := false
					if _, err := f.ReadAt(buf, b.Off); err == nil {
						crcOK = crc32.Checksum(buf, walCRC) == b.CRC
					}
					info.Blocks = append(info.Blocks, BlockInfo{
						Table:    tbl.Name,
						Chunk:    ci,
						Column:   name,
						Encoding: encName(b.Enc),
						Rows:     b.Rows,
						Nulls:    b.Nulls,
						Offset:   b.Off,
						Size:     b.Len,
						CRCOK:    crcOK,
						Zone:     zoneString(&b, typ),
					})
				}
			}
		}
	}
	return info, nil
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
	case value.Integer, value.Boolean:
		s = fmt.Sprintf("%d..%d", b.MinI, b.MaxI)
	case value.Float:
		s = fmt.Sprintf("%g..%g", b.MinF, b.MaxF)
	case value.Timestamp:
		return "-"
	default:
		s = fmt.Sprintf("%q..%q", b.MinS, b.MaxS)
	}
	if b.HasNaN {
		s += "+NaN"
	}
	return s
}
