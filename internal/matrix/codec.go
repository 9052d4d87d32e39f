package matrix

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"repro/internal/dag"
)

// Codec serializes cell values for the transport layer. Fixed-size numeric
// cells use the fast binary codec; any other cell type can fall back to
// the gob codec.
type Codec[T any] interface {
	// EncodeCells writes the cells to w.
	EncodeCells(w io.Writer, cells []T) error
	// DecodeCells reads len(cells) values from r into cells.
	DecodeCells(r io.Reader, cells []T) error
}

// fixedCodec is implemented by codecs whose cells all have one wire size
// (BinaryCodec). The block encoders and decoders use it to size a payload
// exactly, to bound a decode by the bytes present, and to convert cells in
// place without an io.Writer or io.Reader in between.
type fixedCodec[T any] interface {
	cellSize() int
	// putCells writes cells into dst, which holds exactly
	// len(cells)*cellSize() bytes.
	putCells(dst []byte, cells []T)
	// getCells fills cells from src, which holds exactly
	// len(cells)*cellSize() bytes.
	getCells(cells []T, src []byte)
}

// BinaryCodec encodes fixed-size integer and float cells in little-endian
// order: byte for byte what encoding/binary writes for the same slice, but
// with direct loops instead of reflection. Both directions stream through
// a pooled staging chunk, so neither allocates per call.
type BinaryCodec[T int32 | int64 | uint32 | uint64 | float32 | float64] struct{}

// chunkSize is the staging chunk for streamed binary cells: a multiple of
// every cell size, small enough to stay in L1.
const chunkSize = 16 << 10

var chunkPool = sync.Pool{New: func() any {
	b := make([]byte, chunkSize)
	return &b
}}

func (BinaryCodec[T]) cellSize() int {
	var z T
	switch any(z).(type) {
	case int32, uint32, float32:
		return 4
	}
	return 8
}

func (BinaryCodec[T]) putCells(dst []byte, cells []T) {
	le := binary.LittleEndian
	switch s := any(cells).(type) {
	case []int32:
		for _, v := range s {
			le.PutUint32(dst, uint32(v))
			dst = dst[4:]
		}
	case []uint32:
		for _, v := range s {
			le.PutUint32(dst, v)
			dst = dst[4:]
		}
	case []float32:
		for _, v := range s {
			le.PutUint32(dst, math.Float32bits(v))
			dst = dst[4:]
		}
	case []int64:
		for _, v := range s {
			le.PutUint64(dst, uint64(v))
			dst = dst[8:]
		}
	case []uint64:
		for _, v := range s {
			le.PutUint64(dst, v)
			dst = dst[8:]
		}
	case []float64:
		for _, v := range s {
			le.PutUint64(dst, math.Float64bits(v))
			dst = dst[8:]
		}
	}
}

func (BinaryCodec[T]) getCells(cells []T, src []byte) {
	le := binary.LittleEndian
	switch s := any(cells).(type) {
	case []int32:
		for i := range s {
			s[i] = int32(le.Uint32(src))
			src = src[4:]
		}
	case []uint32:
		for i := range s {
			s[i] = le.Uint32(src)
			src = src[4:]
		}
	case []float32:
		for i := range s {
			s[i] = math.Float32frombits(le.Uint32(src))
			src = src[4:]
		}
	case []int64:
		for i := range s {
			s[i] = int64(le.Uint64(src))
			src = src[8:]
		}
	case []uint64:
		for i := range s {
			s[i] = le.Uint64(src)
			src = src[8:]
		}
	case []float64:
		for i := range s {
			s[i] = math.Float64frombits(le.Uint64(src))
			src = src[8:]
		}
	}
}

func (c BinaryCodec[T]) EncodeCells(w io.Writer, cells []T) error {
	size := c.cellSize()
	chunk := chunkPool.Get().(*[]byte)
	defer chunkPool.Put(chunk)
	per := chunkSize / size
	for len(cells) > 0 {
		k := min(per, len(cells))
		dst := (*chunk)[:k*size]
		c.putCells(dst, cells[:k])
		if _, err := w.Write(dst); err != nil {
			return err
		}
		cells = cells[k:]
	}
	return nil
}

func (c BinaryCodec[T]) DecodeCells(r io.Reader, cells []T) error {
	size := c.cellSize()
	chunk := chunkPool.Get().(*[]byte)
	defer chunkPool.Put(chunk)
	per := chunkSize / size
	for done := 0; done < len(cells); {
		k := min(per, len(cells)-done)
		src := (*chunk)[:k*size]
		if _, err := io.ReadFull(r, src); err != nil {
			if err == io.EOF && done > 0 {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		c.getCells(cells[done:done+k], src)
		done += k
	}
	return nil
}

// GobCodec encodes arbitrary cell types with encoding/gob. Slower than
// BinaryCodec but works for struct cells (e.g. score plus traceback
// direction).
//
// DecodeCells rejects a slice longer than len(cells) and, when the reader
// reports how many bytes it has left (a Len method, as the *bytes.Reader
// the block decoders pass has), a gob message longer than those bytes,
// both before encoding/gob allocates for them; otherwise a few hostile
// bytes make gob allocate up to 10 MiB. Slices nested inside a cell type
// are not bounded this way, so cell types decoded from untrusted peers
// should hold none.
type GobCodec[T any] struct{}

func (GobCodec[T]) EncodeCells(w io.Writer, cells []T) error {
	return gob.NewEncoder(w).Encode(cells)
}

func (GobCodec[T]) DecodeCells(r io.Reader, cells []T) error {
	var tmp []T
	if err := gob.NewDecoder(&gobFrames{r: r, cells: uint64(len(cells))}).Decode(&tmp); err != nil {
		return err
	}
	if len(tmp) != len(cells) {
		return fmt.Errorf("matrix: gob payload has %d cells, want %d", len(tmp), len(cells))
	}
	copy(cells, tmp)
	return nil
}

// lenReader is a reader that reports how many unread bytes it holds.
type lenReader interface {
	io.Reader
	Len() int
}

var (
	errGobMessage = errors.New("matrix: gob message is longer than the bytes that follow")
	errGobCells   = errors.New("matrix: gob payload has more cells than its block")
)

// gobFrames passes a gob stream through from r while following its
// framing: each message is a count, a gob unsigned integer, followed by
// that many bytes. It fails the read that completes a count larger than
// the bytes r still holds (when r has a Len method), and the read that
// completes a value message whose slice is longer than cells. Either way
// encoding/gob has not yet sized a buffer from the claim. No read crosses
// the end of a count or a message, so every one passes the checks.
// gobFrames is an io.ByteReader so that gob.NewDecoder reads it directly
// instead of buffering ahead.
type gobFrames struct {
	r     io.Reader
	cells uint64
	body  int      // message bytes still to pass through
	width int      // count bytes still to pass through
	count uint64   // the count read so far
	head  [27]byte // the first bytes of the current message
	headN int
	one   [1]byte
}

func (g *gobFrames) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	switch {
	case g.body > 0:
		n, err := g.r.Read(p[:min(len(p), g.body)])
		g.headN += copy(g.head[g.headN:], p[:n])
		g.body -= n
		if g.body == 0 && !g.valueFits() {
			return 0, errGobCells
		}
		return n, err
	case g.width == 0: // the first byte of a count
		n, err := g.r.Read(p[:1])
		if n == 1 {
			if b := p[0]; b < 0x80 {
				g.startBody(uint64(b))
			} else {
				g.width, g.count = -int(int8(b)), 0
			}
		}
		return n, err
	default:
		n, err := g.r.Read(p[:min(len(p), g.width)])
		for _, b := range p[:n] {
			g.count = g.count<<8 | uint64(b)
		}
		g.width -= n
		if g.width == 0 {
			if l, ok := g.r.(lenReader); ok && g.count > uint64(l.Len()) {
				return 0, errGobMessage
			}
			g.startBody(g.count)
		}
		return n, err
	}
}

func (g *gobFrames) startBody(n uint64) {
	g.body, g.headN = int(n), 0
}

// valueFits reports whether the message just passed, if it is a value
// message, claims at most g.cells elements. Such a message for a slice
// starts with its type id (a gob signed integer, positive where a type
// definition's is negative), a zero field delta and the slice length,
// each a gob unsigned integer. A message too short to hold them is left
// for gob to reject.
func (g *gobFrames) valueFits() bool {
	id, rest, ok := gobUint(g.head[:g.headN])
	if !ok || id&1 != 0 { // an odd id encodes a negative one
		return true
	}
	delta, rest, ok := gobUint(rest)
	if !ok || delta != 0 {
		return true
	}
	n, _, ok := gobUint(rest)
	return !ok || n <= g.cells
}

// gobUint decodes the gob unsigned integer at the front of b: one byte
// below 0x80, otherwise a byte holding the negated width and then that
// many big-endian bytes.
func gobUint(b []byte) (x uint64, rest []byte, ok bool) {
	if len(b) == 0 {
		return 0, b, false
	}
	if b[0] < 0x80 {
		return uint64(b[0]), b[1:], true
	}
	w := -int(int8(b[0]))
	if w > 8 || len(b) < 1+w {
		return 0, b, false
	}
	for _, c := range b[1 : 1+w] {
		x = x<<8 | uint64(c)
	}
	return x, b[1+w:], true
}

func (g *gobFrames) ReadByte() (byte, error) {
	if _, err := io.ReadFull(g, g.one[:]); err != nil {
		return 0, err
	}
	return g.one[0], nil
}

// blockHeader precedes each block on the wire: four little-endian int32s.
type blockHeader struct {
	Row0, Col0, Rows, Cols int32
}

const (
	countSize  = 4
	headerSize = 16
)

func appendUint32(dst []byte, v int32) []byte {
	return binary.LittleEndian.AppendUint32(dst, uint32(v))
}

// appendHeader writes r's header with rows in place of r.Rows (the keyed
// format negates it to mark a reference).
func appendHeader(dst []byte, r dag.Rect, rows int) []byte {
	dst = appendUint32(dst, int32(r.Row0))
	dst = appendUint32(dst, int32(r.Col0))
	dst = appendUint32(dst, int32(rows))
	return appendUint32(dst, int32(r.Cols))
}

// payloadSize is the exact encoded size of a payload whose records carry
// `extra` bytes besides their header and whose full blocks hold `cells`
// cells in total, or 0 when c's cell size is not fixed.
func payloadSize[T any](c Codec[T], records, extra, cells int) int {
	f, ok := c.(fixedCodec[T])
	if !ok {
		return 0
	}
	return countSize + records*(headerSize+extra) + cells*f.cellSize()
}

// appendCells encodes cells onto dst: in place for a fixed-size codec,
// through EncodeCells otherwise.
func appendCells[T any](c Codec[T], dst []byte, cells []T) ([]byte, error) {
	if f, ok := c.(fixedCodec[T]); ok {
		n, size := len(dst), len(cells)*f.cellSize()
		dst = slices.Grow(dst, size)[:n+size]
		f.putCells(dst[n:], cells)
		return dst, nil
	}
	buf := bytes.NewBuffer(dst)
	err := c.EncodeCells(buf, cells)
	return buf.Bytes(), err
}

// EncodeBlocks serializes a set of blocks (count header followed by rect
// headers and cell payloads) using codec c.
func EncodeBlocks[T any](c Codec[T], blocks []*Block[T]) ([]byte, error) {
	cells := 0
	for _, b := range blocks {
		cells += len(b.Cells)
	}
	buf := make([]byte, 0, payloadSize(c, len(blocks), 0, cells))
	buf = appendUint32(buf, int32(len(blocks)))
	for _, b := range blocks {
		buf = appendHeader(buf, b.Rect, b.Rect.Rows)
		var err error
		if buf, err = appendCells(c, buf, b.Cells); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// blockReader walks an encoded payload. Every length it is asked to read
// is checked against the bytes that remain before anything is allocated
// for it, so a hostile header cannot make a decoder allocate more than a
// small multiple of the payload's own size.
type blockReader[T any] struct {
	c     Codec[T]
	fixed fixedCodec[T] // nil when c's cell size is not fixed
	data  []byte
	off   int
}

func newBlockReader[T any](c Codec[T], data []byte) *blockReader[T] {
	f, _ := c.(fixedCodec[T])
	return &blockReader[T]{c: c, fixed: f, data: data}
}

func (r *blockReader[T]) remaining() int { return len(r.data) - r.off }

func (r *blockReader[T]) next(n int) ([]byte, error) {
	if r.remaining() < n {
		return nil, io.ErrUnexpectedEOF
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *blockReader[T]) word() (int32, error) {
	b, err := r.next(countSize)
	if err != nil {
		return 0, err
	}
	return int32(binary.LittleEndian.Uint32(b)), nil
}

// checkCount rejects a record count whose records, at minSize bytes
// each, could not fit in the bytes that remain.
func (r *blockReader[T]) checkCount(n, minSize int) error {
	if n > r.remaining()/minSize {
		return fmt.Errorf("matrix: block count %d exceeds the %d bytes that follow", n, r.remaining())
	}
	return nil
}

func (r *blockReader[T]) header() (blockHeader, error) {
	b, err := r.next(headerSize)
	if err != nil {
		return blockHeader{}, err
	}
	le := binary.LittleEndian
	return blockHeader{
		Row0: int32(le.Uint32(b[0:])),
		Col0: int32(le.Uint32(b[4:])),
		Rows: int32(le.Uint32(b[8:])),
		Cols: int32(le.Uint32(b[12:])),
	}, nil
}

// fits rejects a full-block header (Rows, Cols > 0) whose cells cannot be
// present in the remaining bytes: exactly cells×size bytes for a
// fixed-size codec, at least one byte per cell for any other. Rows×Cols is
// formed in 64 bits, so it cannot overflow.
func (r *blockReader[T]) fits(h blockHeader) error {
	cells := int64(h.Rows) * int64(h.Cols)
	per := int64(1)
	if r.fixed != nil {
		per = int64(r.fixed.cellSize())
	}
	if cells > int64(r.remaining())/per {
		return fmt.Errorf("matrix: block header %+v needs %d cells but only %d bytes remain", h, cells, r.remaining())
	}
	return nil
}

func (r *blockReader[T]) cells(cells []T) error {
	if r.fixed != nil {
		src, err := r.next(len(cells) * r.fixed.cellSize())
		if err != nil {
			return err
		}
		r.fixed.getCells(cells, src)
		return nil
	}
	br := bytes.NewReader(r.data[r.off:])
	err := r.c.DecodeCells(br, cells)
	r.off = len(r.data) - br.Len()
	return err
}

// end rejects bytes left over after the last record.
func (r *blockReader[T]) end() error {
	if n := r.remaining(); n != 0 {
		return fmt.Errorf("matrix: %d trailing bytes after the last block", n)
	}
	return nil
}

func (h blockHeader) rect(rows int32) dag.Rect {
	return dag.Rect{Row0: int(h.Row0), Col0: int(h.Col0), Rows: int(rows), Cols: int(h.Cols)}
}

// DecodeBlocks is the inverse of EncodeBlocks.
func DecodeBlocks[T any](c Codec[T], data []byte) ([]*Block[T], error) {
	return DecodeBlocksWith(c, data, NewBlock[T])
}

// DecodeBlocksWith is DecodeBlocks with the caller supplying each block's
// storage: alloc must return a block covering exactly the given rect, with
// len(Cells) == rect.Cells(). The cells need not be zeroed; decoding
// overwrites every one. alloc is called only once the header has been
// checked against the bytes present.
func DecodeBlocksWith[T any](c Codec[T], data []byte, alloc func(dag.Rect) *Block[T]) ([]*Block[T], error) {
	r := newBlockReader(c, data)
	n, err := r.word()
	if err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("matrix: negative block count %d", n)
	}
	if err := r.checkCount(int(n), headerSize); err != nil {
		return nil, err
	}
	blocks := make([]*Block[T], 0, n)
	for k := int32(0); k < n; k++ {
		h, err := r.header()
		if err != nil {
			return nil, err
		}
		if h.Rows <= 0 || h.Cols <= 0 {
			return nil, fmt.Errorf("matrix: invalid block header %+v", h)
		}
		if err := r.fits(h); err != nil {
			return nil, err
		}
		b := alloc(h.rect(h.Rows))
		if err := r.cells(b.Cells); err != nil {
			return nil, err
		}
		blocks = append(blocks, b)
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return blocks, nil
}
