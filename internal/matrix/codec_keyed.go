package matrix

import (
	"fmt"

	"repro/internal/dag"
)

// Content-keyed wire format for task inputs, used when the cross-job
// result cache is on. It differs from the plain EncodeBlocks layout in
// two ways: every record carries the block's 32-byte content key, and a
// record may be a *reference* — the key and rect alone, no cells — naming
// a block the receiver provably already holds, so a content-identical
// block is never reshipped.
//
// The format is distinguished by the leading count, written as -(n+1):
// always negative, even for zero records, so the receiver can tell keyed
// payloads apart (and knows to record block keys) without any
// out-of-band flag. A plain-format decoder rejects the negative count
// loudly, which is the desired failure mode for version skew.
//
// Record layout after the count: a blockHeader, then the 32-byte key. A
// negative Rows field marks a reference (the true row count is -Rows and
// no cells follow); a positive Rows field is a full block, cells
// following as in the plain format.

// KeyedBlock pairs a block with its content key for the keyed format.
type KeyedBlock[T any] struct {
	Key   [32]byte
	Block *Block[T]
}

// BlockRef names a block by rect and content key, without its cells.
type BlockRef struct {
	Key  [32]byte
	Rect dag.Rect
}

const (
	keySize = len(BlockRef{}.Key)
	// keyedRecordSize is a reference record's size and a full record's
	// minimum: a blockHeader and the key.
	keyedRecordSize = headerSize + keySize
)

// EncodeBlocksKeyed serializes full blocks and references in the keyed
// format. Receivers resolve each record in order, so the concatenation
// full-then-refs is the decoded block order.
func EncodeBlocksKeyed[T any](c Codec[T], full []KeyedBlock[T], refs []BlockRef) ([]byte, error) {
	n := len(full) + len(refs)
	cells := 0
	for _, kb := range full {
		cells += len(kb.Block.Cells)
	}
	buf := make([]byte, 0, payloadSize(c, n, keySize, cells))
	buf = appendUint32(buf, int32(-(n + 1)))
	for _, kb := range full {
		buf = appendHeader(buf, kb.Block.Rect, kb.Block.Rect.Rows)
		buf = append(buf, kb.Key[:]...)
		var err error
		if buf, err = appendCells(c, buf, kb.Block.Cells); err != nil {
			return nil, err
		}
	}
	for _, ref := range refs {
		buf = appendHeader(buf, ref.Rect, -ref.Rect.Rows)
		buf = append(buf, ref.Key[:]...)
	}
	return buf, nil
}

// DecodeBlocksAny decodes either wire format. Plain payloads behave
// exactly like DecodeBlocks and touch neither callback. For keyed
// payloads, each full block is reported through record (nil is allowed)
// before being returned, and each reference is resolved through resolve;
// a nil resolve or a resolve miss is an error — a reference the receiver
// cannot resolve means the sender's known-set diverged, which must fail
// loudly rather than compute on garbage. keyed reports which format was
// seen, so a runner knows whether to record its own output's key.
func DecodeBlocksAny[T any](c Codec[T], data []byte, resolve func([32]byte) (*Block[T], bool), record func([32]byte, *Block[T])) (blocks []*Block[T], keyed bool, err error) {
	r := newBlockReader(c, data)
	n, err := r.word()
	if err != nil {
		return nil, false, err
	}
	if n >= 0 {
		b, err := DecodeBlocks(c, data)
		return b, false, err
	}
	count := -int(n) - 1
	if err := r.checkCount(count, keyedRecordSize); err != nil {
		return nil, true, err
	}
	blocks = make([]*Block[T], 0, count)
	for i := 0; i < count; i++ {
		h, err := r.header()
		if err != nil {
			return nil, true, err
		}
		kb, err := r.next(keySize)
		if err != nil {
			return nil, true, err
		}
		key := [32]byte(kb)
		if h.Rows < 0 {
			if resolve == nil {
				return nil, true, fmt.Errorf("matrix: block reference %x with no resolver", key[:6])
			}
			b, ok := resolve(key)
			if !ok {
				return nil, true, fmt.Errorf("matrix: unresolvable block reference %x (rect %d,%d %dx%d)", key[:6], h.Row0, h.Col0, -h.Rows, h.Cols)
			}
			if want := h.rect(-h.Rows); b.Rect != want {
				return nil, true, fmt.Errorf("matrix: block reference %x resolved to rect %+v, want %+v", key[:6], b.Rect, want)
			}
			blocks = append(blocks, b)
			continue
		}
		if h.Rows == 0 || h.Cols <= 0 {
			return nil, true, fmt.Errorf("matrix: invalid keyed block header %+v", h)
		}
		if err := r.fits(h); err != nil {
			return nil, true, err
		}
		b := NewBlock[T](h.rect(h.Rows))
		if err := r.cells(b.Cells); err != nil {
			return nil, true, err
		}
		if record != nil {
			record(key, b)
		}
		blocks = append(blocks, b)
	}
	if err := r.end(); err != nil {
		return nil, true, err
	}
	return blocks, true, nil
}
