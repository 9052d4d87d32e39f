package matrix

import (
	"bytes"
	"testing"

	"repro/internal/dag"
)

// FuzzBlockCodec feeds arbitrary payloads to the plain and keyed block
// decoders under BinaryCodec[int32] and GobCodec. Any input must decode
// or fail with an error, never panic; no decode may allocate more than a
// small multiple of the input; and a payload the plain binary decoder
// accepts must re-encode to exactly its own bytes.
func FuzzBlockCodec(f *testing.F) {
	bin := BinaryCodec[int32]{}
	gobc := GobCodec[int32]{}
	held := keyedTestBlock(dag.Rect{Row0: 4, Col0: 4, Rows: 2, Cols: 2}, 7)
	heldKey := [32]byte{9, 9}
	resolve := func(k [32]byte) (*Block[int32], bool) { return held, k == heldKey }

	b1 := keyedTestBlock(dag.Rect{Row0: 0, Col0: 0, Rows: 2, Cols: 3}, -3)
	b2 := keyedTestBlock(dag.Rect{Row0: 2, Col0: 0, Rows: 1, Cols: 3}, 1<<30)
	for _, c := range []Codec[int32]{bin, gobc} {
		for _, blocks := range [][]*Block[int32]{nil, {b1}, {b1, b2}} {
			data, err := EncodeBlocks(c, blocks)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
			f.Add(data[:len(data)/2])
		}
		data, err := EncodeBlocksKeyed(c, []KeyedBlock[int32]{{Key: [32]byte{1}, Block: b1}}, []BlockRef{{Key: heldKey, Rect: held.Rect}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(le32s(1 << 22))
	f.Add(le32s(1, 0, 0, 2048, 2048))
	f.Add(le32s(-(1 << 22) - 1))
	f.Add(append(le32s(1, 0, 0, 1, 16), gobLongCount...))
	f.Add(append(le32s(1, 0, 0, 1, 16), gobSliceClaim(f, 1<<20)...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		limit := uint64(64*len(data) + 64<<10)
		bounded := func(name string, decode func()) {
			if n := allocatedBy(decode); n > limit {
				t.Fatalf("%s allocated %d bytes for a %d-byte payload (limit %d)", name, n, len(data), limit)
			}
		}
		var plain []*Block[int32]
		var plainErr error
		bounded("binary DecodeBlocks", func() { plain, plainErr = DecodeBlocks(bin, data) })
		bounded("binary DecodeBlocksAny", func() { _, _, _ = DecodeBlocksAny(bin, data, resolve, nil) })
		bounded("gob DecodeBlocks", func() { _, _ = DecodeBlocks(gobc, data) })
		bounded("gob DecodeBlocksAny", func() { _, _, _ = DecodeBlocksAny(gobc, data, resolve, nil) })

		if plainErr != nil {
			return
		}
		again, err := EncodeBlocks(bin, plain)
		if err != nil {
			t.Fatalf("re-encoding accepted payload: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted payload re-encodes differently:\n got %x\nwant %x", again, data)
		}
	})
}
