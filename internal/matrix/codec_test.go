package matrix

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/dag"
)

type binaryCell interface {
	int32 | int64 | uint32 | uint64 | float32 | float64
}

// writerOnly hides everything but Write, so the encoding is checked
// through a writer other than *bytes.Buffer as well.
type writerOnly struct{ w *bytes.Buffer }

func (o writerOnly) Write(p []byte) (int, error) { return o.w.Write(p) }

// checkMatchesEncodingBinary encodes special values followed by random
// bit patterns, enough to span several staging chunks, and requires the
// encoding into a *bytes.Buffer and into a plain writer to be exactly what
// binary.Write produces and the decode to restore the same bits.
func checkMatchesEncodingBinary[T binaryCell](t *testing.T, special []T, fromBits func(uint64) T) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	cells := append([]T(nil), special...)
	for len(cells) < 3*chunkSize/4+7 {
		cells = append(cells, fromBits(rng.Uint64()))
	}
	var want bytes.Buffer
	if err := binary.Write(&want, binary.LittleEndian, cells); err != nil {
		t.Fatal(err)
	}
	c := BinaryCodec[T]{}
	var direct, staged bytes.Buffer
	direct.WriteString("prefix")
	if err := c.EncodeCells(&direct, cells); err != nil {
		t.Fatal(err)
	}
	if got := direct.Bytes()[len("prefix"):]; !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("%T: *bytes.Buffer encoding differs from binary.Write", cells)
	}
	if err := c.EncodeCells(writerOnly{&staged}, cells); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(staged.Bytes(), want.Bytes()) {
		t.Fatalf("%T: staged encoding differs from binary.Write", cells)
	}

	got := make([]T, len(cells))
	if err := c.DecodeCells(bytes.NewReader(want.Bytes()), got); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := binary.Write(&again, binary.LittleEndian, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want.Bytes()) {
		t.Fatalf("%T: DecodeCells did not restore the encoded bits", cells)
	}
	for _, cut := range []int{0, 3, len(want.Bytes()) - 1} {
		if err := c.DecodeCells(bytes.NewReader(want.Bytes()[:cut]), got); err == nil {
			t.Fatalf("%T: DecodeCells accepted %d of %d bytes", cells, cut, want.Len())
		}
	}
}

func TestBinaryCodecMatchesEncodingBinary(t *testing.T) {
	nan32 := []float32{
		float32(math.NaN()),
		math.Float32frombits(0x7f800001), // signalling NaN
		math.Float32frombits(0xffc00001), // negative quiet NaN with payload
	}
	nan64 := []float64{
		math.NaN(),
		math.Float64frombits(0x7ff0000000000001),
		math.Float64frombits(0xfff8000000000abc),
	}
	checkMatchesEncodingBinary(t, []int32{0, 1, -1, -12345, math.MinInt32, math.MaxInt32, 0x01020304},
		func(u uint64) int32 { return int32(u) })
	checkMatchesEncodingBinary(t, []int64{0, 1, -1, -1 << 40, math.MinInt64, math.MaxInt64, 0x0102030405060708},
		func(u uint64) int64 { return int64(u) })
	checkMatchesEncodingBinary(t, []uint32{0, 1, math.MaxUint32, 0x80000000},
		func(u uint64) uint32 { return uint32(u) })
	checkMatchesEncodingBinary(t, []uint64{0, 1, math.MaxUint64, 1 << 63},
		func(u uint64) uint64 { return u })
	checkMatchesEncodingBinary(t, append([]float32{0, float32(math.Copysign(0, -1)), -1.5, math.MaxFloat32, -math.MaxFloat32,
		math.SmallestNonzeroFloat32, float32(math.Inf(1)), float32(math.Inf(-1))}, nan32...),
		func(u uint64) float32 { return math.Float32frombits(uint32(u)) })
	checkMatchesEncodingBinary(t, append([]float64{0, math.Copysign(0, -1), -1.5, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1)}, nan64...),
		math.Float64frombits)
}

// goldenBlocks are the blocks behind testdata/blocks.golden.
func goldenBlocks() (plain []*Block[int32], floats []*Block[float64], full []KeyedBlock[int32], refs []BlockRef) {
	b1 := &Block[int32]{Rect: dag.Rect{Row0: 0, Col0: 4, Rows: 2, Cols: 3}, Cells: []int32{-1, 0, 1, math.MaxInt32, math.MinInt32, 0x01020304}}
	b2 := &Block[int32]{Rect: dag.Rect{Row0: 4, Col0: 0, Rows: 1, Cols: 2}, Cells: []int32{7, -7}}
	bf := &Block[float64]{Rect: dag.Rect{Row0: 2, Col0: 2, Rows: 1, Cols: 4},
		Cells: []float64{math.Copysign(0, -1), math.Inf(1), math.Float64frombits(0x7ff8000000000001), -1.5}}
	var k1, k2 [32]byte
	for i := range k1 {
		k1[i] = byte(i)
		k2[i] = byte(0xff - i)
	}
	return []*Block[int32]{b1, b2}, []*Block[float64]{bf},
		[]KeyedBlock[int32]{{Key: k1, Block: b1}},
		[]BlockRef{{Key: k2, Rect: dag.Rect{Row0: 8, Col0: 8, Rows: 2, Cols: 2}}}
}

func readGolden(t *testing.T) map[string][]byte {
	t.Helper()
	f, err := os.Open("testdata/blocks.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string][]byte{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hx, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		if out[name], err = hex.DecodeString(hx); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEncodeBlocksGolden pins the wire bytes: checkpoint logs, spill files
// and cas entries store these payloads, and cas keys hash them.
func TestEncodeBlocksGolden(t *testing.T) {
	golden := readGolden(t)
	plain, floats, full, refs := goldenBlocks()
	check := func(name string, got []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		want, ok := golden[name]
		if !ok {
			t.Fatalf("no golden payload %q", name)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s:\n got %x\nwant %x", name, got, want)
		}
	}
	data, err := EncodeBlocks(BinaryCodec[int32]{}, plain)
	check("plain-int32", data, err)
	data, err = EncodeBlocks(BinaryCodec[float64]{}, floats)
	check("plain-float64", data, err)
	data, err = EncodeBlocksKeyed(BinaryCodec[int32]{}, full, refs)
	check("keyed-int32", data, err)

	// The golden payloads decode back to the blocks they were made from.
	blocks, err := DecodeBlocks(BinaryCodec[int32]{}, golden["plain-int32"])
	if err != nil {
		t.Fatal(err)
	}
	again, err := EncodeBlocks(BinaryCodec[int32]{}, blocks)
	check("plain-int32", again, err)
	held := NewBlock[int32](refs[0].Rect)
	blocks, keyed, err := DecodeBlocksAny(BinaryCodec[int32]{}, golden["keyed-int32"],
		func(k [32]byte) (*Block[int32], bool) { return held, k == refs[0].Key }, nil)
	if err != nil || !keyed || len(blocks) != 2 || blocks[1] != held {
		t.Fatalf("keyed golden decoded to %v keyed=%v err=%v", blocks, keyed, err)
	}
	again, err = EncodeBlocksKeyed(BinaryCodec[int32]{}, []KeyedBlock[int32]{{Key: full[0].Key, Block: blocks[0]}}, refs)
	check("keyed-int32", again, err)
}

// TestBinaryCodecZeroAlloc gates the hot path: encoding into a buffer
// with room and decoding from any reader allocate nothing, and
// EncodeBlocks allocates only the payload it returns.
func TestBinaryCodecZeroAlloc(t *testing.T) {
	c := BinaryCodec[int32]{}
	cells := make([]int32, 64*64)
	for i := range cells {
		cells[i] = int32(i) - 100
	}
	var buf bytes.Buffer
	buf.Grow(4 * len(cells))
	if n := testing.AllocsPerRun(100, func() {
		buf.Reset()
		if err := c.EncodeCells(&buf, cells); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("EncodeCells into a pre-grown buffer: %v allocs per call, want 0", n)
	}
	data := bytes.Clone(buf.Bytes())
	r := bytes.NewReader(data)
	// The staging chunk comes from a sync.Pool. The race detector makes
	// Put drop a quarter of its items at random; AllocsPerRun's integer
	// average still reads 0 unless every call allocates.
	if n := testing.AllocsPerRun(100, func() {
		r.Reset(data)
		if err := c.DecodeCells(r, cells); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeCells: %v allocs per call, want 0", n)
	}
	blocks := []*Block[int32]{{Rect: dag.Rect{Rows: 64, Cols: 64}, Cells: cells}}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := EncodeBlocks(c, blocks); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("EncodeBlocks: %v allocs per call, want 1 (the payload)", n)
	}
}

// allocatedBy returns the heap bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func le32s(vs ...int32) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

// gobLongCount is a gob message count of 9 MiB (a negated width of 3,
// then 0x900000 big-endian) and 12 bytes of the message, 16 in all.
var gobLongCount = append([]byte{0xfd, 0x90, 0, 0}, make([]byte, 12)...)

// gobSliceClaim returns a gob stream for []int32 whose value message
// claims n elements and carries none.
func gobSliceClaim(t testing.TB, n uint32) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode([]int32{}); err != nil {
		t.Fatal(err)
	}
	// The last message is the value: the type id, a zero field delta and
	// the slice length 0.
	b := buf.Bytes()
	last := 0
	for off := 0; off < len(b); {
		n, rest, ok := gobUint(b[off:])
		if !ok {
			t.Fatalf("gob stream %x: bad message count at %d", b, off)
		}
		last, off = off, len(b)-len(rest)+int(n)
	}
	_, value, _ := gobUint(b[last:])
	if !bytes.HasSuffix(value, []byte{0, 0}) {
		t.Fatalf("gob value message %x does not end in a zero delta and length", value)
	}
	claim := slices.Concat(value[:len(value)-2], []byte{0x00, 0xfc, byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)})
	return slices.Concat(b[:last], []byte{byte(len(claim))}, claim)
}

// TestDecodeBlocksBoundsAllocation feeds headers that claim far more than
// the payload holds. Each must be rejected before its claim is allocated:
// a decoder at a trust boundary may not be made to allocate megabytes by
// a few bytes.
func TestDecodeBlocksBoundsAllocation(t *testing.T) {
	key := make([]byte, 32)
	cases := []struct {
		name string
		data []byte
	}{
		{"plain count 1<<22", le32s(1 << 22)},
		{"plain 2048x2048 header", le32s(1, 0, 0, 2048, 2048)},
		{"plain rows*cols overflows int32", le32s(1, 0, 0, math.MaxInt32, math.MaxInt32)},
		{"plain cells one byte short", append(le32s(1, 0, 0, 2, 2), make([]byte, 15)...)},
		{"keyed count 1<<22", le32s(-(1 << 22) - 1)},
		{"keyed min count", le32s(math.MinInt32)},
		{"keyed 2048x2048 header", append(le32s(-2, 0, 0, 2048, 2048), key...)},
		{"keyed rows*cols overflows int32", append(le32s(-2, 0, 0, math.MaxInt32, math.MaxInt32), key...)},
		{"plain trailing byte", append(le32s(1, 0, 0, 1, 1, 5), 0)},
		{"keyed trailing byte", append(append(append(le32s(-2, 0, 0, 1, 1), key...), le32s(5)...), 0)},
		// A 1×16 block whose gob message claims 9 MiB: encoding/gob
		// would stage that much before finding the bytes missing.
		{"plain gob message length 9 MiB", append(le32s(1, 0, 0, 1, 16), gobLongCount...)},
		{"keyed gob message length 9 MiB", append(append(le32s(-2, 0, 0, 1, 16), key...), gobLongCount...)},
		// A 1×16 block whose short gob value message claims 1<<20 cells:
		// encoding/gob would size the slice before reading an element.
		{"plain gob slice of 1<<20 cells", append(le32s(1, 0, 0, 1, 16), gobSliceClaim(t, 1<<20)...)},
		{"keyed gob slice of 1<<20 cells", append(append(le32s(-2, 0, 0, 1, 16), key...), gobSliceClaim(t, 1<<20)...)},
	}
	const limit = 64 << 10
	for _, tc := range cases {
		var errPlain, errAny, errGob error
		n := allocatedBy(func() {
			_, errPlain = DecodeBlocks(BinaryCodec[int32]{}, tc.data)
			_, _, errAny = DecodeBlocksAny(BinaryCodec[int32]{}, tc.data, nil, nil)
			_, _, errGob = DecodeBlocksAny(GobCodec[int32]{}, tc.data, nil, nil)
		})
		if errPlain == nil || errAny == nil || errGob == nil {
			t.Errorf("%s: accepted (DecodeBlocks %v, DecodeBlocksAny %v, gob %v)", tc.name, errPlain, errAny, errGob)
		}
		if n > limit {
			t.Errorf("%s: decoders allocated %d bytes for a %d-byte payload (limit %d)", tc.name, n, len(tc.data), limit)
		}
	}
}

// TestGobCodecLongMessages round-trips gob payloads whose messages are
// long enough to need multi-byte counts, through the block decoders and
// through a reader without Len, so the frame check passes every
// well-formed count whichever way the cells are read.
func TestGobCodecLongMessages(t *testing.T) {
	c := GobCodec[int64]{}
	b := NewBlock[int64](dag.Rect{Row0: 3, Col0: 1, Rows: 40, Cols: 50})
	for k := range b.Cells {
		b.Cells[k] = math.MinInt64 + int64(k)*0x1234567
	}
	data, err := EncodeBlocks(c, []*Block[int64]{b, b})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBlocks(c, data)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range got {
		if g.Rect != b.Rect || !slices.Equal(g.Cells, b.Cells) {
			t.Fatalf("decoded block %v differs from %v", g.Rect, b.Rect)
		}
	}
	var buf bytes.Buffer
	if err := c.EncodeCells(&buf, b.Cells); err != nil {
		t.Fatal(err)
	}
	cells := make([]int64, len(b.Cells))
	if err := c.DecodeCells(io.MultiReader(&buf), cells); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(cells, b.Cells) {
		t.Fatal("DecodeCells through a plain reader changed the cells")
	}
}
