package core

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/matrix"
)

// indexKernel sets every cell to a function of its coordinates and reads
// nothing, so a block's contents are known without a reference run.
type indexKernel struct{ pat dag.Pattern }

func (k indexKernel) Pattern() dag.Pattern                     { return k.pat }
func (indexKernel) Boundary(i, j int) int32                    { return 0 }
func (indexKernel) Cell(_ *matrix.View[int32], i, j int) int32 { return int32(100*i + j + 1) }

func dirtyBlock(r dag.Rect) *matrix.Block[int32] {
	b := matrix.NewBlock[int32](r)
	for i := range b.Cells {
		b.Cells[i] = -7
	}
	return b
}

// TestFreeListRecyclesZeroedBuffers checks that both get and zeroed
// reuse a large enough free buffer, that only zeroed clears it, and that
// a buffer too small is never reused.
func TestFreeListRecyclesZeroedBuffers(t *testing.T) {
	r := dag.Rect{Row0: 4, Col0: 8, Rows: 2, Cols: 3}
	for _, tc := range []struct {
		name string
		get  func(*freeList[int32], dag.Rect) *matrix.Block[int32]
		want int32
	}{
		{"get", (*freeList[int32]).get, -7},
		{"zeroed", (*freeList[int32]).zeroed, 0},
	} {
		var l freeList[int32]
		a := dirtyBlock(dag.Rect{Rows: 4, Cols: 4})
		l.put(a)
		b := tc.get(&l, r)
		if b != a {
			t.Fatalf("%s: a free buffer large enough was not reused", tc.name)
		}
		if b.Rect != r || len(b.Cells) != r.Cells() {
			t.Fatalf("%s: reused block covers %v with %d cells, want %v with %d", tc.name, b.Rect, len(b.Cells), r, r.Cells())
		}
		for k, v := range b.Cells {
			if v != tc.want {
				t.Fatalf("%s: reused cell %d = %d, want %d", tc.name, k, v, tc.want)
			}
		}
		l.put(b)
		if c := tc.get(&l, dag.Rect{Rows: 5, Cols: 5}); c == a || len(c.Cells) != 25 {
			t.Fatalf("%s: a buffer too small was reused", tc.name)
		}
	}
}

// TestComputeBlockReusable computes a diagonal block of a triangular
// pattern into a dirty recycled buffer: cells below the diagonal are
// holes the kernel never writes, so they must still read zero. A
// sub-sub-task re-pushed after a panic must make the block non-reusable.
func TestComputeBlockReusable(t *testing.T) {
	p := Problem[int32]{Name: "index", Size: dag.Square(16), Kernel: indexKernel{dag.Triangular{}}, Codec: matrix.BinaryCodec[int32]{}}
	cfg, err := prepare(p, Config{Slaves: 1, Threads: 2, ProcPartition: dag.Square(8), ThreadPartition: dag.Square(4)})
	if err != nil {
		t.Fatal(err)
	}
	rect := dag.Rect{Rows: 8, Cols: 8}
	pat := p.Kernel.Pattern()
	for _, tc := range []struct {
		name     string
		faults   *faultState
		reusable bool
	}{
		{"clean", nil, true},
		{"re-pushed", newFaultState(FaultPlan{PanicSubTask: map[SubTaskID]bool{{Proc: 0, Sub: 0}: true}}), false},
	} {
		var l freeList[int32]
		l.put(dirtyBlock(rect))
		out, reusable := computeBlock(p, cfg, rect, nil, l.zeroed, tc.faults, 0, &counters{})
		if reusable != tc.reusable {
			t.Errorf("%s: reusable = %v, want %v", tc.name, reusable, tc.reusable)
		}
		for i := 0; i < rect.Rows; i++ {
			for j := 0; j < rect.Cols; j++ {
				want := int32(0)
				if pat.CellExists(i, j) {
					want = int32(100*i + j + 1)
				}
				if got := out.At(i, j); got != want {
					t.Fatalf("%s: cell (%d,%d) = %d, want %d", tc.name, i, j, got, want)
				}
			}
		}
	}
}
