package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/dag"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// runSlave executes the slave part (Figs. 11-12 of the paper) over
// transport tr: announce idleness, receive a processor-level sub-task,
// re-partition it with thread_partition_size into a slave DAG, execute the
// sub-sub-tasks on the slave worker pool, and return the computed block.
// It returns when the master sends the end signal or the transport closes.
func runSlave[T any](p Problem[T], cfg Config, tr comm.Transport, faults *faultState, ctrs *counters) error {
	geom := dag.MatrixGeometry(p.Size, cfg.ProcPartition)
	rank := tr.Rank()
	// cache holds every block this slave has received or computed when
	// delta shipping is enabled; blocks are immutable once complete, so
	// the cache never goes stale within a run.
	var cache []*matrix.Block[T]
	var free freeList[T]
	// run decodes one task's data region, computes its block and encodes
	// the result. The task's blocks come from and go back to the free list,
	// except under delta shipping, whose cache keeps them.
	run := func(v int32, payload []byte) ([]byte, error) {
		inputs, err := matrix.DecodeBlocksWith(p.Codec, payload, free.get)
		if err != nil {
			return nil, fmt.Errorf("core: slave %d decoding task %d: %w", rank, v, err)
		}
		if cfg.DeltaShipping {
			cache = append(cache, inputs...)
			inputs = cache
		}
		rect := geom.Rect(geom.PosOf(v))
		out, reusable := computeBlock(p, cfg, rect, inputs, free.zeroed, faults, v, ctrs)
		if cfg.DeltaShipping {
			cache = append(cache, out)
		}
		result, err := matrix.EncodeBlocks(p.Codec, []*matrix.Block[T]{out})
		if err != nil {
			return nil, fmt.Errorf("core: slave %d encoding result %d: %w", rank, v, err)
		}
		if reusable && !cfg.DeltaShipping {
			free.put(inputs...)
			free.put(out)
		}
		return result, nil
	}
	if err := tr.Send(0, comm.Message{Kind: comm.KindIdle}); err != nil {
		// The master finished (and closed the transport) before this
		// slave's first word: the run is over, exactly as a failed Recv.
		return nil
	}
	for {
		msg, err := tr.Recv()
		if err != nil {
			return nil // transport closed: the run is over
		}
		switch msg.Kind {
		case comm.KindEnd:
			return nil
		default:
			// The master only ever sends tasks, batches and End on this
			// transport; anything else is corruption. Die loudly so the
			// timeout path reassigns this slave's work.
			return fmt.Errorf("core: slave %d received unexpected %v frame", rank, msg.Kind)
		case comm.KindTask:
			if faults.crashNow(msg.Vertex) {
				// Injected node failure: die without a word.
				return nil
			}
			if d := faults.stallTask(msg.Vertex); d > 0 {
				time.Sleep(d)
			}
			payload, err := run(msg.Vertex, msg.Payload)
			if err != nil {
				return err
			}
			if err := tr.Send(0, comm.Message{
				Kind: comm.KindResult, Vertex: msg.Vertex, Attempt: msg.Attempt, Payload: payload,
			}); err != nil {
				return nil
			}
		case comm.KindTaskBatch:
			// Entries are mutually independent (the master draws them all
			// from one ready set), so they execute sequentially through
			// the same per-vertex path, with results coalesced and
			// flushed every cfg.Batch entries. Non-final flushes carry
			// More so the master does not re-arm this slave's sender
			// while the batch is still executing.
			flushBound := cfg.Batch
			if flushBound < 1 {
				flushBound = 1
			}
			var results []comm.TaskEntry
			for idx, e := range msg.Batch {
				if faults.crashNow(e.Vertex) {
					// Injected node failure mid-batch: results not yet
					// flushed are lost with the node.
					return nil
				}
				if d := faults.stallTask(e.Vertex); d > 0 {
					time.Sleep(d)
				}
				payload, err := run(e.Vertex, e.Payload)
				if err != nil {
					return err
				}
				results = append(results, comm.TaskEntry{Vertex: e.Vertex, Attempt: e.Attempt, Payload: payload})
				if len(results) >= flushBound && idx < len(msg.Batch)-1 {
					if err := tr.Send(0, comm.Message{Kind: comm.KindResultBatch, Batch: results, More: true}); err != nil {
						return nil
					}
					results = nil
				}
			}
			var final comm.Message
			switch len(results) {
			case 0:
				// Nothing left to flush (an empty batch, which the master
				// never sends): announce idleness so the sender re-arms.
				final = comm.Message{Kind: comm.KindIdle}
			case 1:
				final = comm.Message{Kind: comm.KindResult, Vertex: results[0].Vertex, Attempt: results[0].Attempt, Payload: results[0].Payload}
			default:
				final = comm.Message{Kind: comm.KindResultBatch, Batch: results}
			}
			if err := tr.Send(0, final); err != nil {
				return nil
			}
		}
	}
}

// freeList recycles a slave's block buffers from one task to the next. A
// slave touches its list only from its receive loop.
type freeList[T any] struct {
	free []*matrix.Block[T]
}

// get returns a block covering r, reusing a free buffer that is large
// enough when there is one. A reused block's cells keep stale values:
// get serves the decoder, which overwrites every cell.
func (l *freeList[T]) get(r dag.Rect) *matrix.Block[T] {
	b, _ := l.take(r)
	return b
}

// zeroed is get with every cell zero, as a computed block needs: its
// pattern holes are never written and must read zero.
func (l *freeList[T]) zeroed(r dag.Rect) *matrix.Block[T] {
	b, reused := l.take(r)
	if reused {
		clear(b.Cells)
	}
	return b
}

func (l *freeList[T]) take(r dag.Rect) (b *matrix.Block[T], reused bool) {
	for i := len(l.free) - 1; i >= 0; i-- {
		if b := l.free[i]; reshape(b, r) {
			l.free[i] = l.free[len(l.free)-1]
			l.free[len(l.free)-1] = nil
			l.free = l.free[:len(l.free)-1]
			return b, true
		}
	}
	return matrix.NewBlock[T](r), false
}

func (l *freeList[T]) put(blocks ...*matrix.Block[T]) {
	l.free = append(l.free, blocks...)
}

// reshape re-aims b at r, if b's buffer can hold r, and reports whether
// it could. The cells keep whatever values they held.
func reshape[T any](b *matrix.Block[T], r dag.Rect) bool {
	n := r.Cells()
	if cap(b.Cells) < n {
		return false
	}
	b.Rect, b.Cells = r, b.Cells[:n]
	return true
}

// jitterFactor returns a deterministic multiplier in [1-amp, 1+amp) keyed
// by the processor-level task identity (splitmix64 finalizer). Keying at
// task granularity models content-dependent block cost — real DP blocks
// differ in branch behaviour, cache footprint and node background load —
// which is the variance a static schedule cannot adapt to. Runs remain
// reproducible.
func jitterFactor(proc, sub int32, amp float64) float64 {
	if amp <= 0 {
		return 1
	}
	_ = sub // sub-task share the task's factor; see above
	h := uint64(uint32(proc)) + 0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	u := float64(h%(1<<20))/float64(1<<19) - 1 // [-1, 1)
	return 1 + amp*u
}

// computeBlock is the thread-level parallelization of one processor-level
// sub-task: the block's cell region is partitioned again with
// thread_partition_size, the slave DAG Data Driven Model is built over the
// sub-blocks, and a pool of compute goroutines drains it. The slave
// fault-tolerance goroutine watches the slave overtime queue, re-pushing
// overdue sub-sub-tasks; panicking workers are recovered in place (the
// goroutine equivalent of restarting a dead compute thread).
//
// The output block comes from alloc, which must return it zeroed. Each
// compute goroutine reuses one scratch block across its sub-sub-tasks.
// reusable reports whether the caller may recycle out and the inputs: it
// is false once a sub-sub-task was re-pushed, because the superseded
// execution may still be reading them after the block completes.
func computeBlock[T any](p Problem[T], cfg Config, rect dag.Rect, inputs []*matrix.Block[T], alloc func(dag.Rect) *matrix.Block[T], faults *faultState, procID int32, ctrs *counters) (out *matrix.Block[T], reusable bool) {
	out = alloc(rect)
	pat := p.Kernel.Pattern()
	tgeom := dag.NewGeometry(rect, cfg.ThreadPartition)
	graph := dag.Build(pat, tgeom)
	parser := dag.NewParser(graph)

	var disp sched.Dispatcher
	switch cfg.Policy {
	case PolicyBlockCyclic:
		disp = sched.NewBlockCyclic(graph, cfg.Threads, cfg.BCWBlockCols)
	default:
		// PolicyAffinity degenerates to plain dynamic here: inside one
		// node memory is shared, so locality has nothing to optimize.
		disp = sched.NewDynamic()
	}
	disp.Ready(parser.InitialReady()...)

	n := p.Size
	exists := func(i, j int) bool {
		return i >= 0 && j >= 0 && i < n.Rows && j < n.Cols && pat.CellExists(i, j)
	}
	// Reads of region cells outside the current sub-block resolve against
	// the shared output block (its cells are complete by DAG order);
	// reads outside the region resolve against the shipped input blocks.
	readLayers := append([]*matrix.Block[T]{out}, inputs...)

	ot := sched.NewOvertimeQueue()
	done := make(chan struct{})
	var attemptCtr atomic.Int32

	var acceptMu sync.Mutex
	accepted := make([]bool, len(graph.Verts))
	panics := make([]int, len(graph.Verts))
	scratches := make([]*matrix.Block[T], cfg.Threads) // one per compute goroutine
	left := graph.N

	// accept commits a computed sub-block exactly once: the scratch cells
	// are copied into the shared output block, the slave DAG is updated,
	// and newly computable sub-sub-tasks are released. Duplicate
	// executions (after a timeout re-push) are discarded here.
	accept := func(sub int32, scratch *matrix.Block[T]) {
		acceptMu.Lock()
		if accepted[sub] {
			acceptMu.Unlock()
			return
		}
		accepted[sub] = true
		for i := scratch.Rect.Row0; i < scratch.Rect.Row0+scratch.Rect.Rows; i++ {
			for j := scratch.Rect.Col0; j < scratch.Rect.Col0+scratch.Rect.Cols; j++ {
				out.Set(i, j, scratch.At(i, j))
			}
		}
		left--
		finished := left == 0
		acceptMu.Unlock()

		ot.Remove(sub)
		disp.Ready(parser.Complete(sub)...)
		if finished {
			close(done)
			disp.Close()
		}
	}

	// requeued is set before a re-push can happen, so a re-push of a
	// sub-sub-task that is not yet accepted is visible once done closes.
	var requeued atomic.Bool
	requeue := func(sub int32) {
		requeued.Store(true)
		acceptMu.Lock()
		dup := accepted[sub]
		acceptMu.Unlock()
		if !dup {
			disp.Requeue(sub)
		}
	}

	// execute runs one sub-sub-task in a scratch block, recovering from
	// kernel panics (worker restart semantics). A sub-sub-task that
	// panics more than MaxAttempts times indicates a deterministic
	// kernel bug, not a transient fault: the panic is re-raised so the
	// defect surfaces instead of looping through recovery forever.
	execute := func(w int, sub int32) {
		defer func() {
			if r := recover(); r != nil {
				acceptMu.Lock()
				panics[sub]++
				giveUp := panics[sub] >= cfg.MaxAttempts
				acceptMu.Unlock()
				if giveUp {
					panic(fmt.Sprintf("core: sub-task %v panicked %d times (MaxAttempts): %v", SubTaskID{Proc: procID, Sub: sub}, cfg.MaxAttempts, r))
				}
				ctrs.workerRestarts.Add(1)
				requeue(sub)
			}
		}()
		subRect := tgeom.Rect(graph.Vertex(sub).Pos)
		scratch := scratches[w]
		if scratch != nil && reshape(scratch, subRect) {
			clear(scratch.Cells) // accept copies the holes into out too
		} else {
			scratch = matrix.NewBlock[T](subRect)
			scratches[w] = scratch
		}
		view := matrix.NewView(scratch, readLayers, exists, p.Kernel.Boundary)
		ot.Add(sub, attemptCtr.Add(1), time.Now().Add(cfg.SubTaskTimeout))

		id := SubTaskID{Proc: procID, Sub: sub}
		if faults.panicSubTask(id) {
			panic(fmt.Sprintf("core: injected sub-task panic %v", id))
		}
		if d := faults.stallSubTask(id); d > 0 {
			time.Sleep(d)
		}

		kern := p.Kernel
		cost, _ := any(kern).(CostModel)
		units := 0.0
		pat.CellOrder(subRect, func(i, j int) {
			scratch.Set(i, j, kern.Cell(view, i, j))
			if cost != nil {
				units += cost.CellCost(i, j)
			} else {
				units++
			}
		})
		if cfg.WorkDelayPerCell > 0 {
			// Emulated computation weight; see Config.WorkDelayPerCell,
			// Config.WorkJitter and the CostModel interface.
			units *= jitterFactor(procID, sub, cfg.WorkJitter)
			time.Sleep(time.Duration(units * float64(cfg.WorkDelayPerCell)))
		}
		ctrs.subTasks.Add(1)
		accept(sub, scratch)
	}

	for w := 0; w < cfg.Threads; w++ {
		go func(w int) {
			for {
				sub, ok := disp.Next(w)
				if !ok {
					return
				}
				execute(w, sub)
			}
		}(w)
	}

	// Slave fault-tolerance thread: watch the slave overtime queue and
	// re-push overdue sub-sub-tasks.
	go func() {
		ticker := time.NewTicker(cfg.CheckInterval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-ticker.C:
				for _, e := range ot.ExpireBefore(now) {
					ctrs.subRequeues.Add(1)
					requeue(e.ID)
				}
			}
		}
	}()

	<-done
	// Without a re-push every execution was accepted, and each accept
	// happens before done closes: nothing reads out or the inputs any more.
	return out, !requeued.Load()
}
