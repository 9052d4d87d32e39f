package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/trace"
)

// inProcess describes one in-process workload: core.Run of a DP kernel
// over two related DNA sequences of length n, on the deployment cfg.
type inProcess struct {
	name string
	n    int
	cfg  core.Config
	// checkpoint writes the checkpoint log to a file (one append per
	// processor-level block) and replays it after every solve.
	checkpoint bool
	build      func(a, b []byte) (core.Problem[int32], func() [][]int32)
}

// runWavefront: edit distance is a 2D/0D wavefront whose cell costs almost
// nothing, so the runtime around the cell sets the speed — codec, buffer
// allocation and scheduling idle time.
func runWavefront(o options) (*report, error) {
	return inProcess{
		name: "wavefront-editdist",
		n:    4096,
		cfg: core.Config{
			Slaves: 2, Threads: 1,
			ProcPartition: dag.Square(256), ThreadPartition: dag.Square(64),
			RunTimeout: time.Minute,
		},
		build: func(a, b []byte) (core.Problem[int32], func() [][]int32) {
			k := dp.NewEditDistance(a, b)
			return k.Problem(), k.Sequential
		},
	}.run(o)
}

// runRowCol: SWGG is 2D/1D row-column with an O(i+j) cell, so the kernel
// and view access dominate; one slave with two threads puts the parallel
// work on the thread-level pool, and the checkpoint log is on.
func runRowCol(o options) (*report, error) {
	return inProcess{
		name: "rowcol-swgg",
		n:    512,
		cfg: core.Config{
			Slaves: 1, Threads: 2,
			ProcPartition: dag.Square(64), ThreadPartition: dag.Square(16),
			RunTimeout: time.Minute,
		},
		checkpoint: true,
		build: func(a, b []byte) (core.Problem[int32], func() [][]int32) {
			k := dp.NewSWGG(a, b)
			return k.Problem(), k.Sequential
		},
	}.run(o)
}

// setups is how many times a run repeats its set-up; setup_s is the
// median. The machine's speed drifts over seconds, so a run spreads its
// set-ups over the measured window instead of bunching them at its start.
const setups = 9

// solveSample is what one solve measured.
type solveSample struct {
	wall              time.Duration
	allocBytes        uint64
	mallocs           uint64
	stats             core.Stats
	summary           trace.Summary // traced solves only
	messages, shipped int64
	ckptRecords       int
}

func (w inProcess) run(o options) (*report, error) {
	rep := newReport()
	cells := float64(w.n) * float64(w.n)

	// Set-up: generate the inputs from the seed and compute the
	// sequential reference every solve is checked against. Every set-up
	// starts from a collected heap, like every solve.
	var (
		p                   core.Problem[int32]
		ref                 [][]int32
		setupTimes, seqTime []float64
	)
	setUp := func() {
		runtime.GC()
		start := time.Now()
		a := dp.RandomDNA(w.n, o.seed)
		b := dp.MutateSeq(a, dp.DNAAlphabet, 0.15, o.seed+1)
		var seq func() [][]int32
		p, seq = w.build(a, b)
		seqStart := time.Now()
		ref = seq()
		seqTime = append(seqTime, time.Since(seqStart).Seconds())
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	setUp()

	var rec *recorder
	if o.traced {
		rec = &recorder{}
	}
	ckptPath := filepath.Join(scratchDir, fmt.Sprintf("%s-%d.ckpt", w.name, o.seed))
	defer os.Remove(ckptPath)

	check := func(s solveSample, res *core.Result[int32], err error) bool {
		rep.attempted++
		if err != nil {
			rep.fail("solve: %v", err)
			return false
		}
		if msg := sameMatrix(p.Name, res, ref); msg != "" {
			rep.fail("%s", msg)
			return false
		}
		if w.checkpoint && int64(s.ckptRecords) != s.stats.Tasks {
			rep.fail("checkpoint replay found %d records, want Stats.Tasks = %d", s.ckptRecords, s.stats.Tasks)
			return false
		}
		return true
	}
	// One warm-up solve lets the heap grow to its working size before
	// timing; it is checked like every other solve.
	check(w.solve(p, nil, 0, ckptPath))

	var plain, traced []solveSample
	windowStart := time.Now()
	deadline := windowStart.Add(o.seconds)
	for i := 0; time.Now().Before(deadline) || (i < 8 && (len(plain) == 0 || (o.traced && len(traced) == 0))); i++ {
		// Set-up k runs once k/setups of the window has passed. It
		// rebuilds the same inputs and reference; the solves keep
		// checking against the last one.
		for len(setupTimes) < setups && time.Since(windowStart) >= time.Duration(len(setupTimes))*o.seconds/setups {
			setUp()
		}
		// A traced run alternates untraced and traced solves, so drift in
		// the machine's speed hits both sides of trace_overhead alike.
		var r *recorder
		if o.traced && i%2 == 1 {
			r = rec
		}
		s, res, err := w.solve(p, r, int64(i+1), ckptPath)
		if !check(s, res, err) {
			continue
		}
		if r != nil {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}

	for len(setupTimes) < setups {
		setUp()
	}

	walls := func(ss []solveSample) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = s.wall.Seconds()
		}
		return out
	}
	wall := walls(plain)
	n := len(plain)
	noteN := fmt.Sprintf("(median of %d solves)", n)
	if !o.traced {
		var bytes, mallocs []float64
		total := 0.0
		for _, s := range plain {
			bytes = append(bytes, float64(s.allocBytes))
			mallocs = append(mallocs, float64(s.mallocs))
			total += s.wall.Seconds()
		}
		rep.set("cells_per_s", ratio(cells, median(wall)), "cells/s", fmt.Sprintf("(%.0f cells / median solve of %d)", cells, n))
		rep.set("alloc_bytes_per_cell", median(bytes)/cells, "B/cell", noteN)
		rep.set("allocs_per_solve", median(mallocs), "count", noteN)
		rep.set("jobs_per_s", ratio(float64(n), total), "1/s", fmt.Sprintf("(%d solves in %.2f s of solving)", n, total))
		rep.set("job_latency_p50_ms", median(wall)*1e3, "ms", noteN)
		rep.set("job_latency_p99_ms", percentile(wall, 0.99)*1e3, "ms",
			fmt.Sprintf("(n=%d, %d beyond p99: the slowest solve)", n, beyond(n, 0.99)))
		rep.set("setup_s", median(setupTimes), "s", fmt.Sprintf("(median of %d set-ups)", setups))
		return rep, nil
	}

	spans := rec.all()
	t := layerTotals(spans)
	get := func(name string) *layerTotal {
		if x := t[name]; x != nil {
			return x
		}
		return &layerTotal{}
	}
	k := len(traced)
	enc, dec := get(spanEncode), get(spanDecode)
	var busy, util, iwr, peak, msgs, shipped float64
	for _, s := range traced {
		for _, b := range s.summary.Busy {
			busy += b.Seconds()
		}
		util += s.summary.Utilization()
		iwr += s.summary.IdleWhileReady.Seconds()
		peak += float64(s.stats.PeakBlocks)
		msgs += float64(s.messages)
		shipped += float64(s.shipped)
	}
	codecS := enc.total.Seconds() + dec.total.Seconds()
	perSolve := fmt.Sprintf("(per solve, %d traced solves)", k)
	rep.set("matrix.encode_s", perOp(enc.total.Seconds(), k), "s", perSolve)
	rep.set("matrix.decode_s", perOp(dec.total.Seconds(), k), "s", perSolve)
	rep.set("matrix.codec_bytes", perOp(float64(enc.bytes), k), "B", "(bytes encoded "+perSolve[1:])
	rep.set("matrix.codec_mb_per_s", ratio(float64(enc.bytes+dec.bytes)/1e6, codecS), "MB/s",
		fmt.Sprintf("(%.0f MB encoded+decoded / %.3f s in the codec)", float64(enc.bytes+dec.bytes)/1e6, codecS))
	rep.set("core.slave_task_s", perOp(get(spanSlaveTask).total.Seconds(), k), "s", perSolve)
	rep.set("core.compute_s", perOp(get(spanSlaveTask).own.Seconds(), k), "s", "(slave task minus its codec and send spans, "+perSolve[1:])
	rep.set("core.slave_idle_s", perOp(get(spanSlaveIdle).total.Seconds(), k), "s", "(slaves blocked in Recv, "+perSolve[1:])
	rep.set("core.utilization", perOp(util, k), "ratio", "(trace.Summary busy / makespan x workers, mean of traced solves)")
	rep.set("core.idle_while_ready_s", perOp(iwr, k), "s", perSolve)
	rep.set("core.peak_blocks", perOp(peak, k), "count", fmt.Sprintf("(Stats.PeakBlocks of %d blocks, mean of traced solves)", p.Size.Cells()/w.cfg.ProcPartition.Cells()))
	rep.set("comm.messages", perOp(msgs, k), "count", perSolve)
	rep.set("comm.payload_bytes_per_cell", perOp(shipped, k)/cells, "B/cell", fmt.Sprintf("(%.0f payload bytes / %.0f cells)", perOp(shipped, k), cells))
	rep.set("comm.send_s", perOp(get(spanSend).total.Seconds(), k), "s", perSolve)
	rep.set("dp.seq_cells_per_s", ratio(cells, median(seqTime)), "cells/s", fmt.Sprintf("(dp Sequential, median of %d set-ups)", setups))
	ck := get(spanCheckpoint)
	rep.set("checkpoint.append_s", perOp(ck.total.Seconds(), k), "s", fmt.Sprintf("(%d writes, %s", ck.count, perSolve[1:]))
	rep.set("checkpoint.bytes", perOp(float64(ck.bytes), k), "B", perSolve)
	for _, name := range []string{"cas.server_hit_ratio", "cas.master_hit_ratio", "cas.wire_ref_ratio"} {
		rep.set(name, 0, "ratio", "(no cache on this workload: 0 of 0 lookups)")
	}
	rep.set("cas.block_bytes", 0, "B", "(no cache on this workload)")
	rep.set("server.submit_ms_p50", 0, "ms", "(no server on this workload)")
	rep.set("server.polls_per_job", 0, "count", "(no server on this workload)")
	rep.set("fleet.dispatches_per_job", 0, "count", "(no fleet on this workload)")
	rep.set("fleet.task_bytes_per_job", 0, "B", "(no fleet on this workload)")
	rep.set("fleet.worker_codec_s", 0, "s", "(no fleet on this workload)")
	tracedWall := median(walls(traced))
	rep.set("bench.trace_overhead", 1-ratio(median(wall), tracedWall), "ratio",
		fmt.Sprintf("(1 - cells_per_s traced/untraced: median solve %.4f s traced (n=%d) vs %.4f s untraced (n=%d))", tracedWall, k, median(wall), n))

	// Runtime busy time runs from the master's TaskStart, which follows
	// its encoding of the task's inputs, to its TaskEnd, which follows
	// its decoding of the result. So only the slaves' codec calls (the
	// children of a slave task span) and the master's decodes fall
	// inside it; the master's encodes are reported beside it.
	parentName := make(map[int64]string, len(spans))
	for _, s := range spans {
		parentName[s.ID] = s.Name
	}
	var slaveCodec, masterDecode, masterEncode float64
	for _, s := range spans {
		switch {
		case s.Name != spanEncode && s.Name != spanDecode:
		case parentName[s.Parent] == spanSlaveTask:
			slaveCodec += s.dur().Seconds()
		case s.Name == spanDecode:
			masterDecode += s.dur().Seconds()
		default:
			masterEncode += s.dur().Seconds()
		}
	}
	rep.extra = append(rep.extra,
		fmt.Sprintf("  codec time inside runtime busy time / busy time = %.3f (%.3f s slave encode+decode + %.3f s master result decode, of %.3f s busy per solve)",
			ratio(slaveCodec+masterDecode, busy), perOp(slaveCodec, k), perOp(masterDecode, k), perOp(busy, k)),
		fmt.Sprintf("  master task-input encode, outside busy time: %.3f s per solve", perOp(masterEncode, k)))
	rep.extra = append(rep.extra, selfTimeLines(spans, k, "solve")...)
	path := filepath.Join(scratchDir, fmt.Sprintf("spans-%s-%d.csv", w.name, o.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	rep.extra = append(rep.extra, "  spans written to "+path)
	return rep, nil
}

// solve runs p once. Without a recorder it calls core.Run, the entry
// point users call; with one it drives core.RunMaster and core.RunSlave
// over comm.NewChanNetwork itself, so that the codec, the transport
// endpoints and the checkpoint writer can be decorated.
func (w inProcess) solve(p core.Problem[int32], rec *recorder, op int64, ckptPath string) (solveSample, *core.Result[int32], error) {
	var s solveSample
	cfg := w.cfg
	var ckpt *os.File
	if w.checkpoint {
		f, err := os.Create(ckptPath)
		if err != nil {
			return s, nil, err
		}
		defer f.Close()
		ckpt = f
		cfg.Checkpoint = f
	}

	var res *core.Result[int32]
	var err error
	// Every solve starts from a collected heap, so the garbage of the
	// previous solve and of its check is not charged to this one.
	runtime.GC()
	if rec == nil {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		res, err = core.Run(p, cfg)
		s.wall = time.Since(start)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return s, nil, err
		}
		s.allocBytes = m1.TotalAlloc - m0.TotalAlloc
		s.mallocs = m1.Mallocs - m0.Mallocs
		s.messages, s.shipped = res.Stats.Messages, res.Stats.PayloadBytes
	} else {
		res, err = w.tracedSolve(p, cfg, rec, op, ckpt, &s)
		if err != nil {
			return s, nil, err
		}
	}
	s.stats = res.Stats
	if ckpt != nil {
		if err := ckpt.Close(); err != nil {
			return s, nil, err
		}
		f, err := os.Open(ckptPath)
		if err != nil {
			return s, nil, err
		}
		defer f.Close()
		s.ckptRecords, err = checkpoint.Replay(f, func(int32, []byte) error { return nil })
		if err != nil {
			return s, nil, err
		}
	}
	return s, res, nil
}

func (w inProcess) tracedSolve(p core.Problem[int32], cfg core.Config, rec *recorder, op int64, ckpt *os.File, s *solveSample) (*core.Result[int32], error) {
	solve := rec.newID()
	nw := comm.NewChanNetwork(cfg.Slaves+1, comm.LatencyModel{})
	defer nw.Close()
	cfg.Trace = trace.New()
	master := &scope{op: op, parent: solve}
	if ckpt != nil {
		cfg.Checkpoint = timedWriter{w: ckpt, rec: rec, sc: master}
	}
	slaveErrs := make([]error, cfg.Slaves+1)
	var wg sync.WaitGroup
	for r := 1; r <= cfg.Slaves; r++ {
		sc := &scope{op: op, parent: solve}
		sp := p
		sp.Codec = timedCodec[int32]{inner: p.Codec, rec: rec, sc: sc}
		ep := &slaveEndpoint{Transport: nw.Endpoint(r), rec: rec, sc: sc, solve: solve}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			slaveErrs[r] = core.RunSlave(sp, cfg, ep)
		}(r)
	}
	mp := p
	mp.Codec = timedCodec[int32]{inner: p.Codec, rec: rec, sc: master}
	start := time.Now()
	res, err := core.RunMaster(mp, cfg, masterEndpoint{Transport: nw.Endpoint(0), rec: rec, sc: master})
	end := time.Now()
	nw.Close()
	wg.Wait()
	s.wall = end.Sub(start)
	rec.add(span{ID: solve, Name: spanSolve, Op: op, Start: start, End: end})
	if err != nil {
		return nil, err
	}
	for r, e := range slaveErrs {
		if e != nil {
			return nil, fmt.Errorf("slave %d: %w", r, e)
		}
	}
	s.messages, s.shipped = nw.Traffic()
	s.summary = cfg.Trace.Summarize()
	return res, nil
}

// sameMatrix compares a solve's blocks cell for cell with the sequential
// reference and describes the first difference.
func sameMatrix(name string, res *core.Result[int32], ref [][]int32) string {
	g := res.Store.Geometry()
	for r := 0; r < g.Grid.Rows; r++ {
		for c := 0; c < g.Grid.Cols; c++ {
			b := res.Store.Get(dag.Pos{Row: r, Col: c})
			if b == nil {
				return fmt.Sprintf("block (%d,%d) missing from the result", r, c)
			}
			rc := b.Rect
			for i := rc.Row0; i < rc.Row0+rc.Rows; i++ {
				row := b.Cells[(i-rc.Row0)*rc.Cols : (i-rc.Row0+1)*rc.Cols]
				want := ref[i][rc.Col0 : rc.Col0+rc.Cols]
				for j := range row {
					if row[j] != want[j] {
						return fmt.Sprintf("%s: cell (%d,%d) = %d, sequential %d", name, i, rc.Col0+j, row[j], want[j])
					}
				}
			}
		}
	}
	return ""
}
