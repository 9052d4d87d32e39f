package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cas"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/fleet"
	"repro/internal/server"
)

// The service-mixed load. Jobs alternate edit distance and Nussinov with
// explicit sequences; every fourth pair of submissions repeats one of a
// small hot set, so a fixed quarter of the load can be answered from the
// server-layer cache and the rest cannot.
const (
	clients      = 2
	editLen      = 256
	foldLen      = 128
	hotPerKernel = 4
	repeatShare  = 0.25
	// pollInterval is how long a client waits between status polls. It
	// bounds the latency resolution and adds load, so it is fixed.
	pollInterval = 2 * time.Millisecond
	jobTimeout   = 30 * time.Second
	// tracePhase is the length of the alternating untraced and traced
	// phases of a traced run.
	tracePhase = time.Second
	// serviceSetups is how many set-ups a service-mixed run makes. One
	// takes only ~35 ms and varies by a third from one to the next, so
	// it takes more of them than the in-process workloads for a steady
	// median.
	serviceSetups = 25
)

// mix derives an independent input seed for stream position i.
func mix(seed, i int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// jobSpec returns job i of the seeded stream and a key naming the distinct
// spec (repeats of one hot spec share a key).
func jobSpec(seed, i int64) (server.JobSpec, string) {
	edit := i%2 == 0
	s, key := mix(seed, i), fmt.Sprintf("job-%d", i)
	if pair := i / 2; pair%4 == 3 {
		h := (pair / 4) % hotPerKernel
		s, key = mix(seed, -1-2*h-i%2), fmt.Sprintf("hot-%d-%d", i%2, h)
	}
	if edit {
		a := dp.RandomDNA(editLen, s)
		b := dp.MutateSeq(a, dp.DNAAlphabet, 0.15, s+1)
		return server.JobSpec{Kernel: "editdist", SeqA: string(a), SeqB: string(b)}, key
	}
	return server.JobSpec{Kernel: "nussinov", SeqA: string(dp.RandomRNA(foldLen, s))}, key
}

// warmSpec is a job outside the stream, run once per set-up.
func warmSpec(seed int64, k int) server.JobSpec {
	spec, _ := jobSpec(mix(seed, 1<<40), int64(k))
	return spec
}

// reference solves spec with the dp package's sequential code and returns
// the value the service must answer.
func reference(spec server.JobSpec) (int64, error) {
	switch spec.Kernel {
	case "editdist":
		k := dp.NewEditDistance([]byte(spec.SeqA), []byte(spec.SeqB))
		return int64(k.Distance(k.Sequential())), nil
	case "nussinov":
		m := dp.NewNussinov([]byte(spec.SeqA)).Sequential()
		return int64(m[0][len(spec.SeqA)-1]), nil
	}
	return 0, fmt.Errorf("no reference for kernel %q", spec.Kernel)
}

// stack is the service under test: cas store, fleet on loopback TCP with
// two in-process workers, job manager and HTTP listener, plus the clients.
type stack struct {
	store   *cas.Store
	fl      *fleet.Fleet[int32]
	mgr     *server.Manager
	srv     *http.Server
	served  chan error
	cancel  context.CancelFunc
	workers sync.WaitGroup
	clients []*client.Client
	conns   []*http.Transport
}

// startStack brings the service up at the easyhps-serve defaults with the
// cache on. With a recorder, the workers' codec is decorated; gate decides
// per call whether it records.
func startStack(rec *recorder, gate func() bool) (*stack, error) {
	store, err := cas.NewStore(cas.Options{MaxBytes: 256 << 20})
	if err != nil {
		return nil, err
	}
	fl, err := fleet.New[int32](fleet.Options{Addr: "127.0.0.1:0", Batch: 1, Cache: store})
	if err != nil {
		return nil, err
	}
	s := &stack{store: store, fl: fl, served: make(chan error, 1)}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	build := server.RegistryBuilder(server.NewRegistry())
	if rec != nil {
		build = tracedBuilder(build, rec, gate)
	}
	for w := 0; w < 2; w++ {
		s.workers.Add(1)
		go func(w int) {
			defer s.workers.Done()
			// A worker's error surfaces as failed or timed-out jobs.
			_ = fleet.RunWorker(ctx, build, fleet.WorkerOptions{
				Addr: fl.Addr(), Name: fmt.Sprintf("w%d", w), Run: core.Config{Threads: 1},
			})
		}(w)
	}
	for deadline := time.Now().Add(10 * time.Second); fl.Snapshot().Members.States["active"] < 2; {
		if time.Now().After(deadline) {
			s.close()
			return nil, errors.New("fleet workers did not join within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	s.mgr = server.NewManager(server.ManagerConfig{
		Run:           core.Config{Slaves: 3, Threads: 4, RunTimeout: 15 * time.Minute},
		Fleet:         fl,
		Cache:         store,
		MaxConcurrent: 2,
		QueueDepth:    16,
		MaxCells:      16 << 20,
	}, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.srv = &http.Server{Handler: server.NewHandler(s.mgr)}
	go func() { s.served <- s.srv.Serve(ln) }()
	for c := 0; c < clients; c++ {
		// One connection per client: a closed-loop client never has two
		// requests outstanding.
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		s.conns = append(s.conns, tr)
		s.clients = append(s.clients, client.New("http://"+ln.Addr().String(), &http.Client{Transport: tr}))
	}
	return s, nil
}

// tracedBuilder decorates the codec of every problem a fleet worker builds,
// attributing its spans to the server's job number.
func tracedBuilder(build fleet.Builder[int32], rec *recorder, gate func() bool) fleet.Builder[int32] {
	return func(meta fleet.JobMeta) (core.Problem[int32], error) {
		p, err := build(meta)
		if err != nil {
			return p, err
		}
		p.Codec = timedCodec[int32]{inner: p.Codec, rec: rec, sc: &scope{op: jobNumber(meta.Name)}, gate: gate}
		return p, nil
	}
}

func jobNumber(id string) int64 {
	n, _ := strconv.ParseInt(strings.TrimPrefix(id, "job-"), 10, 64)
	return n
}

func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.srv != nil {
		_ = s.srv.Shutdown(ctx) // a forced close still ends Serve
		<-s.served
	}
	if s.mgr != nil {
		_ = s.mgr.Shutdown(ctx) // no job is in flight once the clients returned
	}
	s.fl.Close()
	s.cancel()
	s.workers.Wait()
	for _, tr := range s.conns {
		tr.CloseIdleConnections()
	}
}

// outcome is what the load generator saw of one job.
type outcome struct {
	index   int64
	key     string
	start   time.Time
	latency time.Duration
	traced  bool
	polls   int
	err     error
	result  server.JobResult
	submit  time.Duration
}

// runJob submits spec, polls its status until it is terminal, and fetches
// the result. Nothing is retried: a 429, an error or a timeout is the
// job's outcome.
func runJob(cl *client.Client, spec server.JobSpec, rec *recorder) outcome {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	var o outcome
	job := int64(0)
	var op int64
	if rec != nil {
		job = rec.newID()
	}
	call := func(name string, f func() error) error {
		start := time.Now()
		err := f()
		if rec != nil {
			rec.add(span{Name: name, Parent: job, Op: op, Start: start, End: time.Now()})
		}
		return err
	}
	o.start = time.Now()
	var st server.JobStatus
	err := call(spanSubmit, func() error {
		var err error
		st, err = cl.Submit(ctx, spec)
		op = jobNumber(st.ID)
		return err
	})
	o.submit = time.Since(o.start)
	for err == nil && !st.State.Terminal() {
		time.Sleep(pollInterval)
		o.polls++
		err = call(spanStatus, func() error {
			var err error
			st, err = cl.Status(ctx, st.ID)
			return err
		})
	}
	o.latency = time.Since(o.start)
	if rec != nil {
		rec.add(span{ID: job, Name: spanJob, Op: op, Start: o.start, End: o.start.Add(o.latency)})
	}
	switch {
	case err != nil:
		o.err = err
		return o
	case st.State != server.StateDone:
		o.err = fmt.Errorf("%s ended %s: %s", st.ID, st.State, st.Error)
		return o
	}
	o.err = call(spanResult, func() error {
		var err error
		o.result, err = cl.Result(ctx, st.ID)
		return err
	})
	return o
}

// phaser alternates untraced and traced phases of a traced service run.
type phaser struct{ start atomic.Int64 }

func (p *phaser) traced() bool {
	s := p.start.Load()
	return s != 0 && (time.Now().UnixNano()-s)/int64(tracePhase)%2 == 1
}

func runService(o options) (*report, error) {
	rep := newReport()
	var rec *recorder
	var ph phaser
	if o.traced {
		rec = &recorder{}
	}

	// Set-up: bring the stack up and answer one job of each kernel. A
	// set-up cannot run inside the measured window without loading the
	// service under test, so the run spreads its set-ups over both ends
	// of the window instead: the last one before it serves the window,
	// and every other stack is torn down again.
	var setupTimes []float64
	setUp := func() (*stack, error) {
		runtime.GC()
		start := time.Now()
		s, err := startStack(rec, ph.traced)
		if err != nil {
			return nil, err
		}
		var warm [2]outcome
		for k := range warm {
			warm[k] = runJob(s.clients[0], warmSpec(o.seed, k), nil)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		for k, oc := range warm {
			rep.attempted++
			spec := warmSpec(o.seed, k)
			if oc.err != nil {
				rep.fail("warm-up job: %v", oc.err)
			} else if want, err := reference(spec); err != nil || oc.result.Value != want {
				rep.fail("warm-up %s answered %d, sequential %d (%v)", spec.Kernel, oc.result.Value, want, err)
			}
		}
		return s, nil
	}
	var st *stack
	for i := 0; i < serviceSetups-serviceSetups/2; i++ {
		if st != nil {
			st.close()
		}
		var err error
		if st, err = setUp(); err != nil {
			return nil, err
		}
	}

	// The measured window: a closed loop of two clients over one shared
	// job stream.
	var next atomic.Int64
	per := make([][]outcome, clients)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if o.traced {
		ph.start.Store(start.UnixNano())
	}
	deadline := start.Add(o.seconds)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				spec, key := jobSpec(o.seed, i)
				var r *recorder
				traced := ph.traced()
				if traced {
					r = rec
				}
				oc := runJob(st.clients[c], spec, r)
				oc.index, oc.key, oc.traced = i, key, traced
				per[c] = append(per[c], oc)
			}
		}(c)
	}
	wg.Wait()
	window := time.Since(start)
	runtime.ReadMemStats(&m1)
	ph.start.Store(0)
	snap := st.store.Snapshot()
	st.close()
	for len(setupTimes) < serviceSetups {
		s, err := setUp()
		if err != nil {
			return nil, err
		}
		s.close()
	}

	// Check every answer against the sequential solve of its spec.
	var all []outcome
	for _, oc := range per {
		all = append(all, oc...)
	}
	refs := make(map[string]int64)
	var seqTime time.Duration
	var seqCells float64
	var latencies []float64
	var cells, cached float64
	for _, oc := range all {
		rep.attempted++
		if oc.err != nil {
			rep.fail("job %d: %v", oc.index, oc.err)
			continue
		}
		want, ok := refs[oc.key]
		if !ok {
			spec, _ := jobSpec(o.seed, oc.index)
			t := time.Now()
			v, err := reference(spec)
			seqTime += time.Since(t)
			if err != nil {
				return nil, err
			}
			seqCells += float64(oc.result.Cells)
			want, refs[oc.key] = v, v
		}
		if oc.result.Value != want {
			rep.fail("job %d (%s): service answered %d, sequential %d", oc.index, oc.result.Kernel, oc.result.Value, want)
			continue
		}
		latencies = append(latencies, float64(oc.latency)/float64(time.Millisecond))
		cells += float64(oc.result.Cells)
		if oc.result.Cached {
			cached++
		}
	}
	n := len(latencies)
	rep.extra = append(rep.extra, fmt.Sprintf("  closed loop: %d clients, status poll every %v, fixed repeat share %.2f; measured cache hit share %.4f (%.0f of %d answered jobs)",
		clients, pollInterval, repeatShare, ratio(cached, float64(n)), cached, n))

	if !o.traced {
		if beyond(n, 0.99) < 10 {
			rep.extra = append(rep.extra, fmt.Sprintf("  WARNING: only %d samples beyond p99", beyond(n, 0.99)))
		}
		rep.set("cells_per_s", ratio(cells, window.Seconds()), "cells/s", fmt.Sprintf("(%.0f cells of %d answered jobs / %.2f s)", cells, n, window.Seconds()))
		rep.set("alloc_bytes_per_cell", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), cells), "B/cell", "(whole process: service, workers and clients)")
		rep.set("allocs_per_solve", ratio(float64(m1.Mallocs-m0.Mallocs), float64(n)), "count", fmt.Sprintf("(per job, whole process, %d jobs)", n))
		rep.set("jobs_per_s", ratio(float64(n), window.Seconds()), "1/s", fmt.Sprintf("(%d jobs / %.2f s)", n, window.Seconds()))
		rep.set("job_latency_p50_ms", percentile(latencies, 0.5), "ms", fmt.Sprintf("(n=%d)", n))
		rep.set("job_latency_p99_ms", percentile(latencies, 0.99), "ms", fmt.Sprintf("(n=%d, %d beyond)", n, beyond(n, 0.99)))
		rep.set("setup_s", median(setupTimes), "s", fmt.Sprintf("(median of %d set-ups)", serviceSetups))
		return rep, nil
	}

	// Per-layer numbers come from the jobs started in traced phases.
	spans := rec.all()
	t := layerTotals(spans)
	get := func(name string) *layerTotal {
		if x := t[name]; x != nil {
			return x
		}
		return &layerTotal{}
	}
	var tracedJobs, computed, dispatches, taskBytes, polls float64
	var submits []float64
	var jobsIn [2]float64
	for _, oc := range all {
		polls += float64(oc.polls)
		if oc.err != nil {
			continue
		}
		phase := 0
		if oc.traced {
			phase = 1
			tracedJobs++
			submits = append(submits, float64(oc.submit)/float64(time.Millisecond))
		}
		jobsIn[phase]++
		if !oc.result.Cached {
			computed++
			dispatches += float64(oc.result.Stats.Dispatches)
			taskBytes += float64(oc.result.Stats.TaskBytes)
		}
	}
	var timeIn [2]float64
	for p := time.Duration(0); p < window; p += tracePhase {
		timeIn[int(p/tracePhase)%2] += min(tracePhase, window-p).Seconds()
	}
	k := int(tracedJobs)
	enc, dec := get(spanEncode), get(spanDecode)
	codecS := enc.total.Seconds() + dec.total.Seconds()
	perJob := fmt.Sprintf("(per job, %d traced jobs)", k)
	rep.set("matrix.encode_s", perOp(enc.total.Seconds(), k), "s", "(fleet workers, "+perJob[1:])
	rep.set("matrix.decode_s", perOp(dec.total.Seconds(), k), "s", "(fleet workers, "+perJob[1:])
	rep.set("matrix.codec_bytes", perOp(float64(enc.bytes), k), "B", "(bytes encoded by fleet workers, "+perJob[1:])
	rep.set("matrix.codec_mb_per_s", ratio(float64(enc.bytes+dec.bytes)/1e6, codecS), "MB/s",
		fmt.Sprintf("(%.1f MB encoded+decoded / %.3f s in the codec)", float64(enc.bytes+dec.bytes)/1e6, codecS))
	for _, name := range []string{"core.slave_task_s", "core.compute_s", "core.slave_idle_s", "core.idle_while_ready_s", "comm.send_s"} {
		rep.set(name, 0, "s", "(not measured: fleet workers own their TCP transport)")
	}
	rep.set("core.utilization", 0, "ratio", "(not measured on the service path)")
	rep.set("core.peak_blocks", 0, "count", "(not measured on the service path)")
	rep.set("comm.messages", 0, "count", "(not measured: fleet workers own their TCP transport)")
	rep.set("comm.payload_bytes_per_cell", 0, "B/cell", "(see fleet.task_bytes_per_job)")
	rep.set("dp.seq_cells_per_s", ratio(seqCells, seqTime.Seconds()), "cells/s", fmt.Sprintf("(dp Sequential over %d distinct specs)", len(refs)))
	rep.set("checkpoint.append_s", 0, "s", "(no checkpoint on this workload)")
	rep.set("checkpoint.bytes", 0, "B", "(no checkpoint on this workload)")
	layerRatio := func(name string, l cas.Layer) {
		h, m := snap.Hits[l], snap.Misses[l]
		rep.set(name, ratio(float64(h), float64(h+m)), "ratio", fmt.Sprintf("(%d hits of %d lookups)", h, h+m))
	}
	layerRatio("cas.server_hit_ratio", cas.LayerServer)
	layerRatio("cas.master_hit_ratio", cas.LayerMaster)
	layerRatio("cas.wire_ref_ratio", cas.LayerWire)
	rep.set("cas.block_bytes", float64(snap.Bytes), "B", fmt.Sprintf("(resident at the end: %d blocks, %d whole-job entries)", snap.Blocks, snap.Jobs))
	rep.set("server.submit_ms_p50", median(submits), "ms", fmt.Sprintf("(n=%d traced submits)", len(submits)))
	rep.set("server.polls_per_job", ratio(polls, float64(len(all))), "count", fmt.Sprintf("(%.0f polls / %d jobs)", polls, len(all)))
	rep.set("fleet.dispatches_per_job", ratio(dispatches, computed), "count", fmt.Sprintf("(%.0f dispatches / %.0f computed jobs)", dispatches, computed))
	rep.set("fleet.task_bytes_per_job", ratio(taskBytes, computed), "B", fmt.Sprintf("(%.0f task bytes / %.0f computed jobs)", taskBytes, computed))
	rep.set("fleet.worker_codec_s", perOp(codecS, k), "s", perJob)
	untracedRate, tracedRate := ratio(jobsIn[0], timeIn[0]), ratio(jobsIn[1], timeIn[1])
	rep.set("bench.trace_overhead", 1-ratio(tracedRate, untracedRate), "ratio",
		fmt.Sprintf("(1 - jobs_per_s traced/untraced: %.1f/s over %.0f jobs traced vs %.1f/s over %.0f jobs untraced)", tracedRate, jobsIn[1], untracedRate, jobsIn[0]))
	rep.extra = append(rep.extra, selfTimeLines(spans, k, "job")...)
	path := filepath.Join(scratchDir, fmt.Sprintf("spans-service-mixed-%d.csv", o.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	rep.extra = append(rep.extra, "  spans written to "+path)
	return rep, nil
}
