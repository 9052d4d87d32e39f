package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/sched"
)

// testProblem builds the deterministic DP instance (and its sequential
// reference) for one fleet test job, keyed by name, so the worker-side
// builder can reconstruct the identical problem from an attach frame.
func testProblem(name string) (core.Problem[int32], [][]int32, error) {
	switch name {
	case "edit":
		e := dp.NewEditDistance(dp.RandomDNA(64, 11), dp.RandomDNA(64, 12))
		return e.Problem(), e.Sequential(), nil
	case "nussinov":
		nu := dp.NewNussinov(dp.RandomRNA(64, 13))
		return nu.Problem(), nu.Sequential(), nil
	case "swgg":
		s := dp.NewSWGG(dp.RandomDNA(48, 14), dp.RandomDNA(48, 15))
		return s.Problem(), s.Sequential(), nil
	case "healthy":
		e := dp.NewEditDistance(dp.RandomDNA(64, 21), dp.RandomDNA(64, 22))
		return e.Problem(), e.Sequential(), nil
	case "poisoned":
		e := dp.NewEditDistance(dp.RandomDNA(64, 23), dp.RandomDNA(64, 24))
		return e.Problem(), e.Sequential(), nil
	case "ckpt":
		e := dp.NewEditDistance(dp.RandomDNA(32, 31), dp.RandomDNA(32, 32))
		return e.Problem(), e.Sequential(), nil
	case "elastic":
		// Partitioned 8x8 by elasticJob: large enough that faults land
		// mid-run, small enough for the race detector.
		e := dp.NewEditDistance(dp.RandomDNA(64, 51), dp.RandomDNA(64, 52))
		return e.Problem(), e.Sequential(), nil
	case "straggler":
		// Smith-Waterman, whose narrow wavefront makes a slow worker gate
		// whole diagonals.
		a := dp.RandomDNA(64, 61)
		s := dp.NewSWGG(a, dp.MutateSeq(a, dp.DNAAlphabet, 0.3, 62))
		return s.Problem(), s.Sequential(), nil
	}
	return core.Problem[int32]{}, nil, fmt.Errorf("unknown test job %q", name)
}

func mustProblem(t *testing.T, name string) (core.Problem[int32], [][]int32) {
	t.Helper()
	p, want, err := testProblem(name)
	if err != nil {
		t.Fatal(err)
	}
	return p, want
}

// testBuilder is the worker-side half of testProblem.
func testBuilder(meta JobMeta) (core.Problem[int32], error) {
	p, _, err := testProblem(meta.Name)
	return p, err
}

func checkMatrix(t *testing.T, label string, got, want [][]int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: [%d][%d] = %d, want %d", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// waitUntil blocks until cond holds, woken by the fleet's progress
// notifier instead of polling: snapshot the generation, evaluate cond,
// then wait for the generation to move before re-checking, so no
// broadcast between check and wait is lost. The real-time timer only
// bounds a wedged fleet.
func waitUntil(t *testing.T, f *Fleet[int32], what string, cond func() bool) {
	t.Helper()
	timedOut := make(chan struct{})
	timer := time.AfterFunc(10*time.Second, func() {
		close(timedOut)
		f.noteProgress()
	})
	defer timer.Stop()
	for {
		gen := f.progressGeneration()
		if cond() {
			return
		}
		select {
		case <-timedOut:
			t.Fatalf("timed out waiting for %s", what)
		default:
		}
		f.waitProgress(gen, timedOut)
	}
}

// TestFleetConcurrentJobsWorkerKill is the shared-fleet integration test:
// three different DP jobs run concurrently over four workers, one worker
// is killed mid-run through its harness proxy, and every job must still
// assemble a matrix bit-identical to its sequential reference with a
// clean per-job lease audit.
func TestFleetConcurrentJobsWorkerKill(t *testing.T) {
	f, err := New[int32](Options{
		Addr:              "127.0.0.1:0",
		HeartbeatInterval: 50 * time.Millisecond,
		TaskTimeout:       20 * time.Second,
		Batch:             2,
		Speculate:         true,
		Steal:             true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	wctx, stopWorkers := context.WithCancel(context.Background())
	defer stopWorkers()
	// Four workers, each through a harness proxy: one announces hunger so
	// the steal path runs, and the last one is killed mid-run.
	wopts := WorkerOptions{
		HeartbeatInterval: 50 * time.Millisecond,
		Run:               core.Config{Threads: 2, Batch: 2},
	}
	hungry := wopts
	hungry.HungerAfter = 30 * time.Millisecond
	hh := NewHarness(testBuilder, f.Addr(), hungry)
	defer hh.Close()
	h := NewHarness(testBuilder, f.Addr(), wopts)
	defer h.Close()
	for i, hr := range []*Harness[int32]{hh, h, h, h} {
		idx, err := hr.Add(wctx)
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		hr.Slow(idx, 3*time.Millisecond)
	}

	jobs := []string{"edit", "nussinov", "swgg"}
	type outcome struct {
		res *Result[int32]
		err error
	}
	results := make([]outcome, len(jobs))
	var jwg sync.WaitGroup
	for i, name := range jobs {
		prob, _ := mustProblem(t, name)
		jwg.Add(1)
		go func(i int, name string, prob core.Problem[int32]) {
			defer jwg.Done()
			res, err := f.Run(context.Background(), prob, JobRequest{Name: name, Weight: float64(i + 1)})
			results[i] = outcome{res, err}
		}(i, name, prob)
	}

	// Sever the victim once the fleet is demonstrably mid-run.
	waitUntil(t, f, "mid-run progress", func() bool {
		return f.Snapshot().Aggregate.Tasks >= 16
	})
	h.Kill(2)

	jwg.Wait()
	for i, name := range jobs {
		if results[i].err != nil {
			t.Fatalf("job %s failed: %v", name, results[i].err)
		}
		_, want := mustProblem(t, name)
		checkMatrix(t, name, results[i].res.Store.Assemble(), want)
		if leaked := results[i].res.Stats.Leaked; leaked != 0 {
			t.Fatalf("job %s leaked %d attempts/leases", name, leaked)
		}
		if len(f.TraceEvents(name)) == 0 {
			t.Fatalf("job %s recorded no trace events", name)
		}
	}
	snap := f.Snapshot()
	if snap.States["done"] != len(jobs) || snap.States["running"] != 0 || snap.States["failed"] != 0 {
		t.Fatalf("job states = %v, want %d done", snap.States, len(jobs))
	}
	if snap.Aggregate.Deaths < 1 {
		t.Fatalf("deaths = %d, want the killed worker declared dead", snap.Aggregate.Deaths)
	}
	if snap.Aggregate.Tasks < int64(16) {
		t.Fatalf("aggregate tasks = %d, want the roll-up to count all jobs", snap.Aggregate.Tasks)
	}
	stopWorkers()
	f.Close()
}

// runSwallowDriver joins the fleet as a protocol-driver worker that
// computes every job honestly except the named one, whose tasks it
// swallows — answering nothing while claiming idleness, so the fleet
// keeps scheduling around the black hole. Returns on KindEnd.
func runSwallowDriver(addr, swallow string) error {
	cn, _, err := comm.DialHello(addr, comm.Hello{Fleet: true, Name: "driver"}, 5*time.Second)
	if err != nil {
		return err
	}
	defer cn.Close()
	runners := make(map[int32]*core.TaskRunner[int32])
	swallowed := make(map[int32]bool)
	if err := cn.Send(comm.Message{Kind: comm.KindIdle}); err != nil {
		return err
	}
	for {
		msg, err := cn.Recv()
		if err != nil {
			return err
		}
		switch msg.Kind {
		case comm.KindJobSpec:
			var meta JobMeta
			if err := json.Unmarshal(msg.Payload, &meta); err != nil {
				return err
			}
			if meta.Name == swallow {
				swallowed[meta.Job] = true
				continue
			}
			p, _, err := testProblem(meta.Name)
			if err != nil {
				return err
			}
			r, err := core.NewTaskRunner(p, core.Config{ProcPartition: meta.Proc, Threads: 1})
			if err != nil {
				return err
			}
			runners[meta.Job] = r
		case comm.KindTask:
			if swallowed[msg.Job] {
				if err := cn.Send(comm.Message{Kind: comm.KindIdle}); err != nil {
					return err
				}
				continue
			}
			r := runners[msg.Job]
			if r == nil {
				return fmt.Errorf("task for unattached job %d", msg.Job)
			}
			out, err := r.Run(msg.Vertex, msg.Payload)
			if err != nil {
				return err
			}
			if err := cn.Send(comm.Message{Kind: comm.KindResult, Job: msg.Job, Vertex: msg.Vertex, Attempt: msg.Attempt, Payload: out}); err != nil {
				return err
			}
		case comm.KindJobEnd, comm.KindHeartbeat:
		case comm.KindEnd:
			return nil
		}
	}
}

// TestFleetPoisonedJobIsolationFakeClock drives the per-job overtime path
// on a FakeClock: a job whose tasks a worker swallows must burn through
// its own MaxAttempts and fail alone, while a healthy job sharing the
// same worker completes bit-identically — the tenant-isolation contract.
func TestFleetPoisonedJobIsolationFakeClock(t *testing.T) {
	fake := sched.NewFakeClock(time.Unix(0, 0))
	const maxAttempts = 3
	f, err := New[int32](Options{
		Addr:              "127.0.0.1:0",
		HeartbeatInterval: time.Hour, // keep the membership sweep inert
		CheckInterval:     time.Second,
		TaskTimeout:       time.Hour, // jobs override; healthy never expires
		MaxAttempts:       maxAttempts,
		Clock:             fake,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fake.BlockUntilTickers(1)

	healthyProb, healthyWant := mustProblem(t, "healthy")
	poisonProb, _ := mustProblem(t, "poisoned")

	driverDone := make(chan error, 1)
	go func() { driverDone <- runSwallowDriver(f.Addr(), "poisoned") }()

	type outcome struct {
		res *Result[int32]
		err error
	}
	healthyCh := make(chan outcome, 1)
	poisonCh := make(chan outcome, 1)
	go func() {
		res, err := f.Run(context.Background(), healthyProb, JobRequest{Name: "healthy"})
		healthyCh <- outcome{res, err}
	}()
	go func() {
		res, err := f.Run(context.Background(), poisonProb, JobRequest{
			Name:        "poisoned",
			TaskTimeout: 500 * time.Millisecond,
			Quota:       2, // the poisoned job's retries stay bounded
		})
		poisonCh <- outcome{res, err}
	}()

	stats := func(name string) cluster.Stats {
		for _, j := range f.Snapshot().Jobs {
			if j.Name == name {
				return j.Stats
			}
		}
		return cluster.Stats{}
	}

	for round := 1; round <= maxAttempts; round++ {
		round := round
		waitUntil(t, f, "poisoned dispatch", func() bool {
			return stats("poisoned").Dispatches >= int64(round)
		})
		fake.Advance(f.opts.CheckInterval)
		if round < maxAttempts {
			waitUntil(t, f, "overtime redistribution", func() bool {
				return stats("poisoned").Redistributions >= int64(round)
			})
		}
	}

	pe := <-poisonCh
	if pe.err == nil || !strings.Contains(pe.err.Error(), "MaxAttempts") {
		t.Fatalf("poisoned job error = %v, want a MaxAttempts abort", pe.err)
	}
	he := <-healthyCh
	if he.err != nil {
		t.Fatalf("healthy job failed alongside the poisoned one: %v", he.err)
	}
	checkMatrix(t, "healthy", he.res.Store.Assemble(), healthyWant)
	if he.res.Stats.Leaked != 0 {
		t.Fatalf("healthy job leaked %d attempts/leases", he.res.Stats.Leaked)
	}
	snap := f.Snapshot()
	if snap.States["failed"] != 1 || snap.States["done"] != 1 {
		t.Fatalf("job states = %v, want one failed and one done", snap.States)
	}
	f.Close()
	<-driverDone // either nil (KindEnd) or the close race's conn error
}

// TestFleetNextBatchWeightedFairShare drives the policy through the real
// nextBatch path with prefilled ready stacks: the per-job draw counts
// must converge to the weight ratio and the normalized-service gap stay
// within one dispatch quantum.
func TestFleetNextBatchWeightedFairShare(t *testing.T) {
	f, err := New[int32](Options{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	prob, _ := mustProblem(t, "edit")
	mk := func(id int32, weight float64) *job[int32] {
		t.Helper()
		jb, err := newJob(id, prob, JobRequest{Name: fmt.Sprintf("j%d", id), Weight: weight}.withDefaults(f.opts), f.clock)
		if err != nil {
			t.Fatal(err)
		}
		for v := int32(0); v < 1024; v++ {
			jb.ready = append(jb.ready, v)
		}
		f.mu.Lock()
		f.jobs[id] = jb
		f.order = append(f.order, id)
		f.mu.Unlock()
		return jb
	}
	j1 := mk(1, 1)
	j2 := mk(2, 3)
	mc := &memberConn{stop: make(chan struct{})}
	counts := map[int32]int{}
	for i := 0; i < 400; i++ {
		jb, ids, ok := f.nextBatch(mc)
		if !ok {
			t.Fatal("nextBatch refused with work queued")
		}
		counts[jb.id] += len(ids)
	}
	if got, want := counts[2], 3*counts[1]; got < want-4 || got > want+4 {
		t.Fatalf("dispatch counts %v diverge from the 1:3 weight ratio", counts)
	}
	f.mu.Lock()
	gap := j1.served - j2.served
	f.mu.Unlock()
	if gap < -1.000001 || gap > 1.000001 {
		t.Fatalf("normalized-service gap %v exceeds one dispatch quantum", gap)
	}
}

// TestFleetNextBatchQuotaClampsBatch verifies the isolation bound at the
// draw site: a batch never exceeds the job's remaining quota room, and a
// stopped member's draw returns instead of blocking at quota.
func TestFleetNextBatchQuotaClampsBatch(t *testing.T) {
	f, err := New[int32](Options{Addr: "127.0.0.1:0", Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	prob, _ := mustProblem(t, "edit")
	jb, err := newJob(1, prob, JobRequest{Name: "q", Quota: 3}.withDefaults(f.opts), f.clock)
	if err != nil {
		t.Fatal(err)
	}
	jb.ready = []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	f.mu.Lock()
	f.jobs[1] = jb
	f.order = append(f.order, 1)
	f.mu.Unlock()

	mc := &memberConn{stop: make(chan struct{})}
	_, ids, ok := f.nextBatch(mc)
	if !ok || len(ids) != 3 {
		t.Fatalf("draw = (%v, %v), want a quota-clamped batch of 3", ids, ok)
	}
	// With the three leases in flight the job is at quota; a stopped
	// member must hand back control rather than wait forever.
	now := f.clock.Now()
	for i, v := range ids {
		jb.leases.Grant(v, 1, int32(i+1), now)
	}
	close(mc.stop)
	if _, _, ok := f.nextBatch(mc); ok {
		t.Fatal("stopped member still drew a batch")
	}
}

// TestFleetDispatchRetireOrdering pins the per-connection frame order
// around retirement: a batch racing the job's finish is dropped with its
// fresh lease unwound rather than sent, so a worker always sees
// JobSpec … tasks … JobEnd — never a task after the detach (which would
// kill the worker) and never a re-attach after JobEnd (which would leak
// the job's kernel state on the worker).
func TestFleetDispatchRetireOrdering(t *testing.T) {
	f, err := New[int32](Options{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	prob, _ := mustProblem(t, "nussinov")
	jb, err := newJob(1, prob, JobRequest{Name: "order"}.withDefaults(f.opts), f.clock)
	if err != nil {
		t.Fatal(err)
	}
	insertJob(t, f, jb)
	roots := jb.parser.InitialReady()
	if len(roots) < 2 {
		t.Fatalf("need two dependency-free vertices, got %d", len(roots))
	}

	// A real socket pair so the dispatch and detach frames cross a live
	// ordered connection.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srvCh := make(chan *comm.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		srvCh <- comm.NewConn(c, 0)
	}()
	wc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	worker := comm.NewConn(wc, 0)
	defer worker.Close()
	sc := <-srvCh
	defer sc.Close()
	mc := &memberConn{id: 1, cn: sc, idle: make(chan struct{}, 1), stop: make(chan struct{}), attached: make(map[int32]bool)}
	f.connMu.Lock()
	f.conns[1] = mc
	f.connMu.Unlock()

	// Mimic nextBatch's drawn charge so dispatch's undraw balances.
	draw := func() {
		f.mu.Lock()
		jb.drawn++
		f.mu.Unlock()
	}

	draw()
	if !f.dispatch(mc, jb, []int32{roots[0]}) {
		t.Fatal("dispatch refused a live job")
	}
	for _, want := range []comm.Kind{comm.KindJobSpec, comm.KindTask} {
		msg, err := worker.Recv()
		if err != nil || msg.Kind != want {
			t.Fatalf("worker got (%v, %v), want kind %v", msg.Kind, err, want)
		}
	}

	// Race the serialized re-check: hold the attach lock so a second
	// dispatch blocks right before its send, finish the job inside that
	// window, then let it through — the batch must be dropped and the
	// lease it granted unwound, not sent after the detach.
	draw()
	mc.attachMu.Lock()
	dispatched := make(chan bool, 1)
	go func() { dispatched <- f.dispatch(mc, jb, []int32{roots[1]}) }()
	waitUntil(t, f, "second dispatch leasing", func() bool { return jb.leases.Len() == 2 })
	jb.finish(nil, f.clock.Now())
	mc.attachMu.Unlock()
	if <-dispatched {
		t.Fatal("dispatch shipped a batch for a finishing job")
	}
	if got := jb.rt.LiveAttempts(roots[1]); got != 0 {
		t.Fatalf("dropped batch left %d live attempts", got)
	}
	if got := jb.leases.Len(); got != 1 {
		t.Fatalf("leases = %d after the dropped batch, want only the first dispatch's", got)
	}

	// Retirement detaches: the very next frame is JobEnd, and a late
	// dispatch afterwards neither sends nor re-attaches.
	f.retire(jb)
	msg, err := worker.Recv()
	if err != nil || msg.Kind != comm.KindJobEnd {
		t.Fatalf("worker got (%v, %v) after retirement, want JobEnd with no interleaved task", msg.Kind, err)
	}
	if got := jb.leases.Len(); got != 0 {
		t.Fatalf("retire left %d leases", got)
	}
	draw()
	if f.dispatch(mc, jb, []int32{roots[1]}) {
		t.Fatal("dispatch shipped a batch for a retired job")
	}
	mc.attachMu.Lock()
	attached := mc.attached[jb.id]
	mc.attachMu.Unlock()
	if attached {
		t.Fatal("retired job still attached to the member")
	}
}

// TestFleetCheckpointResume runs a checkpointed job to completion, then
// resubmits it to a fresh fleet with no workers at all: the entire run
// must replay from the checkpoint, bit-identically.
func TestFleetCheckpointResume(t *testing.T) {
	req := JobRequest{Name: "ckpt", CheckpointPath: t.TempDir() + "/job.ckpt"}
	prob, want := mustProblem(t, "ckpt")

	f1, err := New[int32](Options{Addr: "127.0.0.1:0", HeartbeatInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	wctx, stopWorker := context.WithCancel(context.Background())
	defer stopWorker()
	go func() {
		_ = RunWorker(wctx, testBuilder, WorkerOptions{
			Addr:              f1.Addr(),
			HeartbeatInterval: 50 * time.Millisecond,
			Run:               core.Config{Threads: 2},
		})
	}()
	r1, err := f1.Run(context.Background(), prob, req)
	if err != nil {
		t.Fatal(err)
	}
	f1.Close()
	checkMatrix(t, "first run", r1.Store.Assemble(), want)
	if r1.Stats.Leaked != 0 {
		t.Fatalf("first run leaked %d attempts/leases", r1.Stats.Leaked)
	}

	f2, err := New[int32](Options{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	r2, err := f2.Run(context.Background(), prob, req)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.Restored != r1.Stats.Tasks {
		t.Fatalf("restored %d vertices, want %d", r2.Stats.Restored, r1.Stats.Tasks)
	}
	checkMatrix(t, "restored run", r2.Store.Assemble(), want)
}

// TestRunWorkerRefusesSkew verifies the worker-side attach checks: a
// corrupted digest and a builder whose problem size diverges from the
// master's are both refused at attach time, not mid-run.
func TestRunWorkerRefusesSkew(t *testing.T) {
	serve := func(t *testing.T, meta JobMeta) string {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			cn := comm.NewConn(c, 0)
			if _, err := cn.RecvHello(2 * time.Second); err != nil {
				return
			}
			_ = cn.SendWelcome(comm.Welcome{Version: comm.ProtocolVersion, Member: 1})
			payload, _ := json.Marshal(meta)
			_ = cn.Send(comm.Message{Kind: comm.KindJobSpec, Job: meta.Job, Payload: payload})
		}()
		return ln.Addr().String()
	}

	t.Run("digest", func(t *testing.T) {
		meta := JobMeta{Job: 1, Name: "edit", Rows: 8, Cols: 8, Digest: "not-the-digest"}
		addr := serve(t, meta)
		err := RunWorker(context.Background(), testBuilder, WorkerOptions{Addr: addr, DialTimeout: 2 * time.Second})
		if err == nil || !strings.Contains(err.Error(), "digest mismatch") {
			t.Fatalf("RunWorker = %v, want a digest-mismatch refusal", err)
		}
	})
	t.Run("builder size", func(t *testing.T) {
		meta := JobMeta{Job: 1, Name: "edit", Rows: 3, Cols: 3, Proc: dag.Size{Rows: 1, Cols: 1}}
		meta.Digest = meta.digest()
		addr := serve(t, meta)
		err := RunWorker(context.Background(), testBuilder, WorkerOptions{Addr: addr, DialTimeout: 2 * time.Second})
		if err == nil || !strings.Contains(err.Error(), "builder/registry skew") {
			t.Fatalf("RunWorker = %v, want a builder/registry-skew refusal", err)
		}
	})
}
