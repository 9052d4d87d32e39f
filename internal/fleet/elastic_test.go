package fleet

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/trace"
)

// The tests in this file drive the single-job elastic deployment
// (easyhps-launch -elastic): one fleet running one job over a harness of
// workers that join, die, partition, straggle and leave.

// elasticFleet starts a fleet with the timing every single-job elastic
// test shares; tweak adjusts the options before New.
func elasticFleet(t testing.TB, tweak func(*Options)) *Fleet[int32] {
	t.Helper()
	opts := Options{
		Addr:              "127.0.0.1:0",
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatMiss:     3,
		TaskTimeout:       20 * time.Second,
	}
	if tweak != nil {
		tweak(&opts)
	}
	f, err := New[int32](opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func elasticWorkerOptions(workPerCell time.Duration) WorkerOptions {
	return WorkerOptions{
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatMiss:     3,
		DialTimeout:       10 * time.Second,
		Run:               core.Config{Threads: 2, WorkDelayPerCell: workPerCell},
	}
}

// elasticJob is the one job of an elastic run: the "elastic" problem as
// an 8x8 grid of processor-level vertices.
func elasticJob() JobRequest {
	return JobRequest{Name: "elastic", Proc: dag.Square(8), Thread: dag.Square(4), Timeout: 2 * time.Minute}
}

const elasticVertices = 64

// addMembers starts n harness workers and blocks until the fleet counts n
// live members — the -min-workers quorum of easyhps-launch.
func addMembers(t testing.TB, ctx context.Context, f *Fleet[int32], h *Harness[int32], n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := h.Add(ctx); err != nil {
			t.Fatal(err)
		}
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := f.WaitMembers(wctx, n); err != nil {
		t.Fatalf("waiting for %d members: %v", n, err)
	}
}

// progressTrigger returns an OnProgress hook that closes ch (once) when
// completion reaches threshold, so a test goroutine with proper
// happens-before edges can react off the fleet's receive loop.
func progressTrigger(threshold int, ch chan<- struct{}) func(done, total int) {
	var once sync.Once
	return func(done, total int) {
		if done >= threshold {
			once.Do(func() { close(ch) })
		}
	}
}

// Killing one of four workers mid-run must not affect the result: the
// dead member's leases are revoked and its vertices recomputed elsewhere.
func TestElasticKillWorker(t *testing.T) {
	prob, want := mustProblem(t, "elastic")
	f := elasticFleet(t, nil)
	defer f.Close()
	h := NewHarness(testBuilder, f.Addr(), elasticWorkerOptions(200*time.Microsecond))
	defer h.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addMembers(t, ctx, f, h, 4)

	req := elasticJob()
	killAt := make(chan struct{})
	req.OnProgress = progressTrigger(5, killAt)
	go func() {
		<-killAt
		h.Kill(0)
	}()
	res, err := f.Run(ctx, prob, req)
	if err != nil {
		t.Fatal(err)
	}
	checkMatrix(t, "kill-worker", res.Store.Assemble(), want)
	if _, _, deaths, _, _ := f.Registry().MembershipCounts(); deaths != 1 {
		t.Fatalf("deaths = %d, want 1", deaths)
	}
	if res.Stats.Tasks != elasticVertices {
		t.Fatalf("tasks = %d, want %d", res.Stats.Tasks, elasticVertices)
	}
	if res.Stats.Leaked != 0 {
		t.Fatalf("leaked = %d, want 0", res.Stats.Leaked)
	}
	if err := h.Err(0); err == nil {
		t.Fatal("killed worker exited cleanly")
	}
}

// A worker joining mid-run must be admitted and pull computable vertices.
func TestElasticJoinMidRun(t *testing.T) {
	prob, want := mustProblem(t, "elastic")
	tr := trace.New()
	f := elasticFleet(t, func(o *Options) { o.Trace = tr })
	defer f.Close()
	h := NewHarness(testBuilder, f.Addr(), elasticWorkerOptions(200*time.Microsecond))
	defer h.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addMembers(t, ctx, f, h, 1)
	h.Slow(0, 5*time.Millisecond) // keep the run alive for the joiner

	req := elasticJob()
	joinAt := make(chan struct{})
	req.OnProgress = progressTrigger(3, joinAt)
	go func() {
		<-joinAt
		if _, err := h.Add(ctx); err != nil {
			t.Errorf("mid-run join: %v", err)
		}
	}()
	res, err := f.Run(ctx, prob, req)
	if err != nil {
		t.Fatal(err)
	}
	checkMatrix(t, "join-mid-run", res.Store.Assemble(), want)
	if joins, _, _, _, _ := f.Registry().MembershipCounts(); joins != 2 {
		t.Fatalf("joins = %d, want 2", joins)
	}
	members := f.Registry().Members()
	if len(members) != 2 {
		t.Fatalf("members = %d, want 2", len(members))
	}
	if members[1].Completed == 0 {
		t.Fatal("mid-run joiner computed no vertices")
	}
	// The join must be visible to tracing.
	joins := 0
	for _, e := range tr.MemberEvents() {
		if e.Label == "active" {
			joins++
		}
	}
	if joins < 2 {
		t.Fatalf("trace shows %d activations, want >= 2", joins)
	}
}

// A master killed mid-run must resume from its checkpoint: restored
// vertices are not recomputed and the result is still correct.
func TestMasterRestartFromCheckpoint(t *testing.T) {
	prob, want := mustProblem(t, "elastic")
	ckpt := t.TempDir() + "/run.ckpt"

	f1 := elasticFleet(t, nil)
	h1 := NewHarness(testBuilder, f1.Addr(), elasticWorkerOptions(500*time.Microsecond))
	ctx1, cancel1 := context.WithCancel(context.Background())
	addMembers(t, ctx1, f1, h1, 2)
	req := elasticJob()
	req.CheckpointPath = ckpt
	stopAt := make(chan struct{})
	req.OnProgress = progressTrigger(20, stopAt)
	go func() {
		<-stopAt
		cancel1()
	}()
	if _, err := f1.Run(ctx1, prob, req); err == nil {
		t.Fatal("cancelled master reported success")
	}
	cancel1()
	f1.Close()
	h1.Close()

	// Second incarnation, same checkpoint path.
	f2 := elasticFleet(t, nil)
	defer f2.Close()
	h2 := NewHarness(testBuilder, f2.Addr(), elasticWorkerOptions(0))
	defer h2.Close()
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	addMembers(t, ctx2, f2, h2, 2)
	req = elasticJob()
	req.CheckpointPath = ckpt
	res, err := f2.Run(ctx2, prob, req)
	if err != nil {
		t.Fatal(err)
	}
	checkMatrix(t, "restart", res.Store.Assemble(), want)
	if res.Stats.Restored < 20 {
		t.Fatalf("restored = %d, want >= 20 (phase 1 completed at least that many)", res.Stats.Restored)
	}
	if res.Stats.Restored+res.Stats.Tasks != elasticVertices {
		t.Fatalf("restored %d + tasks %d != %d: completed vertices were recomputed",
			res.Stats.Restored, res.Stats.Tasks, elasticVertices)
	}
}

// A partitioned link (TCP open, no bytes flowing) must be detected by the
// heartbeat deadline and the member's work reassigned.
func TestPartitionedMemberDeclaredDead(t *testing.T) {
	prob, want := mustProblem(t, "elastic")
	f := elasticFleet(t, nil)
	defer f.Close()
	h := NewHarness(testBuilder, f.Addr(), elasticWorkerOptions(300*time.Microsecond))
	defer h.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addMembers(t, ctx, f, h, 3)

	req := elasticJob()
	cutAt := make(chan struct{})
	req.OnProgress = progressTrigger(5, cutAt)
	go func() {
		<-cutAt
		h.Partition(0)
	}()
	res, err := f.Run(ctx, prob, req)
	if err != nil {
		t.Fatal(err)
	}
	checkMatrix(t, "partition", res.Store.Assemble(), want)
	if _, _, deaths, _, _ := f.Registry().MembershipCounts(); deaths != 1 {
		t.Fatalf("deaths = %d, want 1 (partitioned member)", deaths)
	}
	if res.Stats.Leaked != 0 {
		t.Fatalf("leaked = %d, want 0", res.Stats.Leaked)
	}
}

// One of four workers is pathologically slow. With speculation on, the
// fleet must dispatch backup attempts for the straggler's vertices and
// finish correctly without a single overtime redistribution — the rescue
// is the speculative race, not the timeout path.
func TestSpeculationRescuesStraggler(t *testing.T) {
	prob, want := mustProblem(t, "elastic")
	// TaskTimeout (20s from elasticFleet) stays far above the test
	// runtime, so any rescue observed here is speculation's.
	f := elasticFleet(t, func(o *Options) {
		o.Speculate = true
		o.CheckInterval = 10 * time.Millisecond
	})
	defer f.Close()
	h := NewHarness(testBuilder, f.Addr(), elasticWorkerOptions(50*time.Microsecond))
	defer h.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addMembers(t, ctx, f, h, 4)
	h.Slow(0, 100*time.Millisecond)

	res, err := f.Run(ctx, prob, elasticJob())
	if err != nil {
		t.Fatal(err)
	}
	checkMatrix(t, "speculation", res.Store.Assemble(), want)
	if res.Stats.Tasks != elasticVertices {
		t.Fatalf("tasks = %d, want %d", res.Stats.Tasks, elasticVertices)
	}
	if res.Stats.Speculated == 0 {
		t.Fatal("no speculative backups dispatched for the straggler")
	}
	if res.Stats.Redistributions != 0 {
		t.Fatalf("redistributions = %d, want 0 (speculation must beat the timeout path)", res.Stats.Redistributions)
	}
	// Every race resolves: no worker died, so each backup is classified as
	// won or wasted by the arbitration.
	if got := res.Stats.SpecWon + res.Stats.SpecWasted; got != res.Stats.Speculated {
		t.Fatalf("won %d + wasted %d != speculated %d", res.Stats.SpecWon, res.Stats.SpecWasted, res.Stats.Speculated)
	}
	if res.Stats.Leaked != 0 {
		t.Fatalf("leaked = %d, want 0", res.Stats.Leaked)
	}
}

// Batched dispatch piles backlog onto a slow member; a drained fast
// member announces hunger and the fleet must steal the queued tail
// toward it. The victim still computes the stolen entries, so their
// results arrive with retired attempt stamps and are dropped as stale —
// never applied twice.
func TestStealRebalancesBacklog(t *testing.T) {
	prob, want := mustProblem(t, "elastic")
	f := elasticFleet(t, func(o *Options) {
		o.Steal = true
		o.Batch = 8
	})
	defer f.Close()
	wopts := elasticWorkerOptions(50 * time.Microsecond)
	wopts.Run.Batch = 8
	wopts.HungerAfter = 20 * time.Millisecond
	h := NewHarness(testBuilder, f.Addr(), wopts)
	defer h.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := h.Add(ctx); err != nil {
		t.Fatal(err)
	}
	h.Slow(0, 30*time.Millisecond) // slow before the fast member joins so batches pile up here
	addMembers(t, ctx, f, h, 1)
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	if err := f.WaitMembers(wctx, 2); err != nil {
		t.Fatal(err)
	}

	res, err := f.Run(ctx, prob, elasticJob())
	if err != nil {
		t.Fatal(err)
	}
	checkMatrix(t, "steal", res.Store.Assemble(), want)
	if res.Stats.Tasks != elasticVertices {
		t.Fatalf("tasks = %d, want %d", res.Stats.Tasks, elasticVertices)
	}
	if res.Stats.Steals == 0 {
		t.Fatal("no backlog stolen toward the hungry member")
	}
	// The victim computed every stolen vertex anyway; each such result
	// carries a cancelled attempt and must fall into the stale branch.
	if res.Stats.StaleResults < res.Stats.Steals {
		t.Fatalf("stale = %d < steals = %d: a stolen vertex's late result was applied", res.Stats.StaleResults, res.Stats.Steals)
	}
	if res.Stats.Leaked != 0 {
		t.Fatalf("leaked = %d, want 0", res.Stats.Leaked)
	}
}

// drawReady pops the top of jb's ready stack the way nextBatch does.
func drawReady(t *testing.T, f *Fleet[int32], jb *Job[int32]) int32 {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(jb.ready) == 0 {
		t.Fatal("ready stack empty")
	}
	v := jb.ready[len(jb.ready)-1]
	jb.ready = jb.ready[:len(jb.ready)-1]
	return v
}

// restoredJob builds job 1 of f for prob, replays its checkpoint (if
// any) and registers it with the fleet the way Run does, with the
// frontier on its ready stack.
func restoredJob(t *testing.T, f *Fleet[int32], prob core.Problem[int32], req JobRequest) *Job[int32] {
	t.Helper()
	jb, err := NewJob(1, prob, req, f.opts.Options, 1)
	if err != nil {
		t.Fatal(err)
	}
	frontier, err := jb.restore()
	if err != nil {
		t.Fatal(err)
	}
	jb.ready = frontier
	insertJob(t, f, jb)
	return jb
}

// TestClusterOvertimeFakeClock drives the control loop's overtime path on
// a FakeClock: expiry must release the lease and requeue the vertex, and
// MaxAttempts expiries of the same vertex must fail the job — all
// without a single real-time timeout.
func TestClusterOvertimeFakeClock(t *testing.T) {
	fake := sched.NewFakeClock(time.Unix(0, 0))
	const maxAttempts = 3
	f, err := New[int32](Options{
		Addr:              "127.0.0.1:0",
		HeartbeatInterval: time.Hour, // keep the membership sweep inert
		CheckInterval:     time.Second,
		TaskTimeout:       500 * time.Millisecond,
		MaxAttempts:       maxAttempts,
		Clock:             fake,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fake.BlockUntilTickers(1)
	prob, _ := mustProblem(t, "elastic")
	jb := restoredJob(t, f, prob, elasticJob())

	var vertex int32 = -1
	for round := 1; round <= maxAttempts; round++ {
		v := drawReady(t, f, jb)
		if vertex == -1 {
			vertex = v
		} else if v != vertex {
			t.Fatalf("round %d: drew vertex %d, want requeued %d", round, v, vertex)
		}
		attempt, ok, backup, _ := jb.register(1, v)
		if !ok || backup {
			t.Fatalf("round %d: register = (%v, backup=%v)", round, ok, backup)
		}
		jb.leases.Grant(v, 1, attempt, fake.Now())
		jb.ot.Add(v, attempt, fake.Now().Add(jb.req.TaskTimeout))

		fake.Advance(f.opts.CheckInterval)
		if round < maxAttempts {
			waitUntil(t, f, "overtime requeue", func() bool {
				return jb.ctrs.Redistributions.Load() == int64(round) && readyLen(f, jb) == 1
			})
			if n := jb.leases.Len(); n != 0 {
				t.Fatalf("round %d: %d leases survived the timeout", round, n)
			}
			if jb.rt.Accept(v, attempt) {
				t.Fatalf("round %d: expired attempt still accepted", round)
			}
		}
	}

	// The final expiry fails the job from inside the tick.
	select {
	case <-jb.done:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for the MaxAttempts failure")
	}
	if err := jb.Err(); err == nil || !strings.Contains(err.Error(), "MaxAttempts") {
		t.Fatalf("job error = %v, want MaxAttempts failure", err)
	}
	if got := jb.ctrs.Redistributions.Load(); got != maxAttempts-1 {
		t.Fatalf("redistributions = %d, want %d", got, maxAttempts-1)
	}
}

// reference builds the DP instance for app with the same generator
// recipe cli.Build uses, exposing the sequential matrix the CLI facade
// does not. The default branch fails loudly so a new entry in cli.Apps
// forces a matching reference here.
func reference(t *testing.T, app string, n int) (core.Problem[int32], [][]int32) {
	t.Helper()
	const seed = 7
	switch app {
	case "swgg":
		a := dp.RandomDNA(n, seed)
		b := dp.MutateSeq(a, dp.DNAAlphabet, 0.3, seed+1)
		s := dp.NewSWGG(a, b)
		return s.Problem(), s.Sequential()
	case "nussinov":
		nu := dp.NewNussinov(dp.RandomRNA(n, seed))
		return nu.Problem(), nu.Sequential()
	case "editdist":
		a := dp.RandomDNA(n, seed)
		b := dp.MutateSeq(a, dp.DNAAlphabet, 0.2, seed+1)
		e := dp.NewEditDistance(a, b)
		return e.Problem(), e.Sequential()
	case "lcs":
		a := dp.RandomDNA(n, seed)
		b := dp.MutateSeq(a, dp.DNAAlphabet, 0.2, seed+1)
		l := dp.NewLCS(a, b)
		return l.Problem(), l.Sequential()
	case "nw":
		a := dp.RandomDNA(n, seed)
		b := dp.MutateSeq(a, dp.DNAAlphabet, 0.3, seed+1)
		nw := dp.NewNeedlemanWunsch(a, b)
		return nw.Problem(), nw.Sequential()
	case "knapsack":
		k := dp.NewKnapsack(n, 4*n, seed)
		return k.Problem(), k.Sequential()
	}
	t.Fatalf("no sequential reference for app %q — extend reference() alongside cli.Apps", app)
	return core.Problem[int32]{}, nil
}

// TestDuplicateResultIdempotent drives the fleet's result path directly,
// for every registered application: each vertex gets an original and a
// speculative backup attempt, both results are delivered, each twice, in
// both orders. Exactly one delivery per vertex may take effect; the rest
// must drop as stale, and the assembled matrix must stay bit-identical to
// the sequential reference — including after a checkpoint replay.
func TestDuplicateResultIdempotent(t *testing.T) {
	for _, app := range cli.Apps {
		t.Run(app, func(t *testing.T) {
			prob, want := reference(t, app, 48)
			f, err := New[int32](Options{Addr: "127.0.0.1:0", TaskTimeout: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			req := JobRequest{Name: app, CheckpointPath: t.TempDir() + "/run.ckpt"}
			jb := restoredJob(t, f, prob, req)
			runner, err := core.NewTaskRunner(prob, core.Config{ProcPartition: jb.geom.Block, Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			w1 := f.reg.Admit("w1", "test").ID
			w2 := f.reg.Admit("w2", "test").ID

			applied := 0
			var wantWon, wantWasted int64
			for !jb.Finished() {
				v := drawReady(t, f, jb)
				orig, ok, backup, _ := jb.register(w1, v)
				if !ok || backup {
					t.Fatalf("vertex %d: original register = (%v, backup=%v)", v, ok, backup)
				}
				jb.leases.Grant(v, w1, orig, f.clock.Now())
				jb.specMu.Lock()
				jb.specPending[v] = true
				jb.specMu.Unlock()
				spec, ok, backup, _ := jb.register(w2, v)
				if !ok || !backup {
					t.Fatalf("vertex %d: backup register = (%v, backup=%v)", v, ok, backup)
				}
				jb.leases.Add(v, w2, spec, f.clock.Now())

				deps := jb.graph.Vertex(v).DataPre
				positions := make([]dag.Pos, len(deps))
				for k, d := range deps {
					positions[k] = jb.geom.PosOf(d)
				}
				payload, err := matrix.EncodeBlocks(prob.Codec, jb.store.Gather(positions))
				if err != nil {
					t.Fatal(err)
				}
				out, err := runner.Run(v, payload)
				if err != nil {
					t.Fatal(err)
				}

				if applied%2 == 0 {
					// Original first: the backup was wasted work.
					f.applyResult(w1, jb.id, v, orig, out)
					f.applyResult(w1, jb.id, v, orig, out)
					f.applyResult(w2, jb.id, v, spec, out)
					f.applyResult(w2, jb.id, v, spec, out)
					wantWasted++
				} else {
					// Backup first: the speculation won the race.
					f.applyResult(w2, jb.id, v, spec, out)
					f.applyResult(w2, jb.id, v, spec, out)
					f.applyResult(w1, jb.id, v, orig, out)
					f.applyResult(w1, jb.id, v, orig, out)
					wantWon++
				}
				applied++
			}

			if err := jb.Err(); err != nil {
				t.Fatal(err)
			}
			if !jb.parser.Finished() {
				t.Fatal("DAG did not drain")
			}
			if got := jb.ctrs.Tasks.Load(); got != int64(applied) {
				t.Fatalf("tasks = %d, want %d (each vertex counted exactly once)", got, applied)
			}
			// The last vertex's first delivery retires the job, so its three
			// duplicates drop at the fleet level, as results for an unknown
			// job.
			if got := jb.ctrs.StaleResults.Load() + f.stale.Load(); got != int64(3*applied) {
				t.Fatalf("stale = %d, want %d (three dropped deliveries per vertex)", got, 3*applied)
			}
			if got := jb.ctrs.SpecWon.Load(); got != wantWon {
				t.Fatalf("specWon = %d, want %d", got, wantWon)
			}
			if got := jb.ctrs.SpecWasted.Load(); got != wantWasted {
				t.Fatalf("specWasted = %d, want %d", got, wantWasted)
			}
			if n := jb.rt.Outstanding(); n != 0 {
				t.Fatalf("%d attempts leaked in the register table", n)
			}
			if n := jb.leases.Len(); n != 0 {
				t.Fatalf("%d leases leaked", n)
			}
			checkMatrix(t, app, jb.store.Assemble(), want)

			// A fresh job must replay the checkpoint to the same matrix: the
			// duplicate deliveries wrote each vertex exactly once.
			jb2, err := NewJob(2, prob, req, f.opts.Options, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer jb2.Finish(nil, f.clock.Now()) // closes the checkpoint file
			if _, err := jb2.restore(); err != nil {
				t.Fatal(err)
			}
			if got := jb2.ctrs.Restored.Load(); got != int64(applied) {
				t.Fatalf("restored = %d, want %d", got, applied)
			}
			if !jb2.parser.Finished() {
				t.Fatal("restored job did not recognise the finished run")
			}
			checkMatrix(t, app+" (restored)", jb2.store.Assemble(), want)
		})
	}
}
