package fleet

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/sched"
)

// insertJob registers a hand-built job with a running fleet, the way
// Fleet.Run would, without blocking on completion.
func insertJob(t *testing.T, f *Fleet[int32], jb *job[int32]) {
	t.Helper()
	f.mu.Lock()
	f.jobs[jb.id] = jb
	f.order = append(f.order, jb.id)
	f.mu.Unlock()
}

func readyLen(f *Fleet[int32], jb *job[int32]) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(jb.ready)
}

// TestFleetStealFeedsHungryMember drives feedHungry directly: a hungry
// idle member must trigger a steal of the tail half of the most loaded
// member's undispatched backlog — and only when there is no queued work,
// the beggar is truly idle, and the victim's entries are not racing a
// backup. A graceful leave then revokes the victim's remaining leases.
func TestFleetStealFeedsHungryMember(t *testing.T) {
	f, err := New[int32](Options{Addr: "127.0.0.1:0", Steal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	prob, _ := mustProblem(t, "edit")
	jb, err := newJob(1, prob, JobRequest{Name: "steal"}.withDefaults(f.opts), f.clock)
	if err != nil {
		t.Fatal(err)
	}
	insertJob(t, f, jb)

	victim := f.reg.Admit("victim", "test")
	beggar := f.reg.Admit("beggar", "test")

	now := f.clock.Now()
	for v := int32(0); v < 4; v++ {
		a, ok := jb.rt.Register(v)
		if !ok {
			t.Fatalf("register vertex %d refused", v)
		}
		jb.leases.Grant(v, victim.ID, a, now)
	}

	// A loaded member's own hunger is ignored.
	f.feedHungry(victim.ID)
	if got := jb.ctrs.Steals.Load(); got != 0 {
		t.Fatalf("steals = %d after the victim begged from itself", got)
	}

	// The idle beggar gets the newer half of the victim's backlog.
	f.feedHungry(beggar.ID)
	if got := jb.ctrs.Steals.Load(); got != 2 {
		t.Fatalf("steals = %d, want the tail half (2) of a 4-deep backlog", got)
	}
	if got := readyLen(f, jb); got != 2 {
		t.Fatalf("ready = %d vertices after the steal, want 2", got)
	}
	if got := jb.leases.Load(victim.ID); got != 2 {
		t.Fatalf("victim load = %d after the steal, want 2", got)
	}

	// With work queued, hunger is a no-op: the beggar's sender will draw
	// the requeued vertices without help.
	f.feedHungry(beggar.ID)
	if got := jb.ctrs.Steals.Load(); got != 2 {
		t.Fatalf("steals = %d, want no re-steal while work is queued", got)
	}

	// A 1-deep backlog is never split.
	f.mu.Lock()
	jb.ready = nil
	f.mu.Unlock()
	jb.leases.RevokeWorker(victim.ID)
	a, _ := jb.rt.Register(100)
	jb.leases.Grant(100, victim.ID, a, now)
	f.feedHungry(beggar.ID)
	if got := jb.ctrs.Steals.Load(); got != 2 {
		t.Fatalf("steals = %d, want no steal from a 1-deep backlog", got)
	}

	// A graceful leave revokes the remaining lease and requeues it.
	f.memberLeave(victim.ID)
	if got := jb.leases.Load(victim.ID); got != 0 {
		t.Fatalf("victim still holds %d leases after leaving", got)
	}
	if got := readyLen(f, jb); got != 1 {
		t.Fatalf("ready = %d after the leave revocation, want 1", got)
	}
	// Leaving twice is idempotent.
	f.memberLeave(victim.ID)
}

// TestFleetSpeculationFakeClock verifies the per-job straggler detector:
// no flag below the profile threshold, exactly one flag past it, refusal
// of a self-backup, and speculation accounting when the backup's holder
// leaves. Mirrors the single-job master's test, scoped to one job of a
// fleet.
func TestFleetSpeculationFakeClock(t *testing.T) {
	fake := sched.NewFakeClock(time.Unix(0, 0))
	f, err := New[int32](Options{
		Addr:              "127.0.0.1:0",
		HeartbeatInterval: time.Hour,
		CheckInterval:     time.Second,
		TaskTimeout:       time.Hour, // overtime must not race the detector
		Speculate:         true,
		Clock:             fake,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fake.BlockUntilTickers(1)

	prob, _ := mustProblem(t, "edit")
	jb, err := newJob(1, prob, JobRequest{Name: "spec"}.withDefaults(f.opts), f.clock)
	if err != nil {
		t.Fatal(err)
	}
	insertJob(t, f, jb)

	w1 := f.reg.Admit("w1", "test")

	// Cold profile: no threshold, no speculation.
	f.maybeSpeculate(jb)
	if got := readyLen(f, jb); got != 0 {
		t.Fatalf("cold profile flagged %d vertices", got)
	}

	v := jb.parser.InitialReady()[0]
	orig, ok := jb.rt.Register(v)
	if !ok {
		t.Fatal("original register refused")
	}
	jb.leases.Grant(v, w1.ID, orig, fake.Now())

	// Warm the profile: p95 = 2s, threshold = 2 * 2s = 4s (defaults).
	for i := 0; i < 8; i++ {
		jb.profile.Observe(2 * time.Second)
	}

	fake.Advance(3 * time.Second)
	f.maybeSpeculate(jb)
	if got := readyLen(f, jb); got != 0 {
		t.Fatalf("speculated on a 3s-old attempt below the 4s threshold (%d flagged)", got)
	}

	fake.Advance(2 * time.Second) // age 5s > threshold
	f.maybeSpeculate(jb)
	if got := readyLen(f, jb); got != 1 {
		t.Fatalf("flagged %d vertices past the threshold, want 1", got)
	}

	// The holder must not back itself up: its draw is refused with held
	// set, the flag restored, and the caller requeues the vertex for
	// another member (no waiting for the next control tick).
	f.mu.Lock()
	jb.ready = nil
	f.mu.Unlock()
	if _, ok, _, held := f.register(jb, w1.ID, v); ok || !held {
		t.Fatalf("self-backup register = (ok=%v, held=%v), want a held refusal", ok, held)
	}
	if jb.rt.LiveAttempts(v) != 1 {
		t.Fatalf("LiveAttempts = %d after refused self-backup, want 1", jb.rt.LiveAttempts(v))
	}
	jb.specMu.Lock()
	restored := jb.specPending[v]
	jb.specMu.Unlock()
	if !restored {
		t.Fatal("specPending flag not restored after the refused self-backup")
	}

	// Requeue the refused backup the way dispatch does; a second member
	// turns the draw into a concurrent backup.
	f.requeueReady(jb, []int32{v})
	if got := readyLen(f, jb); got != 1 {
		t.Fatalf("ready = %d after the refused backup was requeued, want 1", got)
	}
	// The detector leaves the requeued backup alone on later ticks.
	fake.Advance(time.Second)
	f.maybeSpeculate(jb)
	if got := readyLen(f, jb); got != 1 {
		t.Fatalf("detector double-flagged a requeued backup (%d ready)", got)
	}
	w2 := f.reg.Admit("w2", "test")
	f.mu.Lock()
	jb.ready = nil
	f.mu.Unlock()
	backup, ok, isBackup, _ := f.register(jb, w2.ID, v)
	if !ok || !isBackup {
		t.Fatalf("backup register = (%v, backup=%v)", ok, isBackup)
	}
	jb.leases.Add(v, w2.ID, backup, fake.Now())
	if jb.rt.LiveAttempts(v) != 2 {
		t.Fatalf("LiveAttempts = %d, want 2 (original + backup)", jb.rt.LiveAttempts(v))
	}

	// While a race is live the detector leaves the vertex alone.
	fake.Advance(10 * time.Second)
	f.maybeSpeculate(jb)
	if got := readyLen(f, jb); got != 0 {
		t.Fatalf("detector flagged a vertex already racing a backup (%d ready)", got)
	}

	// The backup holder leaves: the wasted speculation is accounted to
	// this job and the original attempt survives.
	f.memberLeave(w2.ID)
	if got := jb.ctrs.SpecWasted.Load(); got != 1 {
		t.Fatalf("specWasted = %d after the backup holder left, want 1", got)
	}
	if jb.rt.LiveAttempts(v) != 1 {
		t.Fatalf("LiveAttempts = %d after the backup died, want the original alone", jb.rt.LiveAttempts(v))
	}
}

// TestFleetAdmitRejectsNonFleetWorker pins the join contract: a
// fixed-mode worker is refused with a hint to restart with -fleet.
func TestFleetAdmitRejectsNonFleetWorker(t *testing.T) {
	f, err := New[int32](Options{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, _, err = comm.DialHello(f.Addr(), comm.Hello{Rank: 1}, 2*time.Second)
	if err == nil || !strings.Contains(err.Error(), "-fleet") {
		t.Fatalf("fixed-mode join = %v, want a refusal naming -fleet", err)
	}
	if f.Registry() == nil {
		t.Fatal("Registry() = nil")
	}
	if jb := f.jobByID(99); jb != nil {
		t.Fatalf("jobByID(99) = %v, want nil", jb)
	}
}

// TestFleetRunCancelAndClose covers the submission edges: a cancelled
// context fails the job (retired as failed), and a closed fleet refuses
// new submissions outright.
func TestFleetRunCancelAndClose(t *testing.T) {
	f, err := New[int32](Options{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	prob, _ := mustProblem(t, "ckpt")

	cctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Cancel as soon as the job is admitted: Run's noteProgress fires
		// right after the job lands in the table, so the generation wait
		// replaces any fixed sleep.
		for {
			gen := f.progressGeneration()
			if f.jobByID(1) != nil {
				break
			}
			f.waitProgress(gen, nil)
		}
		cancel()
	}()
	if _, err := f.Run(cctx, prob, JobRequest{Name: "cancelled"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run = %v, want context.Canceled", err)
	}
	snap := f.Snapshot()
	if snap.States["failed"] != 1 {
		t.Fatalf("job states = %v, want the cancelled job retained as failed", snap.States)
	}
	if jb := f.jobByID(1); jb == nil {
		t.Fatal("cancelled job not queryable by id")
	}

	f.Close()
	if _, err := f.Run(context.Background(), prob, JobRequest{Name: "late"}); !errors.Is(err, ErrFleetClosed) {
		t.Fatalf("Run after Close = %v, want ErrFleetClosed", err)
	}
	if err := RunWorker[int32](context.Background(), nil, WorkerOptions{Addr: f.Addr()}); err == nil {
		t.Fatal("RunWorker accepted a nil builder")
	}
}
