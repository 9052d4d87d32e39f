package fleet

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// startedJob builds and starts job id for prob on a fake clock, with
// the defaulted options the fleet would hand it.
func startedJob(t *testing.T, id int32, name string, req JobRequest, clock sched.Clock) *Job[int32] {
	t.Helper()
	prob, _ := mustProblem(t, name)
	jb, err := NewJob(id, prob, req, NewKnobs(Options{Clock: clock}).Options, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := jb.Start(); err != nil {
		t.Fatal(err)
	}
	return jb
}

// TestJobPrimaryRevokedBackupResult pins the noteAttemptGone rule on the
// job type itself: when a vertex's primary dies by revocation while its
// backup races, the race is over — the backup's later result commits
// the vertex but counts as neither a won nor a wasted speculation.
func TestJobPrimaryRevokedBackupResult(t *testing.T) {
	fake := sched.NewFakeClock(time.Unix(0, 0))
	jb := startedJob(t, 1, "edit", JobRequest{Name: "edit"}, fake)
	_, ids := NextBatch(FairShare{}, []*Job[int32]{jb}, 1)
	primary, held := jb.Lease(1, ids)
	if len(primary) != 1 || len(held) != 0 {
		t.Fatalf("primary lease = %v (held %v), want one task", primary, held)
	}
	v := primary[0].Vertex
	jb.specPending[v] = true // as Speculate flags a straggler
	backup, _ := jb.Lease(2, []int32{v})
	if len(backup) != 1 || jb.ctrs.Speculated.Load() != 1 {
		t.Fatalf("backup lease = %v, speculated = %d; want one backup", backup, jb.ctrs.Speculated.Load())
	}

	if revoked, requeued := jb.Revoke(1); revoked != 1 || requeued != 0 {
		t.Fatalf("revoke = (%d, %d), want the primary revoked and nothing requeued under a live backup", revoked, requeued)
	}
	runner, err := core.NewTaskRunner(jb.p, core.Config{ProcPartition: jb.geom.Block, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := jb.Encode(backup[0])
	if err != nil {
		t.Fatal(err)
	}
	out, err := runner.Run(v, payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := jb.Apply(2, v, backup[0].Attempt, out); !ok {
		t.Fatal("the backup's result was refused")
	}
	st := jb.Stats()
	if st.SpecWon != 0 || st.SpecWasted != 0 || st.Tasks != 1 {
		t.Fatalf("specWon=%d specWasted=%d tasks=%d, want 0/0/1", st.SpecWon, st.SpecWasted, st.Tasks)
	}
	if n := jb.leases.Len() + jb.rt.Outstanding(); n != 0 {
		t.Fatalf("%d leases/attempts outstanding after the commit", n)
	}
}

// TestJobDeadlineBoundary pins the deadline rule: a job is still alive
// at exactly start+Timeout and fails on the first tick after it.
func TestJobDeadlineBoundary(t *testing.T) {
	fake := sched.NewFakeClock(time.Unix(0, 0))
	jb := startedJob(t, 1, "edit", JobRequest{Name: "edit", Timeout: 100 * time.Millisecond}, fake)
	start := fake.Now()
	jb.Expire(start.Add(100 * time.Millisecond))
	if jb.Finished() {
		t.Fatalf("job failed at exactly its deadline: %v", jb.Err())
	}
	jb.Expire(start.Add(100*time.Millisecond + time.Nanosecond))
	if err := jb.Err(); !jb.Finished() || err == nil || !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("past the deadline: finished=%v err=%v, want a timeout failure", jb.Finished(), err)
	}
}

// TestStealTieOrder loads two victims equally and steals toward a third
// member many times: the lowest member id is robbed every time, and
// across jobs a tie goes to the earlier job — never to map order.
func TestStealTieOrder(t *testing.T) {
	now := time.Unix(0, 0)
	fake := sched.NewFakeClock(now)
	for iter := 0; iter < 100; iter++ {
		a := startedJob(t, 1, "edit", JobRequest{Name: "a"}, fake)
		b := startedJob(t, 2, "edit", JobRequest{Name: "b"}, fake)
		for _, jb := range []*Job[int32]{a, b} {
			jb.ready = nil
			for v := int32(0); v < 8; v++ {
				at, _ := jb.rt.Register(v)
				jb.leases.Grant(v, 7+int(v%2), at, now) // members 7 and 8, four each
			}
		}
		if !Steal([]*Job[int32]{a, b}, 9) {
			t.Fatal("nothing stolen")
		}
		if got := [4]int{a.leases.Load(7), a.leases.Load(8), b.leases.Load(7), b.leases.Load(8)}; got != [4]int{2, 4, 4, 4} {
			t.Fatalf("iteration %d: loads (a7 a8 b7 b8) = %v, want job a's member 7 robbed", iter, got)
		}
	}
}
