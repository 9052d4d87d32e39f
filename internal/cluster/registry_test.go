package cluster

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/trace"
)

func TestRegistryLifecycle(t *testing.T) {
	tr := trace.New()
	r := NewRegistry(tr, nil)

	a := r.Admit("", "1.2.3.4:5")
	b := r.Admit("custom", "6.7.8.9:0")
	if a.ID != 1 || b.ID != 2 {
		t.Fatalf("ids = %d,%d, want 1,2", a.ID, b.ID)
	}
	if a.Name != "worker-1" || b.Name != "custom" {
		t.Fatalf("names = %q,%q", a.Name, b.Name)
	}
	if got := r.Live(); got != 2 {
		t.Fatalf("Live = %d, want 2", got)
	}

	// One silent interval: suspect. A beat recovers. Miss intervals: dead.
	interval, miss := 100*time.Millisecond, 3
	now := time.Now()
	if died := r.Sweep(now.Add(150*time.Millisecond), interval, miss); len(died) != 0 {
		t.Fatalf("early sweep declared %v dead", died)
	}
	if m := r.Members()[0]; m.State != StateSuspect {
		t.Fatalf("member 1 = %v after one silent interval, want suspect", m.State)
	}
	r.Beat(a.ID)
	if m := r.Members()[0]; m.State != StateActive {
		t.Fatalf("member 1 = %v after beat, want active", m.State)
	}
	died := r.Sweep(now.Add(time.Hour), interval, miss)
	if len(died) != 2 {
		t.Fatalf("full-silence sweep declared %v dead, want both", died)
	}
	if r.Live() != 0 {
		t.Fatalf("Live = %d after sweep, want 0", r.Live())
	}
	// Dead is terminal: beats and re-marks are no-ops.
	r.Beat(a.ID)
	if m := r.Members()[0]; m.State != StateDead {
		t.Fatalf("dead member revived by beat: %v", m.State)
	}
	if r.MarkDead(a.ID) {
		t.Fatal("MarkDead on a dead member reported a transition")
	}
	if r.MarkLeft(a.ID) {
		t.Fatal("MarkLeft on a dead member reported a transition")
	}

	c := r.Admit("", "x")
	if c.ID != 3 {
		t.Fatalf("incarnation reused: id = %d, want 3", c.ID)
	}
	if !r.MarkLeft(c.ID) {
		t.Fatal("MarkLeft on a live member failed")
	}

	joins, leaves, deaths, _, _ := r.MembershipCounts()
	if joins != 3 || leaves != 1 || deaths != 2 {
		t.Fatalf("counters joins=%d leaves=%d deaths=%d, want 3,1,2", joins, leaves, deaths)
	}
	s := r.Metrics()
	if s.States["dead"] != 2 || s.States["left"] != 1 {
		t.Fatalf("metrics states = %v", s.States)
	}

	// Every transition must be visible in the trace: three admissions
	// plus one suspect recovery ("active"), two suspicions from the first
	// sweep, two deaths, one leave.
	counts := map[string]int{}
	for _, e := range tr.MemberEvents() {
		counts[e.Label]++
	}
	if counts["active"] != 4 || counts["suspect"] != 2 || counts["dead"] != 2 || counts["left"] != 1 {
		t.Fatalf("trace transition counts = %v, want active:4 suspect:2 dead:2 left:1", counts)
	}
}

// NoteCompleted credits only the named live or departed member, and
// NoteRevoked accumulates across calls into MembershipCounts and Metrics.
func TestRegistryCompletedAndRevoked(t *testing.T) {
	r := NewRegistry(nil, nil)
	a := r.Admit("a", "test")
	b := r.Admit("b", "test")
	r.NoteCompleted(a.ID)
	r.NoteCompleted(a.ID)
	r.NoteCompleted(b.ID)
	r.NoteCompleted(99) // unknown member: ignored
	r.MarkDead(b.ID)
	r.NoteCompleted(b.ID) // a late result still credits the dead member
	members := r.Members()
	if members[0].Completed != 2 || members[1].Completed != 2 {
		t.Fatalf("completed = %d,%d, want 2,2", members[0].Completed, members[1].Completed)
	}

	r.NoteRevoked(3, 2)
	r.NoteRevoked(1, 0)
	_, _, _, revoked, reassigned := r.MembershipCounts()
	if revoked != 4 || reassigned != 2 {
		t.Fatalf("revoked=%d reassigned=%d, want 4,2", revoked, reassigned)
	}
	if got := r.Metrics().LeasesRevoked; got != 4 {
		t.Fatalf("Metrics().LeasesRevoked = %d, want 4", got)
	}
}

// Stats.Add sums every counter and keeps the longest Elapsed, since
// concurrent jobs overlap in wall time.
func TestStatsAdd(t *testing.T) {
	one := Stats{
		Tasks: 1, Dispatches: 2, Redistributions: 3, Restored: 4, StaleResults: 5,
		Joins: 6, Leaves: 7, Deaths: 8, LeasesRevoked: 9, Reassigned: 10,
		BatchMessages: 11, TaskBytes: 12, Speculated: 13, SpecWon: 14, SpecWasted: 15,
		Steals: 16, CacheHits: 17, CacheMisses: 18, BlocksShipped: 19, BlocksSkipped: 20,
		Leaked: 21, Elapsed: 3 * time.Second,
	}
	var sum Stats
	sum.Add(one)
	sum.Add(Stats{Elapsed: time.Second})
	sum.Add(one)
	want := Stats{
		Tasks: 2, Dispatches: 4, Redistributions: 6, Restored: 8, StaleResults: 10,
		Joins: 12, Leaves: 14, Deaths: 16, LeasesRevoked: 18, Reassigned: 20,
		BatchMessages: 22, TaskBytes: 24, Speculated: 26, SpecWon: 28, SpecWasted: 30,
		Steals: 32, CacheHits: 34, CacheMisses: 36, BlocksShipped: 38, BlocksSkipped: 40,
		Leaked: 42, Elapsed: 3 * time.Second,
	}
	if sum != want {
		t.Fatalf("sum = %+v\nwant  %+v", sum, want)
	}
	got := sum.String()
	for _, field := range []string{"tasks=2 ", "redist=6 ", "deaths=16 ", "spec=26/28/30 ", "steals=32 ", "elapsed=3s"} {
		if !strings.Contains(got, field) {
			t.Fatalf("String() = %q, missing %q", got, field)
		}
	}
}

// Counters.Stats materializes every ledger field and leaves the
// membership and lease-audit fields to the caller.
func TestCountersStats(t *testing.T) {
	var c Counters
	fields := []*atomic.Int64{
		&c.Tasks, &c.Dispatches, &c.Redistributions, &c.Restored,
		&c.StaleResults, &c.BatchMessages, &c.TaskBytes,
		&c.Speculated, &c.SpecWon, &c.SpecWasted, &c.Steals,
		&c.CacheHits, &c.CacheMisses, &c.BlocksShipped, &c.BlocksSkipped,
	}
	for i, f := range fields {
		f.Add(int64(i + 1))
	}
	want := Stats{
		Tasks: 1, Dispatches: 2, Redistributions: 3, Restored: 4,
		StaleResults: 5, BatchMessages: 6, TaskBytes: 7,
		Speculated: 8, SpecWon: 9, SpecWasted: 10, Steals: 11,
		CacheHits: 12, CacheMisses: 13, BlocksShipped: 14, BlocksSkipped: 15,
	}
	if got := c.Stats(); got != want {
		t.Fatalf("Stats() = %+v\nwant       %+v", got, want)
	}
}

func TestSpecDigest(t *testing.T) {
	s := Spec{App: "editdist", N: 64, Seed: 51, Proc: dag.Square(8)}
	if s.Digest() != s.Digest() {
		t.Fatal("digest is not deterministic")
	}
	for name, other := range map[string]Spec{
		"app":  {App: "nussinov", N: 64, Seed: 51, Proc: dag.Square(8)},
		"n":    {App: "editdist", N: 65, Seed: 51, Proc: dag.Square(8)},
		"seed": {App: "editdist", N: 64, Seed: 52, Proc: dag.Square(8)},
		"proc": {App: "editdist", N: 64, Seed: 51, Proc: dag.Square(16)},
	} {
		if other.Digest() == s.Digest() {
			t.Fatalf("digest insensitive to %s", name)
		}
	}
}
