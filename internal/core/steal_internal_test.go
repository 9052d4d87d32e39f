package core

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
)

// TestMaybeStealTieGoesToLowestRank loads two victims equally and lets a
// third, starved slave steal: the lowest-ranked victim must be robbed
// every time, not whichever the lease table's map yields first.
func TestMaybeStealTieGoesToLowestRank(t *testing.T) {
	now := time.Unix(0, 0)
	for iter := 0; iter < 200; iter++ {
		m := &master[int32]{
			cfg:     Config{Slaves: 3},
			disp:    sched.NewDynamic(),
			reg:     sched.NewRegisterTable(),
			ot:      sched.NewOvertimeQueue(),
			ctrs:    &counters{},
			leases:  sched.NewLeaseTable(),
			waiting: make([]atomic.Bool, 4),
		}
		for v := int32(0); v < 8; v++ {
			a, _ := m.reg.Register(v)
			m.leases.Grant(v, 2-int(v%2), a, now) // ranks 1 and 2, four each
		}
		m.waiting[3].Store(true)
		m.maybeSteal()
		if got := m.ctrs.steals.Load(); got != 2 {
			t.Fatalf("iteration %d: stole %d vertices, want 2", iter, got)
		}
		if l1, l2 := m.leases.Load(1), m.leases.Load(2); l1 != 2 || l2 != 4 {
			t.Fatalf("iteration %d: loads after the steal = rank1 %d, rank2 %d; want rank 1 robbed", iter, l1, l2)
		}
	}
}
