//go:build soak

package fleet

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/testseed"
)

// TestSoakBatchedFaults hammers the batched dispatch path with membership
// churn while straggler mitigation is live: many short single-job elastic
// runs, each with a randomized batch bound, speculation always on,
// stealing on for half the runs, and a randomly chosen mid-run fault
// (abrupt kill, silent partition, graceful leave, heavy slowdown) against
// one of three workers. Every run must converge to the sequential matrix
// with Tasks equal to the vertex count and no leaked attempt or lease — a
// lost vertex hangs the run into its Timeout, a double-counted one
// inflates Tasks, a mis-ordered batch corrupts the matrix, and a
// speculative race that loses track of an attempt shows up in Leaked.
// Enable with scripts/ci.sh -soak (build tag "soak").
func TestSoakBatchedFaults(t *testing.T) {
	const runs = 200
	prob, want := mustProblem(t, "elastic")
	rng := rand.New(rand.NewSource(testseed.Seed(t, 1)))

	for run := 0; run < runs; run++ {
		batch := 1 + rng.Intn(8)
		fault := rng.Intn(4) // 0 kill, 1 partition+heal, 2 leave, 3 slow
		victim := rng.Intn(3)
		threshold := 3 + rng.Intn(elasticVertices/2)
		steal := rng.Intn(2) == 1

		f := elasticFleet(t, func(o *Options) {
			o.Batch = batch
			o.Speculate = true
			o.CheckInterval = 10 * time.Millisecond
			o.Steal = steal
		})
		wopts := elasticWorkerOptions(50 * time.Microsecond)
		wopts.Run.Batch = batch
		if steal {
			wopts.HungerAfter = 15 * time.Millisecond
		}
		h := NewHarness(testBuilder, f.Addr(), wopts)
		ctx, cancel := context.WithCancel(context.Background())
		addMembers(t, ctx, f, h, 3)

		req := elasticJob()
		faultAt := make(chan struct{})
		req.OnProgress = progressTrigger(threshold, faultAt)
		faultDone := make(chan struct{})
		go func() {
			defer close(faultDone)
			select {
			case <-faultAt:
			case <-ctx.Done():
				return
			}
			switch fault {
			case 0:
				h.Kill(victim)
			case 1:
				h.Partition(victim)
				// Hold the partition until the heartbeat sweep declares the
				// victim dead (revocations bump the progress generation), or
				// the run ends.
				stop := context.AfterFunc(ctx, f.noteProgress)
				defer stop()
				for {
					gen := f.progressGeneration()
					if _, _, deaths, _, _ := f.reg.MembershipCounts(); deaths > 0 || ctx.Err() != nil {
						break
					}
					f.waitProgress(gen, nil)
				}
				h.Heal(victim)
			case 2:
				h.Leave(victim)
			case 3:
				// Not a membership fault: a straggler the speculative path
				// must race past.
				h.Slow(victim, 50*time.Millisecond)
			}
		}()

		res, err := f.Run(ctx, prob, req)
		if err != nil {
			t.Fatalf("run %d (batch=%d fault=%d victim=%d at=%d): %v",
				run, batch, fault, victim, threshold, err)
		}
		if res.Stats.Tasks != elasticVertices {
			t.Fatalf("run %d (batch=%d fault=%d): tasks = %d, want %d (lost or double-counted vertex)\nstats: %v",
				run, batch, fault, res.Stats.Tasks, elasticVertices, res.Stats)
		}
		if res.Stats.Leaked != 0 {
			t.Fatalf("run %d (batch=%d fault=%d steal=%v): %d attempts/leases leaked\nstats: %v",
				run, batch, fault, steal, res.Stats.Leaked, res.Stats)
		}
		checkMatrix(t, "soak", res.Store.Assemble(), want)
		cancel()
		<-faultDone
		h.Close()
		f.Close()
	}
}
