// Hierarchical fault tolerance in action: a slave node crashes mid-run, a
// second slave answers too late, and a compute goroutine panics — yet the
// run completes with a correct matrix. The run statistics show each
// recovery path firing (§V of the paper).
//
// Run with: go run ./examples/faults
package main

import (
	"fmt"
	"log"
	"time"

	easyhps "repro"
)

func main() {
	a := easyhps.RandomDNA(240, 1)
	b := easyhps.MutateSeq(a, "ACGT", 0.2, 2)
	e := easyhps.NewEditDistance(a, b)

	cfg := easyhps.Config{
		Slaves:          4,
		Threads:         3,
		ProcPartition:   easyhps.Square(30),
		ThreadPartition: easyhps.Square(10),
		TaskTimeout:     200 * time.Millisecond,
		SubTaskTimeout:  200 * time.Millisecond,
		CheckInterval:   25 * time.Millisecond,
		RunTimeout:      2 * time.Minute,
		// Emulated per-cell work keeps the run alive long enough for
		// the stalled slave's stale answer to arrive mid-run.
		WorkDelayPerCell: 20 * time.Microsecond,
		Faults: easyhps.FaultPlan{
			// Whichever slave receives sub-task 12 dies silently.
			CrashOnVertex: map[int32]bool{12: true},
			// The first attempt of sub-task 0 stalls past the
			// timeout; its late answer must be dropped as stale.
			StallFirstAttempt: map[int32]time.Duration{0: 450 * time.Millisecond},
			// One sub-sub-task panics once; the worker pool recovers.
			PanicSubTask: map[easyhps.SubTaskID]bool{{Proc: 5, Sub: 1}: true},
		},
	}

	res, err := easyhps.Run(e.Problem(), cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The matrix is still correct despite the injected carnage.
	want := e.Distance(e.Sequential())
	got := e.Distance(res.Matrix())
	fmt.Printf("edit distance: %d (sequential reference: %d)\n", got, want)
	if got != want {
		log.Fatal("fault recovery produced a wrong result")
	}

	s := res.Stats
	fmt.Printf("run survived: elapsed=%v\n", s.Elapsed.Round(time.Millisecond))
	fmt.Printf("  processor-level redistributions: %d (crashed node + stalled task)\n", s.Redistributions)
	fmt.Printf("  stale results dropped:           %d\n", s.StaleResults)
	fmt.Printf("  compute-goroutine restarts:      %d\n", s.WorkerRestarts)
	fmt.Printf("  dispatches=%d for %d sub-tasks\n", s.Dispatches, s.Tasks)
	if s.Redistributions == 0 || s.WorkerRestarts == 0 {
		log.Fatal("expected both recovery paths to fire")
	}
}
