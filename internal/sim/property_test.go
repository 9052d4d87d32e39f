package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/dag"
	"repro/internal/fleet"
	"repro/internal/testseed"
)

// TestRandomScriptsMatchSequential drives the fleet's job type through
// seeded random scripts — kills, partitions, joins, slow-downs,
// cancellations and submission bursts, with speculation, stealing and
// the result cache each on or off, at batch sizes 1–8 — and checks the
// bar every schedule must meet: each job that succeeds is bit-identical
// to the sequential run, leaks no lease or attempt, and computed or
// absorbed each vertex exactly once (Tasks + CacheHits == vertices).
// A failing script replays with -seed=N.
func TestRandomScriptsMatchSequential(t *testing.T) {
	base := testseed.Seed(t, 1)
	runs := 40
	if testing.Short() {
		runs = 10
	}
	kernels := []string{"editdist", "lcs", "swgg", "nussinov"}
	for run := 0; run < runs; run++ {
		rng := rand.New(rand.NewSource(base + int64(run)))
		workers := 2 + rng.Intn(7)
		opts := Options{Workers: workers, Seed: rng.Int63(), Cost: time.Millisecond, Jitter: 0.3,
			Horizon: 10 * time.Minute, Options: fleet.Options{
				Batch:         1 + rng.Intn(8),
				Speculate:     rng.Intn(2) == 0,
				Steal:         rng.Intn(2) == 0,
				CheckInterval: 10 * time.Millisecond, HeartbeatInterval: 10 * time.Millisecond,
			}}
		if rng.Intn(2) == 0 {
			opts.TaskTimeout = 100 * time.Millisecond // let overtime expiry fire too
		}
		if rng.Intn(2) == 0 {
			store, err := cas.NewStore(cas.Options{Clock: func() time.Time { return time.Unix(0, 0) }})
			if err != nil {
				t.Fatal(err)
			}
			opts.Cache = store
		}
		script := fmt.Sprintf("run %d: workers=%d batch=%d speculate=%v steal=%v cache=%v timeout=%v",
			run, workers, opts.Batch, opts.Speculate, opts.Steal, opts.Cache != nil, opts.TaskTimeout)
		c := New(opts)

		type sub struct {
			job       *Job
			kernel    string
			n         int
			seed      int64
			cancelled bool
		}
		var subs []*sub
		at := time.Duration(0)
		for i, njobs := 0, 1+rng.Intn(3); i < njobs; i++ {
			if rng.Intn(2) == 0 {
				at += time.Duration(rng.Intn(40)) * time.Millisecond // else a burst
			}
			s := &sub{kernel: kernels[rng.Intn(len(kernels))], n: 16 + rng.Intn(33), seed: int64(1 + rng.Intn(3))}
			p, _, err := BuildProblem(s.kernel, s.n, s.seed)
			if err != nil {
				t.Fatal(err)
			}
			spec := JobSpec{Problem: p, JobRequest: fleet.JobRequest{
				Name: fmt.Sprintf("j%d", i),
				Proc: dag.Square(4 + rng.Intn(8)),
				// Identical problems share cache entries across jobs.
				CacheKey: fmt.Sprintf("%s/%d/%d", s.kernel, s.n, s.seed),
			}}
			if s.job, err = c.Submit(at, spec); err != nil {
				t.Fatal(err)
			}
			subs = append(subs, s)
		}
		for f, nfaults := 0, rng.Intn(6); f < nfaults; f++ {
			when := time.Duration(rng.Intn(120)) * time.Millisecond
			w := rng.Intn(workers)
			switch rng.Intn(6) {
			case 0:
				c.KillAt(when, w)
			case 1:
				c.PartitionAt(when, w, time.Duration(10+rng.Intn(80))*time.Millisecond)
			case 2:
				c.JoinAt(when, 1+rng.Intn(3))
			case 3:
				c.SlowAt(when, w, float64(2+rng.Intn(20)))
			case 4:
				s := subs[rng.Intn(len(subs))]
				s.cancelled = true
				c.CancelAt(when, s.job.spec.Name)
			case 5:
				c.KillRandomAt(when, 1)
			}
			script += fmt.Sprintf(" fault@%v", when)
		}
		_ = c.Run() // starved or horizon-bound runs fail their jobs, checked below

		for _, s := range subs {
			j := s.job
			if s.cancelled || j.Err() != nil {
				continue // only successful schedules carry the contract
			}
			_, want, _ := BuildProblem(s.kernel, s.n, s.seed)
			if !equalMatrix(j.Result(), want) {
				t.Fatalf("%s: job %s (%s n=%d) differs from the sequential result", script, j.spec.Name, s.kernel, s.n)
			}
			st := j.Stats()
			geom := j.jb.Store().Geometry()
			vertices := dag.Build(j.spec.Problem.Kernel.Pattern(), geom).N
			if st.Leaked != 0 || st.Tasks+st.CacheHits != int64(vertices) {
				t.Fatalf("%s: job %s leaked=%d tasks=%d cacheHits=%d, want 0 and %d vertices",
					script, j.spec.Name, st.Leaked, st.Tasks, st.CacheHits, vertices)
			}
		}
	}
}
