package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// BenchmarkSharedFleet compares running four DP jobs back-to-back on the
// fleet (serial: each job has the whole pool to itself) against
// submitting them concurrently (shared: the fair-share policy interleaves
// their dispatch streams), at two dispatch batch sizes. Four workers with
// an emulated 200µs per-task cost serve both modes, so the comparison
// isolates scheduling, not compute. Reported metrics: mean makespan of
// one whole round, and p50/p95 per-job turnaround.
func BenchmarkSharedFleet(b *testing.B) {
	for _, batch := range []int{1, 4} {
		for _, mode := range []string{"serial", "shared"} {
			b.Run(fmt.Sprintf("%s/batch=%d", mode, batch), func(b *testing.B) {
				benchFleet(b, batch, mode == "shared")
			})
		}
	}
}

func benchFleet(b *testing.B, batch int, shared bool) {
	names := []string{"edit", "nussinov", "swgg", "healthy"}
	const workers = 4
	var makespans, turns []float64
	for i := 0; i < b.N; i++ {
		f, err := New[int32](Options{Addr: "127.0.0.1:0", Batch: batch})
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var wdone sync.WaitGroup
		for w := 0; w < workers; w++ {
			wdone.Add(1)
			go func() {
				defer wdone.Done()
				_ = RunWorker(ctx, testBuilder, WorkerOptions{
					Addr:      f.Addr(),
					Run:       core.Config{Threads: 2, Batch: batch},
					TaskDelay: func() time.Duration { return 200 * time.Microsecond },
				})
			}()
		}

		start := time.Now()
		turnarounds := make([]time.Duration, len(names))
		runOne := func(j int, name string) error {
			p, _, err := testProblem(name)
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, err := f.Run(ctx, p, JobRequest{Name: name}); err != nil {
				return err
			}
			turnarounds[j] = time.Since(t0)
			return nil
		}
		if shared {
			var wg sync.WaitGroup
			for j, name := range names {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := runOne(j, name); err != nil {
						b.Error(err)
					}
				}()
			}
			wg.Wait()
		} else {
			for j, name := range names {
				if err := runOne(j, name); err != nil {
					b.Fatal(err)
				}
			}
		}
		makespans = append(makespans, time.Since(start).Seconds()*1e3)
		for _, d := range turnarounds {
			turns = append(turns, d.Seconds()*1e3)
		}

		cancel()
		f.Close()
		wdone.Wait()
	}
	b.ReportMetric(mean(makespans), "makespan_ms")
	b.ReportMetric(quantile(turns, 0.50), "p50_turnaround_ms")
	b.ReportMetric(quantile(turns, 0.95), "p95_turnaround_ms")
	b.ReportMetric(0, "ns/op") // the custom metrics above are the result
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// BenchmarkElasticRecovery measures the cost of elasticity on a one-job
// fleet: the "healthy" case is a full 4-worker run with heartbeats on
// (the steady-state overhead of the membership layer), and "kill-1-of-4"
// is the same run with one worker killed a few vertices in — the delta is
// the time-to-recover (detect the death, revoke the leases, recompute the
// lost vertices elsewhere).
func BenchmarkElasticRecovery(b *testing.B) {
	run := func(b *testing.B, kill bool) {
		prob, _, err := testProblem("elastic")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			f := elasticFleet(b, nil)
			h := NewHarness(testBuilder, f.Addr(), elasticWorkerOptions(100*time.Microsecond))
			ctx, cancel := context.WithCancel(context.Background())
			addMembers(b, ctx, f, h, 4)
			req := elasticJob()
			if kill {
				killAt := make(chan struct{})
				req.OnProgress = progressTrigger(8, killAt)
				go func() {
					<-killAt
					h.Kill(0)
				}()
			}
			b.StartTimer()
			if _, err := f.Run(ctx, prob, req); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			cancel()
			h.Close()
			f.Close()
			b.StartTimer()
		}
	}
	b.Run("healthy", func(b *testing.B) { run(b, false) })
	b.Run("kill-1-of-4", func(b *testing.B) { run(b, true) })
}

// BenchmarkStragglerSpeculation measures the scenario speculation exists
// for, on the SW kernel: four workers, one slowed ~10x per task by the
// harness. With speculation off every wavefront diagonal the slow worker
// touches stalls behind it; with it on, backups race past the straggler.
// The spec-off/spec-on ns-per-op ratio is the makespan improvement
// recorded in EXPERIMENTS.md.
func BenchmarkStragglerSpeculation(b *testing.B) {
	run := func(b *testing.B, speculate bool) {
		prob, _, err := testProblem("straggler")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			f := elasticFleet(b, func(o *Options) {
				o.Speculate = speculate
				o.CheckInterval = 10 * time.Millisecond
			})
			// 64 cells x 100µs ≈ 6.4ms of emulated work per vertex; the
			// 60ms harness delay makes worker 0 roughly 10x slower.
			h := NewHarness(testBuilder, f.Addr(), elasticWorkerOptions(100*time.Microsecond))
			ctx, cancel := context.WithCancel(context.Background())
			addMembers(b, ctx, f, h, 4)
			h.Slow(0, 60*time.Millisecond)
			req := elasticJob()
			req.Name = "straggler"
			b.StartTimer()
			if _, err := f.Run(ctx, prob, req); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			cancel()
			h.Close()
			f.Close()
			b.StartTimer()
		}
	}
	b.Run("spec-off", func(b *testing.B) { run(b, false) })
	b.Run("spec-on", func(b *testing.B) { run(b, true) })
}
