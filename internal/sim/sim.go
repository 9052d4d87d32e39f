// Package sim is the deterministic cluster simulator: it drives the
// fleet's own per-job scheduling state machine (fleet.Job — attempt
// arbitration, leases, overtime, the runtime profile, speculation,
// stealing, the fair-share draw, the cross-job result cache) and the
// fleet's knobs and self-tuner (fleet.Knobs), with membership
// (cluster.Registry) and the compute engine (core.TaskRunner), under a
// single-threaded discrete-event loop on a sched.FakeClock.
//
// What the simulator owns is only what the fleet gets from sockets and
// goroutines: the event loop, simulated workers — each a speed factor, a
// task queue and a liveness flag — their service times, and scripted
// faults (kill, join, partition, slow-down, cancel, burst submission) at
// virtual timestamps. Service times come from a seeded RNG, and every
// scheduling decision lands in a virtual-time trace.Recorder. The result
// is the determinism contract the regression suite is built on: the same
// scenario with the same seed yields a byte-identical event trace
// (trace.Format), and any seed yields bit-identical DP results, because
// the kernels are pure functions of their data dependencies. Because the
// decisions are the fleet's code, not a copy, a scenario assertion here
// is a statement about the production scheduler, checked at scales (1000
// workers) the CI box cannot host for real.
package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/tune"
)

// Options configures one simulated cluster. The embedded fleet options
// carry the scheduling knobs and take the fleet's defaults (Addr and
// RetainJobs are ignored; Clock and Trace are the simulator's own).
type Options struct {
	fleet.Options
	// Workers is the number of workers admitted before virtual time 0.
	// Simulated workers beat on every control tick unless partitioned or
	// dead.
	Workers int
	// Seed seeds the service-time and fault-selection RNG.
	Seed int64
	// Cost is the nominal per-vertex service time (default 1ms); Jitter
	// widens it to Cost*(1 ± Jitter) uniformly. Jobs may override Cost.
	Cost   time.Duration
	Jitter float64
	// Horizon aborts the simulation when virtual time passes it, failing
	// every unfinished job (default 1h) — the guard that turns a
	// scheduling livelock into a test failure instead of a hang.
	Horizon time.Duration
}

// Cluster is one simulated fleet: a virtual clock, a membership
// registry, scripted workers and any number of concurrently scheduled
// jobs. Build it with New, script faults and submissions, then Run.
// A Cluster is single-threaded and not reusable after Run.
type Cluster struct {
	opts  Options
	knobs *fleet.Knobs
	clock *sched.FakeClock
	epoch time.Time
	rng   *rand.Rand
	reg   *cluster.Registry
	tr    *trace.Recorder // membership and tuner events, virtual-time stamped

	pq  eventHeap
	seq int64

	workers  []*simWorker // admit order
	byMember map[int]*simWorker
	idle     []int // FIFO of idle member ids (stale tokens skipped lazily)

	jobs    []*Job // submission order
	handles map[*fleet.Job[int32]]*Job
	ran     bool

	// maxDeficit is the largest served spread observed across eligible
	// jobs at any pick (see deficitMeter) — the realized fair-share bound.
	maxDeficit float64
}

// New builds an empty simulated cluster. Script it (Submit, JoinAt,
// KillAt, ...) and then call Run exactly once.
func New(opts Options) *Cluster {
	if opts.Cost <= 0 {
		opts.Cost = time.Millisecond
	}
	if opts.Horizon <= 0 {
		opts.Horizon = time.Hour
	}
	epoch := time.Unix(0, 0).UTC()
	c := &Cluster{
		opts:     opts,
		clock:    sched.NewFakeClock(epoch),
		epoch:    epoch,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		byMember: make(map[int]*simWorker),
		handles:  make(map[*fleet.Job[int32]]*Job),
	}
	c.tr = trace.NewWithNow(c.clock.Now)
	c.reg = cluster.NewRegistry(c.tr, c.clock)
	fo := opts.Options
	fo.Clock, fo.Trace = c.clock, c.tr
	c.knobs = fleet.NewKnobs(fo)
	c.knobs.Policy = deficitMeter{Policy: c.knobs.Policy, max: &c.maxDeficit}
	for i := 0; i < opts.Workers; i++ {
		c.admit()
	}
	return c
}

// deficitMeter wraps the pick policy to record the served spread across
// the eligible jobs of every pick: its running maximum is the bound the
// fairness regression scenarios assert.
type deficitMeter struct {
	fleet.Policy
	max *float64
}

func (m deficitMeter) Pick(views []fleet.JobView) int {
	first := true
	var lo, hi float64
	for _, v := range views {
		if !v.Eligible() {
			continue
		}
		if first || v.Served < lo {
			lo = v.Served
		}
		if first || v.Served > hi {
			hi = v.Served
		}
		first = false
	}
	if !first && hi-lo > *m.max {
		*m.max = hi - lo
	}
	return m.Policy.Pick(views)
}

func (c *Cluster) now() time.Time { return c.clock.Now() }

// At schedules an arbitrary scripted action at virtual offset d.
func (c *Cluster) At(d time.Duration, fn func()) {
	c.schedule(c.epoch.Add(d), fn)
}

// JoinAt scripts n workers joining at virtual offset d.
func (c *Cluster) JoinAt(d time.Duration, n int) {
	c.At(d, func() {
		for i := 0; i < n; i++ {
			c.admit()
		}
		c.dispatchAll()
	})
}

// KillAt scripts the death of the idx-th admitted worker (0-based, in
// admit order) at virtual offset d. Killing an already-dead worker is a
// no-op.
func (c *Cluster) KillAt(d time.Duration, idx int) {
	c.At(d, func() { c.kill(c.workerAt(idx)) })
}

// KillRandomAt scripts the death of n distinct alive workers at virtual
// offset d, drawn from the seeded RNG — the "10% of the fleet dies"
// fault. Fewer than n alive workers kills them all.
func (c *Cluster) KillRandomAt(d time.Duration, n int) {
	c.At(d, func() {
		alive := make([]*simWorker, 0, len(c.workers))
		for _, w := range c.workers {
			if w.alive {
				alive = append(alive, w)
			}
		}
		c.rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
		for _, w := range alive[:min(n, len(alive))] {
			c.kill(w)
		}
		c.dispatchAll()
	})
}

// PartitionAt scripts a network partition of the idx-th worker for dur:
// it stops heartbeating and its results are dropped, but it keeps
// computing. If the partition outlives the sweep window the master
// declares it dead and revokes its leases; a heal after that leaves a
// zombie whose late results are refused by attempt arbitration.
func (c *Cluster) PartitionAt(d time.Duration, idx int, dur time.Duration) {
	c.At(d, func() {
		if w := c.workerAt(idx); w != nil && w.alive {
			w.partitioned = true
		}
	})
	c.At(d+dur, func() {
		if w := c.workerAt(idx); w != nil && w.alive {
			w.partitioned = false
			if !w.declaredDead {
				c.noteIdleIfFree(w)
				c.dispatchAll()
			}
		}
	})
}

// CancelAt scripts a client cancellation of the named job at virtual
// offset d: the job reaches its terminal state immediately, in-flight
// frames are dropped when workers reach them, and its leases count as
// leaked in the job's stats. Cancelling a finished or unknown job is a
// no-op, like a late DELETE against the job service.
func (c *Cluster) CancelAt(d time.Duration, name string) {
	c.At(d, func() {
		for _, j := range c.jobs {
			if j.spec.Name == name && j.jb != nil && !j.jb.Finished() {
				j.jb.Finish(fmt.Errorf("sim: job %q cancelled by script", name), c.now())
				c.dispatchAll()
			}
		}
	})
}

// SlowAt scripts a speed change of the idx-th worker at virtual offset
// d: factor multiplies every service time drawn from then on (1 =
// nominal, 20 = a 20x straggler). Stepped calls form a speed curve.
func (c *Cluster) SlowAt(d time.Duration, idx int, factor float64) {
	c.At(d, func() {
		if w := c.workerAt(idx); w != nil && factor > 0 {
			w.speed = factor
		}
	})
}

func (c *Cluster) workerAt(idx int) *simWorker {
	if idx < 0 || idx >= len(c.workers) {
		return nil
	}
	return c.workers[idx]
}

// admit registers one fresh worker and queues it for dispatch.
func (c *Cluster) admit() *simWorker {
	m := c.reg.Admit(fmt.Sprintf("w%d", len(c.workers)), "sim")
	w := &simWorker{member: m.ID, alive: true, speed: 1}
	c.workers = append(c.workers, w)
	c.byMember[w.member] = w
	c.idle = append(c.idle, w.member)
	return w
}

// kill marks w dead immediately (process crash): the registry learns at
// once — unlike a partition, which it only discovers by sweep — its
// leases are revoked, and its in-flight work disappears.
func (c *Cluster) kill(w *simWorker) {
	if w == nil || !w.alive {
		return
	}
	w.alive = false
	w.gen++ // cancels the pending completion event, if any
	w.cur = nil
	w.queue = nil
	if !w.declaredDead {
		w.declaredDead = true
		c.reg.MarkDead(w.member)
		c.dropMember(w.member)
	}
	c.dispatchAll()
}

// dropMember revokes the member's leases job by job, in submission
// order (see fleet.Job.Revoke).
func (c *Cluster) dropMember(member int) {
	for _, jb := range c.running() {
		if revoked, requeued := jb.Revoke(member); revoked > 0 {
			c.reg.NoteRevoked(revoked, requeued)
		}
	}
}

// Run executes the scripted simulation to completion: until every
// submitted job reached a terminal state and all scripted events fired,
// or the horizon passed. It may be called once.
func (c *Cluster) Run() error {
	if c.ran {
		return fmt.Errorf("sim: Run called twice")
	}
	c.ran = true
	if len(c.jobs) == 0 {
		return fmt.Errorf("sim: no jobs submitted")
	}
	c.scheduleTick()
	horizon := c.epoch.Add(c.opts.Horizon)
	for c.pq.Len() > 0 {
		if c.pq[0].at.After(horizon) {
			c.failOpen(fmt.Sprintf("unfinished at the %v horizon", c.opts.Horizon))
			return fmt.Errorf("sim: horizon %v exceeded with unfinished work", c.opts.Horizon)
		}
		popped := c.nextEvent()
		if d := popped.at.Sub(c.now()); d > 0 {
			c.clock.Advance(d)
		}
		popped.fn()
		if c.finishedAll() {
			return nil
		}
	}
	if c.finishedAll() {
		return nil
	}
	// The queue drained with jobs still open: scheduling starved (e.g.
	// every worker dead and no tick rescheduled).
	c.failOpen("starved: event queue drained")
	return fmt.Errorf("sim: event queue drained with unfinished jobs")
}

// failOpen fails every job not yet finished with the given reason.
func (c *Cluster) failOpen(reason string) {
	for _, j := range c.jobs {
		switch {
		case j.jb == nil && j.err == nil:
			j.err = fmt.Errorf("sim: job %q never activated: %s", j.spec.Name, reason)
		case j.jb != nil:
			j.jb.Finish(fmt.Errorf("sim: job %q %s", j.spec.Name, reason), c.now())
		}
	}
}

func (c *Cluster) finishedAll() bool {
	for _, j := range c.jobs {
		if !j.done() {
			return false
		}
	}
	return true
}

// running lists the activated, unfinished jobs in submission order.
func (c *Cluster) running() []*fleet.Job[int32] {
	var out []*fleet.Job[int32]
	for _, j := range c.jobs {
		if j.jb != nil && !j.jb.Finished() {
			out = append(out, j.jb)
		}
	}
	return out
}

// scheduleTick runs the control loop: beat live workers, sweep for
// silent ones, expire overtimes, flag speculation, tune, dispatch —
// then re-arm until every job is done.
func (c *Cluster) scheduleTick() {
	c.after(c.knobs.CheckInterval, func() {
		now := c.now()
		for _, w := range c.workers {
			if w.alive && !w.partitioned && !w.declaredDead {
				c.reg.Beat(w.member)
			}
		}
		for _, id := range c.reg.Sweep(now, c.knobs.HeartbeatInterval, c.knobs.HeartbeatMiss) {
			// A swept member was partitioned past the miss window: revoke
			// its leases. The worker itself keeps computing — its results
			// are refused as stale, exactly like a real partitioned
			// worker whose connection the master tore down.
			if w := c.byMember[id]; w != nil && !w.declaredDead {
				w.declaredDead = true
				c.dropMember(id)
			}
		}
		for _, jb := range c.running() {
			jb.Requeue(jb.Expire(now)...)
			jb.Speculate(c.knobs, c.reg.Live())
		}
		if c.knobs.Tuner() != nil {
			// Finished jobs stay in the sample so its totals remain
			// monotone, as the fleet's retired baseline does.
			var activated []*fleet.Job[int32]
			for _, j := range c.jobs {
				if j.jb != nil {
					activated = append(activated, j.jb)
				}
			}
			c.knobs.Tick(fleet.TuneSample(tune.Sample{}, activated))
		}
		c.dispatchAll()
		if !c.finishedAll() {
			c.scheduleTick()
		}
	})
}

// Tuner exposes the self-tuning controller (nil unless Options.Auto),
// for assertions on converged recommendations.
func (c *Cluster) Tuner() *tune.Controller { return c.knobs.Tuner() }

// Trace renders the full event stream of the run in canonical form:
// the membership stream first, then each job's scheduling stream in
// submission order. Byte-equal outputs mean identical schedules.
func (c *Cluster) Trace() string {
	var b strings.Builder
	b.WriteString("# cluster\n")
	b.WriteString(trace.Format(c.tr.Events()))
	for _, j := range c.jobs {
		fmt.Fprintf(&b, "# job %s\n", j.spec.Name)
		b.WriteString(trace.Format(j.Events()))
	}
	return b.String()
}

// Registry exposes the membership table (metrics assertions).
func (c *Cluster) Registry() *cluster.Registry { return c.reg }

// MemberEvents returns the recorded membership transitions.
func (c *Cluster) MemberEvents() []trace.Event { return c.tr.Events() }

// Elapsed is the virtual makespan of the whole simulation.
func (c *Cluster) Elapsed() time.Duration { return c.now().Sub(c.epoch) }

// MaxDeficit is the largest normalized-service spread (max Served - min
// Served) observed across eligible jobs at any scheduling decision: the
// realized weighted fair-share bound of the run.
func (c *Cluster) MaxDeficit() float64 { return c.maxDeficit }
