package sim

import (
	"time"

	"repro/internal/comm"
	"repro/internal/fleet"
)

// simWorker is one simulated fleet member: a speed factor, a FIFO task
// queue and liveness flags. It executes its queue one entry at a time;
// service times are the job's cost scaled by the worker's current speed
// and the cluster's jitter draw.
type simWorker struct {
	member int
	alive  bool
	// partitioned workers keep computing but stop heartbeating and
	// their results are dropped (an unreachable peer, not a dead one).
	partitioned bool
	// declaredDead is the master's view: set by a crash (KillAt) or by
	// the membership sweep. Leases are revoked exactly once, here.
	declaredDead bool
	speed        float64
	queue        []entry
	cur          *entry
	// gen invalidates the pending completion event when the worker's
	// in-flight work disappears (crash).
	gen int
}

// entry is one dispatched task attempt sitting in a worker's queue: the
// frame the master sent, including the encoded data region the compute
// runs against.
type entry struct {
	j *Job
	comm.TaskEntry
}

// dispatchAll feeds every idle worker until no job has eligible work,
// then lets the steal path rescue any still-idle workers. It is called
// at the end of every event that could open work or free a worker.
func (c *Cluster) dispatchAll() {
	c.feedIdle()
	if c.knobs.Steal && len(c.idle) > 0 {
		// No job has queued work but workers sit idle: steal the tail of
		// the deepest backlog toward each hungry member, exactly one
		// feed attempt per idle worker per pass (fleet.Steal).
		hungry := len(c.idle)
		for i := 0; i < hungry && len(c.idle) > 0; i++ {
			m := c.idle[0]
			w := c.byMember[m]
			if w == nil || !w.ready() {
				c.idle = c.idle[1:]
				continue
			}
			if !fleet.Steal(c.running(), w.member) {
				break
			}
			c.feedIdle()
		}
	}
}

// feedIdle pops idle tokens and hands each worker a batch while the
// policy finds one; stale tokens (dead, partitioned, busy workers)
// are discarded on the way.
func (c *Cluster) feedIdle() {
	for len(c.idle) > 0 {
		m := c.idle[0]
		w := c.byMember[m]
		if w == nil || !w.ready() {
			c.idle = c.idle[1:]
			continue
		}
		if !c.tryFeed(w) {
			return
		}
		c.idle = c.idle[1:]
	}
}

// ready reports whether the worker can accept a dispatch right now.
func (w *simWorker) ready() bool {
	return w.alive && !w.partitioned && !w.declaredDead && w.cur == nil && len(w.queue) == 0
}

// tryFeed draws batches for w until one spends its idle token (true)
// or no job is eligible (false) — fleet's sender loop.
func (c *Cluster) tryFeed(w *simWorker) bool {
	for {
		jb, ids := fleet.NextBatch(c.knobs.Policy, c.running(), c.knobs.BatchCap())
		if jb == nil {
			return false
		}
		if c.send(w, jb, ids) {
			return true
		}
	}
}

// send leases the drawn vertices to worker w and enqueues the task
// frames (fleet's dispatch, with the plain wire format). It reports
// whether the idle token is spent: not when every drawn vertex turned
// out finished or superseded, but also when the whole draw was held
// self-backups (fleet's rule), which another worker must take.
func (c *Cluster) send(w *simWorker, jb *fleet.Job[int32], ids []int32) bool {
	tasks, held := jb.Lease(w.member, ids)
	jb.Requeue(held...)
	if len(tasks) == 0 {
		return len(held) > 0
	}
	entries := make([]comm.TaskEntry, len(tasks))
	for i, t := range tasks {
		payload, err := jb.Encode(t)
		if err != nil {
			jb.Finish(err, c.now())
			return true
		}
		entries[i] = comm.TaskEntry{Vertex: t.Vertex, Attempt: t.Attempt, Payload: payload}
	}
	jb.Sent(w.member, entries)
	for _, e := range entries {
		w.queue = append(w.queue, entry{j: c.handles[jb], TaskEntry: e})
	}
	c.startNext(w)
	return true
}

// startNext begins the worker's next queued entry, skipping frames of
// retired jobs (the worker would drop them on JobEnd in the real
// protocol). An emptied worker re-enters the idle queue.
func (c *Cluster) startNext(w *simWorker) {
	for w.cur == nil && len(w.queue) > 0 {
		e := w.queue[0]
		w.queue = w.queue[1:]
		if e.j.jb.Finished() {
			continue
		}
		ec := e
		w.cur = &ec
		gen := w.gen
		c.after(c.serviceTime(&ec, w), func() { c.complete(w, gen) })
	}
	if w.cur == nil {
		c.noteIdleIfFree(w)
	}
}

// serviceTime draws the virtual execution time of one entry: the job's
// nominal cost (plus the block-area term when CostPerCell is set),
// scaled by the worker's current speed factor and the cluster's jitter.
// The RNG is consumed in event order, so the draw sequence — and with
// it the whole schedule — is a function of the seed.
func (c *Cluster) serviceTime(e *entry, w *simWorker) time.Duration {
	cost := float64(e.j.spec.Cost)
	if e.j.spec.CostPerCell > 0 {
		geom := e.j.jb.Store().Geometry()
		r := geom.Rect(geom.PosOf(e.Vertex))
		cost += float64(e.j.spec.CostPerCell) * float64(r.Rows*r.Cols)
	}
	d := cost * w.speed
	if c.opts.Jitter > 0 {
		d *= 1 + c.opts.Jitter*(2*c.rng.Float64()-1)
	}
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}

// complete fires when the worker's current entry finishes computing.
// A stale generation means the worker crashed in the meantime and the
// work never happened.
func (c *Cluster) complete(w *simWorker, gen int) {
	if w.gen != gen || w.cur == nil {
		return
	}
	e := w.cur
	w.cur = nil
	if w.alive && !w.partitioned {
		// A declared-dead (swept) but healed worker still delivers: the
		// master refuses the result in attempt arbitration, which is the
		// zombie-result path the register table exists for.
		c.deliver(w, e)
	}
	c.startNext(w)
	c.dispatchAll()
}

// deliver computes one finished entry on the job's task runner — the
// computation a worker would have shipped back — and hands the result
// to the fleet's result path (fleet.Job.Apply).
func (c *Cluster) deliver(w *simWorker, e *entry) {
	jb := e.j.jb
	if jb.Finished() {
		return
	}
	out, err := e.j.runner.Run(e.Vertex, e.Payload)
	if err != nil {
		jb.Finish(err, c.now())
		return
	}
	newly, ok := jb.Apply(w.member, e.Vertex, e.Attempt, out)
	if ok {
		c.reg.NoteCompleted(w.member)
	}
	jb.Enqueue(newly)
}

// noteIdleIfFree queues an idle token for w if it can take work.
func (c *Cluster) noteIdleIfFree(w *simWorker) {
	if w.ready() {
		c.idle = append(c.idle, w.member)
	}
}
