package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cas"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/tune"
)

// JobRequest describes one DAG submitted to the shared fleet.
type JobRequest struct {
	// Name labels the job in metrics, traces and worker attach frames.
	Name string
	// Spec is the application-level job description shipped verbatim to
	// workers in the attach frame, where the injected builder turns it
	// back into the same Problem (the job service sends its JSON
	// JobSpec). May be nil for in-test problems built by hand on both
	// sides.
	Spec json.RawMessage
	// Proc is the processor-level partition; zero means the same default
	// rule core.Config applies, so master and workers derive identical
	// geometries.
	Proc dag.Size
	// Thread is the worker-local thread partition, carried in the attach
	// frame so every worker computes the job with the partition it was
	// submitted under.
	Thread dag.Size
	// Weight is the fair-share weight (default 1).
	Weight float64
	// Priority is the priority class (higher dispatches first).
	Priority int
	// Quota caps the job's in-flight leased attempts (0 = fleet
	// default): retries and speculative backups count against it, so a
	// poisoned job cannot flood the pool.
	Quota int
	// MaxAttempts bounds overtime redistributions per vertex before the
	// job — and only the job — fails (0 = fleet default).
	MaxAttempts int
	// TaskTimeout overrides the fleet's per-vertex overtime bound for
	// this job (0 = fleet default).
	TaskTimeout time.Duration
	// Timeout fails the job when it has run longer than this on the
	// fleet clock (0 = no bound).
	Timeout time.Duration
	// CacheKey is the content digest of the job's problem spec (kernel
	// plus inputs, scheduling knobs excluded) scoping its entries in the
	// fleet's cross-job result store (Options.Cache). Note JobMeta's
	// digest cannot serve here: it covers Name and partition sizes, so
	// identical problems submitted under different names or partitions
	// would never share cache entries. Empty disables caching for this
	// job even when the fleet has a store.
	CacheKey string
	// CheckpointPath, when non-empty, persists the job's completed
	// vertices and resumes from the clean prefix on resubmission.
	CheckpointPath string
	// OnProgress, when non-nil, is called after restore and after every
	// completed vertex with (completed, total), on the fleet's receive
	// loop — it must be fast and must not block.
	OnProgress func(completed, total int)
}

func (r JobRequest) withDefaults(o Options) JobRequest {
	if r.Weight <= 0 {
		r.Weight = 1
	}
	if r.Quota <= 0 {
		r.Quota = o.DefaultQuota
	}
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = o.MaxAttempts
	}
	if r.TaskTimeout <= 0 {
		r.TaskTimeout = o.TaskTimeout
	}
	return r
}

// JobMeta is the attach frame's payload: everything a fleet worker needs
// to build (and verify) the kernel state of one job. It travels as JSON,
// so the worker-side builder can be a different binary as long as it
// derives the same problem.
type JobMeta struct {
	Job    int32           `json:"job"`
	Name   string          `json:"name"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	Rows   int             `json:"rows"`
	Cols   int             `json:"cols"`
	Proc   dag.Size        `json:"proc"`
	Thread dag.Size        `json:"thread"`
	// Digest fingerprints the fields above. The worker recomputes it
	// over what it received and over the size of the problem its builder
	// actually produced, so a builder that diverges from the master's
	// (version skew, registry drift) is refused at attach time instead
	// of corrupting the run.
	Digest string `json:"digest"`
}

// digest fingerprints the meta's identity fields (Digest itself excluded).
func (m JobMeta) digest() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("easyhps-job:1:%s:%s:%dx%d:%dx%d:%dx%d",
		m.Name, string(m.Spec), m.Rows, m.Cols,
		m.Proc.Rows, m.Proc.Cols, m.Thread.Rows, m.Thread.Cols)))
	return hex.EncodeToString(h[:12])
}

// Result of one fleet job: the completed blocked matrix plus the job's
// own statistics ledger.
type Result[T any] struct {
	Store matrix.BlockStore[T]
	Stats cluster.Stats
}

// JobStatus is the monitoring view of one job (see Fleet.Snapshot).
type JobStatus struct {
	ID       int32
	Name     string
	State    string // "running", "done", "failed"
	Done     int    // completed vertices
	Total    int    // DAG size
	Ready    int    // computable vertices queued
	Inflight int    // leased attempts outstanding
	Weight   float64
	Priority int
	// Deficit is the gap between the most-served running job's
	// normalized service and this job's — the fair-share debt the
	// scheduler is working off, and an autoscaling signal: a persistent
	// positive deficit across jobs means the pool is too small.
	Deficit float64
	Stats   cluster.Stats
}

// Job is one DAG's scheduling state machine — graph, parser, block store,
// register table (attempt namespace), overtime queue, lease table, runtime
// profile, ready stack, checkpoint log and stats ledger — and the only
// definition of its decisions: backup arbitration, lease grant and
// overtime arming, result acceptance, overtime expiry and the deadline,
// speculation, revocation and stealing. Fleet drives it over member
// connections; internal/sim drives the same type under a discrete-event
// loop, so a simulated schedule is a statement about this code.
//
// The ready stack (NextBatch, Requeue, Enqueue, Served, Revoke, Speculate,
// Steal) belongs to the host: the caller serializes those methods, which
// the fleet does with its mutex. The rest lock internally, except that
// Apply and Expire each run on one goroutine at a time.
type Job[T any] struct {
	id    int32
	req   JobRequest
	p     core.Problem[T]
	meta  []byte // encoded JobMeta, shipped in attach frames
	clock sched.Clock

	geom    dag.Geometry
	graph   *dag.Graph
	parser  *dag.Parser
	store   matrix.BlockStore[T]
	rt      *sched.RegisterTable
	ot      *sched.OvertimeQueue
	leases  *sched.LeaseTable
	profile *sched.RuntimeProfile

	ckpt     *checkpoint.Writer
	ckptFile *os.File

	// Cross-job memoization (Options.Cache + JobRequest.CacheKey).
	// resultKey[v] is the content key of v's committed payload, written
	// only where parser and store are mutated (Start and Apply); senders
	// reading a completed dependency's key in dispatch are ordered behind
	// the write by the host's ready-stack serialization, which already
	// orders the ready handoff.
	cache     *cas.Store
	cacheSpec string
	resultKey []cas.Key

	// ready is the job's computable-vertex stack (LIFO, like the
	// single-job dispatcher) and served its fair-share account; both
	// belong to the host's serialization (see the type doc).
	ready  []int32
	served float64
	// drawn counts vertices NextBatch has taken off ready that Lease has
	// not settled yet; the policy adds it to Inflight so concurrent
	// senders cannot overshoot the job's quota in that window.
	drawn atomic.Int64

	// timeouts counts overtime expiries per vertex (the MaxAttempts
	// guard); Expire only.
	timeouts map[int32]int

	// Speculation bookkeeping: specPending flags vertices queued for a
	// backup; backupOf maps a racing vertex to its backup attempt.
	specMu      sync.Mutex
	specPending map[int32]bool
	backupOf    map[int32]int32

	ctrs cluster.Counters
	tr   *trace.Recorder

	start    time.Time // job clock, for Timeout
	deadline time.Time // zero = no bound

	done     chan struct{}
	doneOnce sync.Once
	errMu    sync.Mutex
	err      error
	leaked   int64
	elapsed  time.Duration
}

// NewJob builds a job's state from a request and defaulted options (see
// NewKnobs). The request inherits the options' defaults; an unset
// partition comes from the cost-model advisor under Auto, sized for live
// members, or else from the ~8x8-cell rule core.Config applies. The job's
// clock, deadline and trace recorder run on opts.Clock.
func NewJob[T any](id int32, p core.Problem[T], req JobRequest, opts Options, live int) (*Job[T], error) {
	req = req.withDefaults(opts)
	if p.Kernel == nil {
		return nil, fmt.Errorf("fleet: job %q has no kernel", req.Name)
	}
	if p.Codec == nil {
		return nil, fmt.Errorf("fleet: job %q has no codec", req.Name)
	}
	if !p.Size.Valid() {
		return nil, fmt.Errorf("fleet: job %q has invalid size %v", req.Name, p.Size)
	}
	proc := req.Proc
	if !proc.Valid() && opts.Auto {
		// Partition advisor: workers follow the attach frame's Proc, so
		// the choice cannot diverge.
		cm, _ := p.Kernel.(tune.CostModel)
		proc = tune.AdvisePartition(p.Size.Rows, p.Size.Cols, max(live, 1), cm)
	} else if !proc.Valid() {
		proc = dag.Size{Rows: (p.Size.Rows + 7) / 8, Cols: (p.Size.Cols + 7) / 8}
	}
	geom := dag.MatrixGeometry(p.Size, proc)
	graph := dag.Build(p.Kernel.Pattern(), geom)
	jb := &Job[T]{
		id:          id,
		req:         req,
		p:           p,
		clock:       opts.Clock,
		geom:        geom,
		graph:       graph,
		parser:      dag.NewParser(graph),
		store:       matrix.NewStore[T](geom),
		rt:          sched.NewRegisterTable(),
		ot:          sched.NewOvertimeQueueClock(opts.Clock),
		leases:      sched.NewLeaseTable(),
		profile:     sched.NewRuntimeProfile(0),
		timeouts:    make(map[int32]int),
		specPending: make(map[int32]bool),
		backupOf:    make(map[int32]int32),
		tr:          trace.NewWithNow(opts.Clock.Now),
		start:       opts.Clock.Now(),
		done:        make(chan struct{}),
	}
	if req.Timeout > 0 {
		jb.deadline = jb.start.Add(req.Timeout)
	}
	if opts.Cache != nil && req.CacheKey != "" {
		jb.cache = opts.Cache
		jb.cacheSpec = req.CacheKey
		jb.resultKey = make([]cas.Key, len(graph.Verts))
	}
	meta := JobMeta{
		Job:    id,
		Name:   req.Name,
		Spec:   req.Spec,
		Rows:   p.Size.Rows,
		Cols:   p.Size.Cols,
		Proc:   proc,
		Thread: req.Thread,
	}
	meta.Digest = meta.digest()
	enc, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("fleet: encoding job meta for %q: %w", req.Name, err)
	}
	jb.meta = enc
	return jb, nil
}

// Start restores the checkpoint prefix (when configured), drains the
// cross-job cache over the computable frontier, and stacks the misses as
// ready. Call it once, before the job is visible to any other goroutine;
// the job is finished on return when checkpoint and cache held all of it.
func (jb *Job[T]) Start() error {
	frontier, err := jb.restore()
	if err != nil {
		return err
	}
	jb.Enqueue(jb.absorbCached(frontier))
	if jb.parser.Finished() {
		jb.Finish(nil, jb.clock.Now())
	}
	return nil
}

// Finish ends the job exactly once, recording err (nil for success), the
// leak audit (register-table plus lease entries still live — zero for a
// clean finish), and the makespan.
func (jb *Job[T]) Finish(err error, now time.Time) {
	jb.doneOnce.Do(func() {
		jb.errMu.Lock()
		jb.err = err
		jb.leaked = int64(jb.rt.Outstanding() + jb.leases.Len())
		jb.elapsed = now.Sub(jb.start)
		jb.errMu.Unlock()
		if jb.ckptFile != nil {
			jb.ckptFile.Close()
		}
		close(jb.done)
	})
}

// Finished reports whether the job reached its terminal state.
func (jb *Job[T]) Finished() bool {
	select {
	case <-jb.done:
		return true
	default:
		return false
	}
}

// Err is the job's terminal error (nil while running or on success).
func (jb *Job[T]) Err() error {
	jb.errMu.Lock()
	defer jb.errMu.Unlock()
	return jb.err
}

// Stats materializes the job's ledger. Membership fields stay zero —
// joins and deaths belong to the fleet, not to any one job — except the
// lease audit, which is per job.
func (jb *Job[T]) Stats() cluster.Stats {
	s := jb.ctrs.Stats()
	jb.errMu.Lock()
	if jb.Finished() {
		s.Leaked = jb.leaked
		s.Elapsed = jb.elapsed
	}
	jb.errMu.Unlock()
	return s
}

// Store is the job's block store (complete once the job succeeded).
func (jb *Job[T]) Store() matrix.BlockStore[T] { return jb.store }

// Trace is the job's scheduling-event recorder.
func (jb *Job[T]) Trace() *trace.Recorder { return jb.tr }

// Served is the job's normalized fair-share service (drawn/weight, net of
// requeue refunds); a ready-stack method.
func (jb *Job[T]) Served() float64 { return jb.served }

// NextBatch asks policy which running job feeds the next dispatch and
// draws that job's batch LIFO off its ready stack: at most batchCap
// vertices, fewer when the job's quota room is smaller, charged to the
// job's fair-share account and counted as drawn until Lease settles
// them. Returns a nil job when none is eligible; a ready-stack method.
func NextBatch[T any](policy Policy, running []*Job[T], batchCap int) (*Job[T], []int32) {
	views := make([]JobView, len(running))
	for i, jb := range running {
		// drawn is read before the leases: a concurrent Lease grants
		// before it settles drawn, so the sum can overcount, never under.
		views[i] = JobView{ID: jb.id, Weight: jb.req.Weight, Priority: jb.req.Priority, Ready: len(jb.ready),
			Inflight: int(jb.drawn.Load()) + jb.leases.Len(), Quota: jb.req.Quota, Served: jb.served}
	}
	i := policy.Pick(views)
	if i < 0 || i >= len(running) {
		return nil, nil
	}
	jb := running[i]
	n := batchCap
	if q := views[i].Quota; q > 0 && q-views[i].Inflight < n {
		n = q - views[i].Inflight
	}
	n = min(max(n, 1), len(jb.ready))
	ids := make([]int32, n)
	copy(ids, jb.ready[len(jb.ready)-n:])
	jb.ready = jb.ready[:len(jb.ready)-n]
	jb.served += float64(n) / jb.req.Weight
	jb.drawn.Add(int64(n))
	return jb, ids
}

// Requeue puts dispatched vertices back on the ready stack, refunding
// their fair-share charge so a job does not pay twice for work it never
// kept. A no-op once the job finished; a ready-stack method.
func (jb *Job[T]) Requeue(ids ...int32) {
	if len(ids) == 0 || jb.Finished() {
		return
	}
	jb.served -= float64(len(ids)) / jb.req.Weight
	jb.Enqueue(ids)
}

// Enqueue stacks newly computable (or speculation-flagged) vertices,
// which were never charged. A no-op once the job finished; a ready-stack
// method.
func (jb *Job[T]) Enqueue(ids []int32) {
	if len(ids) == 0 || jb.Finished() {
		return
	}
	jb.ready = append(jb.ready, ids...)
	jb.tr.Ready(len(jb.ready))
}

// Task is one leased attempt awaiting encoding: the vertex, its attempt
// stamp, and its data region — the committed blocks of the vertex's data
// predecessors Deps, in order.
type Task[T any] struct {
	Vertex, Attempt int32
	Deps            []int32
	Blocks          []*matrix.Block[T]
}

// Lease settles a drawn batch for member: each vertex gets an attempt and
// a lease with a position-scaled overtime deadline (the i-th task of a
// batch waits behind i-1 others on the member), or a concurrent backup
// lease when it carries a speculation flag. Vertices finished or
// superseded meanwhile drop out; held returns flagged vertices whose
// primary this very member runs, for the caller to Requeue toward another
// member. Nothing is leased once the job finished.
func (jb *Job[T]) Lease(member int, ids []int32) (tasks []Task[T], held []int32) {
	defer jb.drawn.Add(-int64(len(ids)))
	if jb.Finished() {
		return nil, nil
	}
	now := jb.clock.Now()
	tasks = make([]Task[T], 0, len(ids))
	for _, v := range ids {
		attempt, ok, backup, self := jb.register(member, v)
		if !ok {
			if self {
				held = append(held, v)
			}
			continue
		}
		deps := jb.graph.Vertex(v).DataPre
		positions := make([]dag.Pos, len(deps))
		for k, d := range deps {
			positions[k] = jb.geom.PosOf(d)
		}
		blocks := jb.store.Gather(positions)
		deadline := now.Add(jb.req.TaskTimeout * time.Duration(len(tasks)+1))
		if backup {
			jb.leases.Add(v, member, attempt, now)
			jb.ot.AddConcurrent(v, attempt, deadline)
			jb.ctrs.Speculated.Add(1)
			jb.tr.Speculate(member, v)
		} else {
			jb.leases.Grant(v, member, attempt, now)
			jb.ot.Add(v, attempt, deadline)
		}
		jb.tr.TaskStart(member, v)
		jb.ctrs.Dispatches.Add(1)
		tasks = append(tasks, Task[T]{Vertex: v, Attempt: attempt, Deps: deps, Blocks: blocks})
	}
	return tasks, held
}

// unlease unwinds leased tasks that never reached the wire.
func (jb *Job[T]) unlease(tasks []Task[T]) {
	for _, t := range tasks {
		jb.leases.ReleaseAttempt(t.Vertex, t.Attempt)
		jb.ot.RemoveAttempt(t.Vertex, t.Attempt)
		jb.noteAttemptGone(t.Vertex, t.Attempt)
		jb.rt.CancelAttempt(t.Vertex, t.Attempt)
	}
}

// register claims an attempt of v for member — rt.Register for an
// ordinary draw, a concurrent backup for a speculation-flagged vertex. A
// member never backs up its own attempt: that draw is refused with
// held=true and the flag restored, so the vertex can go back on the ready
// stack for another member to back up promptly.
func (jb *Job[T]) register(member int, v int32) (attempt int32, ok, backup, held bool) {
	jb.specMu.Lock()
	pending := jb.specPending[v]
	delete(jb.specPending, v)
	jb.specMu.Unlock()
	if !pending {
		a, ok := jb.rt.Register(v)
		return a, ok, false, false
	}
	for _, l := range jb.leases.Holders(v) {
		if l.Worker == member {
			jb.specMu.Lock()
			jb.specPending[v] = true
			jb.specMu.Unlock()
			return 0, false, false, true
		}
	}
	a, ok := jb.rt.RegisterBackup(v)
	if !ok {
		return 0, false, false, false
	}
	jb.specMu.Lock()
	jb.backupOf[v] = a
	jb.specMu.Unlock()
	return a, true, true, false
}

// Encode serializes a task's data region in the plain wire format.
func (jb *Job[T]) Encode(t Task[T]) ([]byte, error) {
	jb.ctrs.BlocksShipped.Add(int64(len(t.Blocks)))
	return matrix.EncodeBlocks(jb.p.Codec, t.Blocks)
}

// Sent accounts one task message carrying entries to member.
func (jb *Job[T]) Sent(member int, entries []comm.TaskEntry) {
	bytes := 0
	for _, e := range entries {
		bytes += len(e.Payload)
	}
	jb.ctrs.TaskBytes.Add(int64(bytes))
	jb.tr.Dispatch(member, len(entries), bytes)
	if len(entries) > 1 {
		jb.ctrs.BatchMessages.Add(1)
	}
}

// Apply is the result path for one attempt's payload from member:
// attempt arbitration (a stale or duplicate result is counted and
// dropped), the runtime-profile sample, lease release, speculation
// accounting, decode, commit, the DAG advance and the cross-job cache
// drain. It reports whether the result committed and returns the newly
// computable vertices the caller should Enqueue. A bad payload or a
// failed commit finishes the job with the error; the last vertex finishes
// it with success.
func (jb *Job[T]) Apply(member int, v, attempt int32, payload []byte) (newly []int32, ok bool) {
	if !jb.rt.Accept(v, attempt) {
		jb.ctrs.StaleResults.Add(1)
		return nil, false
	}
	jb.ot.Remove(v)
	now := jb.clock.Now()
	if l, ok := jb.leases.Find(v, attempt); ok {
		jb.profile.Observe(now.Sub(l.Granted))
	}
	jb.leases.Release(v)
	jb.specMu.Lock()
	if backup, ok := jb.backupOf[v]; ok {
		delete(jb.backupOf, v)
		delete(jb.specPending, v)
		if backup == attempt {
			jb.ctrs.SpecWon.Add(1)
		} else {
			jb.ctrs.SpecWasted.Add(1)
		}
	}
	jb.specMu.Unlock()
	blocks, err := matrix.DecodeBlocks(jb.p.Codec, payload)
	if err != nil || len(blocks) != 1 {
		jb.Finish(fmt.Errorf("fleet: bad result payload for vertex %d of job %q from member %d: %v", v, jb.req.Name, member, err), now)
		return nil, false
	}
	if err := jb.commit(v, payload, blocks[0]); err != nil {
		jb.Finish(err, now)
		return nil, false
	}
	jb.tr.TaskEnd(member, v)
	jb.ctrs.Tasks.Add(1)
	newly = jb.parser.Complete(v)
	jb.progress()
	if jb.parser.Finished() {
		jb.Finish(nil, now)
		return nil, true
	}
	return jb.absorbCached(newly), true
}

// Expire applies one control tick's failure rules at now: past
// start+Timeout the job fails; then every expired overtime attempt loses
// its lease and, unless a concurrent attempt survives, its vertex is
// returned for the caller to Requeue. A vertex expiring MaxAttempts times
// fails the job — and only the job.
func (jb *Job[T]) Expire(now time.Time) []int32 {
	if jb.Finished() {
		return nil
	}
	if !jb.deadline.IsZero() && now.After(jb.deadline) {
		jb.Finish(fmt.Errorf("fleet: job %q exceeded its %v timeout with %d vertices remaining",
			jb.req.Name, jb.req.Timeout, jb.parser.Remaining()), now)
		return nil
	}
	var requeue []int32
	for _, e := range jb.ot.ExpireBefore(now) {
		jb.leases.ReleaseAttempt(e.ID, e.Attempt)
		jb.noteAttemptGone(e.ID, e.Attempt)
		jb.timeouts[e.ID]++
		if jb.timeouts[e.ID] >= jb.req.MaxAttempts {
			jb.Finish(fmt.Errorf("fleet: job %q: vertex %d timed out %d times (MaxAttempts); giving up",
				jb.req.Name, e.ID, jb.timeouts[e.ID]), now)
			return nil
		}
		if jb.rt.CancelAttempt(e.ID, e.Attempt) == 0 {
			jb.ctrs.Redistributions.Add(1)
			requeue = append(requeue, e.ID)
		}
	}
	return requeue
}

// Speculate flags the job's straggling attempts for backup dispatch once
// they outlive the runtime-profile threshold at k's current quantile and
// multiplier — only while nothing is queued, and at most budget per tick
// (the live-member count, so one job's stragglers cannot spend the pool's
// whole allowance). Flagged vertices are stacked ready, where Lease turns
// their next draw into a backup. A ready-stack method.
func (jb *Job[T]) Speculate(k *Knobs, budget int) {
	if !k.Speculate || jb.Finished() || len(jb.ready) > 0 {
		return
	}
	q, mult := k.SpecParams()
	threshold, ok := jb.profile.Threshold(q, mult, k.SpecFloor, k.SpecMinSamples)
	if !ok {
		return
	}
	var flagged []int32
	for _, l := range jb.leases.OlderThan(jb.clock.Now().Add(-threshold)) {
		if len(flagged) == budget {
			break
		}
		if jb.rt.LiveAttempts(l.Vertex) != 1 {
			continue
		}
		jb.specMu.Lock()
		skip := jb.specPending[l.Vertex]
		jb.specPending[l.Vertex] = true
		jb.specMu.Unlock()
		if !skip {
			flagged = append(flagged, l.Vertex)
		}
	}
	jb.Enqueue(flagged)
}

// Revoke drops every lease member holds in the job (a death or a leave,
// which never counts toward MaxAttempts) and requeues each vertex no
// concurrent attempt still covers. Returns the revoked and requeued
// counts; a ready-stack method.
func (jb *Job[T]) Revoke(member int) (revoked, requeued int) {
	leases := jb.leases.RevokeWorker(member)
	var requeue []int32
	for _, l := range leases {
		jb.ot.RemoveAttempt(l.Vertex, l.Attempt)
		jb.noteAttemptGone(l.Vertex, l.Attempt)
		if jb.rt.CancelAttempt(l.Vertex, l.Attempt) == 0 {
			requeue = append(requeue, l.Vertex)
		}
	}
	jb.Requeue(requeue...)
	return len(leases), len(requeue)
}

// Steal answers hungry member when no running job has queued work: the
// deepest member backlog across running jobs — at least two leases; ties
// go to the earlier job, then to the lowest member id — gives up the newer
// half of its batch entries, except any in a speculative race, and they
// are requeued on their job's ready stack. Nothing is stolen while member
// itself holds a lease. Reports whether anything moved; a ready-stack
// method.
func Steal[T any](running []*Job[T], member int) bool {
	var jb *Job[T]
	victim, deepest, own := 0, 1, 0
	for _, j := range running {
		if len(j.ready) > 0 {
			return false
		}
		own += j.leases.Load(member)
		for w, n := range j.leases.Loads() {
			if w != member && (n > deepest || n == deepest && j == jb && w < victim) {
				jb, victim, deepest = j, w, n
			}
		}
	}
	if own > 0 || jb == nil {
		return false
	}
	backlog := jb.leases.WorkerLeases(victim)
	var stolen []int32
	for _, l := range backlog[(len(backlog)+1)/2:] {
		if jb.rt.LiveAttempts(l.Vertex) != 1 {
			continue
		}
		jb.leases.ReleaseAttempt(l.Vertex, l.Attempt)
		jb.ot.RemoveAttempt(l.Vertex, l.Attempt)
		if jb.rt.CancelAttempt(l.Vertex, l.Attempt) == 0 {
			stolen = append(stolen, l.Vertex)
		}
	}
	if len(stolen) == 0 {
		return false
	}
	jb.ctrs.Steals.Add(int64(len(stolen)))
	jb.tr.Steal(member, len(stolen))
	jb.Requeue(stolen...)
	return true
}

// TuneSample assembles one control tick's tuner observation: base plus
// the counter totals of jobs, and the runtime-profile quantiles of the
// unfinished job with the heaviest straggler tail — the pool-wide
// thresholds must serve its worst case.
func TuneSample[T any](base tune.Sample, jobs []*Job[T]) tune.Sample {
	s := base
	var worst float64
	for _, jb := range jobs {
		s.Dispatches += jb.ctrs.Dispatches.Load()
		s.TaskBytes += jb.ctrs.TaskBytes.Load()
		s.Steals += jb.ctrs.Steals.Load()
		s.SpecWon += jb.ctrs.SpecWon.Load()
		s.SpecWasted += jb.ctrs.SpecWasted.Load()
		n := jb.profile.Samples()
		if n == 0 || jb.Finished() {
			continue
		}
		p50, _ := jb.profile.Quantile(0.5)
		p95, _ := jb.profile.Quantile(0.95)
		if p50 <= 0 {
			continue
		}
		if d := float64(p95) / float64(p50); s.ProfileSamples == 0 || d > worst {
			worst = d
			s.ProfileP50, s.ProfileP95, s.ProfileSamples = p50, p95, n
		}
	}
	return s
}

// blockKey derives vertex v's cross-job cache key: the job's spec
// digest, the block's cell rectangle, and the content keys of its
// predecessors' committed payloads. Only called once every predecessor
// has committed.
func (jb *Job[T]) blockKey(v int32) cas.Key {
	deps := jb.graph.Vertex(v).DataPre
	preds := make([]cas.Key, len(deps))
	for i, d := range deps {
		preds[i] = jb.resultKey[d]
	}
	r := jb.geom.Rect(jb.geom.PosOf(v))
	return cas.BlockKey(jb.cacheSpec, r.Row0, r.Col0, r.Rows, r.Cols, preds)
}

// commit is the single write path for a completed block: store insert,
// content-key recording, cross-job cache write-through, and checkpoint
// append all happen here, so recovery log and cache can never diverge.
// Only called from Start and Apply.
func (jb *Job[T]) commit(v int32, payload []byte, b *matrix.Block[T]) error {
	jb.store.Put(jb.geom.PosOf(v), b)
	if jb.cache != nil {
		jb.resultKey[v] = cas.PayloadKey(payload)
		jb.cache.PutBlock(jb.blockKey(v), payload)
	}
	if jb.ckpt != nil {
		return jb.ckpt.Append(v, payload)
	}
	return nil
}

// absorbCached probes the cross-job result cache for each newly
// computable vertex and commits hits in place, cascading: a hit's
// completion may open further vertices, which are probed in turn. Returns
// the misses — the vertices that still need dispatch. A corrupt cache
// entry degrades to a miss (recompute), never to a wrong result, because
// commit re-derives the content key from the stored payload. A drain that
// completes the DAG finishes the job.
func (jb *Job[T]) absorbCached(ids []int32) []int32 {
	if jb.cache == nil {
		return ids
	}
	var miss []int32
	work := append([]int32(nil), ids...)
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		payload, ok := jb.cache.GetBlock(jb.blockKey(v), cas.LayerMaster)
		var b *matrix.Block[T]
		if ok {
			blocks, err := matrix.DecodeBlocks(jb.p.Codec, payload)
			if err == nil && len(blocks) == 1 {
				b = blocks[0]
			}
		}
		if b == nil {
			jb.ctrs.CacheMisses.Add(1)
			miss = append(miss, v)
			continue
		}
		jb.ctrs.CacheHits.Add(1)
		if err := jb.commit(v, payload, b); err != nil {
			jb.Finish(err, jb.clock.Now())
			return miss
		}
		work = append(work, jb.parser.Complete(v)...)
		jb.progress()
	}
	if jb.parser.Finished() {
		jb.Finish(nil, jb.clock.Now())
	}
	return miss
}

// restore replays the job's checkpoint prefix (when configured) and
// returns the computable frontier in vertex order.
func (jb *Job[T]) restore() ([]int32, error) {
	ready := make(map[int32]bool)
	for _, id := range jb.parser.InitialReady() {
		ready[id] = true
	}
	if jb.req.CheckpointPath != "" {
		w, f, n, err := checkpoint.OpenAppend(jb.req.CheckpointPath, func(v int32, payload []byte) error {
			if int(v) < 0 || int(v) >= len(jb.graph.Verts) || !jb.graph.Vertex(v).Exists {
				return fmt.Errorf("fleet: checkpoint names unknown vertex %d", v)
			}
			if !ready[v] {
				return fmt.Errorf("fleet: checkpoint record for vertex %d out of order", v)
			}
			blocks, err := matrix.DecodeBlocks(jb.p.Codec, payload)
			if err != nil || len(blocks) != 1 {
				return fmt.Errorf("fleet: checkpoint payload for vertex %d: %v", v, err)
			}
			// commit writes the restored block through to the cross-job
			// cache (jb.ckpt is still nil during OpenAppend's replay, so
			// nothing is double-appended): a resumed run warms the cache
			// exactly like a computed one.
			if err := jb.commit(v, payload, blocks[0]); err != nil {
				return err
			}
			delete(ready, v)
			for _, nv := range jb.parser.Complete(v) {
				ready[nv] = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		jb.ckpt, jb.ckptFile = w, f
		jb.ctrs.Restored.Store(int64(n))
	}
	frontier := make([]int32, 0, len(ready))
	for id := range ready {
		frontier = append(frontier, id)
	}
	sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
	jb.progress()
	return frontier, nil
}

func (jb *Job[T]) progress() {
	if jb.req.OnProgress == nil {
		return
	}
	jb.req.OnProgress(jb.graph.N-jb.parser.Remaining(), jb.graph.N)
}

// noteAttemptGone records the speculation-accounting consequence of one
// attempt of v dying (member death, overtime expiry or an unsent
// dispatch): the race is over, and it was wasted if the backup died.
func (jb *Job[T]) noteAttemptGone(v, attempt int32) {
	jb.specMu.Lock()
	if backup, ok := jb.backupOf[v]; ok {
		delete(jb.backupOf, v)
		if backup == attempt {
			jb.ctrs.SpecWasted.Add(1)
		}
	}
	jb.specMu.Unlock()
}
