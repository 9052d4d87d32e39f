// Package fleet is the shared-fleet control plane: one master process
// running N concurrent DAG jobs over a single elastic worker pool.
//
// The fleet owns the shared half — the listener, membership registry,
// member connections, heartbeats and hunger beacons — while each
// submitted job owns the DAG-progress half: its graph, parser, block
// store, register table (attempt namespace), overtime queue, lease table,
// checkpoint log, runtime profile and stats ledger. Task and result
// frames carry a job id (comm.Message.Job, wire protocol v3), and a worker
// attaches a job's kernel state on first contact via a job-spec frame, so
// one worker holds batches from several jobs at once. A single elastic
// run (easyhps-launch -elastic) is a fleet with one job.
//
// Which job feeds the next ready batch to an idle worker is decided by a
// pluggable Policy; the default FairShare dispatches to the eligible job
// with the largest outstanding-vertex deficit (weighted max-min
// fairness), with priority classes and per-job in-flight quotas on top.
// A poisoned job — one whose vertices time out repeatedly — fails alone:
// its retries are capped by its own MaxAttempts and bounded by its quota,
// and the healthy jobs keep draining.
//
// See docs/FLEET.md for the membership state machine, the scheduler
// policy, the job-scoped lease lifecycle, and the wire-protocol changes.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cas"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/tune"
)

// Options configures a shared fleet.
type Options struct {
	// Addr is the listen address (host:port; :0 picks a free port,
	// readable from Fleet.Addr).
	Addr string
	// HeartbeatInterval is the worker beacon period (default 250 ms).
	HeartbeatInterval time.Duration
	// HeartbeatMiss is how many silent intervals declare a member dead
	// (default 3).
	HeartbeatMiss int
	// TaskTimeout is the default per-vertex overtime bound (default
	// 30 s); jobs may override it per JobRequest.
	TaskTimeout time.Duration
	// CheckInterval is the control-loop tick (default HeartbeatInterval).
	CheckInterval time.Duration
	// MaxAttempts is the default per-vertex overtime cap before a job
	// fails (default 4); jobs may override it.
	MaxAttempts int
	// Batch bounds how many ready vertices one dispatch message may
	// carry (default 1). A batch never mixes jobs.
	Batch int
	// DefaultQuota caps each job's in-flight leased attempts when the
	// JobRequest does not set its own (0 = unlimited).
	DefaultQuota int
	// Policy picks the job that feeds each idle worker (default
	// FairShare).
	Policy Policy
	// Speculate enables speculative re-execution per job: an attempt
	// running longer than its job's runtime-profile threshold gets a
	// backup on another member, and the first result wins.
	Speculate bool
	// SpecQuantile is the runtime-profile quantile an attempt must
	// outlive to become a speculation candidate (default 0.95);
	// SpecMultiplier scales it into the age threshold (default 2);
	// SpecMinSamples is how many completed vertices a job must observe
	// before speculation arms (default 8); SpecFloor is the minimum age
	// threshold (default CheckInterval).
	SpecQuantile   float64
	SpecMultiplier float64
	SpecMinSamples int
	SpecFloor      time.Duration
	// Steal enables feeding hungry workers from the most loaded member's
	// undispatched backlog.
	Steal bool
	// Auto hands the shared-pool knobs to the online tuner: Speculate
	// and Steal are forced on, Batch/SpecQuantile/SpecMultiplier become
	// the tuner's starting point, and every control tick may adjust them
	// from dispatch progress, hunger, the worst per-job profile
	// dispersion and speculation outcomes (internal/tune). Adjustments
	// are traced as EvTune events on the fleet recorder and exported via
	// TuneSnapshot.
	Auto bool
	// Cache, when non-nil, is the cross-job content-addressed result
	// store (internal/cas), shared by every job that submits a CacheKey:
	// computable vertices are probed before dispatch (a hit applies the
	// stored block without drawing a lease), completed blocks are
	// written through alongside the checkpoint, and task payloads switch
	// to the keyed wire format, where a block a member already holds is
	// replaced by a content-key reference.
	Cache *cas.Store
	// Clock is the time source for all deadline machinery; nil means the
	// wall clock, tests inject a sched.FakeClock.
	Clock sched.Clock
	// Trace optionally records fleet-level membership events.
	Trace *trace.Recorder
	// RetainJobs is how many finished jobs stay queryable via Snapshot
	// and TraceEvents (default 64).
	RetainJobs int
}

func (o Options) withDefaults() Options {
	if o.Auto {
		// Auto means "mitigate stragglers for me": both mitigation
		// mechanisms arm, and the tuner owns their thresholds.
		o.Speculate = true
		o.Steal = true
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 250 * time.Millisecond
	}
	if o.HeartbeatMiss < 1 {
		o.HeartbeatMiss = 3
	}
	if o.TaskTimeout <= 0 {
		o.TaskTimeout = 30 * time.Second
	}
	if o.CheckInterval <= 0 {
		o.CheckInterval = o.HeartbeatInterval
	}
	if o.MaxAttempts < 1 {
		o.MaxAttempts = 4
	}
	if o.Batch < 1 {
		o.Batch = 1
	}
	if o.Policy == nil {
		o.Policy = FairShare{}
	}
	if o.SpecQuantile <= 0 || o.SpecQuantile > 1 {
		o.SpecQuantile = 0.95
	}
	if o.SpecMultiplier <= 1 {
		o.SpecMultiplier = 2
	}
	if o.SpecMinSamples < 1 {
		o.SpecMinSamples = 8
	}
	if o.SpecFloor <= 0 {
		o.SpecFloor = o.CheckInterval
	}
	if o.Clock == nil {
		o.Clock = sched.Wall
	}
	if o.RetainJobs < 1 {
		o.RetainJobs = 64
	}
	return o
}

// Snapshot is the fleet's monitoring surface: per-job progress, job-state
// counts, and the autoscaling signals (aggregate queue depth, hunger
// rate, per-job deficit).
type Snapshot struct {
	// Jobs lists running jobs first, then retained finished ones.
	Jobs []JobStatus
	// States counts jobs by state ("running", "done", "failed").
	States map[string]int
	// QueueDepth is the aggregate number of computable vertices queued
	// across running jobs — work the pool has not absorbed yet.
	QueueDepth int
	// Hungers counts hunger beacons received: a high rate means workers
	// drain faster than the fleet feeds them.
	Hungers int64
	// Members is the membership view (states, joins, deaths, ...).
	Members cluster.Snapshot
	// Aggregate rolls every job's Stats up into one ledger.
	Aggregate cluster.Stats
}

// Fleet runs many concurrent DAG jobs over one shared elastic worker
// pool. Create with New, submit jobs with Run (one goroutine per job,
// typically the job service's run slots), stop with Close.
type Fleet[T any] struct {
	opts Options

	ln    net.Listener
	reg   *cluster.Registry
	clock sched.Clock

	inbox chan event

	connMu sync.Mutex
	conns  map[int]*memberConn

	// mu guards the job table, iteration order, every job's ready stack
	// and served tally, and the closed flag; cond (on mu) wakes senders
	// when work or shutdown arrives.
	mu      sync.Mutex
	cond    *sync.Cond
	jobs    map[int32]*job[T]
	order   []int32 // running jobs, submission order
	doneLog []*job[T]
	nextID  int32
	closed  bool

	done     chan struct{}
	doneOnce sync.Once
	wg       sync.WaitGroup

	hungers atomic.Int64
	stale   atomic.Int64 // results for unknown/finished jobs

	// tuner is the self-tuning controller, non-nil iff Options.Auto.
	// retired (guarded by mu) folds the counters of retired jobs into
	// the tuner's cumulative sample so it stays monotone after jobs
	// leave the running table.
	tuner   *tune.Controller
	retired tune.Sample

	// progressMu/progressC/progressGen let observers (WaitMembers, tests)
	// wait for scheduling progress without polling: noteProgress bumps
	// the generation and broadcasts after admissions, revocations,
	// dispatch grants, applied results, control ticks, job retirement and
	// Close. Leaf lock — never held while taking mu, connMu, or attachMu.
	progressMu  sync.Mutex
	progressC   *sync.Cond
	progressGen uint64
}

// noteProgress records one unit of scheduling progress for waitProgress
// observers. Cheap enough to call on every dispatch/result/tick.
func (f *Fleet[T]) noteProgress() {
	f.progressMu.Lock()
	f.progressGen++
	f.progressC.Broadcast()
	f.progressMu.Unlock()
}

// progressGeneration snapshots the progress counter; waitProgress blocks
// until it moves past the snapshot.
func (f *Fleet[T]) progressGeneration() uint64 {
	f.progressMu.Lock()
	defer f.progressMu.Unlock()
	return f.progressGen
}

// waitProgress blocks until the progress generation exceeds gen or abort
// is signalled (returns false). Evaluate the condition of interest
// OUTSIDE this call, between generation snapshots, so no wakeup is lost:
// snapshot, check, wait, re-check.
func (f *Fleet[T]) waitProgress(gen uint64, abort <-chan struct{}) bool {
	f.progressMu.Lock()
	defer f.progressMu.Unlock()
	for f.progressGen == gen {
		select {
		case <-abort:
			return false
		default:
		}
		f.progressC.Wait()
	}
	return true
}

// event is one unit of the fleet's serialized input: a message from a
// member, or a connection-failure notice from its pump.
type event struct {
	member int
	msg    comm.Message
	down   bool
}

// memberConn is the fleet-side endpoint of one member.
type memberConn struct {
	id       int
	cn       *comm.Conn
	idle     chan struct{}
	stop     chan struct{}
	stopOnce sync.Once

	// attached tracks which jobs this member holds kernel state for
	// (job-spec sent, job-end not yet). known, present when the fleet
	// has a result store, is the member's content-keyed known-set for
	// the keyed wire format. Both are guarded by attachMu: every Note
	// and Knows must be ordered against the attach/detach frames, and in
	// particular against the Reset that mirrors the worker dropping its
	// block cache when its last job detaches.
	attachMu sync.Mutex
	attached map[int32]bool
	known    *cas.PeerSet
}

func (mc *memberConn) close() {
	mc.stopOnce.Do(func() {
		close(mc.stop)
		mc.cn.Close()
	})
}

func (mc *memberConn) stopped() bool {
	select {
	case <-mc.stop:
		return true
	default:
		return false
	}
}

// New builds a fleet and starts listening on opts.Addr. Workers may join
// immediately; jobs arrive via Run.
func New[T any](opts Options) (*Fleet[T], error) {
	opts = opts.withDefaults()
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, err
	}
	f := &Fleet[T]{
		opts:  opts,
		ln:    ln,
		reg:   cluster.NewRegistry(opts.Trace, opts.Clock),
		clock: opts.Clock,
		inbox: make(chan event, 256),
		conns: make(map[int]*memberConn),
		jobs:  make(map[int32]*job[T]),
		done:  make(chan struct{}),
	}
	f.cond = sync.NewCond(&f.mu)
	f.progressC = sync.NewCond(&f.progressMu)
	if opts.Auto {
		f.tuner = tune.New(tune.DefaultLimits(), opts.Batch,
			opts.SpecQuantile, opts.SpecMultiplier, opts.SpecMinSamples)
	}
	f.wg.Add(3)
	go func() { defer f.wg.Done(); f.acceptLoop() }()
	go func() { defer f.wg.Done(); f.recvLoop() }()
	go func() { defer f.wg.Done(); f.controlLoop() }()
	return f, nil
}

// Addr returns the address the fleet listens on.
func (f *Fleet[T]) Addr() string { return f.ln.Addr().String() }

// Registry exposes the membership table.
func (f *Fleet[T]) Registry() *cluster.Registry { return f.reg }

// Close shuts the fleet down: running jobs fail with ErrFleetClosed,
// workers are dismissed, and the loops drain.
func (f *Fleet[T]) Close() {
	f.doneOnce.Do(func() {
		f.mu.Lock()
		f.closed = true
		running := make([]*job[T], 0, len(f.order))
		for _, id := range f.order {
			running = append(running, f.jobs[id])
		}
		f.cond.Broadcast()
		f.mu.Unlock()
		now := f.clock.Now()
		for _, jb := range running {
			jb.finish(ErrFleetClosed, now)
		}
		close(f.done)
		f.ln.Close()
		f.connMu.Lock()
		conns := make([]*memberConn, 0, len(f.conns))
		for _, mc := range f.conns {
			conns = append(conns, mc)
		}
		f.connMu.Unlock()
		for _, mc := range conns {
			_ = mc.cn.Send(comm.Message{Kind: comm.KindEnd})
			mc.close()
		}
		f.noteProgress() // wake WaitMembers
	})
	f.wg.Wait()
}

// WaitMembers blocks until at least n members are live, ctx ends (its
// error is returned), or the fleet closes (ErrFleetClosed). It is the
// quorum gate of a single-job run: submit only once enough workers have
// joined, so the first wave spreads across them.
func (f *Fleet[T]) WaitMembers(ctx context.Context, n int) error {
	stop := context.AfterFunc(ctx, f.noteProgress)
	defer stop()
	for {
		gen := f.progressGeneration()
		if f.reg.Live() >= n {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if f.fleetClosed() {
			return ErrFleetClosed
		}
		f.waitProgress(gen, nil)
	}
}

// ErrFleetClosed fails jobs still running when the fleet shuts down.
var ErrFleetClosed = errors.New("fleet: closed")

// Run submits one job and blocks until it completes, fails, or ctx is
// cancelled. Jobs run concurrently: call Run from one goroutine per job.
func (f *Fleet[T]) Run(ctx context.Context, p core.Problem[T], req JobRequest) (*Result[T], error) {
	req = req.withDefaults(f.opts)
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrFleetClosed
	}
	f.nextID++
	id := f.nextID
	f.mu.Unlock()

	if f.opts.Auto && !req.Proc.Valid() {
		// Partition advisor: pick the block size from the kernel's cost
		// model and the membership at submission. Workers follow the
		// job-spec frame's Proc, so the choice cannot diverge.
		cm, _ := p.Kernel.(tune.CostModel)
		workers := f.reg.Live()
		if workers < 1 {
			workers = 1
		}
		req.Proc = tune.AdvisePartition(p.Size.Rows, p.Size.Cols, workers, cm)
	}
	jb, err := newJob(id, p, req, f.clock)
	if err != nil {
		return nil, err
	}
	if f.opts.Cache != nil && req.CacheKey != "" {
		jb.cache = f.opts.Cache
		jb.cacheSpec = req.CacheKey
		jb.resultKey = make([]cas.Key, len(jb.graph.Verts))
	}
	frontier, err := jb.restore()
	if err != nil {
		return nil, err
	}
	// Drain the cross-job cache before the job is registered: hits commit
	// without drawing leases, and a fully cached job never touches the
	// pool at all.
	frontier = f.absorbCached(jb, frontier)
	if jb.finished() {
		if err := jb.finalErr(); err != nil {
			return nil, err
		}
		return &Result[T]{Store: jb.store, Stats: jb.stats()}, nil
	}

	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		if jb.ckptFile != nil {
			jb.ckptFile.Close()
		}
		return nil, ErrFleetClosed
	}
	f.jobs[id] = jb
	f.order = append(f.order, id)
	jb.ready = append(jb.ready, frontier...)
	jb.tr.Ready(len(jb.ready))
	if jb.parser.Finished() {
		// Fully restored from the checkpoint: nothing to schedule.
		f.mu.Unlock()
		jb.finish(nil, f.clock.Now())
		f.retire(jb)
	} else {
		f.cond.Broadcast()
		f.mu.Unlock()
	}
	f.noteProgress() // the job is admitted and observable

	select {
	case <-ctx.Done():
		jb.finish(ctx.Err(), f.clock.Now())
		f.retire(jb)
	case <-jb.done:
	}
	if err := jb.finalErr(); err != nil {
		return nil, err
	}
	return &Result[T]{Store: jb.store, Stats: jb.stats()}, nil
}

// retire removes a finished job from the running table (idempotent),
// drops its queued work, notifies attached workers to free the job's
// kernel state, and keeps the job queryable in the done log.
func (f *Fleet[T]) retire(jb *job[T]) {
	defer f.noteProgress()
	f.mu.Lock()
	if _, ok := f.jobs[jb.id]; !ok {
		f.mu.Unlock()
		return
	}
	delete(f.jobs, jb.id)
	for i, id := range f.order {
		if id == jb.id {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
	jb.ready = nil
	// Fold the job's counters into the retired baseline so the tuner's
	// cumulative sample stays monotone after the job leaves the table.
	f.retired.Dispatches += jb.ctrs.Dispatches.Load()
	f.retired.TaskBytes += jb.ctrs.TaskBytes.Load()
	f.retired.Steals += jb.ctrs.Steals.Load()
	f.retired.SpecWon += jb.ctrs.SpecWon.Load()
	f.retired.SpecWasted += jb.ctrs.SpecWasted.Load()
	f.doneLog = append(f.doneLog, jb)
	if over := len(f.doneLog) - f.opts.RetainJobs; over > 0 {
		f.doneLog = append([]*job[T](nil), f.doneLog[over:]...)
	}
	f.cond.Broadcast()
	f.mu.Unlock()

	// Drop whatever the job still had in flight so its leases cannot
	// outlive it (the leak audit already ran in finish), then detach it
	// from every worker that holds its state.
	for w := range jb.leases.Loads() {
		jb.leases.RevokeWorker(w)
	}
	f.connMu.Lock()
	conns := make([]*memberConn, 0, len(f.conns))
	for _, mc := range f.conns {
		conns = append(conns, mc)
	}
	f.connMu.Unlock()
	for _, mc := range conns {
		// attachMu is held across both the map update and the JobEnd send
		// so no sender can interleave a task (or a fresh JobSpec) with the
		// detach: dispatch re-checks jb.finished() under the same lock and
		// drops its batch instead of sending after JobEnd.
		mc.attachMu.Lock()
		if mc.attached[jb.id] {
			delete(mc.attached, jb.id)
			//lint:ignore blocking-under-lock the detach frame must be ordered against this member's task sends, which only attachMu serializes; the write is bounded by the connection's write timeout, and attachMu is a leaf per member
			_ = mc.cn.Send(comm.Message{Kind: comm.KindJobEnd, Job: jb.id})
			if len(mc.attached) == 0 && mc.known != nil {
				// The worker drops its content-addressed block cache when
				// its last job detaches; this JobEnd is that frame, so
				// the master's view of the member's holdings resets on
				// the same ordered boundary.
				mc.known.Reset()
			}
		}
		mc.attachMu.Unlock()
	}
}

// jobByID returns the running or retained job with the given id.
func (f *Fleet[T]) jobByID(id int32) *job[T] {
	f.mu.Lock()
	defer f.mu.Unlock()
	if jb, ok := f.jobs[id]; ok {
		return jb
	}
	for _, jb := range f.doneLog {
		if jb.id == id {
			return jb
		}
	}
	return nil
}

// acceptLoop admits workers for the fleet's whole lifetime.
func (f *Fleet[T]) acceptLoop() {
	for {
		c, err := f.ln.Accept()
		if err != nil {
			return // listener closed in Close
		}
		go f.admit(c)
	}
}

// admit performs the join handshake on one fresh connection. Fleet
// workers carry no single-job digest — per-job specs are verified via the
// attach frames instead.
func (f *Fleet[T]) admit(c net.Conn) {
	cn := comm.NewConn(c, 0)
	hello, err := cn.RecvHello(10 * time.Second)
	if err != nil {
		cn.Close()
		return
	}
	if reason := comm.CheckHello(hello, ""); reason != "" {
		cn.Reject(reason)
		return
	}
	if !hello.Fleet {
		cn.Reject("this master runs a shared fleet; start the worker with -fleet")
		return
	}
	select {
	case <-f.done:
		cn.Reject("fleet shut down")
		return
	default:
	}
	member := f.reg.Admit(hello.Name, c.RemoteAddr().String())
	if err := cn.SendWelcome(comm.Welcome{Version: comm.ProtocolVersion, Member: member.ID}); err != nil {
		f.reg.MarkDead(member.ID)
		cn.Close()
		return
	}
	cn.SetReadIdle(time.Duration(f.opts.HeartbeatMiss+1) * f.opts.HeartbeatInterval)
	cn.SetWriteTimeout(time.Duration(f.opts.HeartbeatMiss+1) * f.opts.HeartbeatInterval)
	mc := &memberConn{
		id:       member.ID,
		cn:       cn,
		idle:     make(chan struct{}, 4),
		stop:     make(chan struct{}),
		attached: make(map[int32]bool),
	}
	if f.opts.Cache != nil {
		mc.known = f.opts.Cache.NewPeerSet()
	}
	f.connMu.Lock()
	f.conns[member.ID] = mc
	f.connMu.Unlock()
	go f.pump(mc)
	go f.senderLoop(mc)
	f.noteProgress() // the member is live (WaitMembers)
}

// pump reads one member's messages into the fleet inbox; a connection
// error becomes a down event.
func (f *Fleet[T]) pump(mc *memberConn) {
	for {
		msg, err := mc.cn.Recv()
		if err != nil {
			select {
			case f.inbox <- event{member: mc.id, down: true}:
			case <-f.done:
			}
			return
		}
		select {
		case f.inbox <- event{member: mc.id, msg: msg}:
		case <-f.done:
			return
		}
	}
}

// senderLoop feeds one member whenever it is idle: each idle token buys
// one batch, and the policy decides which job the batch comes from.
func (f *Fleet[T]) senderLoop(mc *memberConn) {
	for {
		select {
		case <-mc.idle:
		case <-mc.stop:
			return
		case <-f.done:
			_ = mc.cn.Send(comm.Message{Kind: comm.KindEnd})
			return
		}
		for {
			jb, ids, ok := f.nextBatch(mc)
			if !ok {
				if f.fleetClosed() {
					_ = mc.cn.Send(comm.Message{Kind: comm.KindEnd})
				}
				return
			}
			if mc.stopped() {
				// The member died while this sender waited for work;
				// hand the vertices back for a live member.
				f.requeue(jb, ids...)
				f.undraw(jb, len(ids))
				return
			}
			if f.dispatch(mc, jb, ids) {
				break
			}
			// Every drawn vertex was already finished or superseded; take
			// the next batch without consuming another idle token.
		}
	}
}

func (f *Fleet[T]) fleetClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// nextBatch blocks until the policy can hand member mc a batch from some
// job, the fleet closes, or the member stops. It returns the chosen job
// and the drawn vertices (LIFO off the job's ready stack, never mixing
// jobs), charging the job's fair-share account for the draw.
func (f *Fleet[T]) nextBatch(mc *memberConn) (*job[T], []int32, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.closed || mc.stopped() {
			return nil, nil, false
		}
		views := make([]JobView, len(f.order))
		jobs := make([]*job[T], len(f.order))
		for i, id := range f.order {
			jb := f.jobs[id]
			jobs[i] = jb
			views[i] = JobView{
				ID:       id,
				Weight:   jb.req.Weight,
				Priority: jb.req.Priority,
				Ready:    len(jb.ready),
				// Vertices drawn by a concurrent sender but not yet leased
				// count against the quota too, so racing senders cannot
				// overshoot a job's in-flight bound between draw and grant.
				Inflight: jb.leases.Len() + jb.drawn,
				Quota:    jb.req.Quota,
				Served:   jb.served,
			}
		}
		if i := f.opts.Policy.Pick(views); i >= 0 {
			jb := jobs[i]
			n := f.batchCap()
			if q := views[i].Quota; q > 0 {
				if room := q - views[i].Inflight; room < n {
					n = room
				}
			}
			if n < 1 {
				n = 1
			}
			if n > len(jb.ready) {
				n = len(jb.ready)
			}
			ids := make([]int32, n)
			copy(ids, jb.ready[len(jb.ready)-n:])
			jb.ready = jb.ready[:len(jb.ready)-n]
			jb.served += float64(n) / jb.req.Weight
			jb.drawn += n
			return jb, ids, true
		}
		f.cond.Wait()
	}
}

// undraw drops n from jb's drawn-but-not-yet-leased count (see
// nextBatch): called once the batch's vertices are leased, requeued or
// dead, so the quota view stops double-counting them.
func (f *Fleet[T]) undraw(jb *job[T], n int) {
	f.mu.Lock()
	jb.drawn -= n
	// Dropping the drawn charge can open quota room for senders blocked
	// on an at-quota job; wake them to re-evaluate.
	f.cond.Broadcast()
	f.mu.Unlock()
}

// requeue puts vertices back on jb's ready stack and wakes senders.
func (f *Fleet[T]) requeue(jb *job[T], ids ...int32) {
	if len(ids) == 0 {
		return
	}
	f.mu.Lock()
	if _, running := f.jobs[jb.id]; running {
		jb.ready = append(jb.ready, ids...)
		// Requeues were already charged on first dispatch; refund so a
		// job does not pay fair-share twice for work it never kept.
		jb.served -= float64(len(ids)) / jb.req.Weight
		jb.tr.Ready(len(jb.ready))
		f.cond.Broadcast()
	}
	f.mu.Unlock()
}

// dispatch leases the drawn vertices of job jb to member mc and ships
// them in one job-tagged message, attaching the job's spec first if this
// member has never seen it. Returns false when every vertex turned out to
// be already finished.
func (f *Fleet[T]) dispatch(mc *memberConn, jb *job[T], ids []int32) bool {
	// The draw in nextBatch counted these vertices toward the job's quota;
	// drop that charge once their fate is settled (leases granted, vertices
	// requeued, or the batch dead). The defer runs after every return path
	// below has either granted the lease or unwound it.
	defer f.undraw(jb, len(ids))
	defer f.noteProgress()
	if jb.finished() {
		return false
	}
	now := f.clock.Now()
	// pend holds the registered vertices with their gathered data regions;
	// encoding is deferred so that in cache mode the known-set decisions
	// (full block vs content-key reference) happen under attachMu, ordered
	// against the detach that clears the member's set.
	type pendingTask struct {
		vertex, attempt int32
		deps            []int32
		blocks          []*matrix.Block[T]
	}
	pend := make([]pendingTask, 0, len(ids))
	// held collects speculation-flagged vertices this member already runs
	// the primary attempt of: their flag is restored by register, and they
	// go back on the ready stack for another member to back up.
	var held []int32
	for _, v := range ids {
		attempt, ok, backup, self := f.register(jb, mc.id, v)
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
		deadline := now.Add(jb.req.TaskTimeout * time.Duration(len(pend)+1))
		if backup {
			jb.leases.Add(v, mc.id, attempt, now)
			jb.ot.AddConcurrent(v, attempt, deadline)
			jb.ctrs.Speculated.Add(1)
			jb.tr.Speculate(mc.id, v)
		} else {
			jb.leases.Grant(v, mc.id, attempt, now)
			jb.ot.Add(v, attempt, deadline)
		}
		jb.tr.TaskStart(mc.id, v)
		jb.ctrs.Dispatches.Add(1)
		pend = append(pend, pendingTask{vertex: v, attempt: attempt, deps: deps, blocks: blocks})
	}
	if len(held) > 0 {
		f.requeue(jb, held...)
	}
	// Leases and dispatch counters are settled; publish before the send
	// section, which can block under attachMu, so observers see the
	// grants while the wire write is still in flight.
	f.noteProgress()
	if len(pend) == 0 {
		// When the whole draw was backups this member holds the primary
		// of, consume the idle token: drawing again right away could pop
		// the same vertices forever. Another member's sender picks them up.
		return len(held) > 0
	}
	// encode builds each task's payload. Cache mode uses the keyed wire
	// format: blocks the member provably holds become references, the
	// rest ship in full and are noted as held. Must run under attachMu.
	encode := func() ([]comm.TaskEntry, error) {
		entries := make([]comm.TaskEntry, 0, len(pend))
		for _, pt := range pend {
			var payload []byte
			var err error
			if jb.cache != nil && mc.known != nil {
				full := make([]matrix.KeyedBlock[T], 0, len(pt.blocks))
				var refs []matrix.BlockRef
				for i, d := range pt.deps {
					k := jb.resultKey[d]
					if mc.known.Knows(k) {
						refs = append(refs, matrix.BlockRef{Key: [32]byte(k), Rect: pt.blocks[i].Rect})
						jb.ctrs.BlocksSkipped.Add(1)
						continue
					}
					mc.known.Note(k)
					full = append(full, matrix.KeyedBlock[T]{Key: [32]byte(k), Block: pt.blocks[i]})
					jb.ctrs.BlocksShipped.Add(1)
				}
				payload, err = matrix.EncodeBlocksKeyed(jb.p.Codec, full, refs)
			} else {
				jb.ctrs.BlocksShipped.Add(int64(len(pt.blocks)))
				payload, err = matrix.EncodeBlocks(jb.p.Codec, pt.blocks)
			}
			if err != nil {
				return nil, fmt.Errorf("fleet: encoding data region of vertex %d: %w", pt.vertex, err)
			}
			entries = append(entries, comm.TaskEntry{Vertex: pt.vertex, Attempt: pt.attempt, Payload: payload})
		}
		return entries, nil
	}
	// Attach and send under attachMu, serialized against retire's detach:
	// a job observed finished here is being (or has been) detached from
	// workers, so sending now could put a task frame after the JobEnd —
	// the worker would see a task for an unattached job — or re-send the
	// spec after JobEnd and leak the job's kernel state on the worker.
	// Drop the batch instead and unwind the leases granted above.
	mc.attachMu.Lock()
	if jb.finished() {
		mc.attachMu.Unlock()
		for _, pt := range pend {
			jb.leases.ReleaseAttempt(pt.vertex, pt.attempt)
			jb.ot.RemoveAttempt(pt.vertex, pt.attempt)
			jb.noteAttemptGone(pt.vertex, pt.attempt)
			jb.rt.CancelAttempt(pt.vertex, pt.attempt)
		}
		return false
	}
	entries, encErr := encode()
	var err error
	if encErr == nil {
		bytes := 0
		for _, e := range entries {
			bytes += len(e.Payload)
		}
		jb.ctrs.TaskBytes.Add(int64(bytes))
		jb.tr.Dispatch(mc.id, len(entries), bytes)
		var msg comm.Message
		if len(entries) == 1 {
			msg = comm.Message{Kind: comm.KindTask, Job: jb.id, Vertex: entries[0].Vertex, Attempt: entries[0].Attempt, Payload: entries[0].Payload}
		} else {
			jb.ctrs.BatchMessages.Add(1)
			msg = comm.Message{Kind: comm.KindTaskBatch, Job: jb.id, Batch: entries}
		}
		if !mc.attached[jb.id] {
			// The connection is ordered, so the spec always precedes the
			// job's tasks.
			//lint:ignore blocking-under-lock the attach frame and the task must reach the wire without a detach interleaving, which only attachMu serializes; the write is bounded by the connection's write timeout, and attachMu is a leaf per member
			if err = mc.cn.Send(comm.Message{Kind: comm.KindJobSpec, Job: jb.id, Payload: jb.meta}); err == nil {
				mc.attached[jb.id] = true
			}
		}
		if err == nil {
			//lint:ignore blocking-under-lock the task send is serialized against retire's JobEnd by attachMu (PR 6 review invariant); the write is bounded by the connection's write timeout, and attachMu is a leaf per member
			err = mc.cn.Send(msg)
		}
	}
	mc.attachMu.Unlock()
	if encErr != nil {
		jb.finish(encErr, now)
		f.retire(jb)
		return true
	}
	if err != nil {
		// The pump (or heartbeat sweep) will revoke this member's
		// leases, including the ones just granted; nothing to unwind.
		f.memberFailed(mc)
	}
	return true
}

// memberFailed reports a send failure on mc's connection into the inbox.
func (f *Fleet[T]) memberFailed(mc *memberConn) {
	select {
	case f.inbox <- event{member: mc.id, down: true}:
	case <-f.done:
	}
}

// register claims an attempt of v in job jb for a member — rt.Register
// for an ordinary draw, a concurrent backup for a speculation-flagged
// vertex. A member never backs up its own attempt: that draw is refused
// with held=true, the specPending flag restored, and the caller requeues
// the vertex so another member picks up the backup promptly.
func (f *Fleet[T]) register(jb *job[T], member int, v int32) (attempt int32, ok, backup, held bool) {
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

// recvLoop serializes membership and result handling for the fleet's
// lifetime.
func (f *Fleet[T]) recvLoop() {
	for {
		select {
		case <-f.done:
			return
		case ev := <-f.inbox:
			if ev.down {
				f.memberDown(ev.member)
				continue
			}
			f.reg.Beat(ev.member) // any traffic proves liveness
			switch ev.msg.Kind {
			case comm.KindIdle:
				f.signalIdle(ev.member)
			case comm.KindHeartbeat:
				f.echoHeartbeat(ev.member)
			case comm.KindLeave:
				f.memberLeave(ev.member)
			case comm.KindHunger:
				f.hungers.Add(1)
				f.feedHungry(ev.member)
			case comm.KindResult:
				f.applyResult(ev.member, ev.msg.Job, ev.msg.Vertex, ev.msg.Attempt, ev.msg.Payload)
				if !ev.msg.More {
					f.signalIdle(ev.member)
				}
			case comm.KindResultBatch:
				for _, e := range ev.msg.Batch {
					f.applyResult(ev.member, ev.msg.Job, e.Vertex, e.Attempt, e.Payload)
				}
				if !ev.msg.More {
					f.signalIdle(ev.member)
				}
			default:
				// A kind the fleet never expects from a worker is
				// protocol corruption or version skew; retire the member
				// so its leases reassign, rather than dropping frames
				// silently.
				f.memberDown(ev.member)
			}
		}
	}
}

func (f *Fleet[T]) signalIdle(member int) {
	f.connMu.Lock()
	mc := f.conns[member]
	f.connMu.Unlock()
	if mc == nil {
		return
	}
	select {
	case mc.idle <- struct{}{}:
	default:
	}
}

func (f *Fleet[T]) echoHeartbeat(member int) {
	f.connMu.Lock()
	mc := f.conns[member]
	f.connMu.Unlock()
	if mc != nil {
		_ = mc.cn.Send(comm.Message{Kind: comm.KindHeartbeat})
	}
}

// feedHungry answers a worker's hunger beacon by stealing
// queued-but-undispatched backlog toward it: across all running jobs,
// the (job, victim) pair with the deepest member backlog gives up the
// newer half of its batch entries, which are cancelled and requeued on
// that job's ready stack, where the hungry member's blocked sender picks
// them up under the same fair-share policy.
func (f *Fleet[T]) feedHungry(member int) {
	if !f.opts.Steal {
		return
	}
	f.mu.Lock()
	queued := 0
	running := make([]*job[T], 0, len(f.order))
	for _, id := range f.order {
		jb := f.jobs[id]
		queued += len(jb.ready)
		running = append(running, jb)
	}
	f.mu.Unlock()
	if queued > 0 {
		// There is queued work already; the hungry member's sender is
		// blocked in nextBatch and will draw it without help.
		return
	}
	var victimJob *job[T]
	victim, deepest := 0, 1
	ownLoad := 0
	for _, jb := range running {
		ownLoad += jb.leases.Load(member)
		for w, n := range jb.leases.Loads() {
			if w != member && n > deepest {
				victimJob, victim, deepest = jb, w, n
			}
		}
	}
	if ownLoad > 0 || victimJob == nil {
		return
	}
	backlog := victimJob.leases.WorkerLeases(victim)
	if len(backlog) < 2 {
		return
	}
	stolen := make([]int32, 0, len(backlog)/2)
	for _, l := range backlog[(len(backlog)+1)/2:] {
		if victimJob.rt.LiveAttempts(l.Vertex) != 1 {
			continue
		}
		victimJob.leases.ReleaseAttempt(l.Vertex, l.Attempt)
		victimJob.ot.RemoveAttempt(l.Vertex, l.Attempt)
		if victimJob.rt.CancelAttempt(l.Vertex, l.Attempt) == 0 {
			stolen = append(stolen, l.Vertex)
		}
	}
	if len(stolen) > 0 {
		victimJob.ctrs.Steals.Add(int64(len(stolen)))
		victimJob.tr.Steal(member, len(stolen))
		f.requeue(victimJob, stolen...)
	}
}

// applyResult commits one computed vertex to its job. Results for
// unknown or finished jobs (a worker answering after the job retired)
// are dropped.
func (f *Fleet[T]) applyResult(member int, jobID, v, attempt int32, payload []byte) {
	defer f.noteProgress()
	f.mu.Lock()
	jb := f.jobs[jobID]
	f.mu.Unlock()
	if jb == nil {
		f.stale.Add(1)
		return
	}
	if !jb.rt.Accept(v, attempt) {
		jb.ctrs.StaleResults.Add(1)
		return
	}
	jb.ot.Remove(v)
	now := f.clock.Now()
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
		jb.finish(fmt.Errorf("fleet: bad result payload for vertex %d of job %q from member %d: %v", v, jb.req.Name, member, err), now)
		f.retire(jb)
		return
	}
	if err := jb.commit(v, payload, blocks[0]); err != nil {
		jb.finish(err, now)
		f.retire(jb)
		return
	}
	if jb.cache != nil {
		// The member computed this block, so it holds the output: note the
		// content key so a later dispatch can ship a reference instead.
		// Only while the job is still attached — a detach clears the set,
		// and a note landing after the clear would claim a holding the
		// worker dropped with its runner state.
		f.connMu.Lock()
		mc := f.conns[member]
		f.connMu.Unlock()
		if mc != nil {
			mc.attachMu.Lock()
			if mc.known != nil && mc.attached[jobID] {
				mc.known.Note(jb.resultKey[v])
			}
			mc.attachMu.Unlock()
		}
	}
	f.reg.NoteCompleted(member)
	jb.tr.TaskEnd(member, v)
	jb.ctrs.Tasks.Add(1)
	newly := jb.parser.Complete(v)
	jb.progress()
	if jb.parser.Finished() {
		jb.finish(nil, now)
		f.retire(jb)
		return
	}
	newly = f.absorbCached(jb, newly)
	if jb.finished() {
		return
	}
	f.requeueReady(jb, newly)
}

// absorbCached probes the cross-job result cache for each newly computable
// vertex and commits hits in place, cascading: a hit's completion may open
// further vertices, which are probed in turn. Returns the misses — the
// vertices that still need dispatch. A corrupt cache entry degrades to a
// miss (recompute), never to a wrong result, because commit re-derives the
// content key from the stored payload. If the drain finishes the job it is
// retired here and the empty remainder returned.
func (f *Fleet[T]) absorbCached(jb *job[T], ids []int32) []int32 {
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
			jb.finish(err, f.clock.Now())
			f.retire(jb)
			return miss
		}
		work = append(work, jb.parser.Complete(v)...)
		jb.progress()
	}
	if jb.parser.Finished() {
		jb.finish(nil, f.clock.Now())
		f.retire(jb)
	}
	return miss
}

// requeueReady pushes newly computable vertices onto jb's ready stack.
// Unlike requeue it does not refund fair-share (these were never
// dispatched). It broadcasts even with nothing new: the caller just
// released a lease, which may have opened quota room for queued work.
func (f *Fleet[T]) requeueReady(jb *job[T], ids []int32) {
	f.mu.Lock()
	if _, running := f.jobs[jb.id]; running {
		if len(ids) > 0 {
			jb.ready = append(jb.ready, ids...)
			jb.tr.Ready(len(jb.ready))
		}
		f.cond.Broadcast()
	}
	f.mu.Unlock()
}

// memberDown declares a member dead and reassigns its leases across all
// jobs. Idempotent.
func (f *Fleet[T]) memberDown(member int) {
	if !f.reg.MarkDead(member) {
		return
	}
	f.revoke(member)
}

func (f *Fleet[T]) memberLeave(member int) {
	if !f.reg.MarkLeft(member) {
		return
	}
	f.revoke(member)
}

// revoke tears down a member's connection and, job by job, puts its
// leased vertices back on that job's ready stack — each vertex returns
// to the job it belongs to, never to another (no cross-job leakage).
// Death revocations do not count toward any job's MaxAttempts.
func (f *Fleet[T]) revoke(member int) {
	f.connMu.Lock()
	mc := f.conns[member]
	delete(f.conns, member)
	f.connMu.Unlock()
	if mc != nil {
		mc.close()
		// Wake any sender blocked in nextBatch on this member.
		f.mu.Lock()
		f.cond.Broadcast()
		f.mu.Unlock()
	}
	f.mu.Lock()
	running := make([]*job[T], 0, len(f.order))
	for _, id := range f.order {
		running = append(running, f.jobs[id])
	}
	f.mu.Unlock()
	revoked, reassignedTotal := 0, 0
	for _, jb := range running {
		leases := jb.leases.RevokeWorker(member)
		revoked += len(leases)
		var requeue []int32
		for _, l := range leases {
			jb.ot.RemoveAttempt(l.Vertex, l.Attempt)
			jb.noteAttemptGone(l.Vertex, l.Attempt)
			if jb.rt.CancelAttempt(l.Vertex, l.Attempt) == 0 {
				requeue = append(requeue, l.Vertex)
			}
		}
		reassignedTotal += len(requeue)
		f.requeue(jb, requeue...)
	}
	f.reg.NoteRevoked(revoked, reassignedTotal)
	f.noteProgress()
}

// controlLoop is the fleet's fault-tolerance thread: heartbeat sweeps at
// the membership level, then per-job overtime expiry, deadline checks and
// speculation flagging.
func (f *Fleet[T]) controlLoop() {
	ticker := f.clock.NewTicker(f.opts.CheckInterval)
	defer ticker.Stop()
	for {
		select {
		case <-f.done:
			return
		case now := <-ticker.C():
			for _, id := range f.reg.Sweep(now, f.opts.HeartbeatInterval, f.opts.HeartbeatMiss) {
				f.revoke(id)
			}
			f.mu.Lock()
			running := make([]*job[T], 0, len(f.order))
			for _, id := range f.order {
				running = append(running, f.jobs[id])
			}
			f.mu.Unlock()
			for _, jb := range running {
				f.tickJob(jb, now)
			}
			if f.tuner != nil {
				f.tuneTick()
			}
		}
	}
}

// batchCap is the dispatch batch bound in effect right now: the tuner's
// recommendation under Auto, the static option otherwise.
func (f *Fleet[T]) batchCap() int {
	if f.tuner != nil {
		return f.tuner.BatchCap()
	}
	return f.opts.Batch
}

// specParams is the speculation threshold pair in effect right now.
func (f *Fleet[T]) specParams() (quantile, multiplier float64) {
	if f.tuner != nil {
		return f.tuner.SpecParams()
	}
	return f.opts.SpecQuantile, f.opts.SpecMultiplier
}

// tuneTick feeds one control-tick observation to the tuner: counter
// totals summed across running jobs plus the retired baseline, and the
// quantile pair of whichever running job shows the heaviest straggler
// tail — the fleet-wide thresholds must serve its worst case.
func (f *Fleet[T]) tuneTick() {
	f.mu.Lock()
	s := f.retired
	var worst float64
	for _, id := range f.order {
		jb := f.jobs[id]
		s.Dispatches += jb.ctrs.Dispatches.Load()
		s.TaskBytes += jb.ctrs.TaskBytes.Load()
		s.Steals += jb.ctrs.Steals.Load()
		s.SpecWon += jb.ctrs.SpecWon.Load()
		s.SpecWasted += jb.ctrs.SpecWasted.Load()
		n := jb.profile.Samples()
		if n == 0 {
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
	f.mu.Unlock()
	s.Hungers = f.hungers.Load()
	if d := f.tuner.Tick(s); d.Changed {
		f.opts.Trace.Tune(d.BatchCap, d.Reason)
	}
}

// TuneSnapshot reports the self-tuner's current recommendations — what
// the /metrics exposition exports as easyhps_tune_* gauges. The zero
// snapshot (ok=false) means the fleet runs with static knobs.
func (f *Fleet[T]) TuneSnapshot() (tune.Snapshot, bool) {
	if f.tuner == nil {
		return tune.Snapshot{}, false
	}
	return f.tuner.Snapshot(), true
}

// tickJob applies one control tick to one job: overtime expiry with the
// job's own MaxAttempts cap (a poisoned job fails alone), the job
// deadline, and speculation flagging. Requeues and failures stay inside
// the job's lease/attempt namespace.
func (f *Fleet[T]) tickJob(jb *job[T], now time.Time) {
	defer f.noteProgress()
	if jb.finished() {
		return
	}
	if !jb.deadline.IsZero() && now.After(jb.deadline) {
		jb.finish(fmt.Errorf("fleet: job %q exceeded its %v timeout with %d vertices remaining",
			jb.req.Name, jb.req.Timeout, jb.parser.Remaining()), now)
		f.retire(jb)
		return
	}
	var requeue []int32
	for _, e := range jb.ot.ExpireBefore(now) {
		jb.leases.ReleaseAttempt(e.ID, e.Attempt)
		jb.noteAttemptGone(e.ID, e.Attempt)
		jb.timeouts[e.ID]++
		if jb.timeouts[e.ID] >= jb.req.MaxAttempts {
			jb.finish(fmt.Errorf("fleet: job %q: vertex %d timed out %d times (MaxAttempts); giving up",
				jb.req.Name, e.ID, jb.timeouts[e.ID]), now)
			f.retire(jb)
			return
		}
		if jb.rt.CancelAttempt(e.ID, e.Attempt) == 0 {
			jb.ctrs.Redistributions.Add(1)
			requeue = append(requeue, e.ID)
		}
	}
	f.requeue(jb, requeue...)
	if f.opts.Speculate {
		f.maybeSpeculate(jb)
	}
}

// maybeSpeculate flags jb's straggling attempts for backup dispatch once
// they outlive the job's runtime-profile threshold, with a per-job
// budget, so one job's stragglers cannot spend the pool's entire
// speculation allowance.
func (f *Fleet[T]) maybeSpeculate(jb *job[T]) {
	f.mu.Lock()
	queued := len(jb.ready)
	f.mu.Unlock()
	if queued > 0 {
		return
	}
	q, mult := f.specParams()
	threshold, ok := jb.profile.Threshold(q, mult, f.opts.SpecFloor, f.opts.SpecMinSamples)
	if !ok {
		return
	}
	budget := f.reg.Live()
	var flagged []int32
	for _, l := range jb.leases.OlderThan(f.clock.Now().Add(-threshold)) {
		if budget == 0 {
			break
		}
		if jb.rt.LiveAttempts(l.Vertex) != 1 {
			continue
		}
		jb.specMu.Lock()
		skip := jb.specPending[l.Vertex]
		if !skip {
			jb.specPending[l.Vertex] = true
		}
		jb.specMu.Unlock()
		if skip {
			continue
		}
		flagged = append(flagged, l.Vertex)
		budget--
	}
	f.requeueReady(jb, flagged)
}

// TraceEvents returns the recorded scheduling events of the named job
// (running or retained), or nil when unknown.
func (f *Fleet[T]) TraceEvents(name string) []trace.Event {
	f.mu.Lock()
	var found *job[T]
	for _, id := range f.order {
		if jb := f.jobs[id]; jb.req.Name == name {
			found = jb
		}
	}
	if found == nil {
		for _, jb := range f.doneLog {
			if jb.req.Name == name {
				found = jb // latest retained wins
			}
		}
	}
	f.mu.Unlock()
	if found == nil {
		return nil
	}
	return found.tr.Events()
}

// Snapshot assembles the monitoring view: per-job progress and deficit,
// job-state counts, aggregate queue depth and hunger count, membership,
// and the race-free roll-up of every job's Stats.
func (f *Fleet[T]) Snapshot() Snapshot {
	f.mu.Lock()
	type row struct {
		jb     *job[T]
		ready  int
		drawn  int
		served float64
	}
	rows := make([]row, 0, len(f.order)+len(f.doneLog))
	queueDepth := 0
	maxServed := 0.0
	for _, id := range f.order {
		jb := f.jobs[id]
		rows = append(rows, row{jb, len(jb.ready), jb.drawn, jb.served})
		queueDepth += len(jb.ready)
		if jb.served > maxServed {
			maxServed = jb.served
		}
	}
	running := len(rows)
	for _, jb := range f.doneLog {
		rows = append(rows, row{jb, 0, 0, jb.served})
	}
	f.mu.Unlock()

	s := Snapshot{
		States:     map[string]int{"running": 0, "done": 0, "failed": 0},
		QueueDepth: queueDepth,
		Hungers:    f.hungers.Load(),
		Members:    f.reg.Metrics(),
	}
	for i, r := range rows {
		jb := r.jb
		st := JobStatus{
			ID:       jb.id,
			Name:     jb.req.Name,
			Done:     jb.graph.N - jb.parser.Remaining(),
			Total:    jb.graph.N,
			Ready:    r.ready,
			Inflight: jb.leases.Len() + r.drawn,
			Weight:   jb.req.Weight,
			Priority: jb.req.Priority,
			Stats:    jb.stats(),
		}
		if i < running {
			st.State = "running"
			st.Deficit = maxServed - r.served
		} else if jb.finalErr() != nil {
			st.State = "failed"
		} else {
			st.State = "done"
		}
		s.States[st.State]++
		s.Aggregate.Add(st.Stats)
		s.Jobs = append(s.Jobs, st)
	}
	joins, leaves, deaths, revoked, reassigned := f.reg.MembershipCounts()
	s.Aggregate.Joins = joins
	s.Aggregate.Leaves = leaves
	s.Aggregate.Deaths = deaths
	s.Aggregate.LeasesRevoked = revoked
	s.Aggregate.Reassigned = reassigned
	return s
}
