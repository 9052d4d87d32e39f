package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/cas"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/trace"
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

// job is the DAG-progress half of a fleet run: one graph, parser, store,
// register table, overtime queue, lease table, checkpoint log and stats
// ledger — everything scoped to a single DAG — while the fleet owns the
// shared half (membership, connections, heartbeats, hunger).
type job[T any] struct {
	id   int32
	req  JobRequest
	p    core.Problem[T]
	meta []byte // encoded JobMeta, shipped in attach frames

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
	// only where parser and store are mutated (Fleet.Run's startup and
	// the recv loop); senders reading a completed dependency's key in
	// dispatch are ordered behind the write by the fleet mutex, which
	// already serializes the ready handoff.
	cache     *cas.Store
	cacheSpec string
	resultKey []cas.Key

	// ready is the job's computable-vertex stack (LIFO, like the
	// single-job dispatcher); guarded by the fleet's mutex, which also
	// covers served and drawn for the policy's consistent view.
	ready  []int32
	served float64
	// drawn counts vertices a sender has taken off ready but not yet
	// leased in dispatch; the policy adds it to Inflight so concurrent
	// senders cannot overshoot the job's quota in that window.
	drawn int

	// timeouts counts overtime expiries per vertex (the MaxAttempts
	// guard); control loop only.
	timeouts map[int32]int

	// Speculation bookkeeping: specPending flags vertices queued for a
	// backup; backupOf maps a racing vertex to its backup attempt.
	specMu      sync.Mutex
	specPending map[int32]bool
	backupOf    map[int32]int32

	ctrs cluster.Counters
	tr   *trace.Recorder

	start    time.Time // fleet clock, for Timeout
	deadline time.Time // zero = no bound

	done     chan struct{}
	doneOnce sync.Once
	errMu    sync.Mutex
	err      error
	leaked   int64
	elapsed  time.Duration
}

// newJob builds the per-job runtime state. The caller (Fleet.Run)
// registers it with the fleet.
func newJob[T any](id int32, p core.Problem[T], req JobRequest, clock sched.Clock) (*job[T], error) {
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
	if !proc.Valid() {
		proc = dag.Size{Rows: (p.Size.Rows + 7) / 8, Cols: (p.Size.Cols + 7) / 8}
	}
	geom := dag.MatrixGeometry(p.Size, proc)
	graph := dag.Build(p.Kernel.Pattern(), geom)
	jb := &job[T]{
		id:          id,
		req:         req,
		p:           p,
		geom:        geom,
		graph:       graph,
		parser:      dag.NewParser(graph),
		store:       matrix.NewStore[T](geom),
		rt:          sched.NewRegisterTable(),
		ot:          sched.NewOvertimeQueueClock(clock),
		leases:      sched.NewLeaseTable(),
		profile:     sched.NewRuntimeProfile(0),
		timeouts:    make(map[int32]int),
		specPending: make(map[int32]bool),
		backupOf:    make(map[int32]int32),
		tr:          trace.New(),
		start:       clock.Now(),
		done:        make(chan struct{}),
	}
	if req.Timeout > 0 {
		jb.deadline = jb.start.Add(req.Timeout)
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

// blockKey derives vertex v's cross-job cache key: the job's spec
// digest, the block's cell rectangle, and the content keys of its
// predecessors' committed payloads. Only called once every predecessor
// has committed.
func (jb *job[T]) blockKey(v int32) cas.Key {
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
// Only called from Fleet.Run's startup (restore, absorb) and the fleet
// recv loop.
func (jb *job[T]) commit(v int32, payload []byte, b *matrix.Block[T]) error {
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

// restore replays the job's checkpoint prefix (when configured) and
// returns the computable frontier, scoped to this job's graph and store.
func (jb *job[T]) restore() ([]int32, error) {
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
	jb.progress()
	return frontier, nil
}

func (jb *job[T]) progress() {
	if jb.req.OnProgress == nil {
		return
	}
	jb.req.OnProgress(jb.graph.N-jb.parser.Remaining(), jb.graph.N)
}

func (jb *job[T]) finished() bool {
	select {
	case <-jb.done:
		return true
	default:
		return false
	}
}

// finish ends the job exactly once, recording err (nil for success), the
// leak audit (register-table plus lease entries still live — zero for a
// clean finish), and the makespan.
func (jb *job[T]) finish(err error, now time.Time) {
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

func (jb *job[T]) finalErr() error {
	jb.errMu.Lock()
	defer jb.errMu.Unlock()
	return jb.err
}

// stats materializes the job's ledger. Membership fields stay zero —
// joins and deaths belong to the fleet, not to any one job — except the
// lease audit, which is per job.
func (jb *job[T]) stats() cluster.Stats {
	s := jb.ctrs.Stats()
	jb.errMu.Lock()
	if jb.finished() {
		s.Leaked = jb.leaked
		s.Elapsed = jb.elapsed
	}
	jb.errMu.Unlock()
	return s
}

// noteAttemptGone records the speculation-accounting consequence of one
// attempt of v dying (worker death, overtime expiry or a steal).
func (jb *job[T]) noteAttemptGone(v, attempt int32) {
	jb.specMu.Lock()
	if backup, ok := jb.backupOf[v]; ok {
		delete(jb.backupOf, v)
		if backup == attempt {
			jb.ctrs.SpecWasted.Add(1)
		}
	}
	jb.specMu.Unlock()
}
