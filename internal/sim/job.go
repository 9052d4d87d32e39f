package sim

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/trace"
)

// JobSpec describes one DAG submitted to the simulated cluster: the DP
// application, the fleet request it is scheduled under (zero values
// inherit the cluster's fleet options, as in the fleet; Timeout is the
// job deadline), and its virtual compute cost.
type JobSpec struct {
	// Problem is the DP application (kernel, codec, size).
	Problem core.Problem[int32]
	fleet.JobRequest
	// Cost overrides the cluster's nominal per-vertex service time.
	Cost time.Duration
	// CostPerCell, when set, adds CostPerCell x (block cell count) to
	// each vertex's service time, so virtual compute scales with the
	// partition the way real kernels do: finer blocks buy parallelism
	// with per-task overhead (Cost) instead of conjuring work away.
	// Zero keeps the flat per-vertex model of the older scenarios.
	CostPerCell time.Duration
}

// Job is the caller's handle on one submitted job; its accessors are
// valid after Cluster.Run returns.
type Job struct {
	spec JobSpec
	id   int32
	// jb is the fleet's job state, built at the scripted submission
	// instant (so its trace starts there), nil before.
	jb     *fleet.Job[int32]
	runner *core.TaskRunner[int32]
	err    error // a failure before or at activation
}

// Submit schedules job spec for submission at virtual offset d and
// returns its handle; results are valid once Run returns. Several
// submissions at the same offset form a burst, processed in call order.
func (c *Cluster) Submit(d time.Duration, spec JobSpec) (*Job, error) {
	// The job itself is built at d; refuse an unbuildable spec now.
	if p := spec.Problem; p.Kernel == nil || p.Codec == nil || !p.Size.Valid() {
		return nil, fmt.Errorf("sim: job %q needs a kernel, a codec and a valid size", spec.Name)
	}
	if spec.Cost <= 0 {
		spec.Cost = c.opts.Cost
	}
	j := &Job{spec: spec, id: int32(len(c.jobs) + 1)}
	c.jobs = append(c.jobs, j)
	c.At(d, func() { c.activate(j) })
	return j, nil
}

// activate builds the job at its submission instant the way Fleet.Run
// does — an unset partition under Auto is advised for the live members
// — and starts it: the frontier drains through the cache and the misses
// queue for dispatch.
func (c *Cluster) activate(j *Job) {
	jb, err := fleet.NewJob(j.id, j.spec.Problem, j.spec.JobRequest, c.knobs.Options, c.reg.Live())
	if err == nil {
		j.runner, err = core.NewTaskRunner(j.spec.Problem, core.Config{ProcPartition: jb.Store().Geometry().Block, Threads: 1})
	}
	if err == nil {
		err = jb.Start()
	}
	if err != nil {
		j.err = err
		return
	}
	j.jb, c.handles[jb] = jb, j
	c.dispatchAll()
}

func (j *Job) done() bool { return j.err != nil || j.jb != nil && j.jb.Finished() }

// Err returns the job's terminal error (nil on success).
func (j *Job) Err() error {
	if j.jb == nil {
		return j.err
	}
	return j.jb.Err()
}

// Stats returns the job's scheduling counters.
func (j *Job) Stats() cluster.Stats {
	if j.jb == nil {
		return cluster.Stats{}
	}
	return j.jb.Stats()
}

// Events returns the job's virtual-time scheduling trace.
func (j *Job) Events() []trace.Event { return j.recorder().Events() }

// Summary aggregates the job's trace.
func (j *Job) Summary() trace.Summary { return j.recorder().Summarize() }

// recorder is the job's trace recorder, nil (which records and reports
// nothing) before activation.
func (j *Job) recorder() *trace.Recorder {
	if j.jb == nil {
		return nil
	}
	return j.jb.Trace()
}

// Makespan is the job's virtual submission-to-finish time.
func (j *Job) Makespan() time.Duration { return j.Stats().Elapsed }

// Served is the job's normalized fair-share service (dispatched/weight).
func (j *Job) Served() float64 {
	if j.jb == nil {
		return 0
	}
	return j.jb.Served()
}

// Result assembles the job's computed DP matrix; nil until the job
// succeeded.
func (j *Job) Result() [][]int32 {
	if !j.done() || j.Err() != nil {
		return nil
	}
	return j.jb.Store().Assemble()
}
