package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Stats aggregates what happened during a run.
type Stats struct {
	// Tasks is the number of processor-level sub-tasks completed.
	Tasks int64
	// Dispatches counts task messages sent to slaves (>= Tasks when
	// redistributions happen).
	Dispatches int64
	// Redistributions counts processor-level timeout recoveries.
	Redistributions int64
	// StaleResults counts late results dropped by the register table.
	StaleResults int64
	// SubTasks counts thread-level sub-sub-task executions across all
	// slaves (duplicates included).
	SubTasks int64
	// SubRequeues counts thread-level timeout re-pushes.
	SubRequeues int64
	// WorkerRestarts counts compute-goroutine panic recoveries.
	WorkerRestarts int64
	// BlocksReclaimed counts blocks released by memory reclamation
	// (Config.ReclaimBlocks).
	BlocksReclaimed int64
	// PeakBlocks is the maximum number of blocks the master held at
	// once.
	PeakBlocks int64
	// Restored counts sub-tasks recovered from a checkpoint instead of
	// computed.
	Restored int64
	// BlocksShipped and BlocksSkipped count data-region blocks sent to
	// slaves and blocks skipped because the slave already held them
	// (delta shipping).
	BlocksShipped, BlocksSkipped int64
	// BatchMessages counts multi-vertex task-batch messages sent to
	// slaves (zero when Config.Batch <= 1); Dispatches keeps counting
	// individual vertices, so Dispatches/BatchMessages is the realized
	// mean batch size of the batched portion of the dispatch stream.
	BatchMessages int64
	// Speculated counts backup attempts dispatched (Config.Speculate);
	// SpecWon of those, how many beat the original; SpecWasted, how
	// many lost the race or were cancelled.
	Speculated, SpecWon, SpecWasted int64
	// Steals counts queued-but-undispatched sub-tasks reclaimed from a
	// loaded slave's backlog for a starved one (Config.Steal).
	Steals int64
	// TaskBytes is the total payload bytes of task messages sent to
	// slaves (both per-vertex and batched), before transport framing.
	TaskBytes int64
	// CacheHits counts processor-level sub-tasks served from the
	// cross-job result cache instead of dispatched; CacheMisses counts
	// cache probes that fell through to computation (Config.Cache).
	CacheHits, CacheMisses int64
	// Spills and SpillLoads count blocks written to and reloaded from
	// the out-of-core spill store (Config.SpillDir).
	Spills, SpillLoads int64
	// Messages and PayloadBytes are the transport traffic totals
	// (in-process runs only).
	Messages, PayloadBytes int64
	// Elapsed is the wall-clock makespan of the run.
	Elapsed time.Duration
}

func (s Stats) String() string {
	return fmt.Sprintf("tasks=%d dispatches=%d redist=%d stale=%d subtasks=%d subrequeue=%d restarts=%d msgs=%d bytes=%d elapsed=%v",
		s.Tasks, s.Dispatches, s.Redistributions, s.StaleResults,
		s.SubTasks, s.SubRequeues, s.WorkerRestarts, s.Messages, s.PayloadBytes, s.Elapsed)
}

// counters is the live, concurrency-safe accumulator behind Stats.
type counters struct {
	tasks, dispatches, redistributions, staleResults atomic.Int64
	subTasks, subRequeues, workerRestarts            atomic.Int64
	blocksReclaimed, peakBlocks, restored            atomic.Int64
	blocksShipped, blocksSkipped                     atomic.Int64
	batchMessages, taskBytes                         atomic.Int64
	speculated, specWon, specWasted, steals          atomic.Int64
	cacheHits, cacheMisses                           atomic.Int64
	spills, spillLoads                               atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Tasks:           c.tasks.Load(),
		Dispatches:      c.dispatches.Load(),
		Redistributions: c.redistributions.Load(),
		StaleResults:    c.staleResults.Load(),
		SubTasks:        c.subTasks.Load(),
		SubRequeues:     c.subRequeues.Load(),
		WorkerRestarts:  c.workerRestarts.Load(),
		BlocksReclaimed: c.blocksReclaimed.Load(),
		PeakBlocks:      c.peakBlocks.Load(),
		Restored:        c.restored.Load(),
		BlocksShipped:   c.blocksShipped.Load(),
		BlocksSkipped:   c.blocksSkipped.Load(),
		BatchMessages:   c.batchMessages.Load(),
		TaskBytes:       c.taskBytes.Load(),
		Speculated:      c.speculated.Load(),
		SpecWon:         c.specWon.Load(),
		SpecWasted:      c.specWasted.Load(),
		Steals:          c.steals.Load(),
		CacheHits:       c.cacheHits.Load(),
		CacheMisses:     c.cacheMisses.Load(),
		Spills:          c.spills.Load(),
		SpillLoads:      c.spillLoads.Load(),
	}
}

// faultState tracks which injected faults have fired, so that "first
// attempt" and "once" semantics hold across the whole in-process cluster.
type faultState struct {
	plan FaultPlan

	mu    sync.Mutex
	fired map[string]bool
}

func newFaultState(plan FaultPlan) *faultState {
	if plan.empty() {
		return nil
	}
	return &faultState{plan: plan, fired: make(map[string]bool)}
}

// crashNow reports whether the slave receiving vertex v should die.
func (f *faultState) crashNow(v int32) bool {
	return f != nil && f.plan.CrashOnVertex[v] && f.once(fmt.Sprintf("crash-vertex-%d", v))
}

// once returns true the first time key is seen.
func (f *faultState) once(key string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fired[key] {
		return false
	}
	f.fired[key] = true
	return true
}

// stallTask returns the injected delay for a processor-level vertex, once.
func (f *faultState) stallTask(v int32) time.Duration {
	if f == nil {
		return 0
	}
	d, ok := f.plan.StallFirstAttempt[v]
	if !ok || !f.once(fmt.Sprintf("stall-task-%d", v)) {
		return 0
	}
	return d
}

// panicSubTask reports whether this sub-sub-task execution should panic,
// once.
func (f *faultState) panicSubTask(id SubTaskID) bool {
	if f == nil || !f.plan.PanicSubTask[id] {
		return false
	}
	return f.once(fmt.Sprintf("panic-sub-%d-%d", id.Proc, id.Sub))
}

// stallSubTask returns the injected delay for a sub-sub-task, once.
func (f *faultState) stallSubTask(id SubTaskID) time.Duration {
	if f == nil {
		return 0
	}
	d, ok := f.plan.StallSubTask[id]
	if !ok || !f.once(fmt.Sprintf("stall-sub-%d-%d", id.Proc, id.Sub)) {
		return 0
	}
	return d
}
