// Package cluster holds the membership and accounting pieces of the
// elastic process level of the EasyHPS runtime, shared by the fleet
// (internal/fleet) and the deterministic simulator (internal/sim):
//
//   - Registry is the membership table: workers are admitted with
//     monotonically increasing incarnations, liveness is tracked by
//     heartbeats, and a member that misses enough intervals, or whose
//     connection fails, is declared dead;
//   - Spec names a command-line problem (app, size, seed, partitions)
//     and digests it for the fixed-mode join handshake and for cache
//     keys; an elastic run ships it to workers in the job's attach frame;
//   - Counters and Stats are the per-job scheduling ledger, and Snapshot
//     the membership view the job service exports on /metrics.
//
// See docs/FLEET.md for the membership state machine and the lease
// lifecycle.
package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/dag"
)

// Spec identifies a problem built from command-line flags. In fixed mode
// master and workers each build their Problem locally and the digest of
// this struct travels in the join handshake, so a worker built from
// different flags is refused at admission instead of corrupting the run.
// In elastic mode the master ships the Spec itself to workers, which
// build the Problem from it.
type Spec struct {
	// App names the application (the internal/cli registry).
	App string
	// N is the matrix side length.
	N int
	// Seed is the workload seed.
	Seed int64
	// Proc is process_partition_size; zero means the runtime default,
	// which both sides derive identically from N.
	Proc dag.Size
	// Thread is thread_partition_size (worker-local, but part of the
	// spec so a run is fully described by it).
	Thread dag.Size
}

// Digest fingerprints the spec for the join handshake and cache keys.
func (s Spec) Digest() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("easyhps-spec:1:%s:%d:%d:%dx%d:%dx%d",
		s.App, s.N, s.Seed, s.Proc.Rows, s.Proc.Cols, s.Thread.Rows, s.Thread.Cols)))
	return hex.EncodeToString(h[:12])
}

// Stats aggregates what happened during one fleet job.
type Stats struct {
	// Tasks is the number of vertices completed by workers this job
	// (restored vertices excluded).
	Tasks int64
	// Dispatches counts task sends (>= Tasks under redistribution).
	Dispatches int64
	// Redistributions counts overtime-triggered reassignments.
	Redistributions int64
	// Restored counts vertices recovered from the checkpoint.
	Restored int64
	// StaleResults counts dropped results of superseded attempts
	// (late answers from slow, partitioned or dead-declared members).
	StaleResults int64
	// Joins, Leaves and Deaths count membership transitions.
	Joins, Leaves, Deaths int64
	// LeasesRevoked counts leases revoked by death or leave; Reassigned
	// counts the vertices put back on the ready stack because of it.
	LeasesRevoked, Reassigned int64
	// BatchMessages counts multi-vertex task messages sent (zero when
	// the dispatch batch bound is 1); TaskBytes is the total task payload volume.
	BatchMessages, TaskBytes int64
	// Speculated counts backup attempts dispatched; SpecWon of those,
	// how many beat the original; SpecWasted, how many were beaten,
	// cancelled or revoked (the overhead side of the bet).
	Speculated, SpecWon, SpecWasted int64
	// Steals counts queued-but-undispatched vertices revoked from a
	// loaded member's backlog and requeued toward a hungry one.
	Steals int64
	// CacheHits counts vertices served from the cross-job result cache
	// instead of dispatched; CacheMisses counts probes that fell through
	// to computation (internal/cas).
	CacheHits, CacheMisses int64
	// BlocksShipped counts data-region blocks sent to workers under the
	// keyed wire format; BlocksSkipped counts blocks replaced by a
	// content-key reference because the worker already held them.
	BlocksShipped, BlocksSkipped int64
	// Leaked is the number of register-table plus lease entries still
	// live when the job finished; always zero for a clean run (asserted
	// by the fault soak).
	Leaked int64
	// Elapsed is the job's makespan on the fleet clock.
	Elapsed time.Duration
}

// Add accumulates o into s field by field (Elapsed takes the max, since
// concurrent jobs overlap in wall time) — the fleet's roll-up of per-job
// Stats into one aggregate view.
func (s *Stats) Add(o Stats) {
	s.Tasks += o.Tasks
	s.Dispatches += o.Dispatches
	s.Redistributions += o.Redistributions
	s.Restored += o.Restored
	s.StaleResults += o.StaleResults
	s.Joins += o.Joins
	s.Leaves += o.Leaves
	s.Deaths += o.Deaths
	s.LeasesRevoked += o.LeasesRevoked
	s.Reassigned += o.Reassigned
	s.BatchMessages += o.BatchMessages
	s.TaskBytes += o.TaskBytes
	s.Speculated += o.Speculated
	s.SpecWon += o.SpecWon
	s.SpecWasted += o.SpecWasted
	s.Steals += o.Steals
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.BlocksShipped += o.BlocksShipped
	s.BlocksSkipped += o.BlocksSkipped
	s.Leaked += o.Leaked
	if o.Elapsed > s.Elapsed {
		s.Elapsed = o.Elapsed
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("tasks=%d dispatches=%d redist=%d restored=%d stale=%d joins=%d leaves=%d deaths=%d revoked=%d reassigned=%d spec=%d/%d/%d steals=%d elapsed=%v",
		s.Tasks, s.Dispatches, s.Redistributions, s.Restored, s.StaleResults,
		s.Joins, s.Leaves, s.Deaths, s.LeasesRevoked, s.Reassigned,
		s.Speculated, s.SpecWon, s.SpecWasted, s.Steals, s.Elapsed)
}

// Snapshot is the membership view of a fleet, exposed through the job
// service's /metrics endpoint (see server.Manager.SetFleetStats).
type Snapshot struct {
	// States counts current members by state name.
	States map[string]int
	// Joins, Leaves, Deaths, LeasesRevoked mirror Stats, cumulatively.
	Joins, Leaves, Deaths, LeasesRevoked int64
}
