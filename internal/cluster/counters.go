package cluster

import "sync/atomic"

// Counters is the race-free progress ledger of one job's scheduling: the
// fleet's receive loop, per-member sender goroutines, and the control loop
// all bump fields concurrently, and monitoring reads them live. Each job
// owns one ledger with the identical meaning per field, so per-job Stats
// roll up into fleet totals without a lock.
type Counters struct {
	Tasks, Dispatches, Redistributions, Restored atomic.Int64
	StaleResults, BatchMessages, TaskBytes       atomic.Int64
	Speculated, SpecWon, SpecWasted, Steals      atomic.Int64
	CacheHits, CacheMisses                       atomic.Int64
	BlocksShipped, BlocksSkipped                 atomic.Int64
}

// Stats materializes the ledger into a plain Stats value. Membership and
// lease fields (Joins, Deaths, Leaked, ...) belong to the registry and
// lease table, so the caller fills them in.
func (c *Counters) Stats() Stats {
	return Stats{
		Tasks:           c.Tasks.Load(),
		Dispatches:      c.Dispatches.Load(),
		Redistributions: c.Redistributions.Load(),
		Restored:        c.Restored.Load(),
		StaleResults:    c.StaleResults.Load(),
		BatchMessages:   c.BatchMessages.Load(),
		TaskBytes:       c.TaskBytes.Load(),
		Speculated:      c.Speculated.Load(),
		SpecWon:         c.SpecWon.Load(),
		SpecWasted:      c.SpecWasted.Load(),
		Steals:          c.Steals.Load(),
		CacheHits:       c.CacheHits.Load(),
		CacheMisses:     c.CacheMisses.Load(),
		BlocksShipped:   c.BlocksShipped.Load(),
		BlocksSkipped:   c.BlocksSkipped.Load(),
	}
}
