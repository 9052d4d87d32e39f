package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/matrix"
)

// Span names, one per layer boundary the traced run decorates.
const (
	spanSolve      = "core.solve"        // one in-process solve, master side
	spanSlaveTask  = "core.slave_task"   // slave receives a task -> sends its result
	spanEncode     = "matrix.encode"     // Codec.EncodeCells
	spanDecode     = "matrix.decode"     // Codec.DecodeCells
	spanSend       = "comm.send"         // Transport.Send
	spanSlaveIdle  = "comm.recv"         // a slave blocked in Transport.Recv
	spanCheckpoint = "checkpoint.append" // Config.Checkpoint writer
	spanJob        = "client.job"        // submit -> client sees a terminal state
	spanSubmit     = "client.submit"     // client.Submit
	spanStatus     = "client.status"     // client.Status
	spanResult     = "client.result"     // client.Result
)

// span is one timed call across a layer boundary. Op is the solve number
// (in-process) or the server's job number (service); Parent is the span
// that caused this one, 0 for a root.
type span struct {
	ID, Parent, Op int64
	Name           string
	Start, End     time.Time
	// Bytes is the payload the call moved, where the layer has one.
	Bytes int64
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func (r *recorder) newID() int64 { return r.ids.Add(1) }

// add records s, assigning an id when it has none, and returns the id.
func (r *recorder) add(s span) int64 {
	if s.ID == 0 {
		s.ID = r.newID()
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s.ID
}

func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// scope is the parent and op a decorator attributes its spans to. A
// slave's scope moves to its open task span while it holds one; only the
// slave's own receive loop touches it.
type scope struct {
	op, parent int64
}

// timedCodec decorates a matrix.Codec with encode/decode spans.
type timedCodec[T any] struct {
	inner matrix.Codec[T]
	rec   *recorder
	sc    *scope
	// gate, when non-nil, decides per call whether to record (the
	// traced service run alternates traced and untraced phases over the
	// same long-lived workers).
	gate func() bool
}

func (c timedCodec[T]) EncodeCells(w io.Writer, cells []T) error {
	if c.gate != nil && !c.gate() {
		return c.inner.EncodeCells(w, cells)
	}
	cw := &countingWriter{w: w}
	start := time.Now()
	err := c.inner.EncodeCells(cw, cells)
	c.rec.add(span{Name: spanEncode, Parent: c.sc.parent, Op: c.sc.op, Start: start, End: time.Now(), Bytes: cw.n})
	return err
}

func (c timedCodec[T]) DecodeCells(r io.Reader, cells []T) error {
	if c.gate != nil && !c.gate() {
		return c.inner.DecodeCells(r, cells)
	}
	cr := &countingReader{r: r}
	start := time.Now()
	err := c.inner.DecodeCells(cr, cells)
	c.rec.add(span{Name: spanDecode, Parent: c.sc.parent, Op: c.sc.op, Start: start, End: time.Now(), Bytes: cr.n})
	return err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// masterEndpoint decorates the master's transport endpoint with send
// spans. The master sends from one goroutine per slave, so it keeps no
// per-call state.
type masterEndpoint struct {
	comm.Transport
	rec *recorder
	sc  *scope
}

func (e masterEndpoint) Send(to int, m comm.Message) error {
	start := time.Now()
	err := e.Transport.Send(to, m)
	e.rec.add(span{Name: spanSend, Parent: e.sc.parent, Op: e.sc.op, Start: start, End: time.Now(), Bytes: int64(m.PayloadLen())})
	return err
}

// slaveEndpoint decorates one slave's endpoint. The slave part receives,
// computes and replies on a single goroutine, so a task span opens when a
// task arrives and closes when the reply that ends it has been sent;
// the slave's codec calls in between land under it through the shared
// scope.
type slaveEndpoint struct {
	comm.Transport
	rec   *recorder
	sc    *scope
	solve int64 // the solve span, parent of everything outside a task

	task      int64
	taskStart time.Time
}

func (e *slaveEndpoint) Recv() (comm.Message, error) {
	start := time.Now()
	m, err := e.Transport.Recv()
	end := time.Now()
	e.rec.add(span{Name: spanSlaveIdle, Parent: e.solve, Op: e.sc.op, Start: start, End: end})
	if err == nil && (m.Kind == comm.KindTask || m.Kind == comm.KindTaskBatch) {
		e.task, e.taskStart = e.rec.newID(), end
		e.sc.parent = e.task
	}
	return m, err
}

func (e *slaveEndpoint) Send(to int, m comm.Message) error {
	start := time.Now()
	err := e.Transport.Send(to, m)
	end := time.Now()
	e.rec.add(span{Name: spanSend, Parent: e.sc.parent, Op: e.sc.op, Start: start, End: end, Bytes: int64(m.PayloadLen())})
	// A result (or the idle announcement closing an empty batch) ends
	// the task unless More says the batch is still executing.
	ends := m.Kind == comm.KindResult || m.Kind == comm.KindResultBatch || m.Kind == comm.KindIdle
	if e.task != 0 && ends && !m.More {
		e.rec.add(span{ID: e.task, Name: spanSlaveTask, Parent: e.solve, Op: e.sc.op, Start: e.taskStart, End: end})
		e.task = 0
		e.sc.parent = e.solve
	}
	return err
}

// timedWriter decorates the checkpoint log's io.Writer.
type timedWriter struct {
	w   io.Writer
	rec *recorder
	sc  *scope
}

func (t timedWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := t.w.Write(p)
	t.rec.add(span{Name: spanCheckpoint, Parent: t.sc.parent, Op: t.sc.op, Start: start, End: time.Now(), Bytes: int64(n)})
	return n, err
}

// layerTotals sums, per span name, the spans' durations, self times and
// bytes. A span's self time is its duration minus the part of it that its
// child spans cover.
type layerTotal struct {
	count      int
	total, own time.Duration
	bytes      int64
}

func layerTotals(spans []span) map[string]*layerTotal {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*layerTotal)
	for _, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &layerTotal{}
			out[s.Name] = t
		}
		t.count++
		t.total += s.dur()
		t.own += s.dur() - covered(s, children[s.ID])
		t.bytes += s.Bytes
	}
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var sum time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			sum += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		sum += cur.b.Sub(cur.a)
	}
	return sum
}

// writeSpans dumps the spans as CSV (times in ns since the first span).
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var t0 time.Time
	for _, s := range spans {
		if t0.IsZero() || s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id,parent,op,name,start_ns,end_ns,bytes")
	for _, s := range spans {
		fmt.Fprintf(bw, "%d,%d,%d,%s,%d,%d,%d\n", s.ID, s.Parent, s.Op, s.Name,
			s.Start.Sub(t0).Nanoseconds(), s.End.Sub(t0).Nanoseconds(), s.Bytes)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
