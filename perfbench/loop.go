package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/net"
	"repro/internal/serve"
)

// target is the operation sink a workload drives: the in-process
// store, or the replicated topology's router.
type target interface {
	TryGet(key core.Key) (uint64, bool, error)
	TryPut(key core.Key, val uint64) error
}

// storeTarget drives a serve.Store in process.
type storeTarget struct{ st *serve.Store }

func (t storeTarget) TryGet(k core.Key) (uint64, bool, error) {
	v, ok := t.st.Get(k)
	return v, ok, nil
}

func (t storeTarget) TryPut(k core.Key, v uint64) error {
	t.st.Put(k, v)
	return nil
}

// op is one workload operation. Its key is a copy held in the
// operation stream, so fetching it does not warm the cache line the
// store's own key array holds it in.
type op struct {
	key   core.Key
	id    uint32 // the key's oracle id
	write bool
}

// tally is what one closed-loop run observed.
type tally struct {
	read, write *hist
	ops, writes uint64
	errs, sheds uint64
	wrong       uint64
	elapsed     time.Duration
}

func newTally() *tally { return &tally{read: new(hist), write: new(hist)} }

func (t *tally) failed() uint64 { return t.errs + t.sheds + t.wrong }

// good is the number of operations that completed correctly.
func (t *tally) good() uint64 { return t.ops - t.failed() }

func (t *tally) merge(o *tally) {
	t.read.merge(o.read)
	t.write.merge(o.write)
	t.ops += o.ops
	t.writes += o.writes
	t.errs += o.errs
	t.sheds += o.sheds
	t.wrong += o.wrong
}

// all merges the read and write latencies.
func (t *tally) all() *hist {
	h := new(hist)
	h.merge(t.read)
	h.merge(t.write)
	return h
}

// loopSpec describes one closed-loop run: workers goroutines, each
// issuing its next operation only after the previous one returned.
type loopSpec struct {
	tg      target
	o       *oracle
	workers int
	dur     time.Duration
	next    func(worker int) func() op // per-worker operation source

	// With spans set, every operation is recorded as a span named
	// getSpan or putSpan in the worker's log.
	spans            []*spanLog
	getSpan, putSpan string
}

// runClosed runs the loop for spec.dur and merges the workers' tallies.
func runClosed(spec loopSpec) *tally {
	var wg sync.WaitGroup
	tallies := make([]*tally, spec.workers)
	var req atomic.Uint64
	start := time.Now()
	deadline := start.Add(spec.dur)
	for w := 0; w < spec.workers; w++ {
		tallies[w] = newTally()
		next := spec.next(w)
		var sl *spanLog
		if spec.spans != nil {
			sl = spec.spans[w]
		}
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for {
				t1 := doOp(&spec, next(), t, sl, &req)
				if t1.After(deadline) {
					return
				}
			}
		}(tallies[w])
	}
	wg.Wait()
	out := newTally()
	for _, t := range tallies {
		out.merge(t)
	}
	out.elapsed = time.Since(start)
	return out
}

// doOp issues one operation, checks a read against the oracle, and
// returns when it completed.
func doOp(spec *loopSpec, p op, t *tally, sl *spanLog, req *atomic.Uint64) time.Time {
	o, k := spec.o, p.key
	var (
		t0, t1 time.Time
		err    error
	)
	t.ops++
	if p.write {
		v := o.version(p.id)
		t0 = time.Now()
		err = spec.tg.TryPut(k, v)
		t1 = time.Now()
		t.writes++
		if err == nil {
			o.markWritten(p.id)
			t.write.record(t1.Sub(t0).Nanoseconds())
		} else {
			t.write.recordFailed()
		}
		if sl != nil {
			sl.add(0, req.Add(1), spec.putSpan, t0, t1)
		}
	} else {
		before := o.wasWritten(p.id)
		t0 = time.Now()
		var (
			v  uint64
			ok bool
		)
		v, ok, err = spec.tg.TryGet(k)
		t1 = time.Now()
		switch {
		case err != nil:
			t.read.recordFailed()
		case !o.check(p.id, before, v, ok):
			t.wrong++
			t.read.recordFailed()
			if t.wrong == 1 {
				fmt.Fprintf(os.Stderr, "perfbench: wrong read: key %d returned (%d, %v)\n", k, v, ok)
			}
		default:
			t.read.record(t1.Sub(t0).Nanoseconds())
		}
		if sl != nil {
			sl.add(0, req.Add(1), spec.getSpan, t0, t1)
		}
	}
	if err != nil {
		if errors.Is(err, net.ErrRetryLater) {
			t.sheds++
		} else {
			t.errs++
		}
	}
	return t1
}

// cyclic returns per-worker sources that walk one shared operation
// stream, each worker starting at its own offset and wrapping around.
// A worker's position persists across the loops that use the sources,
// so consecutive rounds continue the stream rather than replay it.
func cyclic(stream []op, workers int) func(int) func() op {
	cursors := make([]*cursor, workers)
	for w := range cursors {
		cursors[w] = &cursor{stream: stream, i: w * len(stream) / workers}
	}
	return func(w int) func() op { return cursors[w].next }
}

// cursor is one worker's position in a stream.
type cursor struct {
	stream []op
	i      int
	_      [64]byte // keeps two workers' positions off one cache line
}

func (c *cursor) next() op {
	p := c.stream[c.i]
	c.i++
	if c.i == len(c.stream) {
		c.i = 0
	}
	return p
}

// measureRounds is how many consecutive rounds an untraced run is
// split into. Each end-to-end value is the median over rounds, so a
// stall or a noisy stretch of the host in one round does not move it.
const measureRounds = 10

func goodput(t *tally) float64  { return float64(t.good()) / t.elapsed.Seconds() }
func readCount(t *tally) uint64 { return t.read.n }
func opCount(t *tally) uint64   { return t.ops }

func readQ(q float64) func(*tally) float64 {
	return func(t *tally) float64 { return t.read.quantile(q) }
}

func allQ(q float64) func(*tally) float64 {
	return func(t *tally) float64 { return t.all().quantile(q) }
}

// setMedian sets metric name to the median over rounds of f, with the
// rounds' total sample count n.
func setMedian(res *result, name string, rounds []*tally, f func(*tally) float64, n func(*tally) uint64) {
	var xs []float64
	var total uint64
	for _, t := range rounds {
		xs = append(xs, f(t))
		total += n(t)
	}
	res.setN(name, median(xs), total)
}

// setEndToEnd sets the throughput and latency metrics: read latencies
// from the light rounds, goodput and the tail from the peak rounds
// (the same rounds in process; depths 2 and 128 on the wire).
func setEndToEnd(res *result, light, peak []*tally) {
	setMedian(res, "ops_s", peak, goodput, opCount)
	setMedian(res, "read_p50_ns", light, readQ(0.5), readCount)
	setMedian(res, "read_p95_ns", light, readQ(0.95), readCount)
	setMedian(res, "tail_p95_ns", peak, allQ(0.95), opCount)
}
