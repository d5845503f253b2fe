package main

import (
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// journalCap holds every compaction event of a run, so none is evicted
// before the run reads the journal.
const journalCap = 1 << 16

// runYCSB is YCSB-A in process: half reads, half writes, zipf keys, on
// a PGM store with the default tiering policy. Each round ends once the
// compactions its writes queued have drained, and the drain counts
// toward its elapsed time.
func runYCSB(p params) (*result, error) {
	keys, pays, err := p.data()
	if err != nil {
		return nil, err
	}
	res := newResult()
	open := func() (*serve.Store, *obs.Journal, error) {
		j := obs.NewJournal(journalCap)
		st, err := serve.New(keys, pays, serve.Config{Shards: p.Shards, Family: p.Families[0], Journal: j})
		return st, j, err
	}
	var (
		st      *serve.Store
		journal *obs.Journal
		setups  []float64
	)
	for i := 0; i < p.Setups; i++ {
		if st != nil {
			st.Close()
		}
		t0 := time.Now()
		if st, journal, err = open(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.setN("setup_s", median(setups), uint64(len(setups)))
	res.setN("heap_bytes_per_key", float64(liveHeap())/float64(len(keys)), 1)

	all := universe(keys, p.Fresh, p.Seed)
	stream := mixedStream(all, len(keys), p.Stream, p.WriteFrac, p.Theta, p.Seed)
	next := cyclic(stream, p.Workers)
	o := newOracle(len(all), pays, true, false, p.Seed)
	loop := func(st *serve.Store, dur time.Duration, spans []*spanLog) *tally {
		t0 := time.Now()
		t := runClosed(loopSpec{tg: p.target(storeTarget{st}), o: o, workers: p.Workers, dur: dur, next: next,
			spans: spans, getSpan: "serve.get", putSpan: "serve.put"})
		st.WaitCompactions()
		t.elapsed = time.Since(t0)
		res.count(t)
		return t
	}

	if !p.Trace {
		defer st.Close()
		var rounds []*tally
		for r := 0; r < measureRounds; r++ {
			rounds = append(rounds, loop(st, p.Dur/measureRounds, nil))
		}
		setEndToEnd(res, rounds, rounds)
		return res, nil
	}

	// Traced run: an untraced half for the counters, then a fresh store
	// driven with a span around every operation, and each compaction
	// from the journal as a span beside them.
	var runsMax int
	stopSampler := sampleRuns(st, &runsMax)
	a := readProc()
	plain := loop(st, p.Dur/2, nil)
	procMetrics(a, readProc(), plain.ops, res.metrics)
	stopSampler()
	storeCounters(st, plain, res.metrics)
	res.metrics.set("serve.runs_max", float64(runsMax))
	res.metrics.set("serve.rewrite_keys_per_write", ratio(float64(journalKeys(journal)), float64(plain.writes)))
	res.metrics.set("load.write_p50_ns", plain.write.quantile(0.5))
	res.metrics.set("load.write_p99_ns", plain.write.quantile(0.99))
	res.metrics.set("load.read_p99_ns", plain.read.quantile(0.99))
	st.Close()

	st, journal, err = open()
	if err != nil {
		return nil, err
	}
	defer st.Close()
	o = newOracle(len(all), pays, true, false, p.Seed)
	spans := newSpanLogs(p.Workers + 1)
	traced := loop(st, p.Dur/2, spans[:p.Workers])
	res.metrics.set("trace.overhead_share", traced.all().quantile(0.5)/plain.all().quantile(0.5)-1)
	res.metrics.set("serve.get_ns", traced.read.mean()-clockCost())
	compactionSpans(journal, spans[p.Workers])
	return res, writeSpans(spanPath(p), spans)
}

// sampleRuns records the largest run count of any shard every
// millisecond until the returned stop function is called.
func sampleRuns(st *serve.Store, runsMax *int) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			*runsMax = max(*runsMax, st.MaxRunCount())
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// journalKeys sums the keys every recorded flush and merge rewrote.
func journalKeys(j *obs.Journal) int {
	n := 0
	for _, e := range j.Events() {
		n += e.Keys
	}
	return n
}

// compactionSpans turns each journal event into a span named after its
// kind, so a write-latency spike lines up with the compaction beside it.
func compactionSpans(j *obs.Journal, sl *spanLog) {
	for _, e := range j.Events() {
		sl.add(0, 1<<62|e.Seq, "serve.compact."+e.Kind, e.Time.Add(-e.Dur), e.Time)
	}
}
