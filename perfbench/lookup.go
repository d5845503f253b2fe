package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/search"
	"repro/internal/serve"
)

// buildTimes records, per shard, how long choosing the registry's
// mid-sweep builder took and how long its Build ran.
type buildTimes struct {
	selectDur, buildDur []time.Duration
}

// timedBuilder times Build of the builder it wraps.
type timedBuilder struct {
	core.Builder
	d *time.Duration
}

func (b timedBuilder) Build(keys []core.Key) (core.Index, error) {
	t0 := time.Now()
	idx, err := b.Builder.Build(keys)
	*b.d = time.Since(t0)
	return idx, err
}

// builderFor gives shard i the family fams[i mod len(fams)], each with
// its registry mid-sweep builder.
func (bt *buildTimes) builderFor(fams []string, shards int) func(int, []core.Key) (core.Builder, error) {
	bt.selectDur = make([]time.Duration, shards)
	bt.buildDur = make([]time.Duration, shards)
	return func(i int, keys []core.Key) (core.Builder, error) {
		t0 := time.Now()
		nb, ok := registry.Builder(fams[i%len(fams)], keys)
		bt.selectDur[i] = time.Since(t0)
		if !ok {
			return nil, fmt.Errorf("no builder for family %s", fams[i%len(fams)])
		}
		return timedBuilder{nb.Builder, &bt.buildDur[i]}, nil
	}
}

// runLookup is the paper's setting: read-only point lookups of present
// keys, uniform at random, over one store whose shards carry the four
// index families.
func runLookup(p params) (*result, error) {
	keys, pays, err := p.data()
	if err != nil {
		return nil, err
	}
	res := newResult()
	var (
		st     *serve.Store
		bt     buildTimes
		setups []float64
	)
	for i := 0; i < p.Setups; i++ {
		if st != nil {
			st.Close()
		}
		t0 := time.Now()
		st, err = serve.New(keys, pays, serve.Config{Shards: p.Shards, BuilderFor: bt.builderFor(p.Families, p.Shards)})
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.Close()
	res.setN("setup_s", median(setups), uint64(len(setups)))
	res.setN("heap_bytes_per_key", float64(liveHeap())/float64(len(keys)), 1)

	stream := uniformStream(keys, p.Stream, p.Seed)
	spec := loopSpec{tg: p.target(storeTarget{st}), o: newOracle(len(keys), pays, false, false, p.Seed),
		workers: p.Workers, next: cyclic(stream, p.Workers), getSpan: "serve.get"}
	if !p.Trace {
		spec.dur = p.Dur / measureRounds
		var rounds []*tally
		for r := 0; r < measureRounds; r++ {
			t := runClosed(spec)
			res.count(t)
			rounds = append(rounds, t)
		}
		setEndToEnd(res, rounds, rounds)
		return res, nil
	}

	// Traced run: an untraced phase, the same loop with a span around
	// every Get, then the layer decomposition.
	spec.dur = p.Dur * 4 / 10
	a := readProc()
	plain := runClosed(spec)
	procMetrics(a, readProc(), plain.ops, res.metrics)
	res.count(plain)
	storeCounters(st, plain, res.metrics)
	res.metrics.set("load.read_p99_ns", plain.read.quantile(0.99))

	spec.dur, spec.spans = p.Dur*3/10, newSpanLogs(p.Workers)
	traced := runClosed(spec)
	res.count(traced)
	res.metrics.set("trace.overhead_share", traced.read.quantile(0.5)/plain.read.quantile(0.5)-1)

	dec := decompose(st, keys, pays, stream, p, p.Dur*3/10, spec.spans)
	res.count(dec.tally)
	dec.report(res.metrics)
	for i := 0; i < st.NumShards(); i++ {
		f := lower(p.Families[i%len(p.Families)])
		t := st.Shard(i)
		res.metrics.set(f+".build_s", bt.buildDur[i].Seconds())
		res.metrics.set(f+".select_s", bt.selectDur[i].Seconds())
		res.metrics.set(f+".bytes_per_key", float64(t.Index().SizeBytes())/float64(t.Len()))
	}
	return res, writeSpans(spanPath(p), spec.spans)
}

func newSpanLogs(n int) []*spanLog {
	epoch := time.Now()
	logs := make([]*spanLog, n)
	for i := range logs {
		logs[i] = newSpanLog(epoch, i+1)
	}
	return logs
}

func spanPath(p params) string {
	return filepath.Join(p.Dir, fmt.Sprintf("spans-%s-seed%d.jsonl", p.Workload, p.Seed))
}

// storeCounters reports the serve layer's write-path counters over a
// loop that ran on st.
func storeCounters(st *serve.Store, t *tally, m metricSet) {
	perM := func(c uint64) float64 { return ratio(float64(c)*1e6, float64(t.writes)) }
	m.set("serve.read_amp", st.ReadAmp())
	m.set("serve.runs_max", float64(st.MaxRunCount()))
	m.set("serve.flushes_per_mwrite", perM(st.Flushes()))
	m.set("serve.minor_merges_per_mwrite", perM(st.MinorMerges()))
	m.set("serve.major_merges_per_mwrite", perM(st.MajorMerges()))
	m.set("serve.compact_busy_share", ratio(st.CompactTime().Seconds(), t.elapsed.Seconds()))
}

// layerSums accumulates one layer's span time.
type layerSums struct {
	ns, n float64
	log2w float64 // summed log2 bound width (index layer only)
}

func (s *layerSums) add(d time.Duration) { s.ns += float64(d.Nanoseconds()); s.n++ }
func (s *layerSums) mean() float64       { return ratio(s.ns, s.n) }

func (s *layerSums) merge(o layerSums) {
	s.ns += o.ns
	s.n += o.n
	s.log2w += o.log2w
}

// decomposition is the layer split of the lookup path, per family.
type decomposition struct {
	fams               []string
	index, search, tbl []layerSums // by family
	serve              layerSums
	clockNs            float64 // cost of one clock read, taken out of every span
	tally              *tally
}

// decompose sends sampled requests through the layers in turn. Each
// request takes three keys from the lookup stream: key a goes through
// its shard's Index.Lookup and then the store's search function over
// the returned bound (Lookup never touches the key array, so the search
// starts as cold as it does inside Table.Get); key b through its
// shard's Table.Get; key c through Store.Get. Separate keys keep every
// call as cold as on the request path. Each call is a span under one
// request span, and the index and search times count toward the family
// of key a's shard, the table time toward key b's.
func decompose(st *serve.Store, keys []core.Key, pays []uint64, stream []op, p params, dur time.Duration, logs []*spanLog) *decomposition {
	nShards := st.NumShards()
	starts := make([]int, nShards)
	for i, s := range st.Separators() {
		starts[i] = core.LowerBound(keys, s)
	}
	shardOf := func(id uint32) int {
		i := nShards - 1
		for int(id) < starts[i] {
			i--
		}
		return i
	}
	nf := len(p.Families)
	newPart := func() *decomposition {
		return &decomposition{fams: p.Families, index: make([]layerSums, nf), search: make([]layerSums, nf),
			tbl: make([]layerSums, nf), tally: newTally()}
	}
	parts := make([]*decomposition, p.Workers)
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for w := range parts {
		parts[w] = newPart()
		wg.Add(1)
		go func(d *decomposition, sl *spanLog, next func() op) {
			defer wg.Done()
			for req := uint64(1); ; req++ {
				a, b, c := next(), next(), next()
				sa, sb := shardOf(a.id), shardOf(b.id)
				ta, tb := st.Shard(sa), st.Shard(sb)
				fa, fb := sa%nf, sb%nf

				t0 := time.Now()
				bnd := ta.Index().Lookup(a.key)
				t1 := time.Now()
				pos := search.BinarySearch(ta.Keys(), a.key, bnd)
				t2 := time.Now()
				vb, okb := tb.Get(b.key)
				t3 := time.Now()
				vc, okc := st.Get(c.key)
				t4 := time.Now()

				root := sl.add(0, req, "request", t0, t4)
				sl.add(root, req, "index.lookup."+lower(p.Families[fa]), t0, t1)
				sl.add(root, req, "search.last_mile."+lower(p.Families[fa]), t1, t2)
				sl.add(root, req, "table.get."+lower(p.Families[fb]), t2, t3)
				sl.add(root, req, "serve.get", t3, t4)
				d.index[fa].add(t1.Sub(t0))
				d.index[fa].log2w += math.Log2(float64(max(bnd.Width(), 1)))
				d.search[fa].add(t2.Sub(t1))
				d.tbl[fb].add(t3.Sub(t2))
				d.serve.add(t4.Sub(t3))

				d.tally.ops += 3
				if starts[sa]+pos != int(a.id) || !okb || vb != pays[b.id] || !okc || vc != pays[c.id] {
					d.tally.wrong++
				}
				if t4.After(deadline) {
					return
				}
			}
		}(parts[w], logs[w], cyclic(stream, p.Workers)(w))
	}
	wg.Wait()
	d := newPart()
	d.clockNs = clockCost()
	for _, pt := range parts {
		for f := 0; f < nf; f++ {
			d.index[f].merge(pt.index[f])
			d.search[f].merge(pt.search[f])
			d.tbl[f].merge(pt.tbl[f])
		}
		d.serve.merge(pt.serve)
		d.tally.merge(pt.tally)
	}
	return d
}

// report sets the per-family layer times, the store's get time, and
// the self-time check: with every self time floored at zero, the
// layers' self times must add up to serve.get_ns; the share by which
// they miss it is trace.self_sum_error_share (tolerance 0.10).
func (d *decomposition) report(m metricSet) {
	net := func(s layerSums) float64 { return max(s.mean()-d.clockNs, 0) }
	var idx, srch, tbl float64
	for f, name := range d.fams {
		name = lower(name)
		m.set(name+".lookup_ns", net(d.index[f]))
		m.set(name+".bound_log2", ratio(d.index[f].log2w, d.index[f].n))
		m.set("search.last_mile_ns."+name, net(d.search[f]))
		m.set("table.get_ns."+name, net(d.tbl[f]))
		idx += net(d.index[f]) / float64(len(d.fams))
		srch += net(d.search[f]) / float64(len(d.fams))
		tbl += net(d.tbl[f]) / float64(len(d.fams))
	}
	serveNs := net(d.serve)
	m.set("serve.get_ns", serveNs)
	sum := idx + srch + max(tbl-idx-srch, 0) + max(serveNs-tbl, 0)
	m.set("trace.self_sum_error_share", ratio(math.Abs(sum-serveNs), serveNs))
}

// clockCost is the mean cost of one clock read, which every span
// duration includes once.
func clockCost() float64 {
	const n = 1 << 16
	t0 := time.Now()
	for i := 0; i < n; i++ {
		_ = time.Now()
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}
