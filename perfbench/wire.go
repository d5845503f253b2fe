package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/repl"
	"repro/internal/serve"
)

// sloP99 is the read-latency limit of wire.slo_ops_s.
const sloP99 = 3 * time.Millisecond

// node is one server of the topology with its observability.
type node struct {
	srv *net.Server
	reg *obs.Registry
}

// topology is the deployed shape in one process: a primary server with
// its replication stream, one follower server fed by it, and the
// router in front of both. Both servers use the sosdserve defaults.
type topology struct {
	dir     string
	st      *serve.Store
	pri     *repl.Primary
	fol     *repl.Follower
	nodes   [2]node // primary, follower
	router  *repl.Router
	seps    []core.Key
	closers []func()
}

func startTopology(keys []core.Key, pays []uint64, p params) (tp *topology, err error) {
	dir, err := os.MkdirTemp(p.Dir, "wire-*")
	if err != nil {
		return nil, err
	}
	tp = &topology{dir: dir}
	defer func() {
		if err != nil {
			tp.close()
		}
	}()
	nodeCfg := func() (net.Config, *obs.Registry, *obs.Journal, *obs.Tracer) {
		reg := obs.NewRegistry()
		tr := obs.NewTracer(reg, obs.DefaultTraceEvery)
		obs.RegisterPersist(reg)
		return net.Config{Metrics: reg, Tracer: tr}, reg, obs.NewJournal(obs.DefaultJournalCap), tr
	}

	cfgP, regP, jP, trP := nodeCfg()
	log := repl.NewLog(p.Shards)
	tp.st, err = serve.New(keys, pays, serve.Config{Shards: p.Shards, Family: p.Families[0],
		Metrics: regP, Journal: jP, Tracer: trP, WriteHook: log.Hook()})
	if err != nil {
		return tp, err
	}
	tp.closers = append(tp.closers, tp.st.Close)
	tp.seps = tp.st.Separators()
	if tp.pri, err = repl.NewPrimary(tp.st, log, "127.0.0.1:0", repl.PrimaryConfig{SnapDir: dir}); err != nil {
		return tp, err
	}
	tp.closers = append(tp.closers, func() { _ = tp.pri.Close() })
	cfgP.ReplStat = tp.pri.ReplStatHook()
	if err = tp.listen(0, cfgP, regP, tp.st); err != nil {
		return tp, err
	}

	cfgF, regF, jF, trF := nodeCfg()
	tp.fol, err = repl.StartFollower(repl.FollowerConfig{Dir: filepath.Join(dir, "follower"),
		PrimaryAddr: tp.pri.Addr().String(),
		Store:       serve.Config{Family: p.Families[0], Metrics: regF, Journal: jF, Tracer: trF}})
	if err != nil {
		return tp, err
	}
	tp.closers = append(tp.closers, tp.fol.Stop)
	if err = tp.fol.WaitReady(time.Minute); err != nil {
		return tp, err
	}
	cfgF.ReplStat, cfgF.Promote = tp.fol.ReplStatHook(), tp.fol.PromoteHook()
	if err = tp.listen(1, cfgF, regF, tp.fol.Store()); err != nil {
		return tp, err
	}

	tp.router, err = repl.NewRouter([]string{tp.addr(0), tp.addr(1)}, 0, repl.RouterConfig{})
	if err != nil {
		return tp, err
	}
	tp.closers = append(tp.closers, func() { _ = tp.router.Close() })
	return tp, nil
}

func (tp *topology) listen(i int, cfg net.Config, reg *obs.Registry, st *serve.Store) error {
	srv, err := net.Listen("127.0.0.1:0", st, cfg)
	if err != nil {
		return err
	}
	tp.nodes[i] = node{srv: srv, reg: reg}
	tp.closers = append(tp.closers, func() { _ = srv.Close() })
	return nil
}

func (tp *topology) addr(i int) string { return tp.nodes[i].srv.Addr().String() }

// close stops everything in reverse start order and removes the
// replica and snapshot files.
func (tp *topology) close() {
	for i := len(tp.closers) - 1; i >= 0; i-- {
		tp.closers[i]()
	}
	_ = os.RemoveAll(tp.dir)
}

// owner is the node the router sends a read of key to: the router maps
// a contiguous band of shards to each node, as repl.Router documents.
func (tp *topology) owner(key core.Key) int {
	i := sort.Search(len(tp.seps), func(i int) bool { return tp.seps[i] > key })
	shard := max(i-1, 0)
	return shard * len(tp.nodes) / len(tp.seps)
}

// netVars sums one registry series over both servers.
func (tp *topology) netVars(name string) float64 {
	var s float64
	for _, n := range tp.nodes {
		v, _ := n.reg.Value(name)
		s += v
	}
	return s
}

// runWire drives the replicated topology through the router: YCSB-B
// (95% reads, 5% writes, zipf keys), closed loops at each depth in turn.
func runWire(p params) (*result, error) {
	keys, pays, err := p.data()
	if err != nil {
		return nil, err
	}
	res := newResult()
	var (
		tp     *topology
		setups []float64
	)
	for i := 0; i < p.Setups; i++ {
		if tp != nil {
			tp.close()
		}
		t0 := time.Now()
		if tp, err = startTopology(keys, pays, p); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.setN("setup_s", median(setups), uint64(len(setups)))
	res.setN("heap_bytes_per_key", float64(liveHeap())/float64(len(keys)), 1)

	all := universe(keys, p.Fresh, p.Seed)
	stream := mixedStream(all, len(keys), p.Stream, p.WriteFrac, p.Theta, p.Seed)
	// Reads may be served by the follower, which applies the primary's
	// writes asynchronously, so a written key may still read its
	// initial value.
	o := newOracle(len(all), pays, true, true, p.Seed)
	sources := map[int]func(int) func() op{} // by depth, so rounds continue the stream
	loop := func(tp *topology, depth int, dur time.Duration) *tally {
		if sources[depth] == nil {
			sources[depth] = cyclic(stream, depth)
		}
		t := runClosed(loopSpec{tg: p.target(tp.router), o: o, workers: depth, dur: dur, next: sources[depth]})
		res.count(t)
		return t
	}

	if !p.Trace {
		defer tp.close()
		light, peak := alternate(tp, p.Depths[0], p.Depths[len(p.Depths)-1], p.Dur, loop)
		setEndToEnd(res, light, peak)
		return res, nil
	}

	// Traced run, untraced half: every depth, with the servers'
	// coalescer and the persistence counters read around the sweep.
	m := res.metrics
	a, pa := readProc(), persist.CountersNow()
	flushes := func() float64 {
		return tp.netVars("sosd_net_flush_timer_total") + tp.netVars("sosd_net_flush_idle_total") +
			tp.netVars("sosd_net_flush_full_total")
	}
	timer0, rounds0 := tp.netVars("sosd_net_flush_timer_total"), flushes()
	perDepth := sweep(tp, p.Depths, p.Dur/2, loop, m)
	var ops, writes uint64
	for _, t := range perDepth {
		ops += t.ops
		writes += t.writes
	}
	procMetrics(a, readProc(), ops, m)
	pb := persist.CountersNow()
	m.set("persist.wal_bytes_per_write", ratio(float64(pb.WALBytes-pa.WALBytes), float64(writes)))
	m.set("persist.fsyncs_per_kwrite", ratio(float64(pb.Fsyncs-pa.Fsyncs)*1e3, float64(writes)))
	m.set("net.timer_flush_share", ratio(tp.netVars("sosd_net_flush_timer_total")-timer0, flushes()-rounds0))
	peak := perDepth[len(perDepth)-1]
	m.set("wire.write_p99_us.d128", peak.write.quantile(0.99)/1e3)
	m.set("load.write_p50_ns", peak.write.quantile(0.5))
	m.set("load.write_p99_ns", peak.write.quantile(0.99))
	m.set("load.read_p99_ns", perDepth[0].read.quantile(0.99))
	slo := 0.0
	for _, t := range perDepth {
		if t.failed() == 0 && t.read.quantile(0.99) <= float64(sloP99.Nanoseconds()) {
			slo = max(slo, float64(t.good())/t.elapsed.Seconds())
		}
	}
	m.set("wire.slo_ops_s", slo)
	batch := max(int(m[fmt.Sprintf("net.batch_keys_mean.d%d", p.Depths[len(p.Depths)-1])]+0.5), 1)
	m.set("serve.getbatchfound_ns_per_key", getBatchFoundNs(tp.st, keys, batch, p.Seed))
	light := perDepth[0]
	tp.close()

	// Traced half on a fresh topology: at the lightest depth each read
	// through the router is paired with a direct client read of the
	// same key at the node that owns it; then the follower's freshness.
	if tp, err = startTopology(keys, pays, p); err != nil {
		return nil, err
	}
	defer tp.close()
	o = newOracle(len(all), pays, true, true, p.Seed)
	var direct [2]*net.Client
	for i := range direct {
		if direct[i], err = net.Dial(tp.addr(i)); err != nil {
			return nil, err
		}
		defer direct[i].Close()
	}
	ps := &pairStats{sl: newSpanLogs(1)[0], router: new(hist), client: new(hist)}
	paired := runClosed(loopSpec{
		tg: pairedTarget{router: p.target(tp.router), direct: direct, tp: tp, ps: ps},
		o:  o, workers: p.Depths[0], dur: p.Dur * 7 / 20, next: cyclic(stream, p.Depths[0]),
	})
	res.count(paired)
	m.set("trace.overhead_share", ps.router.quantile(0.5)/light.read.quantile(0.5)-1)
	m.set("repl.router_read_us", ps.router.quantile(0.5)/1e3)
	m.set("net.client_read_us", ps.client.quantile(0.5)/1e3)
	var cnt, p50, p99 float64
	for _, n := range tp.nodes {
		c, _ := n.reg.Value("sosd_net_latency_ns_count")
		q50, _ := n.reg.Value("sosd_net_latency_ns_p50")
		q99, _ := n.reg.Value("sosd_net_latency_ns_p99")
		cnt, p50, p99 = cnt+c, p50+c*q50, p99+c*q99
	}
	m.set("net.service_p50_us", ratio(p50, cnt)/1e3)
	m.set("net.service_p99_us", ratio(p99, cnt)/1e3)
	m.set("net.coalesce_wait_p99_us", maxVar(tp, `sosd_trace_phase_ns{phase="coalesce_wait"}_p99`)/1e3)

	lags, lagTally := visibleLag(tp, direct[1], o, stream, p.Dur*3/20)
	res.count(lagTally)
	m.set("repl.visible_lag_p50_us", lags.quantile(0.5)/1e3)
	m.set("repl.visible_lag_p99_us", lags.quantile(0.99)/1e3)
	return res, writeSpans(spanPath(p), []*spanLog{ps.sl})
}

// alternate runs the lightest and the heaviest depth in turn, 3/10 and
// 7/10 of total split over measureRounds rounds, and returns each
// depth's rounds. Alternating lets each depth sample the whole run
// rather than one stretch of it. The heaviest depth
// gets more because its goodput and tail move with the host's load
// (CPU-bound on 2 CPUs) and need the longer average; the lightest
// depth's latencies repeat within 2% on less.
func alternate(tp *topology, lightDepth, peakDepth int, total time.Duration, loop func(*topology, int, time.Duration) *tally) (light, peak []*tally) {
	for r := 0; r < measureRounds; r++ {
		light = append(light, loop(tp, lightDepth, total*3/10/measureRounds))
		peak = append(peak, loop(tp, peakDepth, total*7/10/measureRounds))
	}
	return light, peak
}

// depthShare splits the traced sweep's time between the depths, in
// tenths; the heaviest, which sets goodput, gets most of it.
var depthShare = []time.Duration{2, 1, 1, 6}

// sweep runs the closed loop at each depth in turn for its share of
// total, and records each depth's goodput, read p99 and coalesced batch
// size.
func sweep(tp *topology, depths []int, total time.Duration, loop func(*topology, int, time.Duration) *tally, m metricSet) []*tally {
	var out []*tally
	for i, d := range depths {
		b0, k0 := tp.netVars("sosd_net_batches_total"), tp.netVars("sosd_net_batched_keys_total")
		t := loop(tp, d, total*depthShare[i%len(depthShare)]/10)
		out = append(out, t)
		m.set(fmt.Sprintf("wire.ops_s.d%d", d), float64(t.good())/t.elapsed.Seconds())
		m.set(fmt.Sprintf("wire.read_p99_us.d%d", d), t.read.quantile(0.99)/1e3)
		m.set(fmt.Sprintf("net.batch_keys_mean.d%d", d), ratio(
			tp.netVars("sosd_net_batched_keys_total")-k0, tp.netVars("sosd_net_batches_total")-b0))
	}
	return out
}

func maxVar(tp *topology, name string) float64 {
	var v float64
	for _, n := range tp.nodes {
		x, _ := n.reg.Value(name)
		v = max(v, x)
	}
	return v
}

// pairStats collects the paired reads' spans and latencies. Medians
// are reported: about a third of the reads at depth 2 wait for the
// coalescer's window timer, and the direct read, following the
// router's within microseconds, waits for it more often, so means
// would compare timer waits rather than the layers.
type pairStats struct {
	mu             sync.Mutex
	sl             *spanLog
	req            uint64
	router, client *hist
}

// pairedTarget sends each read through the router and then the same key
// straight to the node that owns it, with a span around each call
// under one request span. The router's answer is the one returned and
// checked; the direct call is only timed.
type pairedTarget struct {
	router target
	direct [2]*net.Client
	tp     *topology
	ps     *pairStats
}

func (pt pairedTarget) TryGet(k core.Key) (uint64, bool, error) {
	t0 := time.Now()
	v, ok, err := pt.router.TryGet(k)
	t1 := time.Now()
	_, _, derr := pt.direct[pt.tp.owner(k)].Get(k)
	t2 := time.Now()
	ps := pt.ps
	ps.mu.Lock()
	ps.req++
	root := ps.sl.add(0, ps.req, "request", t0, t2)
	ps.sl.add(root, ps.req, "repl.router_get", t0, t1)
	ps.sl.add(root, ps.req, "net.client_get", t1, t2)
	ps.router.record(t1.Sub(t0).Nanoseconds())
	ps.client.record(t2.Sub(t1).Nanoseconds())
	ps.mu.Unlock()
	if err == nil {
		err = derr
	}
	return v, ok, err
}

func (pt pairedTarget) TryPut(k core.Key, v uint64) error { return pt.router.TryPut(k, v) }

// getBatchFoundNs times Store.GetBatchFound over batches of size
// batch drawn uniformly from keys, in nanoseconds per key.
func getBatchFoundNs(st *serve.Store, keys []core.Key, batch int, seed uint64) float64 {
	lookups := dataset.Lookups(keys, batch*512, seed)
	out := make([]uint64, batch)
	found := make([]bool, batch)
	t0 := time.Now()
	for i := 0; i+batch <= len(lookups); i += batch {
		st.GetBatchFound(lookups[i:i+batch], out, found)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(lookups)/batch*batch)
}

// visibleLag writes keys through the router and times how long after
// each Put returns the follower's own client first reads the new value.
func visibleLag(tp *topology, fc *net.Client, o *oracle, stream []op, dur time.Duration) (*hist, *tally) {
	h, t := new(hist), newTally()
	deadline := time.Now().Add(dur)
	for i := 0; time.Now().Before(deadline); i++ {
		p := stream[i%len(stream)]
		if !p.write {
			continue
		}
		k, v := p.key, o.version(p.id)
		t.ops++
		t.writes++
		if err := tp.router.TryPut(k, v); err != nil {
			t.errs++
			continue
		}
		o.markWritten(p.id)
		committed := time.Now()
		for {
			got, ok, err := fc.Get(k)
			if err == nil && ok && got == v {
				h.record(time.Since(committed).Nanoseconds())
				break
			}
			if time.Since(committed) > time.Second {
				t.errs++
				break
			}
		}
	}
	return h, t
}
