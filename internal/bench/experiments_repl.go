package bench

// The replication experiment: the serving story scaled out. A primary
// streams its writes to snapshot-bootstrapped followers, and the
// range-aware router fans reads across the topology — each server's
// coalescing window pins its read capacity, so R replicas buy close to
// R times the goodput by construction, and the experiment verifies the
// machine actually delivers it (>= 1.7x at two replicas is enforced,
// not just reported). Every row also enforces the stream's
// conservation laws (applied == acked == streamed once settled, router
// served+shed == offered). The second table kills the primary under the
// router and measures the detect -> promote -> first-write-served
// timeline. See DESIGN.md "Replication".

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/load"
	"repro/internal/net"
	"repro/internal/repl"
	"repro/internal/report"
	"repro/internal/serve"
)

func init() {
	Register(Experiment{"serve-repl", "replication: scatter/gather read goodput vs replica count, stream conservation laws, and failover-to-ready time", serveReplSweep})
}

// Topology parameters. The per-server read capacity is pinned exactly
// as in serve-net (netBatchCap keys per netWindow); 12 shards divide
// evenly across 1, 2, and 3 replicas so every node serves an equal
// key range. The read phase runs at least replMinRun at the
// topology's pinned capacity, so start-up and the idle servers' first
// rounds stay a small share of it.
const (
	replShards   = 12
	replWriteOps = 4000
	replMinRun   = 600 * netWindow
)

// replReplicaCounts are the topology sizes of the goodput sweep.
var replReplicaCounts = []int{1, 2, 3}

// replNode is one serving endpoint of the benchmark topology.
type replNode struct {
	f   *repl.Follower
	srv *net.Server
}

// serveReplSweep builds, per replica count, a fresh primary plus
// followers, streams a write burst through, settles, then saturates
// the router with closed-loop point reads.
func serveReplSweep(r *Run) ([]report.Table, error) {
	o := r.Options
	e, err := r.Env(dataset.Amzn)
	if err != nil {
		return nil, err
	}
	ops := o.Lookups
	capacity := netCapacity()

	t := report.New("serve-repl",
		fmt.Sprintf("Replicated serving (amzn, loopback, %d shards, %.0f lookups/s pinned per server, %d streamed writes, %d closed-loop workers per replica, >= %d ops and >= %v at capacity)",
			replShards, capacity, replWriteOps, netMaxPending, ops, replMinRun)).
		Dims("replicas").
		Float("boot", "ms", 1).
		Float("snap", "MB", 2).
		Float("streamed", "ops", 0).
		Float("acked", "ops", 0).
		Float("applied", "ops", 0).
		Float("goodput", "kops/s", 1).
		Float("speedup", "x", 2).
		Float("p99", "µs", 1).
		Notef("boot is the slowest follower's snapshot-bootstrap-to-ready time; snap is total shipped snapshot bytes").
		Notef("laws enforced per row: after settle each follower's applied == acked, and followers' acked == primary acked == streamed; router served+shed == offered").
		Notef("speedup is goodput vs the 1-replica row; >= 1.7x at 2 replicas is enforced, not just reported")

	ft := report.New("serve-repl",
		"Failover under the router: primary killed mid-topology, most-caught-up follower promoted").
		Dims("phase").
		Float("time", "ms", 1).
		Notef("detect: kill to the router observing FailAfter missed polls and completing promotion; ready: kill to the first routed write served by the new primary")

	var baseGoodput float64
	for _, replicas := range replReplicaCounts {
		goodput, err := runReplTopology(r, e, replicas, ops, baseGoodput, t, ft,
			replicas == replReplicaCounts[len(replReplicaCounts)-1])
		if err != nil {
			return nil, err
		}
		if replicas == 1 {
			baseGoodput = goodput
		}
		if replicas == 2 && goodput < 1.7*baseGoodput {
			return nil, fmt.Errorf("serve-repl: 2-replica goodput %.0f < 1.7x single-replica %.0f",
				goodput, baseGoodput)
		}
	}
	return []report.Table{*t, *ft}, nil
}

// replReadStream builds n point reads in which op i reads a key of
// replica i mod replicas, as the router assigns keys to replicas.
func replReadStream(router *repl.Router, keys []core.Key, replicas, n int, seed uint64) []load.Op {
	parts := make([][]load.Op, replicas)
	for k := range parts {
		// NodeOf never decreases with the key, so replica k's keys are
		// one contiguous block.
		lo := sort.Search(len(keys), func(i int) bool { return router.NodeOf(keys[i]) >= k })
		hi := sort.Search(len(keys), func(i int) bool { return router.NodeOf(keys[i]) > k })
		parts[k] = load.MixedOps(keys[lo:hi], n/replicas+1, 1, 0, seed+uint64(k))
	}
	stream := make([]load.Op, n)
	for i := range stream {
		stream[i] = parts[i%replicas][i/replicas]
	}
	return stream
}

// runReplTopology measures one replica count and appends its row
// (speedup is relative to base, the single-replica goodput); when
// failover is set it also kills the primary afterwards and appends
// the failover timeline.
func runReplTopology(r *Run, e *Env, replicas, ops int, base float64, t, ft *report.Table, failover bool) (float64, error) {
	o := r.Options
	tmp, err := os.MkdirTemp("", "serve-repl-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmp)
	// Primary: volatile store, hooked log, repl listener, serving port.
	log := repl.NewLog(replShards)
	st, err := serve.New(e.Keys, e.Payloads, serve.Config{
		Shards: replShards, Family: "PGM", WriteHook: log.Hook(),
	})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	pri, err := repl.NewPrimary(st, log, "127.0.0.1:0", repl.PrimaryConfig{})
	if err != nil {
		return 0, err
	}
	defer pri.Close()
	srv, err := net.Listen("127.0.0.1:0", st, net.Config{
		CoalesceWindow: netWindow, BatchCap: netBatchCap, MaxPending: netMaxPending,
		ReplStat: pri.ReplStatHook(),
	})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	addrs := []string{srv.Addr().String()}

	// Followers bootstrap by snapshot shipping; boot time is the
	// slowest follower's StartFollower-to-ready interval.
	var nodes []*replNode
	defer func() {
		for _, n := range nodes {
			_ = n.srv.Close()
			n.f.Stop()
		}
	}()
	var bootMs float64
	for i := 1; i < replicas; i++ {
		t0 := time.Now()
		f, err := repl.StartFollower(repl.FollowerConfig{
			Dir:         fmt.Sprintf("%s/replica-%d", tmp, i),
			PrimaryAddr: pri.Addr().String(),
			Store:       serve.Config{Family: "PGM"},
		})
		if err != nil {
			return 0, err
		}
		if err := f.WaitReady(60 * time.Second); err != nil {
			return 0, err
		}
		if ms := float64(time.Since(t0).Nanoseconds()) / 1e6; ms > bootMs {
			bootMs = ms
		}
		fsrv, err := net.Listen("127.0.0.1:0", f.Store(), net.Config{
			CoalesceWindow: netWindow, BatchCap: netBatchCap, MaxPending: netMaxPending,
			ReplStat: f.ReplStatHook(), Promote: f.PromoteHook(),
		})
		if err != nil {
			f.Stop()
			return 0, err
		}
		nodes = append(nodes, &replNode{f: f, srv: fsrv})
		addrs = append(addrs, fsrv.Addr().String())
	}

	// Write burst through the primary store: every op enters the
	// stream; then settle so the laws can be checked at a fixed point
	// and the read phase does not share the CPU with the compactions
	// the burst queued on every node.
	writes := load.MixedOps(e.Keys, replWriteOps, 0, 0, o.Seed+uint64(replicas))
	for _, op := range writes {
		st.Put(op.Key, uint64(op.Key)^0xbeef)
	}
	want := log.Seqs()
	for _, n := range nodes {
		if err := n.f.WaitCaughtUp(want, 60*time.Second); err != nil {
			return 0, err
		}
	}
	if err := pri.WaitAcked(60 * time.Second); err != nil {
		return 0, err
	}
	st.WaitCompactions()
	for _, n := range nodes {
		n.f.Store().WaitCompactions()
	}

	// Settled, the stream's counters agree exactly: every follower
	// applied all it acked, and the primary streamed and saw acked
	// exactly the followers' total.
	ps := pri.Stats()
	var applied, acked uint64
	for _, n := range nodes {
		fs := n.f.Stats()
		if fs.AppliedOps != fs.AckedOps {
			return 0, fmt.Errorf("serve-repl %d: follower applied %d != acked %d after settle", replicas, fs.AppliedOps, fs.AckedOps)
		}
		applied += fs.AppliedOps
		acked += fs.AckedOps
	}
	if acked != ps.AckedOps || ps.AckedOps != ps.StreamedOps {
		return 0, fmt.Errorf("serve-repl %d: after settle followers acked %d, primary acked %d, streamed %d (want all equal)",
			replicas, acked, ps.AckedOps, ps.StreamedOps)
	}
	if replicas > 1 && ps.StreamedOps < uint64(replWriteOps) {
		return 0, fmt.Errorf("serve-repl %d: only %d of %d writes streamed", replicas, ps.StreamedOps, replWriteOps)
	}

	// Read phase: closed-loop point lookups through the router. Each
	// replica gets netMaxPending workers whose keys all lie in its
	// range (RunClosed hands worker w the ops w, w+W, ..., and op i
	// reads replica i mod R's range), so every node holds exactly its
	// admission queue: every round is full, nothing sheds, and no
	// generator CPU goes to shed round trips.
	router, err := repl.NewRouter(addrs, 0, repl.RouterConfig{})
	if err != nil {
		return 0, err
	}
	defer router.Close()
	stream := replReadStream(router, e.Keys, replicas,
		max(ops, int(float64(replicas)*netCapacity()*replMinRun.Seconds())), o.Seed)
	res := load.RunClosed(router, stream, load.Config{Workers: replicas * netMaxPending})
	if res.Errors > 0 {
		return 0, fmt.Errorf("serve-repl %d: %d hard errors", replicas, res.Errors)
	}
	if res.Ops+res.Sheds != len(stream) {
		return 0, fmt.Errorf("serve-repl %d: %d ops + %d sheds != %d offered", replicas, res.Ops, res.Sheds, len(stream))
	}
	rs := router.Stats()
	if rs.Served+rs.Shed < uint64(len(stream)) {
		return 0, fmt.Errorf("serve-repl %d: router served %d + shed %d < offered %d", replicas, rs.Served, rs.Shed, len(stream))
	}

	speedup := 1.0
	if base > 0 {
		speedup = res.Throughput / base
	}
	sum := res.Hist.Summary()
	t.Row([]string{fmt.Sprintf("%d", replicas)},
		bootMs, float64(ps.SnapBytes)/(1<<20),
		float64(ps.StreamedOps), float64(ps.AckedOps), float64(applied),
		res.Throughput/1e3,
		speedup,
		float64(sum.P99)/1e3)

	if failover && replicas >= 2 {
		if err := runReplFailover(st, pri, srv, router, e.Keys, ft); err != nil {
			return 0, err
		}
	}
	return res.Throughput, nil
}

// runReplFailover kills the primary under the router and measures the
// timeline: detect+promote (router Failovers counter moves), then
// ready (first routed write served by the new primary).
func runReplFailover(st *serve.Store, pri *repl.Primary, srv *net.Server, router *repl.Router, keys []core.Key, ft *report.Table) error {
	// Quiesce: the goodput phase issued no writes, so followers are
	// already settled; kill the primary node wholesale.
	t0 := time.Now()
	_ = srv.Close()
	_ = pri.Close()
	st.Close()

	deadline := time.Now().Add(60 * time.Second)
	for router.Stats().Failovers == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("serve-repl failover: router never promoted")
		}
		time.Sleep(time.Millisecond)
	}
	detectMs := float64(time.Since(t0).Nanoseconds()) / 1e6

	var readyMs float64
	probe := keys[len(keys)/2]
	for {
		if err := router.TryPut(probe, 0xfeedface); err == nil {
			readyMs = float64(time.Since(t0).Nanoseconds()) / 1e6
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("serve-repl failover: no write served after promotion")
		}
		time.Sleep(time.Millisecond)
	}
	// Post-failover smoke: read-your-write through the router.
	if v, ok, err := router.TryGet(probe); err != nil || !ok || v != 0xfeedface {
		return fmt.Errorf("serve-repl failover: read-your-write got (%d,%v,%v)", v, ok, err)
	}

	ft.Row([]string{"detect+promote"}, detectMs)
	ft.Row([]string{"ready"}, readyMs)
	return nil
}
