// Command perfbench is the repository's benchmark. It runs one
// workload against the store, checks every read it makes, and prints
// its metrics: the end-to-end metrics from an untraced run, or with
// --trace 1 the per-layer metrics from a run that times each layer's
// public functions from outside and records spans around them.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload lookup|ycsb-a|wire --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it give
// the host fingerprint, the run settings and each metric with its unit
// and sample count. The command exits 1 on any wrong read, and 2 when
// it cannot run. README.md in this directory describes the workloads
// and what each metric measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the store sees. Every workload
// reports all of them; see README.md for what each means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_bytes_per_key", "B"},
	{"ops_s", "ops/s"},
	{"read_p50_ns", "ns"},
	{"read_p95_ns", "ns"},
	{"tail_p95_ns", "ns"},
}

// families are the index families the lookup workload puts behind one
// store, one per shard, as named in metric prefixes.
var families = []string{"RMI", "PGM", "RS", "BTree"}

// perLayer are the metrics of single layers, from the traced run. A
// layer a workload does not exercise reports 0.
var perLayer = func() []metricDef {
	var ds []metricDef
	for _, f := range families {
		f := lower(f)
		ds = append(ds,
			metricDef{f + ".lookup_ns", "ns"},
			metricDef{f + ".bound_log2", "log2"},
			metricDef{"search.last_mile_ns." + f, "ns"},
			metricDef{"table.get_ns." + f, "ns"},
			metricDef{f + ".build_s", "s"},
			metricDef{f + ".select_s", "s"},
			metricDef{f + ".bytes_per_key", "B"},
		)
	}
	ds = append(ds,
		metricDef{"serve.get_ns", "ns"},
		metricDef{"serve.read_amp", "probes"},
		metricDef{"serve.runs_max", "count"},
		metricDef{"serve.flushes_per_mwrite", "count"},
		metricDef{"serve.minor_merges_per_mwrite", "count"},
		metricDef{"serve.major_merges_per_mwrite", "count"},
		metricDef{"serve.compact_busy_share", "ratio"},
		metricDef{"serve.rewrite_keys_per_write", "keys"},
		metricDef{"serve.getbatchfound_ns_per_key", "ns"},
		metricDef{"load.read_p99_ns", "ns"},
		metricDef{"load.write_p50_ns", "ns"},
		metricDef{"load.write_p99_ns", "ns"},
		metricDef{"net.client_read_us", "us"},
		metricDef{"net.service_p50_us", "us"},
		metricDef{"net.service_p99_us", "us"},
		metricDef{"net.timer_flush_share", "ratio"},
		metricDef{"net.coalesce_wait_p99_us", "us"},
	)
	for _, d := range wireDepths {
		ds = append(ds, metricDef{fmt.Sprintf("net.batch_keys_mean.d%d", d), "keys"})
	}
	for _, d := range wireDepths {
		ds = append(ds,
			metricDef{fmt.Sprintf("wire.ops_s.d%d", d), "ops/s"},
			metricDef{fmt.Sprintf("wire.read_p99_us.d%d", d), "us"},
		)
	}
	ds = append(ds,
		metricDef{"wire.write_p99_us.d128", "us"},
		metricDef{"wire.slo_ops_s", "ops/s"},
		metricDef{"repl.router_read_us", "us"},
		metricDef{"repl.visible_lag_p50_us", "us"},
		metricDef{"repl.visible_lag_p99_us", "us"},
		metricDef{"persist.wal_bytes_per_write", "B"},
		metricDef{"persist.fsyncs_per_kwrite", "count"},
		metricDef{"proc.cpu_us_per_op", "us"},
		metricDef{"proc.alloc_bytes_per_op", "B"},
		metricDef{"proc.gc_cpu_share", "ratio"},
		metricDef{"proc.ctx_switches_per_op", "count"},
		metricDef{"trace.overhead_share", "ratio"},
		metricDef{"trace.self_sum_error_share", "ratio"},
	)
	return ds
}()

// metricSet holds measured values by metric name.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) { m[name] = v }

// result is what one workload run reports.
type result struct {
	attempted, failed, wrong uint64
	metrics                  metricSet
	samples                  map[string]uint64 // sample count per metric, where it has one
}

func newResult() *result {
	return &result{metrics: metricSet{}, samples: map[string]uint64{}}
}

// count folds a loop's operations into the run's totals.
func (r *result) count(t *tally) {
	r.attempted += t.ops
	r.failed += t.failed()
	r.wrong += t.wrong
}

func (r *result) setN(name string, v float64, n uint64) {
	r.metrics.set(name, v)
	r.samples[name] = n
}

func main() {
	workload := flag.String("workload", "", "workload to run: lookup, ycsb-a or wire")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "measured time of the run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	dir := flag.String("dir", ".bench_build/run", "scratch directory for replica state, snapshots and span files")
	flag.Parse()
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	p, err := defaultParams(*workload)
	if err != nil {
		fatal(err)
	}
	p.Seed = *seed
	p.Dur = time.Duration(*seconds * float64(time.Second))
	p.Trace = *trace == 1
	p.Dir = *dir
	if err := os.MkdirAll(p.Dir, 0o755); err != nil {
		fatal(err)
	}

	res, err := run(p)
	if err != nil {
		fatal(err)
	}
	if err := report(os.Stdout, p, res); err != nil {
		fatal(err)
	}
	if res.wrong > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}

// run executes one workload.
func run(p params) (*result, error) {
	switch p.Workload {
	case "lookup":
		return runLookup(p)
	case "ycsb-a":
		return runYCSB(p)
	case "wire":
		return runWire(p)
	}
	return nil, fmt.Errorf("unknown workload %q", p.Workload)
}

// catalog is the metric list a run reports.
func catalog(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// report prints the host, the settings and every metric with its unit
// and sample count, then the result line.
func report(w io.Writer, p params, res *result) error {
	info, err := json.Marshal(map[string]any{"host": fingerprint(), "settings": p})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", info)
	out := map[string]map[string]any{}
	for _, d := range catalog(p.Trace) {
		v, ok := res.metrics[d.name]
		if !ok && !p.Trace {
			return fmt.Errorf("workload %s did not measure %s", p.Workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(w, "metric %-34s %16.6g %-6s n=%d\n", d.name, v, d.unit, res.samples[d.name])
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.wrong == 0, "attempted": res.attempted, "failed": res.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
