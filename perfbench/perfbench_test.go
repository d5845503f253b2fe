package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

var workloads = []string{"lookup", "ycsb-a", "wire"}

// tiny shrinks a workload to a size that runs in well under a second.
func tiny(t *testing.T, workload string, trace bool) params {
	t.Helper()
	p, err := defaultParams(workload)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed, p.Dur, p.Trace, p.Dir = 7, 300*time.Millisecond, trace, t.TempDir()
	p.Keys, p.Stream, p.Setups = 20_000, 1<<14, 2
	if p.Fresh > 0 {
		p.Fresh = p.Keys / 8
	}
	return p
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                       `json:"correct"`
	Attempted uint64                     `json:"attempted"`
	Failed    uint64                     `json:"failed"`
	Metrics   map[string]json.RawMessage `json:"metrics"`
}

func runAndParse(t *testing.T, p params) resultLine {
	t.Helper()
	res, err := run(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report(&buf, p, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := []byte(lines[len(lines)-1])
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(last, &keys); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, last)
	}
	if len(keys) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
	var rl resultLine
	if err := json.Unmarshal(last, &rl); err != nil {
		t.Fatal(err)
	}
	return rl
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			name := wl + map[bool]string{false: "/untraced", true: "/traced"}[traced]
			t.Run(name, func(t *testing.T) {
				rl := runAndParse(t, tiny(t, wl, traced))
				if !rl.Correct || rl.Attempted == 0 || rl.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", rl.Correct, rl.Attempted, rl.Failed)
				}
				want := catalog(traced)
				if len(rl.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(rl.Metrics), len(want))
				}
				for _, d := range want {
					var m struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					}
					if err := json.Unmarshal(rl.Metrics[d.name], &m); err != nil || m.Value == nil {
						t.Errorf("metric %s missing or malformed: %s", d.name, rl.Metrics[d.name])
						continue
					}
					if m.Unit != d.unit {
						t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
					}
					if !traced && *m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, *m.Value)
					}
				}
			})
		}
	}
}

// corrupt wraps a target and breaks its reads.
type corrupt struct {
	target
	absentHit bool // report absent keys as present instead of flipping payloads
}

func (c corrupt) TryGet(k core.Key) (uint64, bool, error) {
	v, ok, err := c.target.TryGet(k)
	if c.absentHit {
		return v, true, err
	}
	if ok {
		v ^= 1
	}
	return v, ok, err
}

func TestWrongReadFailsTheRun(t *testing.T) {
	cases := []struct {
		workload  string
		absentHit bool
	}{
		{"lookup", false},
		{"ycsb-a", false},
		{"ycsb-a", true}, // reads of fresh keys not inserted yet must miss
		{"wire", false},
	}
	for _, c := range cases {
		t.Run(c.workload, func(t *testing.T) {
			p := tiny(t, c.workload, false)
			p.wrap = func(tg target) target { return corrupt{tg, c.absentHit} }
			rl := runAndParse(t, p)
			if rl.Correct || rl.Failed == 0 {
				t.Errorf("corrupted reads passed: correct=%v failed=%d", rl.Correct, rl.Failed)
			}
		})
	}
}

func TestOracle(t *testing.T) {
	orig := []uint64{10, 20}
	o := newOracle(3, orig, true, false, 1) // ids 0, 1 dataset; 2 fresh
	if !o.check(0, false, 10, true) || !o.check(2, false, 0, false) {
		t.Fatal("initial state rejected")
	}
	if o.check(0, false, 11, true) || o.check(2, false, 5, true) || o.check(0, false, 0, false) {
		t.Fatal("wrong initial state accepted")
	}
	v := o.version(1)
	o.markWritten(1)
	if !o.check(1, true, v, true) {
		t.Fatal("written version rejected")
	}
	if o.check(1, true, 20, true) {
		t.Fatal("initial value accepted after the write returned")
	}
	if !o.check(1, false, 20, true) {
		t.Fatal("initial value rejected for a read that started before the write returned")
	}
	if o.check(0, false, v, true) || o.check(1, true, v+1, true) {
		t.Fatal("another key's or an unissued version accepted")
	}
	stale := newOracle(3, orig, true, true, 1)
	stale.markWritten(1)
	if !stale.check(1, true, 20, true) {
		t.Fatal("replica read of the initial value rejected")
	}
}

func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	for i, w := range bj.Workloads {
		if _, err := defaultParams(w.Name); err != nil || i >= len(workloads) || workloads[i] != w.Name {
			t.Errorf("workload %q is not run by perfbench", w.Name)
		}
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, perfbench %d", len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], perfbench %s [%s]",
					i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}

func TestHistQuantile(t *testing.T) {
	h := new(hist)
	for v := int64(1); v <= 1000; v++ {
		h.record(v)
	}
	if q := h.quantile(0.5); q < 499 || q > 501 {
		t.Errorf("p50 of 1..1000 = %v", q)
	}
	for _, v := range []int64{5000, 1 << 20, 1 << 35} {
		lo, hi := bucketLo(bucketOf(v)), bucketLo(bucketOf(v)+1)
		if float64(v) < lo || float64(v) >= hi || (hi-lo)/lo > 1.0/(1<<subBits) {
			t.Errorf("value %d in bucket [%v, %v)", v, lo, hi)
		}
	}
}
