package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// wireDepths are the in-flight depths the wire workload runs at, in
// turn, over the router's two connections.
var wireDepths = []int{2, 8, 32, 128}

// params are one workload's settings; every field is recorded with the
// result.
type params struct {
	Workload  string        `json:"workload"`
	Seed      uint64        `json:"seed"`
	Dur       time.Duration `json:"measured_ns"`
	Trace     bool          `json:"trace"`
	Dataset   string        `json:"dataset"`
	Keys      int           `json:"keys"`       // dataset keys loaded
	Fresh     int           `json:"fresh_keys"` // pool of absent keys the writes insert
	Shards    int           `json:"shards"`
	Families  []string      `json:"families"` // per shard, cycled
	Workers   int           `json:"workers"`  // closed-loop workers (lookup, ycsb-a)
	Depths    []int         `json:"depths"`   // closed-loop depths in turn (wire)
	WriteFrac float64       `json:"write_frac"`
	Theta     float64       `json:"zipf_theta"` // 0 = uniform over present keys
	Stream    int           `json:"stream_ops"` // precomputed operations, cycled
	Setups    int           `json:"setups"`     // set-ups per run; setup_s is their median
	Dir       string        `json:"-"`

	// wrap, when set, wraps the target the loop drives (tests inject
	// faults with it).
	wrap func(target) target
}

func defaultParams(workload string) (params, error) {
	p := params{Workload: workload, Dataset: string(dataset.Wiki), Shards: 4, Families: []string{"PGM"},
		Workers: 2, Theta: 0.99, Stream: 1 << 21}
	switch workload {
	case "lookup":
		p.Keys, p.Families, p.Theta, p.Stream, p.Setups = 20_000_000, families, 0, 1<<22, 5
	case "ycsb-a":
		p.Keys, p.Fresh, p.WriteFrac, p.Setups = 2_000_000, 500_000, 0.5, 9
	case "wire":
		p.Keys, p.Fresh, p.WriteFrac, p.Setups = 2_000_000, 250_000, 0.05, 5
		p.Workers, p.Depths = 0, wireDepths
	default:
		return p, fmt.Errorf("unknown workload %q (want lookup, ycsb-a or wire)", workload)
	}
	return p, nil
}

func (p params) target(t target) target {
	if p.wrap != nil {
		return p.wrap(t)
	}
	return t
}

// data generates the dataset keys and their payloads.
func (p params) data() ([]core.Key, []uint64, error) {
	keys, err := dataset.Generate(dataset.Name(p.Dataset), p.Keys, p.Seed)
	if err != nil {
		return nil, nil, err
	}
	return keys, dataset.Payloads(len(keys), p.Seed), nil
}

// mixedStream builds the operation stream of the write workloads. It
// runs over ids [0, nData+nFresh): dataset ids, then fresh keys. A
// writeFrac share of the operations are writes, spread evenly; writes
// alternate between inserting the next fresh key and updating a
// dataset key. Reads and updates draw ids under a scrambled zipf
// distribution with parameter theta over all ids, so a read may ask
// for a fresh key not inserted yet, which must miss.
func mixedStream(universe []core.Key, nData, n int, writeFrac, theta float64, seed uint64) []op {
	nFresh := len(universe) - nData
	ids := make([]core.Key, len(universe))
	for i := range ids {
		ids[i] = core.Key(i)
	}
	draws := dataset.ZipfLookups(ids, n, theta, seed)
	ops := make([]op, n)
	acc, writes, inserts := 0.0, 0, 0
	for i := range ops {
		acc += writeFrac
		if acc < 1 {
			ops[i] = op{key: universe[draws[i]], id: uint32(draws[i])}
			continue
		}
		acc--
		id := int(draws[i]) % nData
		if writes%2 == 0 {
			id = nData + inserts%nFresh
			inserts++
		}
		writes++
		ops[i] = op{key: universe[id], id: uint32(id), write: true}
	}
	return ops
}

// uniformStream draws n read operations uniformly over keys.
func uniformStream(keys []core.Key, n int, seed uint64) []op {
	r := rand.New(rand.NewPCG(seed, 0x10c0))
	ops := make([]op, n)
	for i := range ops {
		id := r.IntN(len(keys))
		ops[i] = op{key: keys[id], id: uint32(id)}
	}
	return ops
}

// universe returns the dataset keys followed by nFresh keys absent from
// them, in a new array.
func universe(keys []core.Key, nFresh int, seed uint64) []core.Key {
	fresh := dataset.InsertKeys(keys, nFresh, seed)
	return append(append(make([]core.Key, 0, len(keys)+len(fresh)), keys...), fresh...)
}

func lower(s string) string { return strings.ToLower(s) }
