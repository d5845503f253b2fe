package main

import "sync/atomic"

// oracle knows the value every read may return. Keys are addressed by
// id: ids below len(orig) are dataset keys, whose initial value is
// their dataset.Payloads entry; higher ids are fresh keys, initially
// absent. Every write stores a version value tagged with a hash of its
// key's id in the top 32 bits and a global sequence number in the low 32,
// so a read of a written key is checked without keeping a history:
// the tag must be the key's and the sequence one already issued.
type oracle struct {
	orig []uint64 // initial payloads of the dataset ids

	// written[id] is set once a write to id has returned. A read that
	// starts after that must not see the initial value, unless stale
	// is set (reads served by an asynchronous replica may lag).
	written []atomic.Bool
	stale   bool
	salt    uint64
	issued  atomic.Uint64
}

// newOracle checks reads of ids [0, n); writable prepares it for a
// workload that writes.
func newOracle(n int, orig []uint64, writable, stale bool, seed uint64) *oracle {
	o := &oracle{orig: orig, stale: stale, salt: mix64(seed ^ 0x7a6b)}
	if writable {
		o.written = make([]atomic.Bool, n)
	}
	return o
}

func (o *oracle) tag(id uint32) uint64 { return mix64(uint64(id)^o.salt) >> 32 }

// version returns a fresh value to write to id.
func (o *oracle) version(id uint32) uint64 {
	seq := o.issued.Add(1)
	return o.tag(id)<<32 | seq&0xffffffff
}

func (o *oracle) markWritten(id uint32) { o.written[id].Store(true) }

// wasWritten reports whether a write to id has returned; call it before
// the read starts.
func (o *oracle) wasWritten(id uint32) bool {
	return o.written != nil && o.written[id].Load()
}

// check reports whether (v, ok) is a value a read of id may return,
// given whether a write to id had returned before the read started.
func (o *oracle) check(id uint32, writtenBefore bool, v uint64, ok bool) bool {
	if o.written != nil && ok && v>>32 == o.tag(id) && v&0xffffffff <= o.issued.Load()&0xffffffff {
		return true // a version this workload wrote for the key
	}
	initial := !ok
	if int(id) < len(o.orig) {
		initial = ok && v == o.orig[id]
	}
	return initial && (!writtenBefore || o.stale)
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
