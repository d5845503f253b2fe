package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one request share Req; Parent
// names the span that caused this one (0 for a request's root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanLog is one goroutine's bounded span buffer: it keeps the most
// recent capacity spans in memory and counts the rest, so a long
// traced run holds a fixed amount of memory.
type spanLog struct {
	epoch   time.Time
	worker  uint64
	next    uint64
	buf     []span
	head    int
	dropped uint64
}

// spanCap bounds each goroutine's retained spans.
const spanCap = 1 << 15

func newSpanLog(epoch time.Time, worker int) *spanLog {
	return &spanLog{epoch: epoch, worker: uint64(worker)}
}

// add records a span and returns its id, unique across workers.
func (l *spanLog) add(parent, req uint64, name string, t0, t1 time.Time) uint64 {
	l.next++
	id := l.worker<<40 | l.next
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: t0.Sub(l.epoch).Nanoseconds(), End: t1.Sub(l.epoch).Nanoseconds()}
	if len(l.buf) < spanCap {
		l.buf = append(l.buf, s)
		return id
	}
	l.buf[l.head] = s
	l.head = (l.head + 1) % spanCap
	l.dropped++
	return id
}

// writeSpans writes every retained span as one JSON object per line.
func writeSpans(path string, logs []*spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	var dropped uint64
	for _, l := range logs {
		if l == nil {
			continue
		}
		dropped += l.dropped
		for _, s := range l.buf {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if dropped > 0 {
		fmt.Fprintf(w, "{\"dropped_spans\": %d}\n", dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
