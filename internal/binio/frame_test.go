package binio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"io"
	"testing"
)

func TestFramedRoundTrip(t *testing.T) {
	bodies := [][]byte{
		{},
		{0x42},
		bytes.Repeat([]byte("frame"), 1000),
	}
	var buf bytes.Buffer
	for _, b := range bodies {
		if err := WriteFramed(&buf, b); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for _, want := range bodies {
		got, err := ReadFramed(&buf, scratch, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("body mismatch: got %d bytes, want %d", len(got), len(want))
		}
		scratch = got[:cap(got)]
	}
	if _, err := ReadFramed(&buf, scratch, 1<<20); err != io.EOF {
		t.Fatalf("exhausted stream: got %v, want io.EOF", err)
	}
}

func TestFramedOversizeRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFramed(&buf, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFramed(&buf, nil, 99); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversize frame: got %v, want ErrCorrupt", err)
	}
}

// TestFramedCorruption flips every byte of an encoded frame in turn:
// each flip must produce ErrCorrupt (or a valid-but-different body only
// if it somehow still checksums, which CRC64 makes effectively
// impossible at this size), never a panic.
func TestFramedCorruption(t *testing.T) {
	var buf bytes.Buffer
	body := []byte("the quick brown fox jumps over the lazy dog")
	if err := WriteFramed(&buf, body); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for i := range frame {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		_, err := ReadFramed(bytes.NewReader(mut), nil, 1<<20)
		if err == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
	// Truncations: every proper prefix must error (io.EOF only at 0).
	for i := 0; i < len(frame); i++ {
		_, err := ReadFramed(bytes.NewReader(frame[:i]), nil, 1<<20)
		if i == 0 {
			if err != io.EOF {
				t.Fatalf("empty stream: got %v, want io.EOF", err)
			}
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: got %v, want ErrCorrupt", i, err)
		}
	}
}

// writeFramedThreeWrites is the historical frame writer — length,
// body and CRC as three separate writes — kept as the reference the
// single-buffer encoder must match byte for byte.
func writeFramedThreeWrites(w io.Writer, body []byte) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
	w.Write(hdr[:])
	w.Write(body)
	var tail [8]byte
	binary.LittleEndian.PutUint64(tail[:], crc64.Checksum(body, CRCTable))
	w.Write(tail[:])
}

// TestAppendFrameMatchesThreeWrites pins the wire bytes: one assembled
// frame is identical to the three-write stream for an empty body, a
// small one, and one at the network layer's 1 MiB body limit, so the
// checked-in fuzz corpora stay valid.
func TestAppendFrameMatchesThreeWrites(t *testing.T) {
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	for _, body := range [][]byte{{}, []byte("the quick brown fox"), big} {
		var want bytes.Buffer
		writeFramedThreeWrites(&want, body)
		prefix := []byte("earlier frames")
		got := AppendFrame(append([]byte(nil), prefix...), body)
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want.Bytes()) {
			t.Fatalf("%d-byte body: AppendFrame diverges from the three-write stream", len(body))
		}
		var w countingWriter
		if err := WriteFramed(&w, body); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.buf.Bytes(), want.Bytes()) {
			t.Fatalf("%d-byte body: WriteFramed diverges from the three-write stream", len(body))
		}
	}
}

// countingWriter records every Write call it receives.
type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// TestWriteFramedSingleWrite checks that a frame reaches its writer in
// exactly one Write call — one syscall per frame on a socket.
func TestWriteFramedSingleWrite(t *testing.T) {
	for _, n := range []int{0, 1, 4096} {
		var w countingWriter
		if err := WriteFramed(&w, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 {
			t.Fatalf("%d-byte body: WriteFramed made %d writes, want 1", n, w.writes)
		}
		if w.buf.Len() != n+frameOverhead {
			t.Fatalf("%d-byte body: wrote %d bytes, want %d", n, w.buf.Len(), n+frameOverhead)
		}
	}
}
