package net

import (
	"bytes"
	"errors"
	"io"
	stdnet "net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// TestCorpusFramesMatchEncoder checks the encoder against frames
// recorded by the three-write frame writer: every framed seed in the
// checked-in FuzzFrame corpus must equal what appendMsg produces for
// the same message today, byte for byte.
func TestCorpusFramesMatchEncoder(t *testing.T) {
	var enc bytes.Buffer
	for _, m := range seedMsgs() {
		name := "framed-type-" + strconv.Itoa(int(m.Type)) + "-id-" + strconv.FormatUint(m.ID, 10)
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzFrame", name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		if len(lines) < 2 || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: not a []byte corpus entry", name)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := appendMsg([]byte{1}, &enc, m) // corpus entries lead with the route byte
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, []byte(data)) {
			t.Fatalf("%s: encoder output differs from the recorded frame", name)
		}
	}
}

// writeCountConn is a net.Conn stand-in for the server writer: it
// records the bytes and the number of Write calls and signals each one.
type writeCountConn struct {
	stdnet.Conn // nil: the writer only calls Write and Close

	mu     sync.Mutex
	buf    bytes.Buffer
	writes int
	wrote  chan struct{}
}

func newWriteCountConn() *writeCountConn {
	return &writeCountConn{wrote: make(chan struct{}, 1024)}
}

func (c *writeCountConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	c.buf.Write(p)
	c.mu.Unlock()
	c.wrote <- struct{}{}
	return len(p), nil
}

func (c *writeCountConn) Close() error { return nil }

// frames decodes everything written so far.
func (c *writeCountConn) frames(t *testing.T) []*Msg {
	t.Helper()
	c.mu.Lock()
	r := bytes.NewReader(append([]byte(nil), c.buf.Bytes()...))
	c.mu.Unlock()
	var out []*Msg
	for {
		m, _, err := readMsg(r, nil)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
}

// runWriter starts a connection writer over conn with the given
// responses already queued, as if they arrived before it woke.
func runWriter(conn *writeCountConn, queued []*Msg) (*srvConn, chan struct{}) {
	c := &srvConn{nc: conn, outC: make(chan *Msg, defaultOutBuffer), done: make(chan struct{})}
	for _, m := range queued {
		c.outC <- m
	}
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		c.writer()
	}()
	return c, exited
}

// TestServerWriterGroupFlush queues N responses before the writer
// wakes: they must leave in fewer than N writes, in order and intact.
func TestServerWriterGroupFlush(t *testing.T) {
	const n = 64
	queued := make([]*Msg, n)
	for i := range queued {
		queued[i] = &Msg{Type: MsgValue, ID: uint64(i + 1), Val: uint64(i) * 7, Found: true}
	}
	conn := newWriteCountConn()
	c, exited := runWriter(conn, queued)
	var got []*Msg
	for len(got) < n {
		select {
		case <-conn.wrote:
		case <-time.After(5 * time.Second):
			t.Fatalf("writer stalled with %d of %d responses written", len(got), n)
		}
		got = conn.frames(t)
	}
	c.teardown()
	<-exited
	conn.mu.Lock()
	writes := conn.writes
	conn.mu.Unlock()
	if writes >= n {
		t.Fatalf("%d queued responses took %d writes, want fewer", n, writes)
	}
	for i, m := range got {
		if m.ID != queued[i].ID || m.Val != queued[i].Val || !m.Found {
			t.Fatalf("response %d: got %+v, want %+v", i, m, queued[i])
		}
	}
}

// TestServerWriterLoneResponse pins the no-added-latency property: a
// single queued response is written at once, in exactly one write,
// with no timer and no wait for company.
func TestServerWriterLoneResponse(t *testing.T) {
	conn := newWriteCountConn()
	c, exited := runWriter(conn, []*Msg{{Type: MsgOK, ID: 9}})
	select {
	case <-conn.wrote:
	case <-time.After(5 * time.Second):
		t.Fatal("lone response never written")
	}
	// A later response is its own wakeup and its own write.
	c.outC <- &Msg{Type: MsgOK, ID: 10}
	select {
	case <-conn.wrote:
	case <-time.After(5 * time.Second):
		t.Fatal("second response never written")
	}
	c.teardown()
	<-exited
	conn.mu.Lock()
	writes := conn.writes
	conn.mu.Unlock()
	if writes != 2 {
		t.Fatalf("two separately queued responses took %d writes, want 2", writes)
	}
	if got := conn.frames(t); len(got) != 2 || got[0].ID != 9 || got[1].ID != 10 {
		t.Fatalf("got %d frames, want ids 9 then 10", len(got))
	}
}

// tapListener records every byte each accepted connection reads, so a
// test can decode exactly which request frames reached the server.
type tapListener struct {
	stdnet.Listener
	mu  sync.Mutex
	ins []*bytes.Buffer
}

type tapConn struct {
	stdnet.Conn
	l  *tapListener
	in *bytes.Buffer
}

func (c tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.mu.Lock()
	c.in.Write(p[:n])
	c.l.mu.Unlock()
	return n, err
}

func (l *tapListener) Accept() (stdnet.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	in := &bytes.Buffer{}
	l.mu.Lock()
	l.ins = append(l.ins, in)
	l.mu.Unlock()
	return tapConn{Conn: nc, l: l, in: in}, nil
}

// requestIDs decodes every frame the listener's connections received.
func (l *tapListener) requestIDs(t *testing.T) []uint64 {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	var ids []uint64
	for _, in := range l.ins {
		r := bytes.NewReader(in.Bytes())
		for {
			m, _, err := readMsg(r, nil)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("server received a malformed stream: %v", err)
			}
			ids = append(ids, m.ID)
		}
	}
	return ids
}

// TestClientCombiningUnderRestart drives one Client from many
// goroutines while its server is killed and restarted on the same
// address. Every call must return the right answer or an error, none
// may hang, and no frame queued for the dead connection may reach the
// restarted server: every request the new server receives belongs to a
// call that got the server's answer.
func TestClientCombiningUnderRestart(t *testing.T) {
	st, keys := redialStore(t)
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := Serve(ln, st, Config{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 16
	var (
		stop      atomic.Bool
		answered  sync.Map // request id -> true, for calls the server answered
		okCalls   atomic.Int64
		errCalls  atomic.Int64
		wg        sync.WaitGroup
		putKeyGen atomic.Uint64
	)
	pays := dataset.Payloads(len(keys), 7) // redialStore's payloads
	want := map[core.Key]uint64{}
	for i := 0; i < 256; i++ {
		want[keys[i]] = pays[i]
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				var m *Msg
				k := keys[(w*31+i)%256]
				if i%4 == 3 {
					// Writes go to fresh keys so the read oracle stays fixed.
					m = &Msg{Type: MsgPut, Key: keys[len(keys)-1] + core.Key(1+putKeyGen.Add(1)), Val: 1}
				} else {
					m = &Msg{Type: MsgGet, Key: k}
				}
				resp, err := c.call(m)
				switch {
				case err == nil:
					answered.Store(m.ID, true)
					okCalls.Add(1)
					if m.Type == MsgGet && (resp.Type != MsgValue || !resp.Found || resp.Val != want[k]) {
						t.Errorf("get %d: got %+v, want %d", k, resp, want[k])
						return
					}
					if m.Type == MsgPut && resp.Type != MsgOK {
						t.Errorf("put: got response type %d", resp.Type)
						return
					}
				case errors.Is(err, ErrRetryLater):
					answered.Store(m.ID, true)
				default:
					errCalls.Add(1)
				}
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	ln2, err := stdnet.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	tap := &tapListener{Listener: ln2}
	srv2 := Serve(tap, st, Config{})
	// Run until the restarted server has served a good share of calls.
	before := okCalls.Load()
	deadline := time.Now().Add(10 * time.Second)
	for okCalls.Load()-before < 2000 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	joined := make(chan struct{})
	go func() {
		wg.Wait()
		close(joined)
	}()
	select {
	case <-joined:
	case <-time.After(10 * time.Second):
		t.Fatal("calls hung across the restart")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	if okCalls.Load()-before < 2000 {
		t.Fatalf("only %d calls succeeded after the restart", okCalls.Load()-before)
	}
	if errCalls.Load() == 0 {
		t.Fatal("no call saw the server die; the restart was not exercised")
	}
	for _, id := range tap.requestIDs(t) {
		if _, ok := answered.Load(id); !ok {
			t.Fatalf("restarted server received request %d, whose call had already failed", id)
		}
	}
}

// blockedConn holds its first Write until released, then fails it — a
// connection that dies while a flush is in progress.
type blockedConn struct {
	stdnet.Conn // nil: send only calls Write
	started     chan []byte
	release     chan struct{}
}

func (c *blockedConn) Write(p []byte) (int, error) {
	c.started <- append([]byte(nil), p...)
	<-c.release
	return 0, errors.New("connection reset")
}

// TestClientSendDropsStaleEpochFrames stages the combining race
// deterministically: while one caller's flush is stuck on connection
// generation 1, another queues a generation-1 frame, the client moves
// on to generation 2, and a late generation-1 caller arrives. Only the
// generation-2 frame may reach the new connection.
func TestClientSendDropsStaleEpochFrames(t *testing.T) {
	oldConn := &blockedConn{started: make(chan []byte, 1), release: make(chan struct{})}
	newConn := newWriteCountConn()
	// epoch 2 is current, so failing generation 1 is a stale no-op.
	c := &Client{epoch: 2, waiters: map[uint64]chan *Msg{}}

	flushed := make(chan error, 1)
	go func() { flushed <- c.send(oldConn, 1, &Msg{Type: MsgGet, ID: 1, Key: 10}) }()
	first := <-oldConn.started // the flush is now stuck on the old connection
	for _, step := range []struct {
		nc    stdnet.Conn
		epoch uint64
		id    uint64
	}{
		{oldConn, 1, 2}, // queued behind the stuck flush, then orphaned
		{newConn, 2, 3}, // the redialed generation
		{oldConn, 1, 4}, // a caller registered before the redial
	} {
		if err := c.send(step.nc, step.epoch, &Msg{Type: MsgGet, ID: step.id, Key: 10}); err != nil {
			t.Fatal(err)
		}
	}
	close(oldConn.release)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}

	if m, _, err := readMsg(bytes.NewReader(first), nil); err != nil || m.ID != 1 {
		t.Fatalf("old connection got %+v (%v), want only request 1", m, err)
	}
	got := newConn.frames(t)
	if len(got) != 1 || got[0].ID != 3 {
		ids := make([]uint64, len(got))
		for i, m := range got {
			ids[i] = m.ID
		}
		t.Fatalf("new connection received requests %v, want only [3]", ids)
	}
}
