package server

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"clio/internal/core"
	"clio/internal/wire"
	"clio/internal/wodev"
)

func testServer(t *testing.T) (*Server, net.Conn) {
	t.Helper()
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 12})
	now := int64(0)
	svc, err := core.New(dev, core.Options{
		BlockSize: 512, Degree: 8,
		Now: func() int64 { now += 1000; return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(svc)
	cConn, sConn := net.Pipe()
	go srv.ServeConn(sConn)
	t.Cleanup(func() { cConn.Close(); srv.Close(); svc.Close() })
	return srv, cConn
}

// roundTrip sends one raw frame (seq 0 = no duplicate suppression) and
// returns the response.
func roundTrip(t *testing.T, conn net.Conn, op byte, payload []byte) (byte, []byte) {
	t.Helper()
	return roundTripSeq(t, conn, op, 0, payload)
}

// roundTripSeq sends one raw frame under an explicit sequence number.
func roundTripSeq(t *testing.T, conn net.Conn, op byte, seq uint64, payload []byte) (byte, []byte) {
	t.Helper()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteFrame(conn, op, seq, 0, payload); err != nil {
		t.Fatal(err)
	}
	status, gotSeq, _, resp, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if gotSeq != seq {
		t.Fatalf("response seq %d, want %d", gotSeq, seq)
	}
	return status, resp
}

// stepPayload builds an OpCursorStep request.
func stepPayload(handle uint64, dir byte, skip, max uint64) []byte {
	p := wire.PutUvarint(nil, handle)
	p = append(p, dir)
	p = wire.PutUvarint(p, skip)
	return wire.PutUvarint(p, max)
}

func TestMalformedPayloadsReturnErrors(t *testing.T) {
	_, conn := testServer(t)
	// Cursor 1 exists, so the bound rows fail on their bounds, not on the
	// handle.
	p := PutString(nil, "/m")
	p = wire.PutUint16(p, 0)
	p = PutString(p, "")
	if status, _ := roundTrip(t, conn, OpCreate, p); status != StatusOK {
		t.Fatal("create failed")
	}
	if status, _ := roundTrip(t, conn, OpCursorOpen, PutString(nil, "/m")); status != StatusOK {
		t.Fatal("cursor open failed")
	}
	cases := []struct {
		name    string
		op      byte
		payload []byte
	}{
		{"unknown op", 200, nil},
		{"create empty", OpCreate, nil},
		{"create truncated", OpCreate, PutString(nil, "/x")},
		{"append no body", OpAppend, []byte{1}},
		{"append truncated data", OpAppend, append(wire.PutUvarint(nil, 4), 0, 255)},
		{"next bad handle varint", OpNext, []byte{0xFF}},
		{"next unknown handle", OpNext, wire.PutUvarint(nil, 999)},
		{"step unknown handle", OpCursorStep, stepPayload(999, StepNext, 0, 8)},
		{"step truncated", OpCursorStep, wire.PutUvarint(nil, 999)},
		{"step huge skip", OpCursorStep, stepPayload(1, StepPrev, 1<<40, 8)},
		{"step skip above cap", OpCursorStep, stepPayload(1, StepPrev, MaxStepEntries+1, 8)},
		{"step huge max", OpCursorStep, stepPayload(1, StepNext, 0, 1<<40)},
		{"step max above cap", OpCursorStep, stepPayload(1, StepNext, 0, MaxStepEntries+1)},
		{"step max zero", OpCursorStep, stepPayload(1, StepNext, 0, 0)},
		{"step bad direction", OpCursorStep, stepPayload(1, 7, 0, 8)},
		{"seek missing ts", OpSeekTime, wire.PutUvarint(nil, 1)},
		{"stat empty", OpStat, nil},
		{"readat empty", OpReadAt, nil},
	}
	for _, c := range cases {
		status, resp := roundTrip(t, conn, c.op, c.payload)
		if status != StatusErr {
			t.Errorf("%s: status %d, want error", c.name, status)
			continue
		}
		d := NewDecoder(resp)
		if msg, err := d.String(); err != nil || msg == "" {
			t.Errorf("%s: bad error message %q %v", c.name, msg, err)
		}
	}
	// The connection remains usable after every malformed request.
	if status, _ := roundTrip(t, conn, OpPing, nil); status != StatusOK {
		t.Error("connection dead after malformed requests")
	}
}

func TestServerCursorLifecycle(t *testing.T) {
	_, conn := testServer(t)
	p := PutString(nil, "/l")
	p = wire.PutUint16(p, 0)
	p = PutString(p, "")
	if status, _ := roundTrip(t, conn, OpCreate, p); status != StatusOK {
		t.Fatal("create failed")
	}
	status, resp := roundTrip(t, conn, OpCursorOpen, PutString(nil, "/l"))
	if status != StatusOK {
		t.Fatal("cursor open failed")
	}
	handle, err := NewDecoder(resp).Uint32()
	if err != nil {
		t.Fatal(err)
	}
	// Empty log: EOF.
	if status, _ := roundTrip(t, conn, OpNext, wire.PutUvarint(nil, uint64(handle))); status != StatusEOF {
		t.Errorf("Next on empty: %d", status)
	}
	// Close then reuse: error.
	if status, _ := roundTrip(t, conn, OpCursorEnd, wire.PutUvarint(nil, uint64(handle))); status != StatusOK {
		t.Error("cursor close failed")
	}
	status, resp = roundTrip(t, conn, OpNext, wire.PutUvarint(nil, uint64(handle)))
	if status != StatusErr {
		t.Errorf("Next after close: %d", status)
	}
	msg, _ := NewDecoder(resp).String()
	if !strings.Contains(msg, "unknown cursor") {
		t.Errorf("error = %q", msg)
	}
}

func TestServerCloseUnblocksServe(t *testing.T) {
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 256})
	now := int64(0)
	svc, err := core.New(dev, core.Options{BlockSize: 512, Degree: 8,
		Now: func() int64 { now += 1000; return now }})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := New(svc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	if err := srv.Serve(ln); err == nil {
		t.Error("Serve after Close accepted")
	}
}

func TestIdleConnectionDropped(t *testing.T) {
	// A half-open client that never sends a request must not pin a handler
	// goroutine forever: the idle read deadline drops it.
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 12})
	now := int64(0)
	svc, err := core.New(dev, core.Options{BlockSize: 512, Degree: 8,
		Now: func() int64 { now += 1000; return now }})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := New(svc)
	srv.IdleTimeout = 50 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing. The server must close the connection: the next read
	// observes EOF instead of blocking forever.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("idle connection still open")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server never dropped the idle connection")
	}
}

func TestDuplicateSuppressionMakesAppendsIdempotent(t *testing.T) {
	_, conn := testServer(t)
	p := PutString(nil, "/dup")
	p = wire.PutUint16(p, 0)
	p = PutString(p, "")
	status, resp := roundTripSeq(t, conn, OpCreate, 1, p)
	if status != StatusOK {
		t.Fatal("create failed")
	}
	id, _ := NewDecoder(resp).Uvarint()

	ap := wire.PutUvarint(nil, id)
	ap = append(ap, AppendForced)
	ap = PutBytes(ap, []byte("once"))
	status, resp = roundTripSeq(t, conn, OpAppend, 2, ap)
	if status != StatusOK {
		t.Fatalf("append: status %d", status)
	}
	ts1, _ := NewDecoder(resp).Int64()

	// Replaying the exact same request under the same seq must return the
	// cached response, not execute a second append.
	status, resp = roundTripSeq(t, conn, OpAppend, 2, ap)
	if status != StatusOK {
		t.Fatalf("replay: status %d", status)
	}
	ts2, _ := NewDecoder(resp).Int64()
	if ts1 != ts2 {
		t.Fatalf("replay returned ts %d, original %d", ts2, ts1)
	}
	status, resp = roundTrip(t, conn, OpStats, nil)
	if status != StatusOK {
		t.Fatal("stats failed")
	}
	entries, _ := NewDecoder(resp).Int64()
	if entries != 1 {
		t.Fatalf("server holds %d entries after replay, want 1", entries)
	}
}

func TestDuplicateSuppressionCoversCursorAdvance(t *testing.T) {
	_, conn := testServer(t)
	p := PutString(nil, "/cur")
	p = wire.PutUint16(p, 0)
	p = PutString(p, "")
	if status, _ := roundTripSeq(t, conn, OpCreate, 1, p); status != StatusOK {
		t.Fatal("create failed")
	}
	status, resp := roundTrip(t, conn, OpResolve, PutString(nil, "/cur"))
	if status != StatusOK {
		t.Fatal("resolve failed")
	}
	id, _ := NewDecoder(resp).Uvarint()
	for i, payload := range []string{"a", "b"} {
		ap := wire.PutUvarint(nil, id)
		ap = append(ap, AppendForced)
		ap = PutBytes(ap, []byte(payload))
		if status, _ := roundTripSeq(t, conn, OpAppend, uint64(10+i), ap); status != StatusOK {
			t.Fatal("append failed")
		}
	}
	status, resp = roundTripSeq(t, conn, OpCursorOpen, 20, PutString(nil, "/cur"))
	if status != StatusOK {
		t.Fatal("cursor open failed")
	}
	handle, _ := NewDecoder(resp).Uint32()
	hb := wire.PutUvarint(nil, uint64(handle))

	// A replayed OpNext must NOT advance the cursor twice.
	status, resp = roundTripSeq(t, conn, OpNext, 21, hb)
	if status != StatusOK {
		t.Fatalf("next: %d", status)
	}
	first := decodeEntryData(t, resp)
	status, resp = roundTripSeq(t, conn, OpNext, 21, hb) // replay
	if status != StatusOK || decodeEntryData(t, resp) != first {
		t.Fatal("replayed Next returned a different entry")
	}
	status, resp = roundTripSeq(t, conn, OpNext, 22, hb)
	if status != StatusOK {
		t.Fatalf("second next: %d", status)
	}
	if got := decodeEntryData(t, resp); got != "b" {
		t.Fatalf("cursor advanced wrongly under replay: got %q, want \"b\"", got)
	}
}

func TestDuplicateSuppressionCoversCursorStep(t *testing.T) {
	_, conn := testServer(t)
	p := PutString(nil, "/step")
	p = wire.PutUint16(p, 0)
	p = PutString(p, "")
	status, resp := roundTripSeq(t, conn, OpCreate, 1, p)
	if status != StatusOK {
		t.Fatal("create failed")
	}
	id, _ := NewDecoder(resp).Uvarint()
	for i, payload := range []string{"a", "b", "c", "d", "e"} {
		ap := wire.PutUvarint(nil, id)
		ap = append(ap, AppendForced)
		ap = PutBytes(ap, []byte(payload))
		if status, _ := roundTripSeq(t, conn, OpAppend, uint64(10+i), ap); status != StatusOK {
			t.Fatal("append failed")
		}
	}
	status, resp = roundTripSeq(t, conn, OpCursorOpen, 20, PutString(nil, "/step"))
	if status != StatusOK {
		t.Fatal("cursor open failed")
	}
	handle, _ := NewDecoder(resp).Uint32()

	// A replayed step must return the cached batch and NOT advance the
	// cursor a second time.
	sp := stepPayload(uint64(handle), StepNext, 0, 2)
	status, resp = roundTripSeq(t, conn, OpCursorStep, 21, sp)
	if status != StatusOK {
		t.Fatalf("step: %d", status)
	}
	if got := decodeBatchData(t, resp); got != "[a b]" {
		t.Fatalf("step returned %s, want [a b]", got)
	}
	status, replay := roundTripSeq(t, conn, OpCursorStep, 21, sp)
	if status != StatusOK || string(replay) != string(resp) {
		t.Fatal("replayed step returned a different batch")
	}
	status, resp = roundTripSeq(t, conn, OpCursorStep, 22, sp)
	if status != StatusOK {
		t.Fatalf("second step: %d", status)
	}
	if got := decodeBatchData(t, resp); got != "[c d]" {
		t.Fatalf("cursor advanced wrongly under replay: got %s, want [c d]", got)
	}
	// Reversal with one unconsumed entry ("d"): skip steps back over it, so
	// the batch starts at the last entry the caller consumed.
	status, resp = roundTripSeq(t, conn, OpCursorStep, 23, stepPayload(uint64(handle), StepPrev, 1, 8))
	if status != StatusOK {
		t.Fatalf("reverse step: %d", status)
	}
	if got := decodeBatchData(t, resp); got != "[c b a]" {
		t.Fatalf("reverse step returned %s, want [c b a]", got)
	}
	// Nothing before the start: EOF with an empty payload.
	status, resp = roundTripSeq(t, conn, OpCursorStep, 24, stepPayload(uint64(handle), StepPrev, 0, 8))
	if status != StatusEOF || len(resp) != 0 {
		t.Fatalf("step at start: status %d, %d payload bytes", status, len(resp))
	}
}

func TestCursorStepByteCap(t *testing.T) {
	_, conn := testServer(t)
	p := PutString(nil, "/big")
	p = wire.PutUint16(p, 0)
	p = PutString(p, "")
	status, resp := roundTrip(t, conn, OpCreate, p)
	if status != StatusOK {
		t.Fatal("create failed")
	}
	id, _ := NewDecoder(resp).Uvarint()
	for i := 0; i < 10; i++ {
		ap := wire.PutUvarint(nil, id)
		ap = append(ap, 0)
		ap = PutBytes(ap, []byte(strings.Repeat(string(rune('a'+i)), 1024)))
		if status, _ := roundTrip(t, conn, OpAppend, ap); status != StatusOK {
			t.Fatal("append failed")
		}
	}
	status, resp = roundTrip(t, conn, OpCursorOpen, PutString(nil, "/big"))
	if status != StatusOK {
		t.Fatal("cursor open failed")
	}
	handle, _ := NewDecoder(resp).Uint32()
	// The batch ends once it holds MaxStepBytes of data: 8 of the 1 KiB
	// entries, then the remaining 2.
	for _, want := range []uint64{MaxStepBytes / 1024, 2} {
		status, resp = roundTrip(t, conn, OpCursorStep, stepPayload(uint64(handle), StepNext, 0, MaxStepEntries))
		if status != StatusOK {
			t.Fatalf("step: status %d", status)
		}
		if n, _ := NewDecoder(resp).Uvarint(); n != want {
			t.Fatalf("step returned %d entries, want %d", n, want)
		}
	}
}

// decodeBatchData renders the entry data of an OpCursorStep response.
func decodeBatchData(t *testing.T, resp []byte) string {
	t.Helper()
	d := NewDecoder(resp)
	n, err := d.Uvarint()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, n)
	for i := range out {
		out[i] = decodeEntryDataFrom(t, d)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d trailing bytes after %d entries", d.Remaining(), n)
	}
	return fmt.Sprint(out)
}

func decodeEntryData(t *testing.T, resp []byte) string {
	t.Helper()
	return decodeEntryDataFrom(t, NewDecoder(resp))
}

func decodeEntryDataFrom(t *testing.T, d *Decoder) string {
	t.Helper()
	d.Uint16()  // log id
	d.Int64()   // ts
	d.Byte()    // flags
	d.Uvarint() // shard
	d.Uvarint() // block
	d.Uvarint() // index
	n, _ := d.Uvarint()
	for i := uint64(0); i < n; i++ {
		d.Uint16()
	}
	data, err := d.Bytes()
	if err != nil {
		t.Fatalf("decode entry: %v", err)
	}
	return string(data)
}

func TestHelloReportsEpochAndSessionSurvivesReconnect(t *testing.T) {
	srv, conn := testServer(t)
	hello := wire.PutUint64(nil, 42)
	status, resp := roundTrip(t, conn, OpHello, hello)
	if status != StatusOK {
		t.Fatal("hello failed")
	}
	d := NewDecoder(resp)
	epoch, _ := d.Int64()
	if uint64(epoch) != srv.Epoch() {
		t.Fatalf("hello epoch %d, server epoch %d", epoch, srv.Epoch())
	}
	maxSeq, _ := d.Int64()
	if maxSeq != 0 {
		t.Fatalf("fresh session maxSeq = %d", maxSeq)
	}
	// Run one sequenced request, then "reconnect" on a new conn: the
	// session must remember maxSeq.
	p := PutString(nil, "/s")
	p = wire.PutUint16(p, 0)
	p = PutString(p, "")
	if status, _ := roundTripSeq(t, conn, OpCreate, 7, p); status != StatusOK {
		t.Fatal("create failed")
	}
	c2, s2 := net.Pipe()
	go srv.ServeConn(s2)
	defer c2.Close()
	status, resp = roundTrip(t, c2, OpHello, hello)
	if status != StatusOK {
		t.Fatal("hello on second conn failed")
	}
	d = NewDecoder(resp)
	d.Int64()
	maxSeq, _ = d.Int64()
	if maxSeq != 7 {
		t.Fatalf("session maxSeq after reconnect = %d, want 7", maxSeq)
	}
}

func TestDegradedAppendStatus(t *testing.T) {
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 12})
	now := int64(0)
	svc, err := core.New(dev, core.Options{BlockSize: 512, Degree: 8,
		Now: func() int64 { now += 1000; return now }})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(svc)
	cConn, sConn := net.Pipe()
	go srv.ServeConn(sConn)
	t.Cleanup(func() { cConn.Close(); srv.Close(); svc.Close() })

	p := PutString(nil, "/deg")
	p = wire.PutUint16(p, 0)
	p = PutString(p, "")
	status, resp := roundTrip(t, cConn, OpCreate, p)
	if status != StatusOK {
		t.Fatal("create failed")
	}
	id, _ := NewDecoder(resp).Uvarint()
	// Damage the next unwritten block: the append completes degraded.
	if err := dev.Damage(dev.Written(), nil); err != nil {
		t.Fatal(err)
	}
	ap := wire.PutUvarint(nil, id)
	ap = append(ap, AppendForced)
	ap = PutBytes(ap, []byte("x"))
	status, resp = roundTrip(t, cConn, OpAppend, ap)
	if status != StatusDegraded {
		t.Fatalf("append over damaged block: status %d, want StatusDegraded", status)
	}
	if ts, _ := NewDecoder(resp).Int64(); ts == 0 {
		t.Fatal("degraded append carried no timestamp")
	}
}

func TestKillConns(t *testing.T) {
	srv, conn := testServer(t)
	if status, _ := roundTrip(t, conn, OpPing, nil); status != StatusOK {
		t.Fatal("ping failed")
	}
	if n := srv.KillConns(); n != 1 {
		t.Fatalf("KillConns = %d, want 1", n)
	}
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	err := WriteFrame(conn, OpPing, 0, 0, nil)
	if err == nil {
		_, _, _, _, err = ReadFrame(conn)
	}
	if err == nil {
		t.Fatal("connection alive after KillConns")
	}
}
