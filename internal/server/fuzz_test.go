package server

import (
	"bytes"
	"testing"

	"clio/internal/wire"
)

// frameBytes builds a valid frame for seeding.
func frameBytes(op byte, seq, trace uint64, payload []byte) []byte {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, op, seq, trace, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzReadFrame throws arbitrary byte streams at the frame reader and, when
// a frame parses, at the replication payload decoders behind it. A malformed
// frame from a confused peer must surface as an error, never a panic — the
// server trusts nothing past the length prefix.
func FuzzReadFrame(f *testing.F) {
	f.Add(frameBytes(OpPing, 1, 7, nil))
	f.Add(frameBytes(OpAppend, 2, 0, []byte{1, 0, 3, 4, 'd', 'a', 't', 'a'}))
	f.Add(frameBytes(OpHello, 0, 0, wire.PutUint64(nil, 42)))
	f.Add(frameBytes(wire.OpReplWrite, 9, 0,
		(&wire.ReplWrite{Shard: 0, Dev: 0, Index: 1, Data: []byte("img")}).Encode(nil)))
	f.Add(frameBytes(wire.OpReplHello, 1, 0,
		(&wire.ReplHello{Term: 1, Epoch: 2, LeaderAddr: "a:1", Shards: 1, BlockSize: 512}).Encode(nil)))
	f.Add(frameBytes(OpCursorStep, 4, 0, []byte{1, StepNext, 0, 8}))
	f.Add(frameBytes(OpCursorStep, 5, 0, []byte{1, StepPrev, 3, 64}))
	f.Add(frameBytes(OpCursorStep, 6, 0, []byte{1, 9, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})            // oversized length prefix
	f.Add([]byte{0x05, 0x00, 0x00, 0x00, 0x01})      // length below header size
	f.Add(append(frameBytes(OpStats, 3, 0, nil), 9)) // trailing garbage
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bytes.NewReader(stream)
		for {
			op, seq, trace, payload, err := ReadFrame(r)
			if err != nil {
				return
			}
			_ = seq
			_ = trace
			if wire.IsReplOp(op) {
				// Whatever a peer stuffed in a replication frame must decode
				// or error, never panic.
				_, _ = wire.DecodeRepl(op, payload)
			}
			if op == OpCursorStep {
				// A step request that decodes is within the bounds the
				// server's execution lock relies on.
				d := NewDecoder(payload)
				if _, err := d.Uvarint(); err == nil {
					if _, skip, limit, err := decodeStep(d); err == nil &&
						(skip > MaxStepEntries || limit < 1 || limit > MaxStepEntries) {
						t.Fatalf("decodeStep accepted skip %d max %d", skip, limit)
					}
				}
			}
			// A parsed frame must re-encode unless the payload alone exceeds
			// the frame budget (ReadFrame accepted it, so it cannot).
			var buf bytes.Buffer
			if err := WriteFrame(&buf, op, seq, trace, payload); err != nil {
				t.Fatalf("re-encode of accepted frame failed: %v", err)
			}
		}
	})
}
