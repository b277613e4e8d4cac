package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"clio/internal/archive"
	"clio/internal/core"
	"clio/internal/wodev"
)

// A span is one timed call across a module boundary, recorded by the
// benchmark's own code around the call: the timing wrappers below (device,
// NVRAM, archive) and the layer replay (one span per op per entry point).
// Wrapper spans get the replay op running at the time as their parent, so a
// replay op's self time is its duration minus its children's.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// maxSpans bounds the in-memory span buffer (about 100 bytes a span).
// Past it, spans outside the layer replay are counted, not kept; their
// durations still reach the per-op samples the metrics are computed from.
const maxSpans = 400_000

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	dropped int64
	// samples holds every recorded call's start and duration by
	// layer/op, whether or not its span was kept.
	samples map[string]*series

	ids atomic.Uint64
	// cur and curTrace name the replay op in flight; wrapper spans attach
	// to it. Work a background goroutine does during that op (the seal
	// pipeline's device writes) is attributed to it as well.
	cur      atomic.Uint64
	curTrace atomic.Uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), samples: make(map[string]*series)} }

// recordID records a span. Its id is taken before the call begins, so
// spans recorded during the call can name it as their parent.
func (t *tracer) recordID(id uint64, layer, op string, start time.Time, parent, trace uint64) {
	end := time.Now()
	at, dur := start.Sub(t.epoch), end.Sub(start)
	t.mu.Lock()
	k := layer + "/" + op
	if t.samples[k] == nil {
		t.samples[k] = &series{}
	}
	t.samples[k].add(at, dur)
	if len(t.spans) < maxSpans || trace != 0 {
		t.spans = append(t.spans, span{
			Trace: trace, ID: id, Parent: parent, Layer: layer, Op: op,
			Start: int64(at), Dur: int64(dur),
		})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// leaf records a wrapper span under the current replay op, if any.
func (t *tracer) leaf(layer, op string, start time.Time) {
	t.recordID(t.ids.Add(1), layer, op, start, t.cur.Load(), t.curTrace.Load())
}

// durations returns the recorded durations of one layer/op.
func (t *tracer) durations(layer, op string) lat {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.samples[layer+"/"+op]; s != nil {
		return append(lat(nil), s.dur...)
	}
	return nil
}

// countIn returns how many calls of one layer/op started in [from, to).
func (t *tracer) countIn(layer, op string, from, to time.Time) int {
	lo, hi := int64(from.Sub(t.epoch)), int64(to.Sub(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	if s := t.samples[layer+"/"+op]; s != nil {
		for _, at := range s.at {
			if at >= lo && at < hi {
				n++
			}
		}
	}
	return n
}

// selfTimes returns, for every span of layer/op, its duration minus the
// durations of its direct children, floored at zero.
func (t *tracer) selfTimes(layer, op string) lat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[uint64]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.Dur
		}
	}
	var out lat
	for _, s := range t.spans {
		if s.Layer == layer && s.Op == op {
			d := s.Dur - child[s.ID]
			if d < 0 {
				d = 0
			}
			out = append(out, d)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedDevice times the write-once device's block reads and writes.
type timedDevice struct {
	wodev.Device
	tr *tracer
}

func (d *timedDevice) ReadBlock(idx int, dst []byte) error {
	start := time.Now()
	err := d.Device.ReadBlock(idx, dst)
	d.tr.leaf("wodev", "read", start)
	return err
}

func (d *timedDevice) AppendBlock(data []byte) (int, error) {
	start := time.Now()
	n, err := d.Device.AppendBlock(data)
	d.tr.leaf("wodev", "append", start)
	return n, err
}

func (d *timedDevice) WriteAt(idx int, data []byte) error {
	start := time.Now()
	err := d.Device.WriteAt(idx, data)
	d.tr.leaf("wodev", "append", start)
	return err
}

// timedNVRAM times the FileNVRAM sidecar. It implements the staging
// interface too: core only pipelines seals when its NVRAM does.
type timedNVRAM struct {
	nv *core.FileNVRAM
	tr *tracer
}

var _ core.StagingNVRAM = (*timedNVRAM)(nil)

func (n *timedNVRAM) Store(global int, image []byte) error {
	start := time.Now()
	err := n.nv.Store(global, image)
	n.tr.leaf("nvram", "store", start)
	return err
}

func (n *timedNVRAM) Load() (int, []byte, error) { return n.nv.Load() }
func (n *timedNVRAM) Clear() error               { return n.nv.Clear() }

func (n *timedNVRAM) StoreSealed(global int, image []byte) error {
	start := time.Now()
	err := n.nv.StoreSealed(global, image)
	n.tr.leaf("nvram", "store_sealed", start)
	return err
}

func (n *timedNVRAM) DropSealed(global int) error          { return n.nv.DropSealed(global) }
func (n *timedNVRAM) LoadSealed() ([]int, [][]byte, error) { return n.nv.LoadSealed() }

// timedArchive times cold-tier reads (block fetches of demoted volumes).
type timedArchive struct {
	archive.Backend
	tr *tracer
}

func (a *timedArchive) ReadAt(ctx context.Context, name string, off int64, dst []byte) (int, error) {
	start := time.Now()
	n, err := a.Backend.ReadAt(ctx, name, off, dst)
	a.tr.leaf("archive", "fetch", start)
	return n, err
}
