package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"time"

	"clio/internal/client"
	"clio/internal/core"
	"clio/internal/entrymap"
	"clio/internal/logapi"
	"clio/internal/server"
	"clio/internal/shard"
)

// A traced run attributes the end-to-end numbers to the repo's modules in
// two ways. Counts come from the store's public counters over the traced
// phase (phase, below). Times come from the timing wrappers and from a
// replay of the workload's own op stream against successive entry points
// — core.Service, shard.Store, client.New over net.Pipe into
// server.ServeConn, the client over TCP — interleaved op by op, so each
// entry point sees the same cache state. The difference between adjacent
// entry points is the time the outer layer adds.

// phase is the traced part of one workload run.
type phase struct {
	a, b    snapshot
	ops     int64 // workload ops completed
	locates int64 // of which locates
	window  []float64
	// compaction: one pass's wall time and bytes copied, and the appends
	// issued while it ran versus the rest.
	compactS      float64
	compactBytes  int64
	appendDuring  lat
	appendOutside lat
	streamLag     lat // Recv minus append return
	// entrymap work of the replay's locates
	replayLoc     entrymap.LocateStats
	replayLocates int64
}

// windowSampler samples the adaptive commit window while a phase runs.
type windowSampler struct {
	stop, done chan struct{}
	vals       []float64
}

func startWindowSampler(st *shard.Store) *windowSampler {
	w := &windowSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.vals = append(w.vals, float64(st.Stats().CommitWindowNanos)/1e3)
			}
		}
	}()
	return w
}

func (w *windowSampler) finish() []float64 {
	close(w.stop)
	<-w.done
	return w.vals
}

// locateTarget is a seek-by-time whose answer the workload knows: the
// entries a cursor must return after SeekTime(ts), in order.
type locateTarget struct {
	path string
	ts   int64
	want []wantEntry
}

type readTarget struct {
	shard, block, index int
	want                wantEntry
}

type wantEntry struct {
	ts   int64
	data []byte
}

// replaySpec is a workload's op stream for the replay: the appends it
// issues and the reads it can check.
type replaySpec struct {
	appendOpts core.AppendOptions
	size       int
	locates    []locateTarget
	reads      []readTarget
}

// entryPoint runs the replay ops through one layer's public surface.
type entryPoint struct {
	layer  string
	append func(ctx context.Context, data []byte) error
	locate func(ctx context.Context, t locateTarget) error
	readAt func(ctx context.Context, t readTarget) error
}

func checkEntry(e *core.Entry, w wantEntry) error {
	if e.Timestamp != w.ts || string(e.Data) != string(w.data) {
		return fmt.Errorf("entry at ts %d: got ts %d and %d bytes, want %d bytes", w.ts, e.Timestamp, len(e.Data), len(w.data))
	}
	return nil
}

// viaService drives a logapi.Service: shard.Store, or a client.
func viaService(layer string, svc logapi.Service, id logapi.ID, opts core.AppendOptions) entryPoint {
	return entryPoint{
		layer: layer,
		append: func(ctx context.Context, data []byte) error {
			_, err := svc.Append(ctx, id, data, opts)
			return err
		},
		locate: func(ctx context.Context, t locateTarget) error {
			cur, err := svc.OpenCursor(ctx, t.path)
			if err != nil {
				return err
			}
			defer cur.Close()
			if err := cur.SeekTime(ctx, t.ts); err != nil {
				return err
			}
			for _, w := range t.want {
				e, err := cur.Next(ctx)
				if err != nil {
					return err
				}
				if err := checkEntry(e, w); err != nil {
					return err
				}
			}
			return nil
		},
		readAt: func(ctx context.Context, t readTarget) error {
			e, err := svc.ReadAt(ctx, t.shard, t.block, t.index)
			if err != nil {
				return err
			}
			return checkEntry(e, t.want)
		},
	}
}

// viaCore drives the core.Service of the shard that owns each path.
func viaCore(st *shard.Store, id logapi.ID, opts core.AppendOptions) entryPoint {
	return entryPoint{
		layer: "core",
		append: func(_ context.Context, data []byte) error {
			_, err := st.Service(id.Shard()).Append(id.Local(), data, opts)
			return err
		},
		locate: func(_ context.Context, t locateTarget) error {
			sh, err := st.ShardFor(t.path)
			if err != nil {
				return err
			}
			cur, err := st.Service(sh).OpenCursor(t.path)
			if err != nil {
				return err
			}
			if err := cur.SeekTime(t.ts); err != nil {
				return err
			}
			for _, w := range t.want {
				e, err := cur.Next()
				if err != nil {
					return err
				}
				if err := checkEntry(e, w); err != nil {
					return err
				}
			}
			return nil
		},
		readAt: func(_ context.Context, t readTarget) error {
			e, err := st.Service(t.shard).ReadAt(t.block, t.index)
			if err != nil {
				return err
			}
			return checkEntry(e, t.want)
		},
	}
}

const (
	replayRounds      = 1000
	replayAllocRounds = 100
)

// replay runs spec through every entry point and records per-layer times
// in o.layers. It also probes the compaction path when the workload's
// phase timed no appends around a compaction pass. Failed replay ops count
// as failed ops of the run.
func replay(ctx context.Context, o *outcome, st *shard.Store, tr *tracer, ph *phase, spec replaySpec, seed int64) error {
	id, err := st.CreateLog(ctx, "/replay", 0o644, "bench")
	if err != nil {
		return fmt.Errorf("replay log: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := server.NewStore(st)
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); srv.Serve(ln) }()
	defer func() { srv.Close(); <-serveDone }()
	pc, ps := net.Pipe()
	go srv.ServeConn(ps)
	pipe := client.New(pc)
	defer pipe.Close()
	tcp, err := client.DialContext(ctx, ln.Addr().String(), client.Options{})
	if err != nil {
		return err
	}
	defer tcp.Close()

	eps := []entryPoint{
		viaCore(st, id, spec.appendOpts),
		viaService("shard", st, id, spec.appendOpts),
		viaService("server", pipe, id, spec.appendOpts),
		viaService("client", tcp, id, spec.appendOpts),
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	buf := make([]byte, spec.size)
	seq := uint64(0)
	// Warm every read once so the first entry point does not pay the
	// cold misses the later ones would then skip.
	for _, t := range spec.locates {
		o.attempted++
		if err := eps[1].locate(ctx, t); err != nil {
			o.fail("replay warm locate %s: %v", t.path, err)
		}
	}
	for _, t := range spec.reads {
		o.attempted++
		if err := eps[1].readAt(ctx, t); err != nil {
			o.fail("replay warm read: %v", err)
		}
	}
	timed := func(ep entryPoint, op string, fn func() error) {
		id := tr.ids.Add(1)
		tr.cur.Store(id)
		tr.curTrace.Store(id)
		start := time.Now()
		err := fn()
		tr.recordID(id, ep.layer, op, start, 0, id)
		tr.cur.Store(0)
		tr.curTrace.Store(0)
		o.attempted++
		if err != nil {
			o.fail("replay %s %s: %v", ep.layer, op, err)
		}
	}
	loc0 := snap(st).loc
	for r := 0; r < replayRounds; r++ {
		for k := range eps {
			ep := eps[(r+k)%len(eps)]
			seq++
			data := payload(buf, seed, 0xe7, seq)
			timed(ep, "append", func() error { return ep.append(ctx, data) })
			if len(spec.locates) > 0 {
				t := spec.locates[rng.Intn(len(spec.locates))]
				timed(ep, "locate", func() error { return ep.locate(ctx, t) })
			}
			if len(spec.reads) > 0 {
				t := spec.reads[rng.Intn(len(spec.reads))]
				timed(ep, "read_at", func() error { return ep.readAt(ctx, t) })
			}
		}
	}
	loc1 := snap(st).loc
	ph.replayLoc = entrymap.LocateStats{
		EntriesExamined: loc1.EntriesExamined - loc0.EntriesExamined,
		PendingExamined: loc1.PendingExamined - loc0.PendingExamined,
		RawScans:        loc1.RawScans - loc0.RawScans,
		TimestampReads:  loc1.TimestampReads - loc0.TimestampReads,
	}
	if len(spec.locates) > 0 {
		ph.replayLocates = int64(replayRounds * len(eps))
	}
	p50 := func(layer, op string) float64 { return tr.durations(layer, op).pct(0.5) }
	us := func(name string, v float64) { o.layers[name] = metric{v, "us"} }
	us("core.append_us", p50("core", "append"))
	us("shard.append_us", p50("shard", "append")-p50("core", "append"))
	us("server.append_us", p50("server", "append")-p50("shard", "append"))
	us("server.locate_us", p50("server", "locate")-p50("shard", "locate"))
	us("client.append_us", p50("client", "append")-p50("server", "append"))
	us("client.locate_us", p50("client", "locate")-p50("server", "locate"))
	for _, l := range []string{"core", "shard", "server", "client"} {
		for _, op := range []string{"append", "locate", "read_at"} {
			o.add("replay."+l+"."+op+"_p50_us", p50(l, op), "us")
		}
	}
	o.add("replay.core.append_self_p50_us", tr.selfTimes("core", "append").pct(0.5), "us")

	// Allocations: core appends alone, then the same mixed ops through
	// shard.Store and through the server over the pipe.
	allocs := func(fn func(i int) error, n int) (float64, float64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			o.attempted++
			if err := fn(i); err != nil {
				o.fail("replay allocs: %v", err)
			}
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
	}
	na, nb := allocs(func(i int) error {
		seq++
		return eps[0].append(ctx, payload(buf, seed, 0xe7, seq))
	}, replayAllocRounds)
	o.layers["core.allocs_per_append"] = metric{na, "count"}
	o.layers["core.alloc_bytes_per_append"] = metric{nb, "B"}
	mixed := func(ep entryPoint) func(i int) error {
		return func(i int) error {
			seq++
			if err := ep.append(ctx, payload(buf, seed, 0xe7, seq)); err != nil {
				return err
			}
			if len(spec.locates) > 0 {
				if err := ep.locate(ctx, spec.locates[i%len(spec.locates)]); err != nil {
					return err
				}
			}
			if len(spec.reads) > 0 {
				return ep.readAt(ctx, spec.reads[i%len(spec.reads)])
			}
			return nil
		}
	}
	perRound := 1.0
	if len(spec.locates) > 0 {
		perRound++
	}
	if len(spec.reads) > 0 {
		perRound++
	}
	shardAllocs, _ := allocs(mixed(eps[1]), replayAllocRounds)
	pipeAllocs, _ := allocs(mixed(eps[2]), replayAllocRounds)
	o.layers["server.allocs_per_op"] = metric{(pipeAllocs - shardAllocs) / perRound, "count"}

	if len(ph.appendDuring)+len(ph.appendOutside) == 0 {
		compactProbe(ctx, o, st, id, spec, seed, ph)
	}
	return nil
}

// compactProbe runs one compaction pass beside a stream of appends through
// shard.Store, for workloads whose phase has no compaction beside appends.
func compactProbe(ctx context.Context, o *outcome, st *shard.Store, id logapi.ID, spec replaySpec, seed int64, ph *phase) {
	buf := make([]byte, spec.size)
	var seq uint64
	app := func(into *lat) {
		seq++
		data := payload(buf, seed, 0xe9, seq)
		o.attempted++
		t0 := time.Now()
		if _, err := st.Append(ctx, id, data, spec.appendOpts); err != nil {
			o.fail("compact probe append: %v", err)
			return
		}
		into.add(time.Since(t0))
	}
	for i := 0; i < 200; i++ {
		app(&ph.appendOutside)
	}
	done := make(chan struct{})
	var res core.CompactResult
	var cerr error
	t0 := time.Now()
	go func() {
		defer close(done)
		res, cerr = st.CompactOnce(ctx, core.CompactOptions{})
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			app(&ph.appendDuring)
		}
	}
	if cerr != nil {
		o.fail("compact probe: %v", cerr)
	}
	if ph.compactS == 0 { // keep the workload's own pass when it ran one
		ph.compactS = time.Since(t0).Seconds()
		ph.compactBytes = res.BytesCopied
	}
}

// layerMetrics derives the per-layer metrics of a traced run from the
// phase's counter deltas and the recorded spans.
func layerMetrics(o *outcome, tr *tracer, ph *phase) {
	a, b := ph.a, ph.b
	set := func(name string, v float64, unit string) { o.layers[name] = metric{v, unit} }
	delta := func(x, y int64) float64 { return float64(y - x) }
	forced := delta(a.stats.ForcedWrites, b.stats.ForcedWrites)
	sealed := delta(a.stats.BlocksSealed, b.stats.BlocksSealed)
	commits := delta(a.commits, b.commits)
	user := delta(a.stats.ClientBytes, b.stats.ClientBytes)
	ops := float64(ph.ops)

	set("core.seals_per_force", ratio(sealed, forced), "count")
	set("core.padding_bytes_per_user_byte", ratio(delta(a.stats.PaddingBytes, b.stats.PaddingBytes), user), "ratio")
	set("core.mean_batch", ratio(forced, commits), "count")
	set("core.adaptive_waits_per_commit", ratio(delta(a.stats.AdaptiveWaits, b.stats.AdaptiveWaits), commits), "ratio")
	// Printed, not in BENCHMARK.json: a workload without forced appends
	// (history) reads a constant zero here.
	o.add("core.commit_window_us", median(ph.window), "us")
	set("core.pipelined_seal_frac", ratio(delta(a.stats.PipelinedSeals, b.stats.PipelinedSeals), sealed), "ratio")

	stores := tr.durations("nvram", "store")
	sealedStores := tr.durations("nvram", "store_sealed")
	set("nvram.store_p50_us", stores.pct(0.5), "us")
	set("nvram.store_p99_us", stores.pct(0.99), "us")
	o.add("nvram.store_sealed_us", sealedStores.pct(0.5), "us") // zero without forced appends
	inPhase := tr.countIn("nvram", "store", a.at, b.at) + tr.countIn("nvram", "store_sealed", a.at, b.at)
	set("nvram.stores_per_force", ratio(float64(inPhase), forced), "count")

	appends := tr.durations("wodev", "append")
	set("wodev.append_p50_us", appends.pct(0.5), "us")
	set("wodev.append_p99_us", appends.pct(0.99), "us")
	set("wodev.read_us", tr.durations("wodev", "read").pct(0.5), "us")
	dev := devDelta(a, b)
	set("wodev.reads_per_op", ratio(float64(dev.Reads), ops), "count")
	set("wodev.seeks_per_op", ratio(float64(dev.Seeks), ops), "count")

	var most, sum float64
	for i := range b.appended {
		n := delta(a.appended[i], b.appended[i])
		sum += n
		if n > most {
			most = n
		}
	}
	set("shard.imbalance", ratio(most, sum/float64(len(b.appended))), "ratio")

	hits, misses := delta(a.cache.Hits, b.cache.Hits), delta(a.cache.Misses, b.cache.Misses)
	set("cache.hit_ratio", ratio(hits, hits+misses), "ratio")
	set("cache.misses_per_op", ratio(misses, ops), "count")
	set("cache.evictions_per_op", ratio(delta(a.cache.Evictions, b.cache.Evictions), ops), "count")

	// Locates of the phase and of the replay together: ingest and tail
	// locate only in the replay.
	locates := float64(ph.locates + ph.replayLocates)
	examined := b.loc.EntriesExamined - a.loc.EntriesExamined + ph.replayLoc.EntriesExamined
	tsReads := b.loc.TimestampReads - a.loc.TimestampReads + ph.replayLoc.TimestampReads
	set("entrymap.examined_per_locate", ratio(float64(examined), locates), "count")
	set("entrymap.timestamp_reads_per_locate", ratio(float64(tsReads), locates), "count")
	set("entrymap.raw_scans", float64(b.loc.RawScans-a.loc.RawScans+ph.replayLoc.RawScans), "count")

	set("archive.cold_fetches_per_op", ratio(delta(a.stats.ColdFetches, b.stats.ColdFetches), ops), "count")
	o.add("archive.fetch_us", tr.durations("archive", "fetch").pct(0.5), "us") // zero without cold reads

	// Printed, not in BENCHMARK.json: only tail has a subscriber, and tail
	// is not a BENCHMARK.json workload while live delivery loses entries
	// (README.md, "Known defect").
	o.add("stream.lag_after_ack_us", ph.streamLag.pct(0.5), "us")

	set("compact.pass_s", ph.compactS, "s")
	set("compact.bytes_copied_per_s", ratio(float64(ph.compactBytes), ph.compactS), "B/s")
	set("compact.append_p99_during_us", ph.appendDuring.pct(0.99), "us")
	set("compact.append_p99_outside_us", ph.appendOutside.pct(0.99), "us")
}
