package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"clio/internal/core"
	"clio/internal/logapi"
	"clio/internal/shard"
)

// ingest: the embedded-library user. 32 closed-loop callers issue forced
// 64-byte appends (about 1/15 of a 1 KiB block, the paper's c) over 64 logs
// in 8 top-level directories. It loads group commit, the seal pipeline,
// FileNVRAM and device writes, and never touches the server, wire, cache,
// entrymap or stream.
const (
	ingestCallers = 32
	ingestDirs    = 8
	ingestLogs    = 64
	ingestSize    = 64
	ingestWarmOps = 256 // forced appends per caller during setup
	// ingestCapacity sizes the per-caller records: forced appends per
	// second the store is not expected to exceed on small hardware.
	ingestCapacity = 40_000
)

// ack is what a forced append returned: its log (-1 if it failed) and its
// timestamp.
type ack struct {
	log int
	ts  int64
}

type ingestState struct {
	st    *shard.Store
	dir   string
	paths []string
	ids   []logapi.ID
	mu    sync.Mutex
	acked map[[2]uint64]ack // (tag, seq) → log and timestamp
}

// ingestSetup creates the store and its logs, then warms the commit path
// with a fixed number of forced appends per caller.
func ingestSetup(ctx context.Context, k stack, dir string, seed int64) (*ingestState, error) {
	st, err := k.create(dir)
	if err != nil {
		return nil, err
	}
	s := &ingestState{st: st, dir: dir, acked: make(map[[2]uint64]ack)}
	for i := 0; i < ingestLogs; i++ {
		p := fmt.Sprintf("/in%d/log%02d", i%ingestDirs, i)
		id, err := createLog(ctx, st, p)
		if err != nil {
			return nil, err
		}
		s.paths = append(s.paths, p)
		s.ids = append(s.ids, id)
	}
	var wg sync.WaitGroup
	errs := make([]error, ingestCallers)
	for w := 0; w < ingestCallers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(w) + 1e6))
			buf := make([]byte, ingestSize)
			for n := 0; n < ingestWarmOps; n++ {
				li := rng.Intn(ingestLogs)
				tag, seq := uint64(1000+w), uint64(n)
				ts, err := st.Append(ctx, s.ids[li], payload(buf, seed, tag, seq), core.AppendOptions{Forced: true})
				if err != nil {
					errs[w] = err
					return
				}
				s.mu.Lock()
				s.acked[[2]uint64{tag, seq}] = ack{li, ts}
				s.mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("warm-up append: %w", err)
		}
	}
	return s, nil
}

func runIngest(ctx context.Context, p params, k stack) (*outcome, error) {
	o := newOutcome()
	var s *ingestState
	var setups []float64
	for i := 0; i < p.setups; i++ {
		if s != nil {
			s.st.Close()
			os.RemoveAll(s.dir)
		}
		t0 := time.Now()
		var err error
		s, err = ingestSetup(ctx, k, filepath.Join(p.work, fmt.Sprintf("ingest-%d", i)), p.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	// recover_s is timed on the store as set up, a fixed size; the
	// crash after the phase, which recovers a store as large as the run's
	// throughput made it, is reported beside it.
	st, recoverS, err := k.recoverCycles(s.st, s.dir)
	if err != nil {
		return nil, err
	}

	// Per-caller records are preallocated and pointer-free, so the
	// benchmark's own heap stays flat while the phase runs and does not
	// change the store's garbage-collection pacing mid-run.
	length := time.Duration(p.seconds * float64(time.Second))
	perCaller := int(p.seconds*ingestCapacity) / ingestCallers
	lats := make([]series, ingestCallers)
	acks := make([][]ack, ingestCallers)
	for w := range lats {
		lats[w] = newSeries(perCaller)
		acks[w] = make([]ack, 0, perCaller)
	}
	attempted := make([]int64, ingestCallers)
	errs := make([][]error, ingestCallers)
	quiesce()
	var ph phase
	var win *windowSampler
	if k.tr != nil {
		win = startWindowSampler(st)
	}
	ph.a = snap(st)
	deadline := ph.a.at.Add(length)
	var wg sync.WaitGroup
	for w := 0; w < ingestCallers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(p.seed*7919 + int64(w)))
			buf := make([]byte, ingestSize)
			for seq := uint64(0); time.Now().Before(deadline); seq++ {
				li := rng.Intn(ingestLogs)
				data := payload(buf, p.seed, uint64(w), seq)
				attempted[w]++
				t0 := time.Now()
				ts, err := st.Append(ctx, s.ids[li], data, core.AppendOptions{Forced: true})
				d := time.Since(t0)
				if err != nil {
					errs[w] = append(errs[w], err)
					acks[w] = append(acks[w], ack{-1, 0})
					continue
				}
				lats[w].add(t0.Sub(ph.a.at), d)
				acks[w] = append(acks[w], ack{li, ts})
			}
		}(w)
	}
	wg.Wait()
	ph.b = snap(st)
	if win != nil {
		ph.window = win.finish()
	}
	for w, as := range acks {
		for seq, a := range as {
			if a.log >= 0 {
				s.acked[[2]uint64{uint64(w), uint64(seq)}] = a
			}
		}
	}
	elapsed := ph.b.at.Sub(ph.a.at)
	all := mergeSeries(lats...)
	for w := range errs {
		o.attempted += attempted[w]
		for _, err := range errs[w] {
			o.fail("forced append: %v", err)
		}
	}
	ph.ops = int64(len(all.dur))

	// Oracle: after a crash and reopen, every acked entry is present once,
	// with its bytes and timestamp.
	st, afterS, err := k.recoverCycles(st, s.dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	reads := ingestOracle(ctx, o, st, s, p.seed)

	o.setE2E(median(setups), all, all, ph.a, ph.b, spaceRatio(ph.a, ph.b))
	o.add("ingest.append_p50_us", all.dur.pct(0.5), "us")
	o.add("ingest.append_p99_us", all.dur.pct(0.99), "us")
	o.add("ingest.append_samples", float64(len(all.dur)), "count")
	o.add("ingest.ops_per_s", all.opsPerSecond(length), "1/s")
	o.add("ingest.ops_per_s_whole_run", float64(len(all.dur))/elapsed.Seconds(), "1/s")
	o.add("ingest.bytes_per_user_byte", spaceRatio(ph.a, ph.b), "ratio")
	o.add("ingest.recover_s", recoverS, "s")
	o.add("ingest.recover_after_run_s", afterS, "s")
	o.addCommitShape("ingest", ph.a, ph.b)
	o.addHost(ph.a, ph.b)

	if k.tr != nil {
		// The replay's reads are the entries the oracle just checked.
		spec := replaySpec{appendOpts: core.AppendOptions{Forced: true}, size: ingestSize}
		spec.locates, spec.reads = reads.locates, reads.reads
		if err := replay(ctx, o, st, k.tr, &ph, spec, p.seed); err != nil {
			return nil, err
		}
		layerMetrics(o, k.tr, &ph)
	}
	return o, nil
}

type readSample struct {
	locates []locateTarget
	reads   []readTarget
}

// ingestOracle reads the whole store back through the root cursor and
// checks it against the acks. It returns a sample of verified entries for
// the layer replay.
func ingestOracle(ctx context.Context, o *outcome, st *shard.Store, s *ingestState, seed int64) readSample {
	logOf := make(map[logapi.ID]int, len(s.ids))
	for i, id := range s.ids {
		logOf[id] = i
	}
	seen := make(map[[2]uint64]bool, len(s.acked))
	perLog := make([][]*core.Entry, ingestLogs)
	cur, err := st.OpenCursor(ctx, "/")
	if err != nil {
		o.fail("oracle cursor: %v", err)
		return readSample{}
	}
	defer cur.Close()
	for {
		e, err := cur.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			o.fail("oracle read: %v", err)
			break
		}
		li, ok := logOf[logapi.MakeID(e.Shard, e.LogID)]
		if !ok {
			continue // catalog and other system entries
		}
		tag, seq, ok := checkPayload(e.Data, seed, ingestSize)
		key := [2]uint64{tag, seq}
		a, acked := s.acked[key]
		switch {
		case !ok:
			o.fail("log %s: entry bytes do not match its header", s.paths[li])
		case !acked:
			// An append that returned an error may still have landed.
		case seen[key]:
			o.fail("entry %v read twice", key)
		case a.log != li || a.ts != e.Timestamp:
			o.fail("entry %v: log %d ts %d, acked log %d ts %d", key, li, e.Timestamp, a.log, a.ts)
		default:
			seen[key] = true
			if len(perLog[li]) < 512 {
				c := *e
				c.Data = append([]byte(nil), e.Data...)
				perLog[li] = append(perLog[li], &c)
			}
		}
	}
	for key := range s.acked {
		if !seen[key] {
			o.fail("acked entry %v lost", key)
		}
	}
	return sampleReads(s.paths, perLog, seed)
}

// sampleReads picks locate and read targets from verified entries, each
// log's entries in log order.
func sampleReads(paths []string, perLog [][]*core.Entry, seed int64) readSample {
	rng := rand.New(rand.NewSource(seed ^ 0x7ead))
	var out readSample
	for n := 0; n < 256; n++ {
		li := rng.Intn(len(perLog))
		es := perLog[li]
		if len(es) == 0 {
			continue
		}
		i := rng.Intn(len(es))
		e := es[i]
		out.reads = append(out.reads, readTarget{e.Shard, e.Block, e.Index, wantEntry{e.Timestamp, e.Data}})
		// Entries without their own timestamp share the one before them;
		// a seek lands on the first entry of such a run.
		for i > 0 && es[i-1].Timestamp >= e.Timestamp {
			i--
		}
		t := locateTarget{path: paths[li], ts: e.Timestamp}
		for j := i; j < len(es) && j < i+8; j++ {
			t.want = append(t.want, wantEntry{es[j].Timestamp, es[j].Data})
		}
		out.locates = append(out.locates, t)
	}
	return out
}
