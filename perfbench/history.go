package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"clio/internal/client"
	"clio/internal/core"
	"clio/internal/logapi"
	"clio/internal/server"
	"clio/internal/shard"
)

// history: a store larger than the cache, read over the wire. Setup
// bulk-loads a seeded history with unforced, timestamped appends — first
// the logs that will be retired, then the live ones — retires the first
// group, runs one compaction pass (so the oldest volumes are demoted cold),
// crashes the store and reopens it. Two TCP connections then run a
// closed-loop read mix: locates (OpenCursor + SeekTime to a timestamp
// skewed toward recent + 8 Next), ReadAt of positions remembered at setup,
// and locates on the retired logs, which the cold tier serves. It makes
// the entrymap, cache, device reads, cold tier and server read pool do the
// work and never group-commits.
const (
	histLiveDirs    = 8
	histChurnDirs   = 4
	histLogsPerDir  = 8
	histChurnShare  = 0.35
	histMinSize     = 32
	histMaxSize     = 96
	histConns       = 2
	histNexts       = 8
	histChurnLocate = 0.10 // share of ops that locate in retired logs
	histReadAt      = 0.35 // share of ops that are ReadAt
	// histCapacity sizes the per-connection records: read ops per second
	// the two connections are not expected to exceed on small hardware.
	histCapacity = 20_000
)

type histLog struct {
	idx   int // index in histState.logs, the payload tag
	path  string
	id    logapi.ID
	churn bool
	n     int // entries to load
	ts    []int64
	size  []uint8
	pos   []histPos
}

type histPos struct {
	block int32
	index int16
}

type histState struct {
	st   *shard.Store
	dir  string
	dirs []string // top-level directories, each holding histLogsPerDir logs
	logs []*histLog
	live []*histLog
	cold []*histLog
	// measured at setup
	spaceRatio float64
	compact    core.CompactResult
	compactS   float64
	recoverS   float64
}

// balancedDirs picks n top-level directory names with the given prefix,
// the same number on every shard.
func balancedDirs(st *shard.Store, prefix string, n int) ([]string, error) {
	per := make([]int, st.Shards())
	var out []string
	for i := 0; len(out) < n && i < 1000; i++ {
		d := fmt.Sprintf("/%s%d", prefix, i)
		sh, err := st.ShardFor(d)
		if err != nil {
			return nil, err
		}
		if per[sh] < n/st.Shards() {
			per[sh]++
			out = append(out, d)
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("no balanced layout for %d %q directories", n, prefix)
	}
	return out, nil
}

func histSetup(ctx context.Context, k stack, dir string, p params) (*histState, error) {
	st, err := k.create(dir)
	if err != nil {
		return nil, err
	}
	s := &histState{st: st, dir: dir}
	liveDirs, err := balancedDirs(st, "h", histLiveDirs)
	if err != nil {
		return nil, err
	}
	churnDirs, err := balancedDirs(st, "c", histChurnDirs)
	if err != nil {
		return nil, err
	}
	churnEach := int(float64(p.histEntries) * histChurnShare / float64(histChurnDirs*histLogsPerDir))
	liveEach := int(float64(p.histEntries) * (1 - histChurnShare) / float64(histLiveDirs*histLogsPerDir))
	for _, g := range []struct {
		dirs  []string
		churn bool
		n     int
	}{{churnDirs, true, churnEach}, {liveDirs, false, liveEach}} {
		for _, d := range g.dirs {
			s.dirs = append(s.dirs, d)
			for j := 0; j < histLogsPerDir; j++ {
				l := &histLog{idx: len(s.logs), path: fmt.Sprintf("%s/l%d", d, j), churn: g.churn, n: g.n}
				if l.id, err = createLog(ctx, st, l.path); err != nil {
					return nil, err
				}
				s.logs = append(s.logs, l)
				if g.churn {
					s.cold = append(s.cold, l)
				} else {
					s.live = append(s.live, l)
				}
			}
		}
	}
	a := snap(st)
	// One loader per shard, so the shards' device syncs overlap. Each
	// loads its retired logs first, then its live ones, in a seeded
	// interleaving.
	var wg sync.WaitGroup
	errs := make([]error, st.Shards())
	for sh := 0; sh < st.Shards(); sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(p.seed*31 + int64(sh)))
			buf := make([]byte, histMaxSize)
			for _, churn := range []bool{true, false} {
				var mine []*histLog
				for _, l := range s.logs {
					if l.churn == churn && l.id.Shard() == sh {
						mine = append(mine, l)
					}
				}
				for len(mine) > 0 {
					i := rng.Intn(len(mine))
					l := mine[i]
					seq := len(l.ts)
					size := histMinSize + rng.Intn(histMaxSize-histMinSize+1)
					data := payload(buf[:size], p.seed, uint64(l.idx), uint64(seq))
					ts, err := st.Append(ctx, l.id, data, core.AppendOptions{Timestamped: true})
					if err != nil {
						errs[sh] = fmt.Errorf("load %s: %w", l.path, err)
						return
					}
					l.ts = append(l.ts, ts)
					l.size = append(l.size, uint8(size))
					if len(l.ts) == l.n {
						mine[i] = mine[len(mine)-1]
						mine = mine[:len(mine)-1]
					}
				}
			}
		}(sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, l := range s.cold {
		if err := st.Retire(ctx, l.path); err != nil {
			return nil, fmt.Errorf("retire %s: %w", l.path, err)
		}
	}
	if err := st.Force(ctx); err != nil {
		return nil, err
	}
	s.spaceRatio = spaceRatio(a, snap(st))
	t0 := time.Now()
	if s.compact, err = st.CompactOnce(ctx, core.CompactOptions{}); err != nil {
		return nil, fmt.Errorf("compact: %w", err)
	}
	s.compactS = time.Since(t0).Seconds()
	if s.compact.VolumesDemoted == 0 {
		return nil, fmt.Errorf("compaction demoted no volumes: %+v", s.compact)
	}
	if s.st, s.recoverS, err = k.recoverCycles(st, dir); err != nil {
		return nil, err
	}
	return s, nil
}

// histScan is the setup oracle: after the crash, each directory read back
// through its cursor holds every entry loaded into its logs once, in order,
// with its timestamp and bytes. It records each entry's position for
// ReadAt. (The root cursor would not do: it reads the volume sequence
// itself, where compaction's relocated copies sit beside the originals.)
func histScan(ctx context.Context, o *outcome, s *histState, seed int64) {
	byID := make(map[logapi.ID]int, len(s.logs))
	for i, l := range s.logs {
		byID[l.id] = i
		l.pos = make([]histPos, 0, len(l.ts))
	}
	for _, d := range s.dirs {
		if !scanDir(ctx, o, s, d, byID, seed) {
			return
		}
	}
	for _, l := range s.logs {
		if len(l.pos) != len(l.ts) {
			o.fail("scan %s: %d of %d entries", l.path, len(l.pos), len(l.ts))
		}
	}
}

func scanDir(ctx context.Context, o *outcome, s *histState, dir string, byID map[logapi.ID]int, seed int64) bool {
	cur, err := s.st.OpenCursor(ctx, dir)
	if err != nil {
		o.fail("scan cursor %s: %v", dir, err)
		return false
	}
	defer cur.Close()
	for {
		e, err := cur.Next(ctx)
		if err == io.EOF {
			return true
		}
		if err != nil {
			o.fail("scan %s: %v", dir, err)
			return false
		}
		li, ok := byID[logapi.MakeID(e.Shard, e.LogID)]
		if !ok {
			o.fail("scan %s: entry of an unknown log %d:%d", dir, e.Shard, e.LogID)
			return false
		}
		l := s.logs[li]
		j := len(l.pos)
		tag, seq, ok := checkPayload(e.Data, seed, 0)
		if !ok || j >= len(l.ts) || tag != uint64(li) || seq != uint64(j) || e.Timestamp != l.ts[j] || len(e.Data) != int(l.size[j]) {
			o.fail("scan %s: entry %d out of place (tag %d seq %d ts %d)", l.path, j, tag, seq, e.Timestamp)
			return false
		}
		l.pos = append(l.pos, histPos{int32(e.Block), int16(e.Index)})
	}
}

func (l *histLog) want(seed int64, j int) wantEntry {
	return wantEntry{l.ts[j], payload(make([]byte, l.size[j]), seed, uint64(l.idx), uint64(j))}
}

// pick returns an entry index of l: skewed toward the newest entries
// (u² puts about three quarters of picks in the newest 58%, the share a
// 4096-block cache holds of each shard's live history), or uniform.
func pick(rng *rand.Rand, n int, recent bool) int {
	u := rng.Float64()
	if recent {
		return n - 1 - int(math.Floor(float64(n)*u*u))
	}
	return int(float64(n) * u)
}

// seekTarget returns a timestamp whose first entry at or after it, in l,
// is entry j.
func seekTarget(rng *rand.Rand, l *histLog, j int) int64 {
	if j == 0 {
		return l.ts[0] - rng.Int63n(1000)
	}
	return l.ts[j-1] + 1 + rng.Int63n(l.ts[j]-l.ts[j-1])
}

func (s *histState) locateTarget(rng *rand.Rand, seed int64, cold bool) locateTarget {
	logs := s.live
	if cold {
		logs = s.cold
	}
	l := logs[rng.Intn(len(logs))]
	j := pick(rng, len(l.ts), !cold)
	t := locateTarget{path: l.path, ts: seekTarget(rng, l, j)}
	for x := j; x < len(l.ts) && x < j+histNexts; x++ {
		t.want = append(t.want, l.want(seed, x))
	}
	return t
}

func (s *histState) readTarget(rng *rand.Rand, seed int64) readTarget {
	l := s.live[rng.Intn(len(s.live))]
	j := pick(rng, len(l.ts), true)
	return readTarget{l.id.Shard(), int(l.pos[j].block), int(l.pos[j].index), l.want(seed, j)}
}

func runHistory(ctx context.Context, p params, k stack) (*outcome, error) {
	o := newOutcome()
	var s *histState
	var setups []float64
	for i := 0; i < p.setups; i++ {
		if s != nil {
			s.st.Close()
			os.RemoveAll(s.dir)
		}
		t0 := time.Now()
		var err error
		if s, err = histSetup(ctx, k, filepath.Join(p.work, fmt.Sprintf("history-%d", i)), p); err != nil {
			return nil, err
		}
		histScan(ctx, o, s, p.seed)
		setups = append(setups, time.Since(t0).Seconds())
	}
	st := s.st
	defer st.Close()

	srv := server.NewStore(st)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); srv.Serve(ln) }()
	defer func() { srv.Close(); <-serveDone }()

	type connOut struct {
		locates, reads, all series
		attempted           int64
		errs                []string
	}
	outs := make([]connOut, histConns)
	clients := make([]*client.Client, histConns)
	length := time.Duration(p.seconds * float64(time.Second))
	for c := range outs {
		n := int(p.seconds * histCapacity / histConns)
		outs[c].locates, outs[c].reads, outs[c].all = newSeries(n), newSeries(n), newSeries(n)
		cl, err := client.DialContext(ctx, ln.Addr().String(), client.Options{})
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		clients[c] = cl
	}
	quiesce()
	var ph phase
	var win *windowSampler
	if k.tr != nil {
		win = startWindowSampler(st)
	}
	ph.a = snap(st)
	deadline := ph.a.at.Add(length)
	var wg sync.WaitGroup
	for c, cl := range clients {
		wg.Add(1)
		go func(c int, cl *client.Client) {
			defer wg.Done()
			out := &outs[c]
			ep := viaService("client", cl, 0, core.AppendOptions{})
			rng := rand.New(rand.NewSource(p.seed*104729 + int64(c)))
			for time.Now().Before(deadline) {
				r := rng.Float64()
				out.attempted++
				var err error
				t0 := time.Now()
				if r < histReadAt {
					t := s.readTarget(rng, p.seed)
					t0 = time.Now()
					err = ep.readAt(ctx, t)
					if err == nil {
						out.reads.add(t0.Sub(ph.a.at), time.Since(t0))
					}
				} else {
					t := s.locateTarget(rng, p.seed, r < histReadAt+histChurnLocate)
					t0 = time.Now()
					err = ep.locate(ctx, t)
					if err == nil {
						out.locates.add(t0.Sub(ph.a.at), time.Since(t0))
					}
				}
				if err != nil {
					out.errs = append(out.errs, err.Error())
				} else {
					out.all.add(t0.Sub(ph.a.at), 0)
				}
			}
		}(c, cl)
	}
	wg.Wait()
	ph.b = snap(st)
	if win != nil {
		ph.window = win.finish()
	}
	elapsed := ph.b.at.Sub(ph.a.at)
	var locs, reads, alls []series
	for _, out := range outs {
		o.attempted += out.attempted
		for _, e := range out.errs {
			o.fail("read op: %s", e)
		}
		locs = append(locs, out.locates)
		reads = append(reads, out.reads)
		alls = append(alls, out.all)
	}
	loc, rd, all := mergeSeries(locs...), mergeSeries(reads...), mergeSeries(alls...)
	ph.ops, ph.locates = int64(len(all.at)), int64(len(loc.at))

	o.setE2E(median(setups), all, loc, ph.a, ph.b, s.spaceRatio)
	o.add("history.ops_per_s", all.opsPerSecond(length), "1/s")
	o.add("history.ops_per_s_whole_run", float64(len(all.at))/elapsed.Seconds(), "1/s")
	o.add("history.locate_p50_us", loc.dur.pct(0.5), "us")
	o.add("history.locate_p99_us", loc.dur.pct(0.99), "us")
	o.add("history.locate_samples", float64(len(loc.at)), "count")
	o.add("history.read_at_p50_us", rd.dur.pct(0.5), "us")
	o.add("history.read_at_p99_us", rd.dur.pct(0.99), "us")
	o.add("history.read_at_samples", float64(len(rd.at)), "count")
	o.add("history.recover_s", s.recoverS, "s")
	o.add("history.bytes_per_user_byte", s.spaceRatio, "ratio")
	o.add("history.cache_hit_ratio", ratio(float64(ph.b.cache.Hits-ph.a.cache.Hits),
		float64(ph.b.cache.Hits-ph.a.cache.Hits+ph.b.cache.Misses-ph.a.cache.Misses)), "ratio")
	o.add("history.setup_compact_s", s.compactS, "s")
	o.add("history.volumes_demoted", float64(s.compact.VolumesDemoted), "count")
	o.addHost(ph.a, ph.b)

	if k.tr != nil {
		ph.compactS, ph.compactBytes = s.compactS, s.compact.BytesCopied
		spec := replaySpec{appendOpts: core.AppendOptions{Timestamped: true}, size: 64}
		rng := rand.New(rand.NewSource(p.seed ^ 0x7ead))
		for i := 0; i < 256; i++ {
			spec.locates = append(spec.locates, s.locateTarget(rng, p.seed, i%10 == 0))
			spec.reads = append(spec.reads, s.readTarget(rng, p.seed))
		}
		if err := replay(ctx, o, st, k.tr, &ph, spec, p.seed); err != nil {
			return nil, err
		}
		layerMetrics(o, k.tr, &ph)
	}
	return o, nil
}
