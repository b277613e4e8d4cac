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

// tail: writes beside reads over two TCP connections. One client appends
// open-loop at a fixed rate well under one connection's capacity, mostly
// unforced with every 8th append forced, to 8 logs under one topic
// directory; a Watch on that directory (its own connection) is the
// reader. Setup writes churned history and retires it; one CompactOnce
// pass runs in-process half way through, as `cliod -compact-interval`
// would. It shares the append path with ingest but has a lone writer and a
// woken subscriber, so a batching change that delays the publish, or a
// compaction that stalls the foreground, shows here.
const (
	tailTopic      = "/topic"
	tailLogs       = 8
	tailSize       = 64
	tailForceEvery = 8
	tailChurnDirs  = 4
	tailWarm       = 200 // appends before the subscription opens
	tailTag        = 7
)

type tailState struct {
	st    *shard.Store
	dir   string
	ids   []logapi.ID
	paths []string
}

func tailSetup(ctx context.Context, k stack, dir string, p params) (*tailState, error) {
	st, err := k.create(dir)
	if err != nil {
		return nil, err
	}
	s := &tailState{st: st, dir: dir}
	churnDirs, err := balancedDirs(st, "k", tailChurnDirs)
	if err != nil {
		return nil, err
	}
	var churn []string
	byShard := make([][]logapi.ID, st.Shards())
	for _, d := range churnDirs {
		for j := 0; j < 8; j++ {
			path := fmt.Sprintf("%s/l%d", d, j)
			id, err := createLog(ctx, st, path)
			if err != nil {
				return nil, err
			}
			churn = append(churn, path)
			byShard[id.Shard()] = append(byShard[id.Shard()], id)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, st.Shards())
	for sh := range byShard {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(p.seed*37 + int64(sh)))
			buf := make([]byte, tailSize)
			for i := 0; i < p.tailChurn/len(byShard); i++ {
				id := byShard[sh][rng.Intn(len(byShard[sh]))]
				if _, err := st.Append(ctx, id, payload(buf, p.seed, uint64(100+sh), uint64(i)), core.AppendOptions{}); err != nil {
					errs[sh] = fmt.Errorf("churn load: %w", err)
					return
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
	for _, path := range churn {
		if err := st.Retire(ctx, path); err != nil {
			return nil, err
		}
	}
	for j := 0; j < tailLogs; j++ {
		path := fmt.Sprintf("%s/t%d", tailTopic, j)
		id, err := createLog(ctx, st, path)
		if err != nil {
			return nil, err
		}
		s.ids = append(s.ids, id)
		s.paths = append(s.paths, path)
	}
	if err := st.Force(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

func runTail(ctx context.Context, p params, k stack) (*outcome, error) {
	o := newOutcome()
	var s *tailState
	var setups []float64
	for i := 0; i < p.setups; i++ {
		if s != nil {
			s.st.Close()
			os.RemoveAll(s.dir)
		}
		t0 := time.Now()
		var err error
		if s, err = tailSetup(ctx, k, filepath.Join(p.work, fmt.Sprintf("tail-%d", i)), p); err != nil {
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

	srv := server.NewStore(st)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); srv.Serve(ln) }()
	stopServer := func() { srv.Close(); <-serveDone }
	writer, err := client.DialContext(ctx, ln.Addr().String(), client.Options{})
	if err != nil {
		stopServer()
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.seed*7 + 3))
	buf := make([]byte, tailSize)
	for i := 0; i < tailWarm; i++ {
		opts := core.AppendOptions{Forced: i%tailForceEvery == tailForceEvery-1}
		if _, err := writer.Append(ctx, s.ids[rng.Intn(tailLogs)], payload(buf, p.seed, tailTag-1, uint64(i)), opts); err != nil {
			writer.Close()
			stopServer()
			return nil, fmt.Errorf("warm-up append: %w", err)
		}
	}
	sub, err := writer.Watch(ctx, tailTopic, logapi.WatchOptions{})
	if err != nil {
		writer.Close()
		stopServer()
		return nil, err
	}

	n := int(math.Ceil(p.tailRate * p.seconds))
	interval := time.Duration(float64(time.Second) / p.tailRate)
	var ph phase
	var win *windowSampler
	if k.tr != nil {
		win = startWindowSampler(st)
	}
	ph.a = snap(st)
	length := time.Duration(p.seconds * float64(time.Second))
	start := time.Now().Add(10 * time.Millisecond)
	due := func(i int) time.Time { return start.Add(time.Duration(i) * interval) }

	// Subscriber: records what arrives; the checks run afterwards.
	type delivery struct {
		seq uint64
		at  time.Time
		ok  bool
	}
	var recv []delivery
	var recvErr error
	subDone := make(chan struct{})
	subCtx, cancelSub := context.WithCancel(ctx)
	defer cancelSub()
	go func() {
		defer close(subDone)
		for len(recv) < n {
			e, err := sub.Recv(subCtx)
			if err != nil {
				recvErr = err
				return
			}
			at := time.Now()
			tag, seq, ok := checkPayload(e.Data, p.seed, tailSize)
			recv = append(recv, delivery{seq, at, ok && tag == tailTag})
		}
	}()

	// Compaction half way through, in-process.
	var compactT0, compactT1 time.Time
	var compactRes core.CompactResult
	var compactErr error
	compactDone := make(chan struct{})
	go func() {
		defer close(compactDone)
		time.Sleep(time.Until(start.Add(time.Duration(p.seconds * float64(time.Second) / 2))))
		compactT0 = time.Now()
		compactRes, compactErr = st.CompactOnce(ctx, core.CompactOptions{})
		compactT1 = time.Now()
	}()

	var appendLat, late lat
	retAt := make([]time.Time, n)
	sent := 0
	for i := 0; i < n; i++ {
		d := due(i)
		if w := time.Until(d); w > 0 {
			time.Sleep(w)
		}
		late.add(time.Since(d))
		opts := core.AppendOptions{Forced: i%tailForceEvery == tailForceEvery-1}
		o.attempted++
		_, err := writer.Append(ctx, s.ids[rng.Intn(tailLogs)], payload(buf, p.seed, tailTag, uint64(i)), opts)
		retAt[i] = time.Now()
		if err != nil {
			o.fail("append %d: %v", i, err)
			break
		}
		appendLat.add(retAt[i].Sub(d))
		sent++
	}
	// Make the unforced tail durable, so the crash below loses nothing
	// the oracle expects.
	if err := writer.Force(ctx); err != nil {
		o.fail("final force: %v", err)
	}
	<-compactDone
	select {
	case <-subDone:
	case <-time.After(10 * time.Second):
		cancelSub()
		<-subDone
	}
	ph.b = snap(st)
	if win != nil {
		ph.window = win.finish()
	}
	sub.Close()
	writer.Close()
	stopServer()
	if compactErr != nil {
		o.fail("compaction: %v", compactErr)
	}
	// Every sent entry exactly once, in seal order: with one writer
	// issuing appends one at a time, seal order is send order.
	var deliver series
	var lag lat
	next := 0
	for _, d := range recv {
		switch {
		case !d.ok:
			o.fail("delivery after seq %d: foreign or damaged entry", next-1)
		case d.seq < uint64(next) || d.seq >= uint64(sent):
			o.fail("seq %d delivered again or out of order (expected %d)", d.seq, next)
		default:
			for ; next < int(d.seq); next++ {
				o.fail("seq %d never delivered", next)
			}
			deliver.add(due(next).Sub(start), d.at.Sub(due(next)))
			lag.add(d.at.Sub(retAt[next]))
			next++
		}
	}
	for ; next < sent; next++ {
		o.fail("seq %d never delivered (recv error %v)", next, recvErr)
	}
	for i := 0; i < sent; i++ {
		if d := due(i); !d.Before(compactT0) && d.Before(compactT1) {
			ph.appendDuring.add(retAt[i].Sub(d))
		} else {
			ph.appendOutside.add(retAt[i].Sub(d))
		}
	}

	// Oracle, durable half: after a crash and reopen the topic holds the
	// delivered entries in the order they were delivered.
	st, afterS, err := k.recoverCycles(st, s.dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	perLog := tailOracle(ctx, o, st, s, p.seed, sent)

	o.setE2E(median(setups), deliver, deliver, ph.a, ph.b, spaceRatio(ph.a, ph.b))
	o.add("tail.ops_per_s", deliver.opsPerSecond(length), "1/s")
	o.add("tail.offered_per_s", p.tailRate, "1/s")
	o.add("tail.append_p50_us", appendLat.pct(0.5), "us")
	o.add("tail.append_p99_us", appendLat.pct(0.99), "us")
	o.add("tail.deliver_p50_us", deliver.dur.pct(0.5), "us")
	o.add("tail.deliver_p99_us", deliver.dur.pct(0.99), "us")
	o.add("tail.deliver_samples", float64(len(deliver.at)), "count")
	o.add("tail.generator_late_p50_us", late.pct(0.5), "us")
	o.add("tail.generator_late_p99_us", late.pct(0.99), "us")
	o.add("tail.generator_late_max_us", late.pct(1), "us")
	o.add("tail.compact_pass_s", compactT1.Sub(compactT0).Seconds(), "s")
	o.add("tail.append_p99_during_compact_us", ph.appendDuring.pct(0.99), "us")
	o.add("tail.append_p99_outside_compact_us", ph.appendOutside.pct(0.99), "us")
	o.add("tail.volumes_demoted", float64(compactRes.VolumesDemoted), "count")
	o.add("tail.recover_s", recoverS, "s")
	o.add("tail.recover_after_run_s", afterS, "s")
	o.add("tail.bytes_per_user_byte", spaceRatio(ph.a, ph.b), "ratio")
	o.addCommitShape("tail", ph.a, ph.b)
	o.addHost(ph.a, ph.b)

	if k.tr != nil {
		ph.ops = int64(len(deliver.at))
		ph.streamLag = lag
		ph.compactS, ph.compactBytes = compactT1.Sub(compactT0).Seconds(), compactRes.BytesCopied
		spec := replaySpec{size: tailSize}
		rs := sampleReads(s.paths, perLog, p.seed)
		spec.locates, spec.reads = rs.locates, rs.reads
		if err := replay(ctx, o, st, k.tr, &ph, spec, p.seed); err != nil {
			return nil, err
		}
		layerMetrics(o, k.tr, &ph)
	}
	return o, nil
}

// tailOracle reads the topic back and checks it holds the run's sent
// entries in send order. It returns each topic log's first entries for
// the layer replay.
func tailOracle(ctx context.Context, o *outcome, st *shard.Store, s *tailState, seed int64, sent int) [][]*core.Entry {
	logOf := make(map[logapi.ID]int)
	for i, id := range s.ids {
		logOf[id] = i
	}
	perLog := make([][]*core.Entry, tailLogs)
	cur, err := st.OpenCursor(ctx, tailTopic)
	if err != nil {
		o.fail("oracle cursor: %v", err)
		return perLog
	}
	defer cur.Close()
	next := 0
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
		tag, seq, okp := checkPayload(e.Data, seed, tailSize)
		if !ok || !okp {
			o.fail("topic entry with foreign log or bad bytes")
			continue
		}
		if len(perLog[li]) < 512 {
			c := *e
			c.Data = append([]byte(nil), e.Data...)
			perLog[li] = append(perLog[li], &c)
		}
		if tag != tailTag {
			continue // warm-up
		}
		if seq != uint64(next) {
			o.fail("topic entry %d where %d was sent", seq, next)
		}
		next = int(seq) + 1
	}
	if next < sent {
		o.fail("topic holds %d of %d sent entries after recovery", next, sent)
	}
	return perLog
}
