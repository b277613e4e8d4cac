package clio_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"clio/internal/client"
	"clio/internal/core"
	"clio/internal/faults"
	"clio/internal/scrub"
	"clio/internal/server"
	"clio/internal/volume"
	"clio/internal/wodev"
)

// TestChaos drives the full stack — reconnecting client, wire protocol,
// server sessions, core service, write-once devices — through seeded
// transient device faults, connection kills and service crashes, and then
// verifies the end-to-end contract: no acknowledged-durable entry is lost,
// no entry is duplicated, and every log holds exactly what was written to
// it, in order. Skipped with -short.
//
// The durability model matches TestSoak: an append acknowledged at or
// before a forced append is durable; unforced acknowledgements since the
// last force may be lost by a crash (prefix durability); an append whose
// call failed with a transient/ambiguous error may or may not have
// executed — it must appear at most once.
func TestChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	const (
		enableDamage = true
		logs         = 4
		blockSz      = 512
		volCap       = 256 // blocks per volume -> several volume transitions
	)
	rng := rand.New(rand.NewSource(20260805))

	// Every device in the stack is wrapped in a transient-fault injector.
	// MaxConsecutive(2) keeps runs of injected faults inside the core retry
	// budget, so steady-state traffic is fully masked.
	var devMu sync.Mutex
	var injectors []*wodev.Injector
	var bases []*wodev.MemDevice
	var devs []wodev.Device
	addDevice := func() wodev.Device {
		devMu.Lock()
		defer devMu.Unlock()
		base := wodev.NewMem(wodev.MemOptions{BlockSize: blockSz, Capacity: volCap})
		f := wodev.Inject(base, int64(7700+len(injectors)))
		f.Sleep = func(time.Duration) {}
		f.FailReads(0.04)
		f.FailAppends(0.04)
		f.Spike(0.01, time.Microsecond)
		f.MaxConsecutive(2)
		bases = append(bases, base)
		injectors = append(injectors, f)
		devs = append(devs, f)
		return f
	}
	pauseAll := func() {
		devMu.Lock()
		defer devMu.Unlock()
		for _, f := range injectors {
			f.Pause()
		}
	}
	resumeAll := func() {
		devMu.Lock()
		defer devMu.Unlock()
		for _, f := range injectors {
			f.Resume()
		}
	}
	deviceList := func() []wodev.Device {
		devMu.Lock()
		defer devMu.Unlock()
		return append([]wodev.Device(nil), devs...)
	}

	var now int64
	var nowMu sync.Mutex
	opt := core.Options{
		BlockSize: blockSz, Degree: 8, NVRAM: core.NewMemNVRAM(),
		// -checkpoint-interval > 0 makes every simulated restart recover
		// through the checkpoint path (restore + bounded replay) under the
		// same fault injection; the end-to-end contract must be unchanged.
		CheckpointInterval: *ckptInterval,
		Retry: &faults.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond,
			MaxDelay: time.Microsecond, Sleep: func(time.Duration) {}},
		Now: func() int64 { nowMu.Lock(); defer nowMu.Unlock(); now += 1000; return now },
		Allocate: func(_ volume.SeqID, _ uint32, _ uint64, _ int) (wodev.Device, error) {
			return addDevice(), nil
		},
	}
	svc, err := core.New(addDevice(), opt)
	if err != nil {
		t.Fatal(err)
	}

	// The server is replaced on every simulated process restart; the
	// client's dialer always reaches the current instance.
	var srvMu sync.Mutex
	srv := server.New(svc)
	currentServer := func() *server.Server {
		srvMu.Lock()
		defer srvMu.Unlock()
		return srv
	}
	defer func() { currentServer().Close() }()
	dialer := func(ctx context.Context) (net.Conn, error) {
		cConn, sConn := net.Pipe()
		go currentServer().ServeConn(sConn)
		return cConn, nil
	}
	cl, err := client.DialContext(context.Background(), "", client.Options{
		Dialer: dialer,
		Retry: &faults.RetryPolicy{MaxAttempts: 8, BaseDelay: 10 * time.Microsecond,
			MaxDelay: 10 * time.Microsecond, Sleep: func(time.Duration) {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	bg := context.Background()
	ids := make([]client.ID, logs)
	for i := range ids {
		id, err := cl.CreateLog(bg, fmt.Sprintf("/log%d", i), 0, "")
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	const workers = 3
	concIDs := make([]client.ID, workers)
	for i := range concIDs {
		id, err := cl.CreateLog(bg, fmt.Sprintf("/conc%d", i), 0, "")
		if err != nil {
			t.Fatal(err)
		}
		concIDs[i] = id
	}

	// Per-log model, as in TestSoak: written records every payload by its
	// never-reused sequence number; durable records those covered by a
	// forced acknowledgement; unflushed is the suffix a crash may lose.
	// Appends whose call failed are in written only: "maybe" entries.
	written := make([]map[int]string, logs)
	durable := make([]map[int]bool, logs)
	var unflushed [][2]int
	nextSeq := make([]int, logs)
	for w := range written {
		written[w] = make(map[int]string)
		durable[w] = make(map[int]bool)
	}
	flush := func() {
		for _, ws := range unflushed {
			durable[ws[0]][ws[1]] = true
		}
		unflushed = nil
	}

	var failedCalls, ambiguous, degraded, damaged int
	note := make(map[[2]int]string) // debug: where each (log, seq) came from
	// op performs one modeled append (plus an occasional read probe).
	op := func(i int) {
		w := rng.Intn(logs)
		seq := nextSeq[w]
		nextSeq[w]++
		payload := fmt.Sprintf("log%d-%06d-%s", w, seq, string(make([]byte, rng.Intn(200))))
		forced := rng.Intn(8) == 0
		_, err := cl.Append(bg, ids[w], []byte(payload), client.AppendOptions{
			Timestamped: rng.Intn(2) == 0, Forced: forced,
		})
		written[w][seq] = payload
		note[[2]int{w, seq}] = fmt.Sprintf("op %d forced=%v err=%v", i, forced, err)
		switch {
		case err == nil || client.IsDegraded(err):
			if client.IsDegraded(err) {
				degraded++
			}
			unflushed = append(unflushed, [2]int{w, seq})
			if forced {
				flush()
			}
		default:
			// The call failed: the append may or may not have executed on
			// the server (response lost past the retry budget, or an
			// epoch change mid-flight). It must never become durable, and
			// the final scan verifies it appears at most once.
			failedCalls++
			var amb *client.AmbiguousError
			if errors.As(err, &amb) {
				ambiguous++
			} else if faults.Classify(err) != faults.Transient {
				t.Fatalf("op %d: non-transient append failure: %v", i, err)
			}
		}
		if i%50 == 0 {
			if _, err := cl.Stat(bg, fmt.Sprintf("/log%d", w)); err != nil &&
				faults.Classify(err) != faults.Transient {
				t.Fatalf("op %d: stat: %v", i, err)
			}
		}
	}

	// Phase A: steady traffic over flaky devices. Every fault is masked by
	// the core retry policy, so every call must succeed.
	for i := 0; i < 800; i++ {
		op(i)
	}
	if failedCalls != 0 {
		t.Fatalf("phase A: %d calls failed under masked device faults", failedCalls)
	}

	// Phase B: a killer goroutine severs the client's connection at random
	// while traffic continues, and concurrent worker clients drive forced
	// appends to their own logs over their own connections — exercising the
	// server's pipelined dispatch, the duplicate-suppression window under
	// replay, and group commit in the core. The main client reconnects and
	// replays in-flight requests under their original sequence numbers.
	type workerAck struct {
		seq     int
		payload string
	}
	ackedConc := make([][]workerAck, workers)
	workerClients := make([]*client.Client, workers)
	for wk := range workerClients {
		wcl, err := client.DialContext(bg, "", client.Options{
			Dialer: dialer,
			Retry: &faults.RetryPolicy{MaxAttempts: 8, BaseDelay: 10 * time.Microsecond,
				MaxDelay: 10 * time.Microsecond, Sleep: func(time.Duration) {}},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer wcl.Close()
		workerClients[wk] = wcl
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		killRng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Duration(500+killRng.Intn(2000)) * time.Microsecond):
				currentServer().KillConns()
			}
		}
	}()
	var workerWg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		workerWg.Add(1)
		go func(wk int) {
			defer workerWg.Done()
			for seq := 0; seq < 120; seq++ {
				payload := fmt.Sprintf("conc%d-%06d", wk, seq)
				_, err := workerClients[wk].Append(bg, concIDs[wk], []byte(payload),
					client.AppendOptions{Forced: true})
				if err == nil || client.IsDegraded(err) {
					// Forced acknowledgement: durable immediately, so the
					// model survives the crash rounds of phase C.
					ackedConc[wk] = append(ackedConc[wk], workerAck{seq, payload})
					continue
				}
				var amb *client.AmbiguousError
				if errors.As(err, &amb) || faults.Classify(err) == faults.Transient {
					continue // maybe-executed: must appear at most once
				}
				t.Errorf("worker %d seq %d: non-transient failure: %v", wk, seq, err)
				return
			}
		}(wk)
	}
	for i := 800; i < 1600; i++ {
		op(i)
	}
	workerWg.Wait()
	close(stop)
	wg.Wait()
	if cl.Reconnects() < 2 {
		t.Fatalf("phase B: Reconnects = %d, connection kills never landed", cl.Reconnects())
	}

	// Phase C: full process crashes. Each round runs traffic, damages the
	// next unwritten block on the tail device (so a later append must
	// relocate and complete degraded), then crashes the service and
	// restarts the server: a new epoch, no session state, recovery from
	// the media plus the NVRAM tail.
	crashes := 0
	for round := 0; round < 6; round++ {
		for i := 0; i < 250; i++ {
			op(1600 + round*250 + i)
		}
		// Force to seal the tail, then pre-damage the next block.
		sealSeq := nextSeq[0]
		nextSeq[0]++
		sealPayload := fmt.Sprintf("log0-%06d-", sealSeq)
		_, serr := cl.Append(bg, ids[0], []byte(sealPayload), client.AppendOptions{Forced: true})
		written[0][sealSeq] = sealPayload
		note[[2]int{0, sealSeq}] = fmt.Sprintf("seal round %d err=%v", round, serr)
		switch {
		case serr == nil || client.IsDegraded(serr):
			if client.IsDegraded(serr) {
				degraded++
			}
			unflushed = append(unflushed, [2]int{0, sealSeq})
			flush()
		default:
			failedCalls++
			var amb *client.AmbiguousError
			if errors.As(serr, &amb) {
				ambiguous++
			} else if faults.Classify(serr) != faults.Transient {
				t.Fatalf("round %d: sealing append: %v", round, serr)
			}
		}
		devMu.Lock()
		tail := bases[len(bases)-1]
		if enableDamage && tail.Written() < volCap {
			if err := tail.Damage(tail.Written(), nil); err == nil {
				damaged++
			}
		}
		devMu.Unlock()
		for i := 0; i < 30; i++ {
			op(5000 + round*30 + i)
		}

		// Crash: the server dies with its sessions, the service loses its
		// in-memory state, and unforced acknowledgements become "maybe".
		currentServer().Close()
		svc.Crash()
		crashes++
		unflushed = nil
		pauseAll() // recovery reads the media without a retry layer above it
		svc, err = core.Open(deviceList(), opt)
		if err != nil {
			t.Fatalf("recovery %d: %v", crashes, err)
		}
		resumeAll()
		srvMu.Lock()
		srv = server.New(svc)
		srvMu.Unlock()
	}

	if err := svc.Force(); err != nil {
		t.Fatal(err)
	}
	flush()
	if degraded == 0 && damaged > 0 {
		t.Errorf("damaged %d tail blocks but no append ever reported degraded", damaged)
	}
	devMu.Lock()
	volumes := len(devs)
	devMu.Unlock()
	if volumes < 3 {
		t.Fatalf("only %d volumes used", volumes)
	}
	t.Logf("chaos: %d crashes, %d reconnects, %d failed calls (%d ambiguous), %d degraded, %d volumes",
		crashes, cl.Reconnects(), failedCalls, ambiguous, degraded, volumes)

	// Verification over the wire, through the same reconnecting client:
	// strictly increasing never-reused sequence numbers (an entry executed
	// twice would repeat one), byte-exact payloads, every durable entry
	// present. "Maybe" entries pass either way — present once or absent.
	for w := 0; w < logs; w++ {
		cur, err := cl.OpenCursor(bg, fmt.Sprintf("/log%d", w))
		if err != nil {
			t.Fatal(err)
		}
		lastSeq := -1
		seen := make(map[int]bool)
		for {
			e, err := cur.Next(bg)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			var gotLog, seq int
			if _, serr := fmt.Sscanf(string(e.Data), "log%d-%06d-", &gotLog, &seq); serr != nil {
				t.Fatalf("log%d: unparseable entry %.30q", w, e.Data)
			}
			if gotLog != w {
				t.Fatalf("log%d: foreign entry from log%d", w, gotLog)
			}
			if seq <= lastSeq {
				t.Fatalf("log%d: seq %d after %d (duplicate or reordering)", w, seq, lastSeq)
			}
			lastSeq = seq
			if want := written[w][seq]; string(e.Data) != want {
				t.Fatalf("log%d seq %d: content mismatch (%d vs %d bytes)",
					w, seq, len(e.Data), len(want))
			}
			seen[seq] = true
		}
		for seq := range durable[w] {
			if !seen[seq] {
				t.Fatalf("log%d: durable seq %d missing (%s)", w, seq, note[[2]int{w, seq}])
			}
		}
		cur.Close()
	}

	// The concurrent workers' logs: every acknowledged forced append is
	// present exactly once (the strictly-increasing check covers "exactly"),
	// in order, across the phase-C crashes.
	for wk := 0; wk < workers; wk++ {
		cur, err := cl.OpenCursor(bg, fmt.Sprintf("/conc%d", wk))
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]bool)
		lastSeq := -1
		for {
			e, err := cur.Next(bg)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			var gotW, seq int
			if _, serr := fmt.Sscanf(string(e.Data), "conc%d-%06d", &gotW, &seq); serr != nil {
				t.Fatalf("conc%d: unparseable entry %.30q", wk, e.Data)
			}
			if gotW != wk {
				t.Fatalf("conc%d: foreign entry from worker %d", wk, gotW)
			}
			if seq <= lastSeq {
				t.Fatalf("conc%d: seq %d after %d (duplicate or reordering)", wk, seq, lastSeq)
			}
			lastSeq = seq
			seen[seq] = true
		}
		for _, a := range ackedConc[wk] {
			if !seen[a.seq] {
				t.Fatalf("conc%d: acknowledged forced seq %d missing", wk, a.seq)
			}
		}
		cur.Close()
	}

	// Media-level verification: beyond crash debris and the deliberately
	// damaged (and since relocated-around) blocks, the media must scrub
	// clean.
	currentServer().Close()
	svc.Crash()
	pauseAll()
	rep, err := scrub.Volumes(deviceList(), scrub.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Problems {
		if p.Kind == "torn-chain" || p.Kind == "orphan-fragment" {
			continue // legitimate crash debris
		}
		t.Errorf("scrub: %s", p)
	}
	if rep.Damaged > damaged {
		t.Errorf("scrub found %d damaged blocks, injected only %d", rep.Damaged, damaged)
	}
}
