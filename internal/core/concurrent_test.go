package core

// Concurrency tests for the group-commit forced-append path and the
// lock-decomposed read path. Run them with -race; they are the directed
// counterparts of the repo-root chaos/soak tests.

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"clio/internal/faults"
	"clio/internal/wodev"
)

// latentMem returns a MemDevice wrapped with real write latency so that a
// sealing leader blocks long enough for concurrent forces to pile into its
// successor's batch — essential on a single-CPU runner, where fast
// uncontended loops otherwise never interleave.
func latentMem(blockSize int, writeDelay time.Duration) wodev.Device {
	dev := wodev.Inject(wodev.NewMem(wodev.MemOptions{BlockSize: blockSize, Capacity: 1 << 18}), 0)
	dev.Delay(writeDelay, 0)
	return dev
}

func lockedNow() func() int64 {
	var mu sync.Mutex
	var now int64
	return func() int64 {
		mu.Lock()
		defer mu.Unlock()
		now += 1000
		return now
	}
}

// TestPositiveCommitWindowRefused pins the two supported commit policies:
// 0 (adaptive) and negative (leader/rider queue). A fixed window is refused
// before the device is formatted.
func TestPositiveCommitWindowRefused(t *testing.T) {
	mem := wodev.NewMem(wodev.MemOptions{BlockSize: 1024, Capacity: 64})
	if _, err := New(mem, Options{BlockSize: 1024, CommitWindow: time.Millisecond}); err == nil {
		t.Fatal("New accepted a positive CommitWindow")
	}
	if mem.Written() != 0 {
		t.Fatalf("refused New still wrote %d blocks", mem.Written())
	}
	for _, cw := range []time.Duration{0, -1} {
		svc, err := New(wodev.NewMem(wodev.MemOptions{BlockSize: 1024, Capacity: 64}),
			Options{BlockSize: 1024, CommitWindow: cw})
		if err != nil {
			t.Fatalf("CommitWindow %v: %v", cw, err)
		}
		svc.Close()
	}
}

// TestConcurrentForcedAppendsDurableExactlyOnce drives many goroutines of
// forced appends through the group-commit path, then reopens the device as
// after a crash (no clean Close) and verifies every acknowledged entry is
// present exactly once with its acknowledged timestamp.
func TestConcurrentForcedAppendsDurableExactlyOnce(t *testing.T) {
	const goroutines = 16
	const perG = 40
	dev := latentMem(1024, 100*time.Microsecond)
	svc, err := New(dev, Options{BlockSize: 1024, Degree: 16, CacheBlocks: -1, Now: lockedNow()})
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.CreateLog("/gc", 0, "")
	if err != nil {
		t.Fatal(err)
	}

	type acked struct {
		payload string
		ts      int64
	}
	results := make([][]acked, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				payload := fmt.Sprintf("g%02d-i%03d", g, i)
				ts, err := svc.Append(id, []byte(payload), AppendOptions{Forced: true})
				if err != nil && !IsDegraded(err) {
					t.Errorf("append %s: %v", payload, err)
					return
				}
				results[g] = append(results[g], acked{payload, ts})
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	st := svc.Stats()
	if st.ForcedWrites != goroutines*perG {
		t.Fatalf("ForcedWrites = %d, want %d", st.ForcedWrites, goroutines*perG)
	}
	if st.GroupCommits == 0 || st.BatchedForces == 0 {
		t.Fatalf("no group commits formed (GroupCommits=%d BatchedForces=%d); "+
			"the test did not exercise batching", st.GroupCommits, st.BatchedForces)
	}
	if st.BlocksSealed >= st.ForcedWrites {
		t.Errorf("BlocksSealed = %d not amortized below ForcedWrites = %d",
			st.BlocksSealed, st.ForcedWrites)
	}
	t.Logf("forced=%d sealed=%d groupCommits=%d batchedForces=%d",
		st.ForcedWrites, st.BlocksSealed, st.GroupCommits, st.BatchedForces)

	// Acknowledged timestamps must be unique across the whole run.
	want := make(map[string]int64, goroutines*perG)
	seenTS := make(map[int64]string, goroutines*perG)
	for _, rs := range results {
		for _, a := range rs {
			if prev, dup := seenTS[a.ts]; dup {
				t.Fatalf("timestamp %d acknowledged twice: %q and %q", a.ts, prev, a.payload)
			}
			seenTS[a.ts] = a.payload
			want[a.payload] = a.ts
		}
	}

	// "Crash": abandon svc without Close and recover from the device alone.
	svc2, err := Open([]wodev.Device{dev}, Options{BlockSize: 1024, Degree: 16, CacheBlocks: -1, Now: lockedNow()})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer svc2.Close()
	got := readAllEntries(t, svc2, "/gc")
	for payload, ts := range want {
		n, ok := got[payload]
		if !ok {
			t.Errorf("acknowledged entry %q (ts %d) lost across crash", payload, ts)
		} else if n != 1 {
			t.Errorf("entry %q recovered %d times, want exactly once", payload, n)
		}
	}
	if len(got) != len(want) {
		t.Errorf("recovered %d distinct entries, want %d", len(got), len(want))
	}
}

// TestCrashMidBatchRecovery injects a crash at the tail seal (the
// core.seal.write fault point) while concurrent forced appends are
// batching, then reopens the device and verifies that every append
// acknowledged before the crash is present exactly once. Requests caught
// in the dying batch get ErrClosed (or the crash panic, for the leader)
// and make no durability claim.
func TestCrashMidBatchRecovery(t *testing.T) {
	const goroutines = 8
	dev := latentMem(1024, 100*time.Microsecond)
	reg := faults.NewRegistry()
	svc, err := New(dev, Options{BlockSize: 1024, Degree: 16, CacheBlocks: -1,
		Now: lockedNow(), Faults: reg})
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.CreateLog("/crash", 0, "")
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	acked := make(map[string]int64)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				payload := fmt.Sprintf("g%02d-i%04d", g, i)
				stopped := func() bool {
					// The leader whose batch hits the armed point unwinds
					// with the injected faults.Crash panic; treat it like
					// the process death it simulates.
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(faults.Crash); !ok {
								panic(r)
							}
						}
					}()
					ts, err := svc.Append(id, []byte(payload), AppendOptions{Forced: true})
					if err == nil || IsDegraded(err) {
						mu.Lock()
						acked[payload] = ts
						mu.Unlock()
						return false
					}
					if errors.Is(err, ErrClosed) {
						return true
					}
					t.Errorf("append %s: %v", payload, err)
					return true
				}()
				if stopped {
					return
				}
			}
		}(g)
	}

	// Let batches form, then arm the crash at the next tail-block write.
	time.Sleep(20 * time.Millisecond)
	reg.EnableCrash(FaultSealWrite, 1)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if reg.Fired(FaultSealWrite) != 1 {
		t.Fatalf("crash point fired %d times, want 1", reg.Fired(FaultSealWrite))
	}
	if len(acked) == 0 {
		t.Fatal("no appends were acknowledged before the crash")
	}

	// Reopen from the device alone and verify the acknowledged prefix.
	svc2, err := Open([]wodev.Device{dev}, Options{BlockSize: 1024, Degree: 16, CacheBlocks: -1, Now: lockedNow()})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer svc2.Close()
	got := readAllEntries(t, svc2, "/crash")
	for payload, ts := range acked {
		n, ok := got[payload]
		if !ok {
			t.Errorf("acknowledged entry %q (ts %d) lost across mid-batch crash", payload, ts)
		} else if n != 1 {
			t.Errorf("entry %q recovered %d times, want exactly once", payload, n)
		}
	}
	t.Logf("acked before crash: %d; distinct recovered: %d", len(acked), len(got))
}

// TestConcurrentReadersDuringAppends runs cursors over a growing log while
// writers (forced and unforced) append — under -race this exercises the
// tail-snapshot publication protocol and the lock-free sealed-block reads.
func TestConcurrentReadersDuringAppends(t *testing.T) {
	dev := latentMem(1024, 20*time.Microsecond)
	svc, err := New(dev, Options{BlockSize: 1024, Degree: 16, CacheBlocks: 64, Now: lockedNow()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	id, err := svc.CreateLog("/rw", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := svc.Append(id, []byte(fmt.Sprintf("seed-%04d", i)), AppendOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			forced := w == 0
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := svc.Append(id, []byte(fmt.Sprintf("w%d-%05d", w, i)),
					AppendOptions{Forced: forced}); err != nil && !IsDegraded(err) {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur, err := svc.OpenCursor("/rw")
			if err != nil {
				t.Errorf("open cursor: %v", err)
				return
			}
			var prev int64
			scanned := 0
			for scanned < 2000 {
				select {
				case <-stop:
					return
				default:
				}
				e, err := cur.Next()
				if err == io.EOF {
					cur.SeekStart()
					prev = 0
					continue
				}
				if err != nil {
					t.Errorf("cursor next: %v", err)
					return
				}
				if e.Timestamp < prev {
					t.Errorf("timestamps regressed: %d after %d", e.Timestamp, prev)
					return
				}
				prev = e.Timestamp
				scanned++
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// readAllEntries scans the named log from the start and returns payload
// occurrence counts.
func readAllEntries(t *testing.T, svc *Service, path string) map[string]int {
	t.Helper()
	cur, err := svc.OpenCursor(path)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]int)
	for {
		e, err := cur.Next()
		if err == io.EOF {
			return got
		}
		if err != nil {
			t.Fatalf("scan %s: %v", path, err)
		}
		got[string(e.Data)]++
	}
}
