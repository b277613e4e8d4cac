package core

import (
	"io"
	"sync"
	"testing"
	"time"

	"clio/internal/blockfmt"
)

// TestTailNotifyWake: a reader blocked at the tail is woken by the next
// publish — no polling — and then sees the new entry.
func TestTailNotifyWake(t *testing.T) {
	s, _ := newTestService(t, Options{NVRAM: NewMemNVRAM()})
	defer s.Close()
	id := mustCreate(t, s, "/log")
	mustAppend(t, s, id, "before", AppendOptions{Forced: true})

	c, err := s.OpenCursor("/log")
	if err != nil {
		t.Fatal(err)
	}
	c.SeekEnd()
	seq := s.TailSeq()
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("expected EOF at the tail, got %v", err)
	}

	got := make(chan string, 1)
	go func() {
		<-s.TailNotify(seq)
		e, err := c.Next()
		if err != nil {
			got <- "err: " + err.Error()
			return
		}
		got <- string(e.Data)
	}()
	// Give the waiter time to block, then publish.
	time.Sleep(10 * time.Millisecond)
	mustAppend(t, s, id, "after", AppendOptions{Forced: true})
	select {
	case d := <-got:
		if d != "after" {
			t.Fatalf("woke with %q, want %q", d, "after")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tail waiter never woke after publish")
	}
}

// TestTailNotifyNoLostWakeup: the check-then-wait protocol — read TailSeq,
// scan, then TailNotify — must not lose a publish that lands between the
// scan and the wait. Hammer the interleaving with a tight appender.
func TestTailNotifyNoLostWakeup(t *testing.T) {
	s, _ := newTestService(t, Options{NVRAM: NewMemNVRAM()})
	defer s.Close()
	id := mustCreate(t, s, "/log")

	const n = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			mustAppend(t, s, id, "x", AppendOptions{Forced: true})
		}
	}()

	c, err := s.OpenCursor("/log")
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	deadline := time.After(30 * time.Second)
	for seen < n {
		seq := s.TailSeq()
		e, err := c.Next()
		if err == nil {
			_ = e
			seen++
			continue
		}
		if err != io.EOF {
			t.Fatalf("Next: %v", err)
		}
		select {
		case <-s.TailNotify(seq):
		case <-deadline:
			t.Fatalf("lost wakeup: saw %d/%d entries", seen, n)
		}
	}
	wg.Wait()
}

// TestTailNotifyClose: Close wakes blocked waiters.
func TestTailNotifyClose(t *testing.T) {
	s, _ := newTestService(t, Options{NVRAM: NewMemNVRAM()})
	id := mustCreate(t, s, "/log")
	mustAppend(t, s, id, "x", AppendOptions{Forced: true})

	seq := s.TailSeq()
	done := make(chan struct{})
	go func() {
		<-s.TailNotify(seq)
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not woken by Close")
	}
}

// TestTailNotifyIdleFree: with no waiter installed, a publish must not
// allocate or touch anything beyond one atomic load (the perf gate for the
// force path). Indirectly assert: no waiter channel survives a publish.
func TestTailNotifyIdleFree(t *testing.T) {
	s, _ := newTestService(t, Options{NVRAM: NewMemNVRAM()})
	defer s.Close()
	id := mustCreate(t, s, "/log")
	mustAppend(t, s, id, "x", AppendOptions{Forced: true})
	if s.tailWake.Load() != nil {
		t.Fatal("idle publish left a waiter channel installed")
	}
}

// TestSeekEndStagedTail: SeekEnd with a staged partial tail block parks
// inside the block, so entries appended to that same block afterwards are
// still returned (the regression the live-tail path depends on).
func TestSeekEndStagedTail(t *testing.T) {
	s, _ := newTestService(t, Options{NVRAM: NewMemNVRAM()})
	defer s.Close()
	id := mustCreate(t, s, "/log")
	// Forced append stages a partial tail block in NVRAM.
	mustAppend(t, s, id, "old", AppendOptions{Forced: true})

	c, err := s.OpenCursor("/log")
	if err != nil {
		t.Fatal(err)
	}
	c.SeekEnd()
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("expected EOF right after SeekEnd, got %v", err)
	}
	// This lands in the SAME staged tail block.
	mustAppend(t, s, id, "new1", AppendOptions{Forced: true})
	mustAppend(t, s, id, "new2", AppendOptions{Forced: true})
	for _, want := range []string{"new1", "new2"} {
		e, err := c.Next()
		if err != nil {
			t.Fatalf("Next after tail growth: %v", err)
		}
		if string(e.Data) != want {
			t.Fatalf("got %q, want %q", e.Data, want)
		}
	}
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("expected EOF at the new end, got %v", err)
	}
}

// TestSeekEndPrevStagedTail: after SeekEnd, Prev returns the last written
// entry even when it lives in the staged tail block.
func TestSeekEndPrevStagedTail(t *testing.T) {
	s, _ := newTestService(t, Options{NVRAM: NewMemNVRAM()})
	defer s.Close()
	id := mustCreate(t, s, "/log")
	mustAppend(t, s, id, "a", AppendOptions{Forced: true})
	mustAppend(t, s, id, "b", AppendOptions{Forced: true})

	c, err := s.OpenCursor("/log")
	if err != nil {
		t.Fatal(err)
	}
	c.SeekEnd()
	e, err := c.Prev()
	if err != nil {
		t.Fatalf("Prev after SeekEnd: %v", err)
	}
	if string(e.Data) != "b" {
		t.Fatalf("Prev got %q, want %q", e.Data, "b")
	}
}

// TestSeekEndNoTail: without NVRAM there is no staged tail; SeekEnd parks
// at the sealed end and still observes later appends.
func TestSeekEndNoTail(t *testing.T) {
	s, _ := newTestService(t, Options{})
	defer s.Close()
	id := mustCreate(t, s, "/log")
	mustAppend(t, s, id, "old", AppendOptions{Forced: true})

	c, err := s.OpenCursor("/log")
	if err != nil {
		t.Fatal(err)
	}
	c.SeekEnd()
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
	mustAppend(t, s, id, "new", AppendOptions{Forced: true})
	e, err := c.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if string(e.Data) != "new" {
		t.Fatalf("got %q, want %q", e.Data, "new")
	}
}

// TestIdleWakeFree pins the streaming notifier's marginal cost on the
// group-commit path when nobody is subscribed: a counter bump and one
// atomic load — no allocation, no lock. This is what keeps
// BenchmarkForcedAppendParallel's seals/force unchanged with an idle
// subscriber registry.
func TestIdleWakeFree(t *testing.T) {
	s, _ := newTestService(t, Options{})
	defer s.Close()
	if n := testing.AllocsPerRun(1000, func() {
		s.pubSeq.Add(1)
		s.wakeTail()
	}); n != 0 {
		t.Fatalf("idle tail publish allocates %v times per run, want 0", n)
	}
}

// writeFragment appends one raw record of a (possibly fragmented) entry to
// the staged tail, the way appendEntryLocked does; s.mu held.
func writeFragment(t *testing.T, s *Service, id uint16, data string, continued, continues bool) {
	t.Helper()
	if err := s.ensureTailLocked(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.builder.FirstTimestamp(); !ok {
		s.builder.SetFirstTimestamp(s.nextTS(false))
	}
	form := uint8(blockfmt.FormMinimal)
	if err := s.builder.Append(blockfmt.Record{LogID: id, Form: form,
		Continued: continued, Continues: continues, Data: []byte(data)}); err != nil {
		t.Fatal(err)
	}
	s.tailDirty = true
	s.tailIDs[id] = true
}

// TestOpenChainAtTailIsNotSkipped: a fragmented entry whose first
// fragment is sealed while the writer has not yet written its
// continuation is the end of the log for a cursor, not a torn entry to
// skip; once the chain completes the cursor returns it whole. A chain
// broken inside sealed history stays torn and is skipped even while
// another append is mid-chain.
func TestOpenChainAtTailIsNotSkipped(t *testing.T) {
	s, _ := newTestService(t, Options{})
	defer s.Close()
	id := mustCreate(t, s, "/chain")
	mustAppend(t, s, id, "first", AppendOptions{})
	c, err := s.OpenCursor("/chain")
	if err != nil {
		t.Fatal(err)
	}
	if e, err := c.Next(); err != nil || string(e.Data) != "first" {
		t.Fatalf("Next = %v, %v", e, err)
	}

	// The writer, mid-chain: head fragment sealed, continuation pending.
	s.mu.Lock()
	s.midChain = true
	writeFragment(t, s, id, "head-", false, true)
	if err := s.sealTailLocked(false); err != nil {
		t.Fatal(err)
	}
	if err := s.ensureTailLocked(); err != nil {
		t.Fatal(err)
	}
	s.mu.Unlock()
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("Next with the chain open = %v, want EOF", err)
	}

	s.mu.Lock()
	writeFragment(t, s, id, "tail", true, false)
	s.endChainLocked()
	if err := s.stageTailLocked(false); err != nil {
		t.Fatal(err)
	}
	s.mu.Unlock()
	if e, err := c.Next(); err != nil || string(e.Data) != "head-tail" {
		t.Fatalf("Next after the chain completed = %v, %v", e, err)
	}

	// A torn chain in sealed history: its continuation block holds another
	// entry instead. With an unrelated append mid-chain, the cursor still
	// skips the torn entry and reads on.
	s.mu.Lock()
	writeFragment(t, s, id, "torn-", false, true)
	if err := s.sealTailLocked(false); err != nil {
		t.Fatal(err)
	}
	writeFragment(t, s, id, "after", false, false)
	if err := s.sealTailLocked(false); err != nil {
		t.Fatal(err)
	}
	s.midChain = true
	if err := s.ensureTailLocked(); err != nil {
		t.Fatal(err)
	}
	s.mu.Unlock()
	if e, err := c.Next(); err != nil || string(e.Data) != "after" {
		t.Fatalf("Next past a torn chain = %v, %v", e, err)
	}
	s.mu.Lock()
	s.endChainLocked()
	s.mu.Unlock()
}
