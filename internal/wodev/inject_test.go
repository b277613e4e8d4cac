package wodev

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"clio/internal/faults"
)

func injectPair(t *testing.T) (*Injector, *MemDevice) {
	t.Helper()
	mem := NewMem(MemOptions{BlockSize: 64, Capacity: 128})
	return Inject(mem, 1), mem
}

func TestFlakyInjectsTransientErrors(t *testing.T) {
	f, mem := injectPair(t)
	f.FailAppends(1)
	data := make([]byte, 64)
	if _, err := f.AppendBlock(data); !errors.Is(err, ErrTransient) {
		t.Fatalf("AppendBlock = %v, want ErrTransient", err)
	}
	if mem.Written() != 0 {
		t.Fatalf("failed append reached the device: written=%d", mem.Written())
	}
	if faults.Classify(ErrTransient) != faults.Transient {
		t.Fatalf("ErrTransient classifies as %v", faults.Classify(ErrTransient))
	}

	f.FailAppends(0)
	idx, err := f.AppendBlock(data)
	if err != nil || idx != 0 {
		t.Fatalf("clean append: idx=%d err=%v", idx, err)
	}

	f.FailReads(1)
	dst := make([]byte, 64)
	if err := f.ReadBlock(0, dst); !errors.Is(err, ErrTransient) {
		t.Fatalf("ReadBlock = %v, want ErrTransient", err)
	}
	f.FailReads(0)
	if err := f.ReadBlock(0, dst); err != nil {
		t.Fatalf("clean read: %v", err)
	}

	st := f.Counts()
	if st.ReadFaults != 1 || st.AppendFaults != 1 {
		t.Fatalf("stats = %+v, want 1 read / 1 append fault", st)
	}
}

func TestFlakyMaxConsecutive(t *testing.T) {
	f, _ := injectPair(t)
	f.FailAppends(1)
	f.MaxConsecutive(3)
	data := make([]byte, 64)
	// With prob 1 but a run bound of 3, the 4th attempt must succeed.
	var failures int
	for i := 0; i < 4; i++ {
		if _, err := f.AppendBlock(data); err != nil {
			failures++
		} else {
			break
		}
	}
	if failures != 3 {
		t.Fatalf("saw %d consecutive failures before success, want 3", failures)
	}
}

func TestFlakyPauseResume(t *testing.T) {
	f, _ := injectPair(t)
	f.FailAppends(1)
	f.Pause()
	data := make([]byte, 64)
	if _, err := f.AppendBlock(data); err != nil {
		t.Fatalf("paused injector still injected: %v", err)
	}
	f.Resume()
	if _, err := f.AppendBlock(data); !errors.Is(err, ErrTransient) {
		t.Fatalf("resumed injector did not inject: %v", err)
	}
}

func TestFlakyLatencySpike(t *testing.T) {
	f, _ := injectPair(t)
	var slept []time.Duration
	f.Sleep = func(d time.Duration) { slept = append(slept, d) }
	f.Spike(1, 5*time.Millisecond)
	data := make([]byte, 64)
	if _, err := f.AppendBlock(data); err != nil {
		t.Fatalf("spiking append failed: %v", err)
	}
	if len(slept) != 1 || slept[0] != 5*time.Millisecond {
		t.Fatalf("slept = %v, want one 5ms spike", slept)
	}
	if f.Counts().Spikes != 1 {
		t.Fatalf("spike not counted: %+v", f.Counts())
	}
}

func TestFlakySeededDeterminism(t *testing.T) {
	run := func() []bool {
		mem := NewMem(MemOptions{BlockSize: 64, Capacity: 128})
		f := Inject(mem, 99)
		f.FailAppends(0.5)
		var outcomes []bool
		data := make([]byte, 64)
		for i := 0; i < 32; i++ {
			_, err := f.AppendBlock(data)
			outcomes = append(outcomes, err == nil)
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}
}

func TestFlakyRetryThrough(t *testing.T) {
	// End-to-end with the faults retry policy: a 50% flaky device with a
	// consecutive-run bound is always masked by a 4-attempt policy.
	f, mem := injectPair(t)
	f.FailAppends(0.5)
	f.MaxConsecutive(3)
	p := faults.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond,
		Sleep: func(time.Duration) {}}
	data := make([]byte, 64)
	for i := 0; i < 50; i++ {
		var idx int
		err := p.Do(func() error {
			var e error
			idx, e = f.AppendBlock(data)
			return e
		})
		if err != nil {
			t.Fatalf("append %d not masked: %v", i, err)
		}
		if idx != i {
			t.Fatalf("append %d landed at %d", i, idx)
		}
	}
	if mem.Written() != 50 {
		t.Fatalf("written = %d, want 50", mem.Written())
	}
}

func TestFaultyGarbageEvery(t *testing.T) {
	mem := NewMem(MemOptions{BlockSize: 128, Capacity: 64})
	f := Inject(mem, 42)
	f.GarbageEvery(3)
	for i := 0; i < 9; i++ {
		if _, err := f.AppendBlock(fill(128, byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	damaged := f.Damaged()
	if len(damaged) != 3 {
		t.Fatalf("damaged %v, want 3 blocks", damaged)
	}
	buf := make([]byte, 128)
	for _, idx := range damaged {
		if err := f.ReadBlock(idx, buf); err != nil {
			t.Fatalf("damaged read: %v", err)
		}
		if bytes.Equal(buf, fill(128, byte(idx+1))) {
			t.Errorf("block %d not actually damaged", idx)
		}
	}
}

// TestInjectFixedDelays checks the fixed access times: reads (plain and
// validated) sleep the read delay, appends and invalidations the write
// delay, all through the Sleep hook.
func TestInjectFixedDelays(t *testing.T) {
	f, _ := injectPair(t)
	var slept []time.Duration
	f.Sleep = func(d time.Duration) { slept = append(slept, d) }
	f.Delay(3*time.Millisecond, time.Millisecond)
	idx, err := f.AppendBlock(make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := f.ReadBlock(idx, buf); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadValidated(idx, buf, func([]byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if err := f.Invalidate(idx); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{3 * time.Millisecond, time.Millisecond, time.Millisecond, 3 * time.Millisecond}
	if fmt.Sprint(slept) != fmt.Sprint(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	if c := f.Counts(); c != (Counts{}) {
		t.Fatalf("fixed delays counted as injections: %+v", c)
	}
}

// TestInjectReadValidated checks the validated-read forwarding: a plain
// device is read and checked (ErrCorrupt when the check fails), a Mirror
// underneath keeps its replica failover, and read faults apply to both.
func TestInjectReadValidated(t *testing.T) {
	f, _ := injectPair(t)
	idx, err := f.AppendBlock(fill(64, 7))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := f.ReadValidated(idx, buf, func([]byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadValidated(idx, buf, func([]byte) bool { return false }); err != ErrCorrupt {
		t.Errorf("invalid read = %v, want ErrCorrupt", err)
	}
	f.FailReads(1)
	if err := f.ReadValidated(idx, buf, func([]byte) bool { return true }); !errors.Is(err, ErrTransient) {
		t.Errorf("faulted validated read = %v, want ErrTransient", err)
	}
	// The wrapped device's own counters still advance (Stats pass-through).
	if st := f.Stats(); st.Appends != 1 || st.Reads != 2 {
		t.Errorf("wrapped stats = %+v", st)
	}

	m, a, _ := mirrorPair(t)
	in := Inject(m, 1)
	if _, err := in.AppendBlock(fill(128, 9)); err != nil {
		t.Fatal(err)
	}
	if err := a.Damage(0, fill(128, 0)); err != nil {
		t.Fatal(err)
	}
	buf = make([]byte, 128)
	if err := in.ReadValidated(0, buf, func(b []byte) bool { return b[0] == 9 }); err != nil {
		t.Fatalf("mirror failover through the injector: %v", err)
	}
	if buf[0] != 9 || m.Failovers() != 1 {
		t.Errorf("read %d with %d failovers, want the replica copy after 1", buf[0], m.Failovers())
	}
}

// TestInjectSameSeedSameSchedule runs every armed behaviour at once on two
// injectors with the same seed: the same operation sequence must see the
// same faults, the same spikes and the same damaged blocks.
func TestInjectSameSeedSameSchedule(t *testing.T) {
	type trace struct {
		outcomes []string
		counts   Counts
		damaged  []int
		garbage  [][]byte
	}
	run := func() trace {
		mem := NewMem(MemOptions{BlockSize: 64, Capacity: 256})
		f := Inject(mem, 2026)
		f.Sleep = func(time.Duration) {}
		f.FailReads(0.3)
		f.FailAppends(0.3)
		f.Spike(0.2, time.Millisecond)
		f.MaxConsecutive(2)
		f.GarbageEvery(4)
		var tr trace
		buf := make([]byte, 64)
		for i := 0; i < 64; i++ {
			idx, err := f.AppendBlock(fill(64, byte(i+1)))
			tr.outcomes = append(tr.outcomes, fmt.Sprint(idx, err))
			if idx >= 0 && err == nil {
				err = f.ReadBlock(idx, buf)
				tr.outcomes = append(tr.outcomes, fmt.Sprint(err))
			}
		}
		tr.counts, tr.damaged = f.Counts(), f.Damaged()
		for _, idx := range tr.damaged {
			if err := mem.ReadBlock(idx, buf); err != nil {
				t.Fatal(err)
			}
			tr.garbage = append(tr.garbage, append([]byte(nil), buf...))
		}
		return tr
	}
	a, b := run(), run()
	if a.counts.ReadFaults == 0 || a.counts.AppendFaults == 0 || a.counts.Spikes == 0 || len(a.damaged) == 0 {
		t.Fatalf("schedule injected too little to compare: %+v damaged=%v", a.counts, a.damaged)
	}
	if fmt.Sprint(a.outcomes) != fmt.Sprint(b.outcomes) {
		t.Fatalf("same seed, different outcomes:\n%v\n%v", a.outcomes, b.outcomes)
	}
	if a.counts != b.counts || fmt.Sprint(a.damaged) != fmt.Sprint(b.damaged) {
		t.Fatalf("same seed, different injections: %+v %v vs %+v %v", a.counts, a.damaged, b.counts, b.damaged)
	}
	for i := range a.garbage {
		if !bytes.Equal(a.garbage[i], b.garbage[i]) {
			t.Fatalf("damaged block %d holds different garbage", a.damaged[i])
		}
	}
}
