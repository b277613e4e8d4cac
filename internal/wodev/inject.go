package wodev

import (
	"math/rand"
	"sync"
	"time"
)

// Injector wraps a Device with one seeded fault and latency schedule. It
// models both failure classes of §2.3.2 and the device costs of §3.2:
//
//   - transient faults: a read or append fails with ErrTransient while the
//     media stays untouched, so a retry can succeed;
//   - latency: a fixed delay before every read and every write or
//     invalidation, plus random spikes;
//   - permanent damage: every k-th written block is scribbled with garbage
//     right after it lands (the device must support Damage, as MemDevice
//     does).
//
// Transient faults and spikes are decided before delegating, so a failed
// operation truly did not execute: retrying an append cannot double-write,
// which is what makes the core retry loop safe to layer on top.
//
// Everything starts disarmed. The RNG is drawn only for armed behaviours —
// per read or write, a spike draw, then a fault draw, then garbage for a
// damaged block — so a seed replays the same schedule for the same
// operation sequence.
type Injector struct {
	Device
	// Sleep is called for delays and spikes; nil means time.Sleep.
	Sleep func(time.Duration)

	mu     sync.Mutex
	rng    *rand.Rand
	paused bool

	readErr, appendErr    float64 // transient-fault probabilities
	spikeProb             float64
	spikeDur              time.Duration
	readDelay, writeDelay time.Duration

	// maxConsecutive bounds runs of injected failures so a bounded retry
	// policy is guaranteed to get through (0 = unbounded).
	maxConsecutive, consecutive int

	garbageEvery, writes int
	damaged              []int

	counts Counts
}

// Counts is what an Injector has injected so far.
type Counts struct {
	ReadFaults   int64
	AppendFaults int64
	Spikes       int64
}

// Inject wraps dev with a disarmed schedule drawn from seed.
func Inject(dev Device, seed int64) *Injector {
	return &Injector{Device: dev, rng: rand.New(rand.NewSource(seed))}
}

func (in *Injector) locked(f func()) {
	in.mu.Lock()
	defer in.mu.Unlock()
	f()
}

// FailReads sets the per-read transient-fault probability.
func (in *Injector) FailReads(prob float64) { in.locked(func() { in.readErr = prob }) }

// FailAppends sets the per-append/write transient-fault probability.
func (in *Injector) FailAppends(prob float64) { in.locked(func() { in.appendErr = prob }) }

// Spike makes a fraction prob of reads and writes stall for d first.
func (in *Injector) Spike(prob float64, d time.Duration) {
	in.locked(func() { in.spikeProb, in.spikeDur = prob, d })
}

// Delay sleeps write before every append, write and invalidation, and read
// before every read: the fixed access time of the paper's optical media.
// The delays really block the caller, so device operations create genuine
// overlap windows (a sealing writer waits while other clients run).
func (in *Injector) Delay(write, read time.Duration) {
	in.locked(func() { in.writeDelay, in.readDelay = write, read })
}

// GarbageEvery damages every k-th written block (counting every write that
// landed, armed or not) with random garbage; k <= 0 disarms.
func (in *Injector) GarbageEvery(k int) { in.locked(func() { in.garbageEvery = k }) }

// MaxConsecutive bounds runs of injected faults: after n in a row the next
// operation is let through, so a retry policy with more than n attempts
// always converges. 0 removes the bound.
func (in *Injector) MaxConsecutive(n int) { in.locked(func() { in.maxConsecutive = n }) }

// Pause suspends transient faults and spikes (recovery code paths — FindEnd
// probing, catalog replay — read the device without retry, so chaos tests
// pause the schedule around Open). Fixed delays and damage still apply.
func (in *Injector) Pause() { in.locked(func() { in.paused = true }) }

// Resume re-enables transient faults and spikes.
func (in *Injector) Resume() { in.locked(func() { in.paused = false }) }

// Counts returns the injection counters.
func (in *Injector) Counts() (c Counts) {
	in.locked(func() { c = in.counts })
	return c
}

// Damaged returns the indices of the blocks scribbled by GarbageEvery.
func (in *Injector) Damaged() (out []int) {
	in.locked(func() { out = append([]int(nil), in.damaged...) })
	return out
}

// before runs the schedule for one read or write: it sleeps the fixed delay
// plus any spike, and reports whether the operation fails transiently.
func (in *Injector) before(write bool) error {
	in.mu.Lock()
	prob, counter, d := in.readErr, &in.counts.ReadFaults, in.readDelay
	if write {
		prob, counter, d = in.appendErr, &in.counts.AppendFaults, in.writeDelay
	}
	fail := false
	if !in.paused {
		if in.spikeProb > 0 && in.rng.Float64() < in.spikeProb {
			d += in.spikeDur
			in.counts.Spikes++
		}
		switch {
		case prob <= 0 || in.rng.Float64() >= prob:
			in.consecutive = 0
		case in.maxConsecutive > 0 && in.consecutive >= in.maxConsecutive:
			in.consecutive = 0
		default:
			in.consecutive++
			*counter++
			fail = true
		}
	}
	in.mu.Unlock()
	in.sleep(d)
	if fail {
		return ErrTransient
	}
	return nil
}

func (in *Injector) sleep(d time.Duration) {
	switch {
	case d <= 0:
	case in.Sleep != nil:
		in.Sleep(d)
	default:
		time.Sleep(d)
	}
}

// landed counts a write that reached the device and, when GarbageEvery is
// due, scribbles the block.
func (in *Injector) landed(idx int) error {
	var garbage []byte
	in.locked(func() {
		in.writes++
		if in.garbageEvery > 0 && in.writes%in.garbageEvery == 0 {
			in.damaged = append(in.damaged, idx)
			garbage = make([]byte, in.Device.BlockSize())
			in.rng.Read(garbage)
		}
	})
	if d, ok := in.Device.(interface{ Damage(int, []byte) error }); ok && garbage != nil {
		return d.Damage(idx, garbage)
	}
	return nil
}

// ReadBlock implements Device.
func (in *Injector) ReadBlock(idx int, dst []byte) error {
	if err := in.before(false); err != nil {
		return err
	}
	return in.Device.ReadBlock(idx, dst)
}

// ReadValidated implements ValidatedReader: it forwards to the wrapped
// device's validated read (a Mirror's replica failover) or, for a plain
// device, reads the block and reports ErrCorrupt when valid rejects it.
func (in *Injector) ReadValidated(idx int, dst []byte, valid func([]byte) bool) error {
	if err := in.before(false); err != nil {
		return err
	}
	if m, ok := in.Device.(ValidatedReader); ok {
		return m.ReadValidated(idx, dst, valid)
	}
	if err := in.Device.ReadBlock(idx, dst); err != nil {
		return err
	}
	if !valid(dst) {
		return ErrCorrupt
	}
	return nil
}

// AppendBlock implements Device.
func (in *Injector) AppendBlock(data []byte) (int, error) {
	if err := in.before(true); err != nil {
		return -1, err
	}
	idx, err := in.Device.AppendBlock(data)
	if err != nil {
		return idx, err
	}
	return idx, in.landed(idx)
}

// WriteAt implements Device.
func (in *Injector) WriteAt(idx int, data []byte) error {
	if err := in.before(true); err != nil {
		return err
	}
	if err := in.Device.WriteAt(idx, data); err != nil {
		return err
	}
	return in.landed(idx)
}

// Invalidate implements Device; it costs the write delay but is never
// failed or spiked.
func (in *Injector) Invalidate(idx int) error {
	var d time.Duration
	in.locked(func() { d = in.writeDelay })
	in.sleep(d)
	return in.Device.Invalidate(idx)
}
