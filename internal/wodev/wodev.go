// Package wodev implements the write-once log device substrate the Clio log
// service is built on (paper §2: "a non-volatile, block-oriented storage
// device that supports random access for reading, and append-only write
// access").
//
// The paper's log device was a 12" write-once optical disk (with magnetic
// disk simulating it in the measured configuration). This package provides
// the same contract in simulation:
//
//   - blocks are written strictly sequentially and exactly once; any attempt
//     to rewrite a block fails at the device level, mirroring the paper's
//     preference for devices "physically incapable of writing anywhere except
//     at the end of the written portion of the volume";
//   - random-access reads of any written block;
//   - a block may be *invalidated* — overwritten with all one bits — which is
//     the single sanctioned exception, used to fence off corrupted blocks
//     (§2.3.2);
//   - optionally, the device does not report where the written portion ends,
//     forcing recovery code to binary-search for the end (§2.3.1).
//
// Implementations: MemDevice (in-memory), FileDevice (file-backed, one file
// per volume). Wrappers compose over any Device: Mirror (replicated
// volumes) and Injector (a seeded fault and latency schedule).
package wodev

import (
	"errors"
	"fmt"
	"sync"

	"clio/internal/faults"
)

// Device errors.
var (
	// ErrUnwritten is returned when reading a block that has not been written.
	ErrUnwritten = errors.New("wodev: block not yet written")
	// ErrRewrite is returned on any attempt to write a block twice.
	ErrRewrite = errors.New("wodev: block already written (write-once violation)")
	// ErrFull is returned when appending to a device whose capacity is exhausted.
	ErrFull = errors.New("wodev: device full")
	// ErrBadBlockSize is returned when a write's length differs from the block size.
	ErrBadBlockSize = errors.New("wodev: data length != device block size")
	// ErrInvalidated is returned when reading a block that has been invalidated.
	ErrInvalidated = errors.New("wodev: block invalidated")
	// ErrOutOfRange is returned for block indices beyond device capacity.
	ErrOutOfRange = errors.New("wodev: block index out of range")
	// ErrCorrupt is returned when appending onto a damaged unwritten block,
	// and by a validated read whose block image fails validation.
	ErrCorrupt = errors.New("wodev: block damaged, cannot be written")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("wodev: device closed")
	// ErrTransient is returned by the fault-injecting wrapper (Injector) for
	// per-operation soft failures — the operation did not happen, and a
	// retry may succeed. It classifies as faults.Transient, unlike the
	// permanent media errors above.
	ErrTransient = faults.New(faults.Transient, "wodev: transient device error")
)

// EndUnknown is returned by Device.Written when the device cannot report the
// end of its written portion; callers must probe with ReadBlock (the paper's
// binary search, §2.3.1).
const EndUnknown = -1

// Stats counts device operations. Counters are cumulative and monotone.
type Stats struct {
	Reads         int64 // blocks read
	Appends       int64 // blocks appended
	Invalidations int64 // blocks invalidated
	Seeks         int64 // reads that were not sequential with the previous access
	Probes        int64 // reads of unwritten blocks (end-finding probes)
}

// ValidatedReader is implemented by devices that check a block image before
// returning it: a Mirror tries each replica until valid accepts one, so an
// intact copy masks a silently damaged one.
type ValidatedReader interface {
	ReadValidated(idx int, dst []byte, valid func([]byte) bool) error
}

// Device is a write-once block device.
//
// Implementations must be safe for concurrent use.
type Device interface {
	// BlockSize returns the device block size in bytes.
	BlockSize() int
	// Capacity returns the total number of blocks on the volume.
	Capacity() int
	// Written returns the number of blocks written so far (the next append
	// index), or EndUnknown if the device cannot report it.
	Written() int
	// ReadBlock reads block idx into dst, which must be at least BlockSize
	// bytes. It returns ErrUnwritten for unwritten blocks, ErrInvalidated for
	// invalidated blocks (dst is filled with 0xFF in that case), and garbage
	// data with a nil error for blocks damaged after being written.
	ReadBlock(idx int, dst []byte) error
	// AppendBlock writes data as the next sequential block and returns its
	// index. len(data) must equal BlockSize.
	AppendBlock(data []byte) (int, error)
	// WriteAt writes data at exactly the given index, which must equal the
	// current end of the written portion. This is AppendBlock with an
	// explicit position check, used when the caller tracks the end itself.
	WriteAt(idx int, data []byte) error
	// Invalidate overwrites block idx with all one bits. Both written and
	// unwritten blocks may be invalidated (§2.3.2).
	Invalidate(idx int) error
	// Stats returns a snapshot of the operation counters.
	Stats() Stats
	// ResetStats zeroes the operation counters.
	ResetStats()
	// Close releases resources. Further operations return ErrClosed.
	Close() error
}

type blockState uint8

const (
	stateUnwritten blockState = iota
	stateWritten
	stateInvalid
	stateDamagedUnwritten // unwritten block scribbled by a fault: unwritable
	stateDamagedWritten   // written block scribbled by a fault: reads garbage
)

// MemDevice is an in-memory write-once device.
type MemDevice struct {
	mu        sync.Mutex
	blockSize int
	capacity  int
	reportEnd bool
	closed    bool
	written   int
	state     []blockState
	data      map[int][]byte
	stats     Stats
	lastRead  int
}

// MemOptions configures a MemDevice.
type MemOptions struct {
	// BlockSize in bytes; defaults to 1024 (the paper's measured block size).
	BlockSize int
	// Capacity in blocks; defaults to 1<<20.
	Capacity int
	// ReportEndUnknown makes Written return EndUnknown, forcing recovery to
	// binary-search for the end of the written portion.
	ReportEndUnknown bool
}

// DefaultBlockSize is the paper's measured configuration (1 kbyte blocks).
const DefaultBlockSize = 1024

// NewMem returns a new in-memory write-once device.
func NewMem(opt MemOptions) *MemDevice {
	if opt.BlockSize <= 0 {
		opt.BlockSize = DefaultBlockSize
	}
	if opt.Capacity <= 0 {
		opt.Capacity = 1 << 20
	}
	return &MemDevice{
		blockSize: opt.BlockSize,
		capacity:  opt.Capacity,
		reportEnd: !opt.ReportEndUnknown,
		state:     make([]blockState, opt.Capacity),
		data:      make(map[int][]byte),
		lastRead:  -2,
	}
}

// BlockSize implements Device.
func (d *MemDevice) BlockSize() int { return d.blockSize }

// Capacity implements Device.
func (d *MemDevice) Capacity() int { return d.capacity }

// Written implements Device.
func (d *MemDevice) Written() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.reportEnd {
		return EndUnknown
	}
	return d.written
}

// ReadBlock implements Device.
func (d *MemDevice) ReadBlock(idx int, dst []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if idx < 0 || idx >= d.capacity {
		return ErrOutOfRange
	}
	if len(dst) < d.blockSize {
		return fmt.Errorf("wodev: read buffer %d < block size %d", len(dst), d.blockSize)
	}
	d.stats.Reads++
	if idx != d.lastRead+1 {
		d.stats.Seeks++
	}
	d.lastRead = idx
	switch d.state[idx] {
	case stateUnwritten, stateDamagedUnwritten:
		d.stats.Probes++
		return ErrUnwritten
	case stateInvalid:
		for i := 0; i < d.blockSize; i++ {
			dst[i] = 0xFF
		}
		return ErrInvalidated
	default:
		copy(dst, d.data[idx])
		return nil
	}
}

// AppendBlock implements Device.
func (d *MemDevice) AppendBlock(data []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.appendLocked(data)
}

func (d *MemDevice) appendLocked(data []byte) (int, error) {
	if d.closed {
		return 0, ErrClosed
	}
	if len(data) != d.blockSize {
		return 0, ErrBadBlockSize
	}
	// Skip over blocks that were invalidated while still unwritten: they are
	// consumed but can never hold data.
	for d.written < d.capacity && d.state[d.written] == stateInvalid {
		d.written++
	}
	if d.written >= d.capacity {
		return 0, ErrFull
	}
	idx := d.written
	if d.state[idx] == stateDamagedUnwritten {
		return idx, ErrCorrupt
	}
	if d.state[idx] != stateUnwritten {
		return 0, ErrRewrite
	}
	cp := make([]byte, d.blockSize)
	copy(cp, data)
	d.data[idx] = cp
	d.state[idx] = stateWritten
	d.written = idx + 1
	d.stats.Appends++
	return idx, nil
}

// WriteAt implements Device.
func (d *MemDevice) WriteAt(idx int, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if idx < 0 || idx >= d.capacity {
		return ErrOutOfRange
	}
	if d.state[idx] == stateWritten || d.state[idx] == stateDamagedWritten || idx < d.written {
		return ErrRewrite
	}
	if idx != d.written {
		return fmt.Errorf("wodev: write at %d but end of written portion is %d: %w", idx, d.written, ErrRewrite)
	}
	_, err := d.appendLocked(data)
	return err
}

// Invalidate implements Device.
func (d *MemDevice) Invalidate(idx int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if idx < 0 || idx >= d.capacity {
		return ErrOutOfRange
	}
	d.state[idx] = stateInvalid
	delete(d.data, idx)
	d.stats.Invalidations++
	// Invalidating the block at the write point consumes it.
	for d.written < d.capacity && d.state[d.written] == stateInvalid {
		d.written++
	}
	return nil
}

// Stats implements Device.
func (d *MemDevice) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats implements Device.
func (d *MemDevice) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
	d.lastRead = -2
}

// Close implements Device.
func (d *MemDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return nil
}

// Damage simulates a hardware/software fault scribbling garbage over block
// idx, bypassing the write-once guard (this models the failures of §2.3.2,
// not a legal device operation). A written block keeps stateDamagedWritten
// and subsequently reads back garbage with a nil error; an unwritten block
// becomes unwritable and AppendBlock over it returns ErrCorrupt.
func (d *MemDevice) Damage(idx int, garbage []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if idx < 0 || idx >= d.capacity {
		return ErrOutOfRange
	}
	switch d.state[idx] {
	case stateWritten, stateDamagedWritten:
		g := make([]byte, d.blockSize)
		copy(g, garbage)
		d.data[idx] = g
		d.state[idx] = stateDamagedWritten
	case stateInvalid:
		// Invalidated blocks are all 1s and stay that way.
	default:
		d.state[idx] = stateDamagedUnwritten
	}
	return nil
}

// SetReportEnd toggles whether Written reports the true end (used by recovery
// tests to exercise the binary-search path on an already-written device).
func (d *MemDevice) SetReportEnd(ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reportEnd = ok
}

// FindEnd locates the end of the written portion of dev by binary search over
// probing reads, as §2.3.1 prescribes when the device cannot be queried
// directly. It returns the number of written-or-invalidated blocks from the
// start of the volume. The written portion of a write-once volume is a
// prefix, so probing is sound. The scratch buffer is reused across probes.
func FindEnd(dev Device) (int, error) {
	if n := dev.Written(); n != EndUnknown {
		return n, nil
	}
	buf := make([]byte, dev.BlockSize())
	probe := func(i int) (written bool, err error) {
		err = dev.ReadBlock(i, buf)
		switch {
		case err == nil, errors.Is(err, ErrInvalidated):
			return true, nil
		case errors.Is(err, ErrUnwritten):
			return false, nil
		default:
			return false, err
		}
	}
	lo, hi := 0, dev.Capacity() // end is in (lo-1, hi]; invariant: blocks < lo written
	// First check the empty-volume case cheaply.
	if ok, err := probe(0); err != nil {
		return 0, err
	} else if !ok {
		return 0, nil
	}
	lo = 1
	for lo < hi {
		mid := lo + (hi-lo)/2
		ok, err := probe(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}
