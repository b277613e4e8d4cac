package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"clio/internal/durable"
	"clio/internal/wire"
)

// NVRAM models the battery-backed RAM of §2.3.1: small rewriteable
// non-volatile storage holding the current partial tail block so that
// frequent forced writes need not seal (and pad) a write-once block each
// time. Its contents survive crashes; Open restores a staged block whose
// position matches the device's written end.
type NVRAM interface {
	// Store persists the staged tail block image for the given global
	// data-block index, replacing any previous image.
	Store(global int, image []byte) error
	// Load returns the staged image, or (0, nil, nil) when none is staged.
	Load() (global int, image []byte, err error)
	// Clear discards the staged image (the block was sealed to the device).
	Clear() error
}

// StagingNVRAM extends NVRAM with slots for fully sealed block images
// waiting on their asynchronous device write. This is the NVLog-style
// widening of the §2.3.1 tail: the pipelined sealer makes a batch durable
// by staging its sealed image here (fast, rewriteable) and acks the force
// immediately, while the write-once device write proceeds in the
// background. A crash between the two replays the staged images at
// recovery, so an acked force never depends on the device write having
// completed. The pipeline engages only when the configured NVRAM
// implements this interface; otherwise seals stay synchronous.
type StagingNVRAM interface {
	NVRAM
	// StoreSealed persists a sealed block image keyed by the global
	// data-block index it was sealed at, replacing any previous image under
	// that key.
	StoreSealed(global int, image []byte) error
	// DropSealed discards the staged image for the given key, if any.
	DropSealed(global int) error
	// LoadSealed returns all staged sealed images (any order; the caller
	// sorts by global). Torn stores are skipped, matching Load.
	LoadSealed() ([]int, [][]byte, error)
}

// MemNVRAM is an in-process NVRAM simulation. Because battery-backed RAM
// survives power failures, tests model a crash by reusing the same MemNVRAM
// across a Crash/Open pair while discarding everything else.
type MemNVRAM struct {
	mu     sync.Mutex
	global int
	image  []byte
	sealed map[int][]byte
}

// NewMemNVRAM returns an empty NVRAM.
func NewMemNVRAM() *MemNVRAM { return &MemNVRAM{} }

// Store implements NVRAM.
func (m *MemNVRAM) Store(global int, image []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.global = global
	m.image = append(m.image[:0], image...)
	return nil
}

// Load implements NVRAM.
func (m *MemNVRAM) Load() (int, []byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.image == nil {
		return 0, nil, nil
	}
	out := make([]byte, len(m.image))
	copy(out, m.image)
	return m.global, out, nil
}

// Clear implements NVRAM.
func (m *MemNVRAM) Clear() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.image = nil
	m.global = 0
	return nil
}

// StoreSealed implements StagingNVRAM.
func (m *MemNVRAM) StoreSealed(global int, image []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sealed == nil {
		m.sealed = make(map[int][]byte)
	}
	m.sealed[global] = append([]byte(nil), image...)
	return nil
}

// DropSealed implements StagingNVRAM.
func (m *MemNVRAM) DropSealed(global int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.sealed, global)
	return nil
}

// LoadSealed implements StagingNVRAM.
func (m *MemNVRAM) LoadSealed() ([]int, [][]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var globals []int
	var images [][]byte
	for g, img := range m.sealed {
		globals = append(globals, g)
		images = append(images, append([]byte(nil), img...))
	}
	return globals, images, nil
}

// FileNVRAM persists the staged tail block and the staged seals in one
// sidecar file, giving file-backed deployments the crash durability the
// paper gets from battery-backed RAM. The file is a header page followed by
// fixed-stride slots; the stride is a whole number of 4 KiB pages, so a
// torn write can damage only the slot being written:
//
//	header: magic u32 | version u32 | stride u32 | crc u32
//	slot:   seq u64 | global u64 | len u32 | image | crc32c
//
// Slots 0 and 1 hold the tail and alternate: Load returns the valid one
// with the higher sequence number, so a torn store falls back to the
// previous image. Slots 2 and up hold staged seals, and a zero sequence
// number marks a free one. Store and StoreSealed are the ack barrier for
// forced appends and pipelined seals: each is one pwrite and one fdatasync
// on a held-open fd. Clear and DropSealed are one unsynced pwrite each; the
// next sync covers them, and recovery tolerates their loss
// (restoreTail, replayStagedSeals). Recovery checkpoints (see
// checkpoint.go) apply the same torn-write rule to entries on the
// write-once medium itself: anything that fails its trailing checksum is
// treated as never written.
type FileNVRAM struct {
	mu         sync.Mutex
	path       string
	f          *os.File    // nil before first use and after Close
	stride     int64       // slot size
	size       int64       // file size
	seq        uint64      // last sequence number written
	next       int         // tail slot the next Store or Clear writes
	sealed     map[int]int // staged seal global -> slot
	free       []int       // seal slots not in use
	buf        []byte      // record scratch
	legacyGone bool        // legacy files removed: a missing sidecar is simply empty
}

const (
	nvMagic     = 0x564e4c43 // "CLNV"
	nvVersion   = 1
	nvPage      = 4096
	nvHeader    = 16            // magic | version | stride | crc
	nvRecHead   = 20            // seq | global | len
	nvRecExtra  = nvRecHead + 4 // head and trailing crc
	nvTailSlots = 2             // alternating tail slots
	nvMinSlots  = nvTailSlots + maxPipeline
)

// nvRecord is one valid slot's contents.
type nvRecord struct {
	seq    uint64
	slot   int
	global int
	image  []byte // nil: empty tail
}

// NewFileNVRAM returns an NVRAM backed by the given sidecar file. Nothing
// is opened until the first call; a missing file reads as empty and the
// first store creates it.
func NewFileNVRAM(path string) *FileNVRAM { return &FileNVRAM{path: path} }

// Store implements NVRAM: the image goes to the tail slot not holding the
// newest image, so a torn store leaves the previous one intact.
func (f *FileNVRAM) Store(global int, image []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.readyLocked(len(image)); err != nil {
		return err
	}
	if err := f.putLocked(f.next, global, image); err != nil {
		return err
	}
	if err := fdatasync(f.f); err != nil {
		return err
	}
	f.next ^= 1
	return nil
}

// Load implements NVRAM.
func (f *FileNVRAM) Load() (int, []byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	tail, _, err := f.loadLocked()
	if err != nil || tail.image == nil {
		return 0, nil, err
	}
	return tail.global, tail.image, nil
}

// Clear implements NVRAM by storing an empty tail record.
func (f *FileNVRAM) Clear() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ok, err := f.hasFileLocked(); !ok {
		return err
	}
	if err := f.putLocked(f.next, 0, nil); err != nil {
		return err
	}
	f.next ^= 1
	return nil
}

// StoreSealed implements StagingNVRAM: the image goes to a free seal slot,
// growing the file by one slot when none is free.
func (f *FileNVRAM) StoreSealed(global int, image []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.readyLocked(len(image)); err != nil {
		return err
	}
	slot := f.slots()
	if n := len(f.free); n > 0 {
		slot, f.free = f.free[n-1], f.free[:n-1]
	}
	err := f.putLocked(slot, global, image)
	if err == nil {
		err = fdatasync(f.f)
	}
	if err != nil {
		f.free = append(f.free, slot)
		return err
	}
	if old, ok := f.sealed[global]; ok {
		_ = f.zeroLocked(old) // if lost, scanLocked keeps the newer copy
		f.free = append(f.free, old)
	}
	f.sealed[global] = slot
	return nil
}

// DropSealed implements StagingNVRAM by zeroing the slot's sequence word.
func (f *FileNVRAM) DropSealed(global int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ok, err := f.hasFileLocked(); !ok {
		return err
	}
	slot, ok := f.sealed[global]
	if !ok {
		return nil
	}
	if err := f.zeroLocked(slot); err != nil {
		return err
	}
	delete(f.sealed, global)
	f.free = append(f.free, slot)
	return nil
}

// LoadSealed implements StagingNVRAM. Torn slots (crash mid-StoreSealed)
// are skipped: the seal they staged was never acked, because the ack
// happens only after StoreSealed returns.
func (f *FileNVRAM) LoadSealed() ([]int, [][]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, seals, err := f.loadLocked()
	if err != nil {
		return nil, nil, err
	}
	var globals []int
	var images [][]byte
	for _, r := range seals {
		globals = append(globals, r.global)
		images = append(images, r.image)
	}
	return globals, images, nil
}

// Close releases the sidecar's file descriptor; the next call reopens it.
func (f *FileNVRAM) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closeLocked()
}

// hasFileLocked opens the sidecar if it exists and reports whether it does.
func (f *FileNVRAM) hasFileLocked() (bool, error) {
	if f.f == nil {
		if _, _, err := f.openLocked(); err != nil {
			return false, err
		}
	}
	return f.f != nil, nil
}

func (f *FileNVRAM) closeLocked() error {
	if f.f == nil {
		return nil
	}
	err := f.f.Close()
	f.f = nil
	return err
}

func (f *FileNVRAM) off(slot int) int64 { return nvPage + int64(slot)*f.stride }

// slots returns how many slots the file spans, counting a torn last one.
func (f *FileNVRAM) slots() int { return int((f.size - nvPage + f.stride - 1) / f.stride) }

// strideFor returns the slot size for an image of n bytes.
func strideFor(n int) int64 { return int64(n+nvRecExtra+nvPage-1) / nvPage * nvPage }

// putLocked writes one record into a slot with a single pwrite. A slot
// past the end of the file is written whole, so the file grows by full
// slots.
func (f *FileNVRAM) putLocked(slot, global int, image []byte) error {
	off := f.off(slot)
	n := nvRecExtra + len(image)
	if off+f.stride > f.size {
		n = int(f.stride)
	}
	if cap(f.buf) < n {
		f.buf = make([]byte, f.stride)
	}
	buf := f.buf[:n]
	f.seq++
	clear(buf[encodeRecord(buf, f.seq, global, image):])
	if _, err := f.f.WriteAt(buf, off); err != nil {
		return err
	}
	f.size = max(f.size, off+int64(n))
	return nil
}

// zeroLocked frees a slot on disk by zeroing its sequence word.
func (f *FileNVRAM) zeroLocked(slot int) error {
	var zero [8]byte
	_, err := f.f.WriteAt(zero[:], f.off(slot))
	return err
}

// encodeRecord writes a slot record into dst and returns its length.
func encodeRecord(dst []byte, seq uint64, global int, image []byte) int {
	le := binary.LittleEndian
	le.PutUint64(dst, seq)
	le.PutUint64(dst[8:], uint64(global))
	le.PutUint32(dst[16:], uint32(len(image)))
	end := nvRecHead + copy(dst[nvRecHead:], image)
	le.PutUint32(dst[end:], wire.Checksum(dst[:end]))
	return end + 4
}

// parseRecord decodes a slot; ok is false for a free or torn one.
func parseRecord(b []byte, slot int) (r nvRecord, ok bool) {
	le := binary.LittleEndian
	if len(b) < nvRecExtra {
		return r, false
	}
	n := int(le.Uint32(b[16:]))
	if le.Uint64(b) == 0 || n > len(b)-nvRecExtra {
		return r, false
	}
	end := nvRecHead + n
	if wire.Checksum(b[:end]) != le.Uint32(b[end:]) {
		return r, false
	}
	r = nvRecord{seq: le.Uint64(b), slot: slot, global: int(le.Uint64(b[8:]))}
	if n > 0 {
		r.image = b[nvRecHead:end]
	}
	return r, true
}

// readyLocked opens the sidecar, creating it on the first store, and makes
// its slots fit an image of n bytes.
func (f *FileNVRAM) readyLocked(n int) error {
	ok, err := f.hasFileLocked()
	if err != nil || ok && int64(n+nvRecExtra) <= f.stride {
		return err
	}
	var tail nvRecord
	var seals []nvRecord
	if ok { // grow the stride, keeping what the file holds
		if tail, seals, err = f.scanLocked(); err != nil {
			return err
		}
	}
	if err := f.rewriteLocked(strideFor(n), tail, seals); err != nil {
		return err
	}
	_, _, err = f.scanLocked()
	return err
}

// loadLocked returns the newest tail record and the staged seals as the
// file holds them now.
func (f *FileNVRAM) loadLocked() (nvRecord, []nvRecord, error) {
	if f.f == nil {
		return f.openLocked()
	}
	return f.scanLocked()
}

// openLocked opens the sidecar and rebuilds the slot state from it,
// upgrading a legacy-layout sidecar first. With no sidecar on disk f.f
// stays nil; the first store creates one.
func (f *FileNVRAM) openLocked() (nvRecord, []nvRecord, error) {
	fd, err := os.OpenFile(f.path, os.O_RDWR, 0)
	if os.IsNotExist(err) {
		if f.legacyGone {
			return nvRecord{}, nil, nil
		}
		return f.upgradeLocked()
	}
	if err != nil {
		return nvRecord{}, nil, err
	}
	le := binary.LittleEndian
	var hdr [nvHeader]byte
	if n, _ := fd.ReadAt(hdr[:], 0); n < nvHeader || le.Uint32(hdr[:]) != nvMagic {
		fd.Close()
		return f.upgradeLocked()
	}
	stride := int64(le.Uint32(hdr[8:]))
	if le.Uint32(hdr[4:]) != nvVersion || wire.Checksum(hdr[:12]) != le.Uint32(hdr[12:]) ||
		stride == 0 || stride%nvPage != 0 {
		fd.Close()
		return nvRecord{}, nil, fmt.Errorf("clio: nvram file %s: bad header", f.path)
	}
	f.f, f.stride = fd, stride
	tail, seals, err := f.scanLocked()
	if err != nil {
		f.closeLocked()
		return nvRecord{}, nil, err
	}
	// An upgrade cut short after its rename leaves legacy files whose
	// contents this file already holds.
	if err := f.removeLegacyLocked(); err != nil {
		return nvRecord{}, nil, err
	}
	return tail, seals, nil
}

// scanLocked reads the whole sidecar and rebuilds the slot state from it.
// It returns the newest tail record and the staged seals.
func (f *FileNVRAM) scanLocked() (nvRecord, []nvRecord, error) {
	st, err := f.f.Stat()
	if err != nil {
		return nvRecord{}, nil, err
	}
	data := make([]byte, st.Size())
	if _, err := f.f.ReadAt(data, 0); err != nil && err != io.EOF {
		return nvRecord{}, nil, err
	}
	f.size = st.Size()
	slot := func(i int) []byte { return data[min(f.off(i), f.size):min(f.off(i+1), f.size)] }
	f.seq, f.next = 0, 0
	var tail nvRecord
	for i := 0; i < nvTailSlots; i++ {
		if r, ok := parseRecord(slot(i), i); ok && r.seq > tail.seq {
			tail, f.next = r, i^1
		}
	}
	f.seq = tail.seq
	f.sealed = make(map[int]int)
	f.free = f.free[:0]
	byGlobal := make(map[int]nvRecord)
	for i := f.slots() - 1; i >= nvTailSlots; i-- { // low slots end up on top of free
		r, ok := parseRecord(slot(i), i)
		if !ok || r.image == nil {
			f.free = append(f.free, i)
			continue
		}
		f.seq = max(f.seq, r.seq)
		if old, dup := byGlobal[r.global]; dup {
			// A replaced image whose zeroing was lost: keep the newer one.
			if old.seq > r.seq {
				old, r = r, old
			}
			_ = f.zeroLocked(old.slot) // if lost, the next scan repeats this
			f.free = append(f.free, old.slot)
		}
		byGlobal[r.global] = r
	}
	seals := make([]nvRecord, 0, len(byGlobal))
	for g, r := range byGlobal {
		f.sealed[g] = r.slot
		seals = append(seals, r)
	}
	return tail, seals, nil
}

// rewriteLocked replaces the sidecar with a fresh file of the given stride
// holding tail and seals, and reopens it. durable.WriteFile leaves either
// the old file or the new one after a crash. This is the slow path:
// creation, upgrade from the legacy layout, growth to a larger image. The
// caller rebuilds the slot state with scanLocked.
func (f *FileNVRAM) rewriteLocked(stride int64, tail nvRecord, seals []nvRecord) error {
	slots := max(nvMinSlots, nvTailSlots+len(seals))
	data := make([]byte, nvPage+int64(slots)*stride)
	le := binary.LittleEndian
	le.PutUint32(data, nvMagic)
	le.PutUint32(data[4:], nvVersion)
	le.PutUint32(data[8:], uint32(stride))
	le.PutUint32(data[12:], wire.Checksum(data[:12]))
	f.stride = stride
	var seq uint64
	if tail.image != nil {
		seq++
		encodeRecord(data[f.off(0):], seq, tail.global, tail.image)
	}
	for i, r := range seals {
		seq++
		encodeRecord(data[f.off(nvTailSlots+i):], seq, r.global, r.image)
	}
	f.closeLocked()
	if err := durable.WriteFile(f.path, data); err != nil {
		return err
	}
	fd, err := os.OpenFile(f.path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	f.f = fd
	return nil
}

// upgradeLocked converts a legacy-layout sidecar into the slot layout. The
// legacy layout is one CRC-framed record, global u64 | len u32 | image |
// crc32c, in the main file for the tail and in a path.sNNNNNNNN file per
// staged seal. The new file is renamed into place before the legacy files
// are removed, so a crash at any point keeps every staged image.
func (f *FileNVRAM) upgradeLocked() (nvRecord, []nvRecord, error) {
	var tail nvRecord
	data, err := os.ReadFile(f.path)
	if err == nil {
		tail, _ = parseLegacy(data)
	} else if !os.IsNotExist(err) {
		return nvRecord{}, nil, err
	}
	legacy, err := filepath.Glob(f.path + ".s*")
	if err != nil {
		return nvRecord{}, nil, err
	}
	var seals []nvRecord
	n := len(tail.image)
	for _, p := range legacy {
		if strings.HasSuffix(p, ".tmp") {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil && !os.IsNotExist(err) {
			return nvRecord{}, nil, err
		}
		if r, ok := parseLegacy(data); ok {
			seals = append(seals, r)
			n = max(n, len(r.image))
		}
	}
	if tail.image == nil && len(seals) == 0 {
		// Nothing staged: a first open, or a legacy file left torn.
		if err := os.Remove(f.path); err != nil && !os.IsNotExist(err) {
			return nvRecord{}, nil, err
		}
		return nvRecord{}, nil, f.removeLegacyLocked()
	}
	if err := f.rewriteLocked(strideFor(n), tail, seals); err != nil {
		return nvRecord{}, nil, err
	}
	if err := f.removeLegacyLocked(); err != nil {
		return nvRecord{}, nil, err
	}
	return f.scanLocked()
}

// parseLegacy decodes a legacy-layout record; ok is false for a torn one.
func parseLegacy(buf []byte) (r nvRecord, ok bool) {
	if len(buf) < 16 {
		return r, false
	}
	le := binary.LittleEndian
	body := buf[:len(buf)-4]
	if wire.Checksum(body) != le.Uint32(buf[len(buf)-4:]) || int(le.Uint32(body[8:])) != len(body)-12 {
		return r, false
	}
	return nvRecord{global: int(le.Uint64(body)), image: body[12:]}, true
}

// removeLegacyLocked removes the legacy layout's staged-seal files and the
// temp files either layout's writers leave behind, once per FileNVRAM.
func (f *FileNVRAM) removeLegacyLocked() error {
	if f.legacyGone {
		return nil
	}
	legacy, err := filepath.Glob(f.path + ".s*")
	if err != nil {
		return err
	}
	for _, p := range append(legacy, f.path+".tmp") {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	f.legacyGone = true
	return nil
}
