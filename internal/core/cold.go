package core

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"sync"

	"clio/internal/archive"
	"clio/internal/durable"
	"clio/internal/wire"
)

// This file holds the state side of the reclamation subsystem (compact.go
// holds the machinery): the cold-tier configuration, the compaction sidecar
// — the compactor's checkpoint, persisted through a StateStore — and the
// immutable view of committed compactions that the lock-free read path
// consults.
//
// The design never violates write-once semantics. A compacted volume is
// retired whole: its live entries are re-appended ("relocated") at the
// current tail, a commit record is forced, and only then is the old volume
// archived to the cold backend and its local device released. Nothing on any
// volume is ever rewritten; reclamation is the act of dropping the *local*
// copy of a volume whose live content has been copied forward and whose full
// image is preserved cold.

// ErrNoColdTier is returned by CompactOnce when Options.Cold is unset.
var ErrNoColdTier = errors.New("clio: no cold tier configured")

// ColdTier wires the reclamation subsystem into a Service: where demoted
// volume images go, where the compactor's checkpoint lives, and how to
// release a demoted volume's local device.
type ColdTier struct {
	// Backend receives full volume images at demotion and serves cold
	// read-through at archival latency. Required.
	Backend archive.Backend
	// State persists the compaction sidecar — the commit point of every
	// compaction. Required. The sidecar is pure bookkeeping over immutable
	// log contents: if it is lost, committed-but-undemoted relocations
	// degrade to invisible garbage copies and the originals remain
	// canonical, so no acked entry is ever lost.
	State StateStore
	// Release is called after a demoted volume's device has been removed
	// from the mounted set, so the embedding store can reclaim the local
	// media (e.g. delete the volume file). Nil skips the callback.
	Release func(index uint32) error
	// Compact supplies the default policy for CompactOnce calls with a
	// zero CompactOptions.
	Compact CompactOptions
}

// StateStore persists the compaction sidecar. Load returns (nil, nil) when
// no state has ever been saved.
type StateStore interface {
	Load() ([]byte, error)
	Save(data []byte) error
}

// FileState is a StateStore backed by a single file, written atomically
// (tmp + rename) so a torn save leaves the previous state intact.
type FileState struct {
	path string
}

// NewFileState returns a FileState at the given path.
func NewFileState(path string) *FileState { return &FileState{path: path} }

// Load implements StateStore.
func (f *FileState) Load() ([]byte, error) {
	data, err := os.ReadFile(f.path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	return data, err
}

// Save implements StateStore.
func (f *FileState) Save(data []byte) error { return durable.WriteFile(f.path, data) }

// MemState is an in-memory StateStore for tests; it survives service
// crash/reopen cycles within one process the way a file would across them.
type MemState struct {
	mu   sync.Mutex
	data []byte
}

// NewMemState returns an empty MemState.
func NewMemState() *MemState { return &MemState{} }

// Load implements StateStore.
func (m *MemState) Load() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.data == nil {
		return nil, nil
	}
	return append([]byte(nil), m.data...), nil
}

// Save implements StateStore.
func (m *MemState) Save(data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data = append([]byte(nil), data...)
	return nil
}

// copyRange is one contiguous run of relocated copies: the positions
// (global data block, record index of the first fragment) of the first and
// last copy, both inclusive. Record granularity matters: an aborted
// compaction's orphan copies can share their last block with a later
// committed batch, and a block-granular range would validate the orphans.
type copyRange struct {
	StartBlock, StartRec int
	EndBlock, EndRec     int
	// Seq is the logical sequence number of the range's first entry within
	// its origin volume: live entries are numbered in original append order
	// at the volume's first compaction, and a re-copy of a range's entries
	// derives its numbers from the range's Seq. A volume's ranges are kept
	// sorted by Seq, which is the order redirect iteration must deliver
	// them in — a host volume's physical layout can differ (a later pass
	// may place logically earlier entries at higher blocks).
	Seq int
}

// contains reports whether the first-fragment position (block, rec) lies in
// the range.
func (r *copyRange) contains(block, rec int) bool {
	if block < r.StartBlock || block > r.EndBlock {
		return false
	}
	if block == r.StartBlock && rec < r.StartRec {
		return false
	}
	if block == r.EndBlock && rec > r.EndRec {
		return false
	}
	return true
}

// relocVol is one committed compaction: a volume whose live entries have
// been copied forward. Until Demoted is set the volume's device is still
// mounted (hot); after demotion its image lives only in the cold backend.
type relocVol struct {
	Index    uint32 // volume header index
	Start    int    // global data index of the volume's first data block
	Blocks   int    // data blocks written to the volume (dead blocks included)
	Capacity int    // the volume's data capacity
	Demoted  bool   // image archived cold; local device released
	// IDs lists the client log files whose live entries were relocated out
	// of this volume. A cursor whose id set is covered by IDs reads the
	// volume through its relocated copies (hot) instead of the original
	// blocks (cold).
	IDs []uint16
	// Ranges locates the volume's relocated copies, sorted by Seq so the
	// list order is the volume's original entry order even when
	// re-compaction scatters the copies physically.
	Ranges []copyRange

	idSet map[uint16]bool // derived from IDs at decode/commit; not serialized
}

// end returns the global data index just past the volume's written blocks.
func (v *relocVol) end() int { return v.Start + v.Blocks }

// covers reports whether every id in the sorted list was relocated out of
// this volume (so a cursor over those ids can skip the volume's blocks and
// read the copies instead).
func (v *relocVol) covers(ids []uint16) bool {
	for _, id := range ids {
		if !v.idSet[id] {
			return false
		}
	}
	return len(ids) > 0
}

// compactState is the sidecar: every committed compaction, oldest volume
// first. It is owned by the compactor (under cmpMu); readers see it only
// through the immutable compactView published after each commit.
type compactState struct {
	Vols []*relocVol
}

// view builds the immutable reader view. Vols are kept sorted by Start.
func (st *compactState) view() *compactView {
	v := &compactView{vols: append([]*relocVol(nil), st.Vols...)}
	sort.Slice(v.vols, func(i, j int) bool { return v.vols[i].Start < v.vols[j].Start })
	return v
}

// clone deep-copies the state so a commit can be prepared without
// disturbing the published view.
func (st *compactState) clone() *compactState {
	out := &compactState{Vols: make([]*relocVol, len(st.Vols))}
	for i, v := range st.Vols {
		nv := *v
		nv.IDs = append([]uint16(nil), v.IDs...)
		nv.Ranges = append([]copyRange(nil), v.Ranges...)
		nv.idSet = make(map[uint16]bool, len(nv.IDs))
		for _, id := range nv.IDs {
			nv.idSet[id] = true
		}
		out.Vols[i] = &nv
	}
	return out
}

// compactView is the lock-free reader view of committed compactions,
// published via an atomic pointer at every commit.
type compactView struct {
	vols []*relocVol // sorted by Start
}

// volAt returns the committed compaction covering a global data block, or
// nil.
func (cv *compactView) volAt(global int) *relocVol {
	if cv == nil {
		return nil
	}
	i := sort.Search(len(cv.vols), func(i int) bool { return cv.vols[i].end() > global })
	if i < len(cv.vols) && cv.vols[i].Start <= global {
		return cv.vols[i]
	}
	return nil
}

// demotedAt is volAt restricted to demoted volumes — the cold read-through
// lookup.
func (cv *compactView) demotedAt(global int) *relocVol {
	v := cv.volAt(global)
	if v != nil && v.Demoted {
		return v
	}
	return nil
}

// originOf returns the compacted volume (and the containing range) whose
// committed copy ranges contain the first-fragment position (block, rec), or
// nil when the position is not a committed copy (an orphan from an aborted
// compaction).
func (cv *compactView) originOf(block, rec int) (*relocVol, *copyRange) {
	if cv == nil {
		return nil, nil
	}
	for _, v := range cv.vols {
		for i := range v.Ranges {
			if v.Ranges[i].contains(block, rec) {
				return v, &v.Ranges[i]
			}
		}
	}
	return nil, nil
}

// Sidecar wire format: magic, crc32 (IEEE, of everything after the crc),
// then uvarint-coded fields. Strictly versioned by magic; an unknown magic
// or failing crc is an error (the caller refuses to open rather than guess).
var compactMagic = []byte("clioCMP1")

// ErrBadSidecar indicates an undecodable compaction sidecar.
var ErrBadSidecar = errors.New("clio: malformed compaction sidecar")

func (st *compactState) encode() []byte {
	body := wire.PutUvarint(nil, uint64(len(st.Vols)))
	for _, v := range st.Vols {
		body = wire.PutUint32(body, v.Index)
		body = wire.PutUvarint(body, uint64(v.Start))
		body = wire.PutUvarint(body, uint64(v.Blocks))
		body = wire.PutUvarint(body, uint64(v.Capacity))
		if v.Demoted {
			body = append(body, 1)
		} else {
			body = append(body, 0)
		}
		body = wire.PutUvarint(body, uint64(len(v.IDs)))
		for _, id := range v.IDs {
			body = wire.PutUvarint(body, uint64(id))
		}
		body = wire.PutUvarint(body, uint64(len(v.Ranges)))
		for _, r := range v.Ranges {
			body = wire.PutUvarint(body, uint64(r.StartBlock))
			body = wire.PutUvarint(body, uint64(r.StartRec))
			body = wire.PutUvarint(body, uint64(r.EndBlock))
			body = wire.PutUvarint(body, uint64(r.EndRec))
			body = wire.PutUvarint(body, uint64(r.Seq))
		}
	}
	out := append([]byte(nil), compactMagic...)
	out = wire.PutUint32(out, crc32.ChecksumIEEE(body))
	return append(out, body...)
}

func decodeCompactState(data []byte) (*compactState, error) {
	if len(data) < len(compactMagic)+4 {
		return nil, ErrBadSidecar
	}
	for i, b := range compactMagic {
		if data[i] != b {
			return nil, fmt.Errorf("%w: bad magic", ErrBadSidecar)
		}
	}
	want, err := wire.Uint32(data[len(compactMagic):])
	if err != nil {
		return nil, ErrBadSidecar
	}
	body := data[len(compactMagic)+4:]
	if crc32.ChecksumIEEE(body) != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadSidecar)
	}
	u := func() (int, error) {
		v, n, err := wire.Uvarint(body)
		if err != nil {
			return 0, ErrBadSidecar
		}
		body = body[n:]
		return int(v), nil
	}
	nvols, err := u()
	if err != nil {
		return nil, err
	}
	st := &compactState{}
	for i := 0; i < nvols; i++ {
		if len(body) < 4 {
			return nil, ErrBadSidecar
		}
		idx, err := wire.Uint32(body)
		if err != nil {
			return nil, ErrBadSidecar
		}
		body = body[4:]
		v := &relocVol{Index: idx, idSet: make(map[uint16]bool)}
		if v.Start, err = u(); err != nil {
			return nil, err
		}
		if v.Blocks, err = u(); err != nil {
			return nil, err
		}
		if v.Capacity, err = u(); err != nil {
			return nil, err
		}
		if len(body) < 1 {
			return nil, ErrBadSidecar
		}
		v.Demoted = body[0] == 1
		body = body[1:]
		nids, err := u()
		if err != nil {
			return nil, err
		}
		for j := 0; j < nids; j++ {
			id, err := u()
			if err != nil || id > int(wire.MaxLogID) {
				return nil, ErrBadSidecar
			}
			v.IDs = append(v.IDs, uint16(id))
			v.idSet[uint16(id)] = true
		}
		nranges, err := u()
		if err != nil {
			return nil, err
		}
		for j := 0; j < nranges; j++ {
			var r copyRange
			if r.StartBlock, err = u(); err != nil {
				return nil, err
			}
			if r.StartRec, err = u(); err != nil {
				return nil, err
			}
			if r.EndBlock, err = u(); err != nil {
				return nil, err
			}
			if r.EndRec, err = u(); err != nil {
				return nil, err
			}
			if r.Seq, err = u(); err != nil {
				return nil, err
			}
			v.Ranges = append(v.Ranges, r)
		}
		st.Vols = append(st.Vols, v)
	}
	return st, nil
}

// loadColdState reads the compaction sidecar at Open, before recovery runs:
// catalog/entrymap replay from the beginning of the sequence must already be
// able to read demoted volumes' blocks through the cold backend.
func (s *Service) loadColdState() error {
	if s.opt.Cold == nil {
		return nil
	}
	if s.opt.Cold.Backend == nil || s.opt.Cold.State == nil {
		return errors.New("clio: cold tier needs both a backend and a state store")
	}
	data, err := s.opt.Cold.State.Load()
	if err != nil {
		return fmt.Errorf("clio: load compaction sidecar: %w", err)
	}
	st := &compactState{}
	if data != nil {
		if st, err = decodeCompactState(data); err != nil {
			return err
		}
	}
	s.cmpState = st
	s.cmpView.Store(st.view())
	return nil
}

// commitColdState persists a prepared state and publishes its view. The
// save is the commit point: a crash before it leaves the previous state
// (and previous view) in force.
func (s *Service) commitColdState(st *compactState) error {
	// Refuse to commit a state whose ranges could invert delivery order: a
	// range covers the consecutive sequence run Seq..Seq+slots-1, so within
	// one volume consecutive ranges must not overlap logically. A violation
	// means a bookkeeping bug; the uncommitted copies are harmless orphans,
	// so failing the compaction loses nothing.
	for _, v := range st.Vols {
		for i := 1; i < len(v.Ranges); i++ {
			a, b := &v.Ranges[i-1], &v.Ranges[i]
			if b.Seq < a.Seq+(a.EndRec-a.StartRec+1) {
				return fmt.Errorf("clio: compact ranges overlap for volume %d: %+v then %+v", v.Index, *a, *b)
			}
		}
	}
	if err := s.opt.Cold.State.Save(st.encode()); err != nil {
		return fmt.Errorf("clio: save compaction sidecar: %w", err)
	}
	s.cmpState = st
	s.cmpView.Store(st.view())
	return nil
}

// compView returns the published view of committed compactions (nil when no
// cold tier is configured or nothing has been compacted).
func (s *Service) compView() *compactView {
	if v := s.cmpView.Load(); v != nil && len(v.vols) > 0 {
		return v
	}
	return nil
}
