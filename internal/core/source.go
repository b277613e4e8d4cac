package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"clio/internal/archive"
	"clio/internal/blockfmt"
	"clio/internal/cache"
	"clio/internal/entrymap"
	"clio/internal/volume"
	"clio/internal/wire"
	"clio/internal/wodev"
)

// locatorSource adapts the service's block storage to the entrymap locator's
// Source and RecoverSource interfaces. All methods read through the shared
// (lock-free) block path, so the locator can run without the writer lock;
// the accumulator is consulted under idxMu. Callers serialize the locator
// itself with locMu (or run single-threaded, as recovery does).
type locatorSource Service

func (ls *locatorSource) svc() *Service { return (*Service)(ls) }

// End implements entrymap.Source.
func (ls *locatorSource) End() int { return ls.svc().endShared() }

// EntryAt implements entrymap.Source and entrymap.RecoverSource: it reads
// the entrymap entry nominally due at the given boundary, scanning forward
// up to the displacement limit when the boundary block is unreadable or the
// entry was displaced by a fragment chain or a damaged block (§2.3.2).
// Entrymap entries are self-identifying (level, boundary), so the scan
// cannot mistake a neighbouring boundary's entry for the requested one.
// A nil result ("no information") makes the locator search conservatively,
// which keeps a race with the writer's boundary roll-up merely slower, never
// wrong.
func (ls *locatorSource) EntryAt(level, boundary int) (*entrymap.Entry, error) {
	s := ls.svc()
	end := s.endShared()
	limit := boundary + s.opt.DisplacementLimit
	for b := boundary; b <= limit && b < end; b++ {
		parsed, err := s.parseBlock(b)
		if err != nil {
			continue // unreadable: keep scanning forward
		}
		if b > boundary && parsed.Flags&blockfmt.FlagEntrymapBoundary == 0 {
			// Displaced entries always land in flagged blocks; skip the
			// unflagged block but keep scanning (a long fragment chain can
			// push the displaced entry several blocks past its boundary).
			continue
		}
		for i, rec := range parsed.Records {
			if rec.LogID != entrymap.EntrymapID || rec.Continued {
				continue
			}
			data, aerr := s.assemble(b, i, parsed)
			if aerr != nil {
				continue
			}
			e, derr := entrymap.Decode(data)
			if derr != nil {
				continue
			}
			if e.Level == level && e.Boundary == boundary {
				return e, nil
			}
		}
	}
	return nil, nil
}

// Pending implements entrymap.Source: the accumulator's in-progress bitmap,
// widened with the staged tail block's contents (the tail is readable but
// not yet noted in the accumulator — that happens at seal).
func (ls *locatorSource) Pending(level int, id uint16) (wire.Bitmap, int) {
	s := ls.svc()
	s.idxMu.Lock()
	live, start := s.acc.Pending(level, id)
	// The accumulator mutates its bitmaps in place (NoteBlock, under idxMu)
	// and the locator reads the result after this call returns: hand out a
	// copy, never the live map.
	var bm wire.Bitmap
	if len(live) > 0 {
		bm = make(wire.Bitmap, len(live))
		copy(bm, live)
	}
	s.idxMu.Unlock()
	sn := s.snap()
	if level == 1 {
		n := s.opt.Degree
		grow := func() {
			if len(bm) < (n+7)/8 {
				eff := make(wire.Bitmap, (n+7)/8)
				copy(eff, bm)
				bm = eff
			}
		}
		// Pipelined seals are readable but, like the tail, not yet noted in
		// the accumulator (that happens when their device write completes).
		for i := range sn.pipe {
			if sn.pipe[i].ids[id] {
				grow()
				bm.Set(sn.pipe[i].global % n)
			}
		}
		if sn.tailGlobal >= 0 && sn.tailIDs[id] {
			grow()
			bm.Set(sn.tailGlobal % n)
		}
	}
	return bm, start
}

// BlockContains implements entrymap.Source. Fragments count: the entrymap
// marks every block holding any part of an entry.
func (ls *locatorSource) BlockContains(block int, id uint16) (bool, error) {
	parsed, err := ls.svc().parseBlock(block)
	if err != nil {
		return false, nil // unreadable blocks contribute nothing
	}
	for _, rec := range parsed.Records {
		if rec.LogID == id {
			return true, nil
		}
		for _, ex := range rec.ExtraIDs {
			if ex == id {
				return true, nil
			}
		}
	}
	return false, nil
}

// BlockFirstTS implements entrymap.Source.
func (ls *locatorSource) BlockFirstTS(block int) (int64, bool, error) {
	parsed, err := ls.svc().parseBlock(block)
	if err != nil {
		return 0, false, nil
	}
	return parsed.FirstTimestamp, true, nil
}

// BlockIDs implements entrymap.RecoverSource.
func (ls *locatorSource) BlockIDs(block int) ([]uint16, error) {
	parsed, err := ls.svc().parseBlock(block)
	if err != nil {
		return nil, nil // lost block: its entrymap info is simply absent
	}
	seen := make(map[uint16]bool)
	var out []uint16
	note := func(id uint16) {
		if id == entrymap.VolumeSeqID || id == entrymap.EntrymapID || seen[id] {
			return
		}
		seen[id] = true
		out = append(out, id)
	}
	for _, rec := range parsed.Records {
		note(rec.LogID)
		for _, ex := range rec.ExtraIDs {
			note(ex)
		}
	}
	return out, nil
}

// readBlock returns the raw image of a global data block, via the cache.
// It is safe without the writer lock: sealed blocks are immutable, the
// staged tail is served from the published snapshot, and cache, volume set
// and devices synchronize internally. Unreadable conditions (unwritten,
// invalidated, offline) surface as errors; damaged blocks surface later as
// parse errors.
func (s *Service) readBlock(global int) ([]byte, error) {
	key := cache.Key{Block: global}
	bc := s.blockCache()
	if img := bc.Lookup(key); img != nil {
		s.opt.Clock.ChargeCachedBlock()
		return img, nil
	}
	return s.readBlockMiss(global)
}

// readBlockMiss is readBlock after a cache miss: it serves the staged tail
// and pipelined seals from the published snapshot and reads everything else
// from the device, populating the cache either way.
func (s *Service) readBlockMiss(global int) ([]byte, error) {
	key := cache.Key{Block: global}
	bc := s.blockCache()
	sn := s.snap()
	if global == sn.tailGlobal {
		// The staged tail exists only in memory (and NVRAM); if the cache
		// evicted its image, re-publish the snapshot's copy.
		bc.Put(key, sn.tailImage)
		if s.snap() != sn {
			// The tail advanced while we were publishing: our image may
			// predate the seal, so drop it and let the next reader fetch
			// the durable block from the device.
			bc.Invalidate(key)
		}
		s.opt.Clock.ChargeCachedBlock()
		return sn.tailImage, nil
	}
	for i := range sn.pipe {
		if ps := &sn.pipe[i]; ps.global == global {
			// A pipelined seal awaiting its device write: serve the staged
			// image, with the same republication-race rule as the tail (a
			// slide can renumber in-flight blocks).
			bc.Put(key, ps.img)
			if s.snap() != sn {
				bc.Invalidate(key)
			}
			s.opt.Clock.ChargeCachedBlock()
			return ps.img, nil
		}
	}
	v, local, err := s.set.Locate(global)
	if err != nil {
		if errors.Is(err, volume.ErrOffline) {
			return s.readColdBlock(global)
		}
		return nil, err
	}
	buf := make([]byte, s.opt.BlockSize)
	s.opt.Clock.ChargeDeviceRead(s.opt.BlockSize)
	devIdx := v.DeviceBlock(local)
	// Transient faults are retried with backoff; mirrored devices (§5
	// footnote 11) additionally route around a silently corrupted primary
	// copy when a replica's copy still validates.
	if err := s.readDeviceBlock(v, devIdx, buf, blockfmt.Validate); err != nil {
		return nil, err
	}
	bc.Put(key, buf)
	s.opt.Clock.ChargeCachedBlock()
	return buf, nil
}

// readColdBlock serves a block of a demoted volume from the cold backend at
// archival latency, populating the block cache so a re-read of recently
// touched cold data is a hot cache hit. Blocks of volumes that are merely
// offline (unmounted, not demoted) stay unreadable.
func (s *Service) readColdBlock(global int) ([]byte, error) {
	view := s.compView()
	if view == nil {
		return nil, fmt.Errorf("clio: block %d: %w", global, volume.ErrOffline)
	}
	v := view.demotedAt(global)
	if v == nil {
		return nil, fmt.Errorf("clio: block %d: %w", global, volume.ErrOffline)
	}
	buf := make([]byte, s.opt.BlockSize)
	s.opt.Clock.ChargeColdFetch(s.opt.BlockSize)
	devBlock := (global - v.Start) + 1 // past the volume header
	if err := archive.ReadVolumeBlock(context.Background(), s.opt.Cold.Backend, v.Index, devBlock, buf); err != nil {
		return nil, err
	}
	s.coldFetches.Add(1)
	s.blockCache().Put(cache.Key{Block: global}, buf)
	return buf, nil
}

// validatedReader is implemented by mirrored devices.
type validatedReader interface {
	ReadValidated(idx int, dst []byte, valid func([]byte) bool) error
}

// decodedBlock is one block's interpreted form: its parse plus the derived
// per-record effective timestamps. For device-durable (hence immutable)
// blocks it is attached to the block's cache entry, so a warm read decodes
// each block once and every Entry.Data handed out is a subslice of the
// cache-owned image — the zero-copy read path.
type decodedBlock struct {
	p    *blockfmt.Parsed
	effs []int64
}

// decodeBlock returns the decoded form of a global data block, reusing a
// decode attached to the block's cache entry when present (lock-free, see
// readBlock).
func (s *Service) decodeBlock(global int) (*decodedBlock, error) {
	key := cache.Key{Block: global}
	bc := s.blockCache()
	img, dec := bc.LookupDecoded(key)
	if img != nil {
		s.opt.Clock.ChargeCachedBlock()
		if ls := s.snap().lastSeal; ls.img != nil && ls.global == global && !bytes.Equal(img, ls.img) {
			// An older staged-tail image the seal has not replaced yet.
			img, dec = ls.img, nil
		}
		if db, ok := dec.(*decodedBlock); ok {
			return db, nil
		}
	} else {
		var err error
		if img, err = s.readBlockMiss(global); err != nil {
			return nil, err
		}
	}
	p, err := blockfmt.Parse(img)
	if err != nil {
		return nil, err
	}
	db := &decodedBlock{p: p, effs: effectiveTimestamps(p)}
	if global < s.snap().sealedEnd {
		// Attach only for sealed, device-durable blocks: the staged tail and
		// pipelined seals are re-put as they change, and Attach's identity
		// check alone would still let a decode of a just-superseded tail
		// image linger until the next re-put. Sealed images never change, so
		// their decode is safe for the entry's whole lifetime.
		bc.Attach(key, img, db)
	}
	return db, nil
}

// parseBlock reads and decodes a global data block (lock-free, see
// readBlock).
func (s *Service) parseBlock(global int) (*blockfmt.Parsed, error) {
	db, err := s.decodeBlock(global)
	if err != nil {
		return nil, err
	}
	return db.p, nil
}

// errChainOpen reports a fragmented entry whose continuation the writer
// has not published yet: the chain reaches the readable end while an
// append is still in progress. It wraps ErrLost for callers that only know
// that error; a cursor instead stops before the entry and retries.
var errChainOpen = fmt.Errorf("%w: continuation not written yet", ErrLost)

// assemble reassembles the full data of the entry whose first fragment is
// record idx of block `global` (already parsed as `parsed`). Fragmented
// entries continue as the first same-id continued record of each following
// block. A chain that runs off the readable end is torn (lost): ErrLost —
// or errChainOpen when it breaks past the sealed frontier while the
// snapshot shows an append mid-chain.
func (s *Service) assemble(global, idx int, parsed *blockfmt.Parsed) ([]byte, error) {
	rec := parsed.Records[idx]
	if !rec.Continues {
		return rec.Data, nil
	}
	out := append([]byte(nil), rec.Data...)
	id := rec.LogID
	sn := s.snap()
	end := sn.end()
	// lost classifies a missing continuation at block b. Only past the
	// sealed frontier can it be one the writer is still producing; a chain
	// broken inside sealed history is torn whatever the writer is doing.
	lost := func(b int) error {
		if sn.chainOpen && b >= sn.sealedEnd {
			return errChainOpen
		}
		return ErrLost
	}
	// next returns the chain's record in p, if p holds one.
	next := func(p *blockfmt.Parsed) *blockfmt.RecordView {
		for i := range p.Records {
			if r := &p.Records[i]; r.LogID == id && r.Continued {
				return r
			}
		}
		return nil
	}
	for b := global + 1; ; b++ {
		if b >= end {
			return nil, lost(b) // torn chain: writer died mid-entry
		}
		p, err := s.parseBlock(b)
		if err != nil {
			if errors.Is(err, wodev.ErrInvalidated) {
				// The writer hit a damaged block here and slid the staged
				// contents to the next block (§2.3.2): the chain continues
				// past the invalidated block, it is not torn.
				continue
			}
			return nil, lost(b) // damaged or unwritten continuation block
		}
		r := next(p)
		if r == nil && b == sn.tailGlobal {
			// The cache can still hold an older image of the staged tail
			// than this snapshot's; the snapshot's own copy is the one that
			// must hold the continuation.
			if tp, perr := blockfmt.Parse(sn.tailImage); perr == nil {
				r = next(tp)
			}
		}
		if r == nil {
			return nil, lost(b) // chain broken
		}
		out = append(out, r.Data...)
		if !r.Continues {
			return out, nil
		}
	}
}
