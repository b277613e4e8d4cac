// Package scrub verifies the on-media invariants of a Clio volume sequence
// — an fsck for log stores. It walks every readable block and checks:
//
//  1. every block parses (magic, CRC, self-declared index) or is accounted
//     for as invalidated/damaged;
//  2. block first-entry timestamps are non-decreasing in write order
//     (DESIGN.md invariant 6);
//  3. the entrymap is redundant: every written entrymap entry's bitmaps
//     agree exactly with a linear scan of the blocks it covers (invariant
//     2 — "the information in an entrymap log file is redundant");
//  4. fragment chains are well-formed: every Continues record has its
//     continuation as the first same-id continued record of the next
//     readable block, and no orphan continuations exist;
//  5. the catalog replays cleanly and every entry's log-file id is known
//     to the catalog;
//  6. damaged blocks can optionally be invalidated on the medium (§2.3.2's
//     repair action), so future readers skip them cheaply.
//
// Scrubbing reads through the service's public surface plus a raw
// block-level view, and never writes unless Repair is set.
package scrub

import (
	"errors"
	"fmt"
	"sort"

	"clio/internal/blockfmt"
	"clio/internal/catalog"
	"clio/internal/entrymap"
	"clio/internal/obs"
	"clio/internal/volume"
	"clio/internal/wire"
	"clio/internal/wodev"
)

// Options controls a scrub.
type Options struct {
	// Repair invalidates damaged blocks on the medium (§2.3.2). Without
	// it, scrub is read-only.
	Repair bool
	// Registry, when non-nil, receives live scrub progress counters
	// (clio_scrub_blocks_scanned_total, clio_scrub_problems_total,
	// clio_scrub_repairs_total) so a long scrub can be watched from the
	// admin endpoint while it runs.
	Registry *obs.Registry
}

// Problem is one detected inconsistency.
type Problem struct {
	// Block is the global data-block index, or -1 for volume-level issues.
	Block int
	// Kind is a stable short code (bad-block, ts-order, entrymap-mismatch,
	// torn-chain, orphan-fragment, unknown-id, catalog).
	Kind string
	// Detail is a human-readable explanation.
	Detail string
}

// String renders the problem for reports.
func (p Problem) String() string {
	if p.Block < 0 {
		return fmt.Sprintf("%s: %s", p.Kind, p.Detail)
	}
	return fmt.Sprintf("block %d: %s: %s", p.Block, p.Kind, p.Detail)
}

// Report is a scrub's outcome.
type Report struct {
	// Blocks is the number of data blocks in the written portion.
	Blocks int
	// Readable counts blocks that parsed.
	Readable int
	// Invalidated counts blocks already invalidated on the medium.
	Invalidated int
	// Damaged counts unreadable (garbage) blocks.
	Damaged int
	// Repaired counts damaged blocks invalidated by this scrub.
	Repaired int
	// Entries counts parsed records (fragments).
	Entries int
	// EntrymapEntries counts verified entrymap entries.
	EntrymapEntries int
	// CatalogRecords counts replayed catalog records.
	CatalogRecords int
	// Usage reports per-log-file space accounting (entries and client data
	// bytes), keyed by path — the admin view of §3.5's space analysis.
	Usage []LogUsage
	// OpenTailChains lists log-file ids whose final fragment chain runs off
	// the written end of the medium. This is informational, not a problem:
	// with an NVRAM tail (§2.3.1) the continuation is staged in rewriteable
	// storage and completes when the tail block seals; only if the NVRAM is
	// also lost does the chain become torn (and readers then skip it).
	OpenTailChains []uint16
	// Problems lists everything found.
	Problems []Problem

	// onProblem, when set, observes each problem as it is recorded — the
	// live-progress feed for Options.Registry.
	onProblem func()
}

// LogUsage is one log file's space accounting.
type LogUsage struct {
	ID      uint16
	Path    string
	Entries int   // chain starts (whole entries)
	Bytes   int64 // client data bytes (including fragments)
}

// Clean reports whether no problems were found.
func (r *Report) Clean() bool { return len(r.Problems) == 0 }

func (r *Report) add(block int, kind, format string, args ...any) {
	r.Problems = append(r.Problems, Problem{
		Block:  block,
		Kind:   kind,
		Detail: fmt.Sprintf(format, args...),
	})
	if r.onProblem != nil {
		r.onProblem()
	}
}

// Volumes scrubs a volume sequence given its mounted devices (any order).
func Volumes(devs []wodev.Device, opt Options) (*Report, error) {
	if len(devs) == 0 {
		return nil, fmt.Errorf("scrub: no devices")
	}
	var vols []*volume.Volume
	for i, dev := range devs {
		v, err := volume.Mount(dev, i)
		if err != nil {
			return nil, fmt.Errorf("scrub: device %d: %w", i, err)
		}
		vols = append(vols, v)
	}
	set := volume.NewSet(vols[0].Hdr.Seq)
	for _, v := range vols {
		if err := set.Add(v); err != nil {
			return nil, err
		}
	}
	end, err := set.GlobalEnd()
	if err != nil {
		return nil, err
	}
	s := &scrubber{set: set, opt: opt, report: &Report{Blocks: end}}
	if reg := opt.Registry; reg != nil {
		s.scanned = reg.Counter("clio_scrub_blocks_scanned_total",
			"Blocks examined by the scrub's readability pass.")
		s.repaired = reg.Counter("clio_scrub_repairs_total",
			"Damaged blocks invalidated by the scrub.")
		s.report.onProblem = reg.Counter("clio_scrub_problems_total",
			"Inconsistencies recorded by the scrub.").Inc
	}
	if err := s.run(end); err != nil {
		return nil, err
	}
	return s.report, nil
}

type scrubber struct {
	set    *volume.Set
	opt    Options
	report *Report

	// scanned and repaired feed Options.Registry; nil-safe no-ops otherwise.
	scanned  *obs.Counter
	repaired *obs.Counter

	// parsed caches decoded blocks; nil entries are unreadable.
	parsed map[int]*blockfmt.Parsed
}

// readBlock reads one device block, preferring a validated (mirror-aware)
// read when the device offers one: on a mirrored pair an intact replica
// then masks a damaged primary, and repair must NOT invalidate the block —
// doing so would destroy the good copy too.
func readBlock(v *volume.Volume, local int, buf []byte) error {
	if m, ok := v.Dev.(wodev.ValidatedReader); ok {
		return m.ReadValidated(v.DeviceBlock(local), buf, blockfmt.Validate)
	}
	return v.Dev.ReadBlock(v.DeviceBlock(local), buf)
}

func (s *scrubber) block(g int) *blockfmt.Parsed {
	if p, ok := s.parsed[g]; ok {
		return p
	}
	v, local, err := s.set.Locate(g)
	if err != nil {
		s.parsed[g] = nil
		return nil
	}
	buf := make([]byte, v.Dev.BlockSize())
	if err := readBlock(v, local, buf); err != nil {
		s.parsed[g] = nil
		return nil
	}
	p, err := blockfmt.Parse(buf)
	if err != nil {
		s.parsed[g] = nil
		return nil
	}
	s.parsed[g] = p
	return p
}

func (s *scrubber) run(end int) error {
	s.parsed = make(map[int]*blockfmt.Parsed, end)
	r := s.report

	// Pass 1: readability, timestamps, record accounting, catalog replay.
	cat := catalog.NewTable()
	var lastTS int64
	var emEntries []struct {
		block int
		e     *entrymap.Entry
	}
	for g := 0; g < end; g++ {
		s.scanned.Inc()
		v, local, err := s.set.Locate(g)
		if err != nil {
			r.add(g, "offline", "volume not mounted: %v", err)
			continue
		}
		buf := make([]byte, v.Dev.BlockSize())
		rerr := readBlock(v, local, buf)
		if errors.Is(rerr, wodev.ErrInvalidated) {
			r.Invalidated++
			continue
		}
		if rerr != nil {
			r.Damaged++
			r.add(g, "bad-block", "unreadable: %v", rerr)
			s.maybeRepair(g)
			continue
		}
		p, perr := blockfmt.Parse(buf)
		if perr != nil {
			r.Damaged++
			r.add(g, "bad-block", "parse: %v", perr)
			s.maybeRepair(g)
			continue
		}
		s.parsed[g] = p
		r.Readable++
		r.Entries += len(p.Records)
		if int(p.BlockIndex) != g {
			r.add(g, "bad-block", "footer says block %d", p.BlockIndex)
		}
		if len(p.Records) > 0 {
			if p.FirstTimestamp < lastTS {
				r.add(g, "ts-order", "first timestamp %d before predecessor's %d",
					p.FirstTimestamp, lastTS)
			}
			if p.FirstTimestamp > 0 {
				lastTS = p.FirstTimestamp
			}
		}
		for i, rec := range p.Records {
			if rec.LogID != entrymap.EntrymapID || rec.Continued {
				continue
			}
			data, ok := s.assemble(g, i, p)
			if !ok {
				continue // chain problems reported by pass 3
			}
			e, derr := entrymap.Decode(data)
			if derr != nil {
				r.add(g, "entrymap-mismatch", "undecodable entrymap entry: %v", derr)
				continue
			}
			emEntries = append(emEntries, struct {
				block int
				e     *entrymap.Entry
			}{g, e})
		}
		for i, rec := range p.Records {
			if rec.LogID != entrymap.CatalogID || rec.Continued {
				continue
			}
			data, ok := s.assemble(g, i, p)
			if !ok {
				continue
			}
			crec, derr := catalog.DecodeRecord(data)
			if derr != nil {
				r.add(g, "catalog", "undecodable catalog record: %v", derr)
				continue
			}
			if err := cat.Apply(crec); err != nil {
				r.add(g, "catalog", "replay: %v", err)
				continue
			}
			r.CatalogRecords++
		}
	}

	// Pass 2: every entry's id is known to the catalog, and the entrymap
	// entries' bitmaps match a linear scan.
	known := make(map[uint16]bool)
	for _, id := range cat.IDs() {
		known[id] = true
	}
	occurrences := make(map[uint16][]int) // tracked id -> blocks containing it
	for g := 0; g < end; g++ {
		p := s.parsed[g]
		if p == nil {
			continue
		}
		seen := map[uint16]bool{}
		note := func(id uint16) {
			if !known[id] {
				r.add(g, "unknown-id", "entry for id %d absent from catalog", id)
				known[id] = true // report once
			}
			if id == entrymap.VolumeSeqID || id == entrymap.EntrymapID || seen[id] {
				return
			}
			seen[id] = true
			occurrences[id] = append(occurrences[id], g)
		}
		for _, rec := range p.Records {
			note(rec.LogID)
			for _, ex := range rec.ExtraIDs {
				note(ex)
			}
		}
	}
	for _, em := range emEntries {
		s.checkEntrymap(em.block, em.e, occurrences, end)
		r.EntrymapEntries++
	}

	// Pass 3: fragment chains.
	s.checkChains(end)

	// Pass 4: per-log-file usage accounting.
	usage := map[uint16]*LogUsage{}
	for g := 0; g < end; g++ {
		p := s.parsed[g]
		if p == nil {
			continue
		}
		for _, rec := range p.Records {
			for _, id := range append([]uint16{rec.LogID}, rec.ExtraIDs...) {
				u, ok := usage[id]
				if !ok {
					u = &LogUsage{ID: id}
					usage[id] = u
				}
				u.Bytes += int64(len(rec.Data))
				if !rec.Continued {
					u.Entries++
				}
			}
		}
	}
	ids := make([]int, 0, len(usage))
	for id := range usage {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		u := usage[uint16(id)]
		if path, err := cat.PathOf(uint16(id)); err == nil {
			u.Path = path
		} else {
			u.Path = fmt.Sprintf("#%d", id)
		}
		r.Usage = append(r.Usage, *u)
	}
	return nil
}

// assemble follows a fragment chain, returning ok=false when torn.
func (s *scrubber) assemble(g, idx int, p *blockfmt.Parsed) ([]byte, bool) {
	rec := p.Records[idx]
	if !rec.Continues {
		return rec.Data, true
	}
	out := append([]byte(nil), rec.Data...)
	id := rec.LogID
	for b := g + 1; ; b++ {
		np := s.block(b)
		if np == nil {
			return nil, false
		}
		found := false
		for _, nr := range np.Records {
			if nr.LogID != id || !nr.Continued {
				continue
			}
			out = append(out, nr.Data...)
			found = true
			if !nr.Continues {
				return out, true
			}
			break
		}
		if !found {
			return nil, false
		}
	}
}

// checkEntrymap verifies one entrymap entry against ground truth. Entries
// covering spans with damaged blocks are only checked for the readable
// blocks (a damaged block's contributions are unknowable).
func (s *scrubber) checkEntrymap(atBlock int, e *entrymap.Entry, occ map[uint16][]int, end int) {
	span := 1
	for i := 0; i < e.Level; i++ {
		span *= e.N
	}
	lo := e.Boundary - span
	if lo < 0 {
		s.report.add(atBlock, "entrymap-mismatch", "level-%d entry at boundary %d covers negative span", e.Level, e.Boundary)
		return
	}
	child := span / e.N
	damagedInSpan := false
	for b := lo; b < e.Boundary && b < end; b++ {
		if s.block(b) == nil {
			damagedInSpan = true
			break
		}
	}
	// Ground truth bitmaps per id.
	truth := make(map[uint16]wire.Bitmap)
	for id, blocks := range occ {
		i := sort.SearchInts(blocks, lo)
		for ; i < len(blocks) && blocks[i] < e.Boundary; i++ {
			bm, ok := truth[id]
			if !ok {
				bm = wire.NewBitmap(e.N)
				truth[id] = bm
			}
			bm.Set((blocks[i] - lo) / child)
		}
	}
	// Every declared bitmap must be a superset of the readable truth and,
	// with no damage in the span, exactly equal.
	declared := map[uint16]bool{}
	for _, m := range e.Maps {
		declared[m.ID] = true
		want := truth[m.ID]
		for g := 0; g < e.N; g++ {
			wantBit := want != nil && want.Get(g)
			gotBit := m.Bits.Get(g)
			if wantBit && !gotBit {
				s.report.add(atBlock, "entrymap-mismatch",
					"level-%d@%d: id %d group %d has entries but bit clear", e.Level, e.Boundary, m.ID, g)
			}
			if gotBit && !wantBit && !damagedInSpan {
				s.report.add(atBlock, "entrymap-mismatch",
					"level-%d@%d: id %d group %d bit set but no entries", e.Level, e.Boundary, m.ID, g)
			}
		}
	}
	if !damagedInSpan {
		for id, bm := range truth {
			if !bm.Empty() && !declared[id] {
				s.report.add(atBlock, "entrymap-mismatch",
					"level-%d@%d: id %d present in span but missing from entry", e.Level, e.Boundary, id)
			}
		}
	}
}

// checkChains verifies fragment-chain structure block by block.
func (s *scrubber) checkChains(end int) {
	// A continuation is legal at the start of block b only if some record
	// in a previous readable block continues into it.
	expect := map[uint16]bool{} // ids with an open chain entering the next block
	for g := 0; g < end; g++ {
		p := s.parsed[g]
		if p == nil {
			// Unreadable block: any open chains die here; continuations
			// after it are necessarily orphans but not re-reported.
			expect = map[uint16]bool{}
			continue
		}
		seenCont := map[uint16]bool{}
		for _, rec := range p.Records {
			if rec.Continued {
				if !expect[rec.LogID] || seenCont[rec.LogID] {
					s.report.add(g, "orphan-fragment",
						"continuation for id %d with no open chain", rec.LogID)
				}
				seenCont[rec.LogID] = true
				if !rec.Continues {
					delete(expect, rec.LogID)
				}
				continue
			}
		}
		// Chains that expected a continuation here but found none are torn.
		for id := range expect {
			if !seenCont[id] {
				s.report.add(g, "torn-chain", "id %d chain has no continuation", id)
				delete(expect, id)
			}
		}
		// Open new chains.
		for _, rec := range p.Records {
			if rec.Continues {
				expect[rec.LogID] = true
			}
		}
	}
	for id := range expect {
		s.report.OpenTailChains = append(s.report.OpenTailChains, id)
	}
}

// maybeRepair invalidates a damaged block when Repair is set.
func (s *scrubber) maybeRepair(g int) {
	if !s.opt.Repair {
		return
	}
	v, local, err := s.set.Locate(g)
	if err != nil {
		return
	}
	if err := v.Dev.Invalidate(v.DeviceBlock(local)); err == nil {
		s.report.Repaired++
		s.repaired.Inc()
	}
}
