// Package core implements the Clio log service itself — the paper's primary
// contribution. It glues the substrates together: write-once devices
// (internal/wodev) carrying volumes (internal/volume), the block format
// (internal/blockfmt), the server block cache (internal/cache), the entrymap
// search tree (internal/entrymap) and the catalog (internal/catalog).
//
// A Service owns one volume sequence and exposes the log-file abstraction:
// readable, append-only files named in a directory hierarchy, written with
// optional timestamps and forced (synchronous) durability, and read through
// cursors that iterate forwards or backwards and seek by time (§2.1).
//
// # Write path
//
// Entries are packed into the current tail block. With an NVRAM tail
// (§2.3.1) the partial block is staged in rewriteable non-volatile storage
// and re-staged on each forced write; the write-once device only ever
// receives full blocks. Without an NVRAM tail a forced write must seal the
// partial block to the device immediately, padding the remainder — the
// internal fragmentation the paper warns about.
//
// At every Nth block boundary the entrymap accumulator emits its due entries
// (highest level first), which are appended to the entrymap log file at the
// boundary block, or displaced slightly when a fragmented entry straddles
// the boundary or the boundary block is damaged (§2.3.2).
//
// # Read path
//
// Cursors locate blocks via the entrymap locator and reassemble fragmented
// entries. Reads of recent data are served from the block cache; distant
// reads cost O(log_N d) block fetches (§3.3).
package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"clio/internal/blockfmt"
	"clio/internal/cache"
	"clio/internal/catalog"
	"clio/internal/entrymap"
	"clio/internal/faults"
	"clio/internal/obs"
	"clio/internal/vclock"
	"clio/internal/volume"
	"clio/internal/wodev"
)

// Errors.
var (
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("clio: service closed")
	// ErrEntryTooLarge is returned for entries above MaxEntrySize.
	ErrEntryTooLarge = errors.New("clio: entry exceeds maximum size")
	// ErrNoAllocator is returned when the active volume fills and no
	// successor-volume allocator was configured.
	ErrNoAllocator = errors.New("clio: volume full and no allocator configured")
	// ErrSystemLog is returned for client appends to reserved log files.
	ErrSystemLog = errors.New("clio: cannot append to a system log file")
	// ErrLost is returned when an entry's block was damaged or invalidated
	// and its contents cannot be recovered (§2.3.2).
	ErrLost = errors.New("clio: entry lost to media damage")
)

// Allocator provides a fresh, unwritten device for the next volume of a
// sequence when the active volume fills up.
type Allocator func(seq volume.SeqID, index uint32, startOffset uint64, blockSize int) (wodev.Device, error)

// Options configures a Service.
type Options struct {
	// BlockSize is the device block size; defaults to 1024 (§3.2).
	BlockSize int
	// Degree is the entrymap tree degree N; defaults to 16 (§3.2).
	Degree int
	// CacheBlocks bounds the block cache; 0 means unbounded; defaults to
	// 4096 blocks (4 MiB at the default block size).
	CacheBlocks int
	// Clock, when set, charges the paper's cost model for every operation so
	// experiments can report deterministic virtual times. Nil charges
	// nothing.
	Clock *vclock.Clock
	// NVRAM, when non-nil, stages the partial tail block in rewriteable
	// non-volatile storage so forced writes need not pad out blocks
	// (§2.3.1). Nil disables the tail: forced writes seal immediately.
	NVRAM NVRAM
	// Now supplies timestamps (Unix nanoseconds); defaults to time.Now.
	// The service enforces strictly increasing timestamps.
	Now func() int64
	// Allocate provides successor volumes; nil limits the sequence to the
	// initially mounted volumes.
	Allocate Allocator
	// MaxEntrySize bounds a single entry's data; defaults to 1 MiB.
	MaxEntrySize int
	// DisplacementLimit bounds how far an entrymap entry may be displaced
	// from its nominal boundary block before the locator gives up and falls
	// back to lower levels; defaults to the degree N.
	DisplacementLimit int
	// RemoteIPC selects the cross-machine IPC charge for the cost model.
	RemoteIPC bool
	// Retry bounds the retry-with-backoff schedule applied to device reads,
	// tail-block writes and NVRAM stores when they fail with a transient
	// fault (wodev.ErrTransient and friends); nil uses
	// faults.DefaultDevicePolicy(). Retries run while the service lock is
	// held, so the schedule should stay short.
	Retry *faults.RetryPolicy
	// Faults is the named fault/crash injection registry (FaultReadBlock,
	// FaultSealWrite, FaultNVRAMStore); nil injects nothing.
	Faults *faults.Registry
	// CheckpointInterval, when positive, emits a recovery checkpoint to
	// the reserved checkpoint log file every time that many blocks have
	// been sealed since the last one (and on clean Close), and makes Open
	// restore from the newest valid checkpoint instead of reconstructing
	// from scratch — bounding reopen cost by the interval rather than the
	// written portion. 0 (the default) disables both sides; a store
	// written with checkpoints remains fully openable without them.
	CheckpointInterval int
	// CommitWindow selects the group-commit policy for forced appends.
	// 0 (the default) sizes a gather window adaptively from EWMAs of the
	// arrival rate and the observed commit latency — a lone writer commits
	// immediately, a storm coalesces into large batches. A negative value
	// disables both the window and the pipelined sealer, restoring the
	// original leader/rider-only path; it is also what experiments pin to
	// keep vclock charges deterministic. Positive values are refused.
	//
	// When the configured NVRAM implements StagingNVRAM and CommitWindow is
	// 0, full-block seals are pipelined: the sealed image is made durable
	// in NVRAM, the force acks, and the write-once device write proceeds on
	// a background sealer while the next batch accumulates (bounded
	// in-flight window, in-order completion).
	CommitWindow time.Duration
	// Cold, when non-nil, enables the space-reclamation compactor and the
	// cold storage tier: CompactOnce copies the live entries of old sealed
	// volumes forward, demotes the emptied volumes to the configured archive
	// backend, and reads of demoted blocks transparently fetch from the
	// backend at archival latency. Nil disables compaction and cold reads.
	Cold *ColdTier
}

func (o Options) withDefaults() Options {
	if o.BlockSize <= 0 {
		o.BlockSize = wodev.DefaultBlockSize
	}
	if o.Degree <= 0 {
		o.Degree = entrymap.DefaultDegree
	}
	if o.CacheBlocks == 0 {
		o.CacheBlocks = 4096
	} else if o.CacheBlocks < 0 {
		o.CacheBlocks = 0 // explicit "unbounded"
	}
	if o.Now == nil {
		o.Now = func() int64 { return time.Now().UnixNano() }
	}
	if o.MaxEntrySize <= 0 {
		o.MaxEntrySize = 1 << 20
	}
	if o.DisplacementLimit <= 0 {
		o.DisplacementLimit = o.Degree
	}
	return o
}

// check rejects options no service can run with.
func (o Options) check() error {
	if o.CommitWindow > 0 {
		return fmt.Errorf("clio: CommitWindow %s: only 0 (adaptive) and negative (leader/rider queue) are supported", o.CommitWindow)
	}
	return nil
}

// Stats aggregates service activity, including the space-overhead accounting
// used by the §3.5 experiment.
type Stats struct {
	EntriesAppended int64
	ForcedWrites    int64
	BlocksSealed    int64
	DeadBlocks      int64 // blocks invalidated due to damage
	ClientBytes     int64 // client data bytes appended
	HeaderBytes     int64 // entry header + size-slot bytes (client entries)
	EntrymapBytes   int64 // entrymap entry bytes incl. their headers
	CatalogBytes    int64 // catalog entry bytes incl. their headers
	PaddingBytes    int64 // block bytes wasted by force-sealing
	FooterBytes     int64 // per-block footer bytes
	GroupCommits    int64 // batch commits that served two or more forced appends
	BatchedForces   int64 // forced appends that shared their commit with others
	Checkpoints     int64 // recovery checkpoints emitted
	CheckpointBytes int64 // checkpoint payload bytes incl. their headers
	AdaptiveWaits   int64 // commit leaders that opened an adaptive gather window
	PipelinedSeals  int64 // sealed blocks whose device write completed off the ack path

	// Compaction / cold tier.
	EntriesRelocated int64 // live entries copied forward by the compactor
	BytesRelocated   int64 // their data bytes
	ColdFetches      int64 // block reads served from the cold backend

	// Gauges sampled at Stats() time (not cumulative; zeroed by reset only
	// in the sense that they re-derive from live state).
	CommitWindowNanos int64 // current adaptive gather window (ns)
	InflightSeals     int64 // seals staged durable but not yet on device
	StagedBytes       int64 // bytes held by in-flight staged seals
	VolumesRelocated  int64 // volumes whose live entries have been copied forward
	VolumesDemoted    int64 // volumes archived cold and released locally
}

// Service is the Clio log service for one volume sequence.
//
// Locking discipline: s.mu is the WRITER lock — it serializes every mutation
// of tail state, the accumulator, the catalog write path and the stats.
// Readers never take it. Sealed blocks are immutable (write-once storage),
// so the read path works lock-free from the published tail snapshot
// (s.tailState): cache and device reads synchronize only inside their own
// components. idxMu guards the entrymap accumulator, which readers consult
// through the locator for the in-progress span; locMu serializes the
// (stat-counting, hence stateful) locator itself. Lock order: s.mu > idxMu;
// locMu > idxMu; neither idxMu nor locMu is ever held when acquiring s.mu.
type Service struct {
	mu  sync.Mutex
	opt Options

	set    *volume.Set
	cacheP atomic.Pointer[cache.Cache]
	cat    *catalog.Table
	acc    *entrymap.Accumulator
	loc    *entrymap.Locator

	// Tail state (s.mu).
	builder    *blockfmt.Builder
	tailGlobal int             // global data index of the staged tail; -1 when none
	tailIDs    map[uint16]bool // ids with records in the staged tail
	sealedEnd  int             // global data blocks durably on device (incl. dead)
	midChain   bool            // a fragmented entry is incomplete
	tailDirty  bool            // the staged tail holds records not yet forced
	pendingDue []*entrymap.Entry
	lastSeal   sealedImage // the latest direct seal (tailSnap.lastSeal)

	// tailState is the reader-visible snapshot of {sealedEnd, tail block,
	// tail image}; the writer republishes it at every tail transition.
	tailState atomic.Pointer[tailSnap]

	// Tail-publish notifier for streaming subscribers. pubSeq counts tail
	// publishes; tailWake holds the broadcast channel the current waiters
	// share, nil when nobody is waiting. The publish hook is a single
	// atomic load in that (common) case — subscribing must never tax the
	// force path of a store nobody is tailing.
	pubSeq   atomic.Uint64
	tailWake atomic.Pointer[chan struct{}]

	// idxMu guards s.acc against concurrent locator reads; locMu serializes
	// locator use by the lock-free read path.
	idxMu sync.Mutex
	locMu sync.Mutex

	// Group commit (§2.3.1 amortization): concurrently arriving forced
	// appends queue in forceQ; whoever holds leaderMu drains the queue,
	// appends every queued entry and performs ONE seal/NVRAM store for the
	// whole batch.
	forceQMu      sync.Mutex
	forceQ        []*forceReq
	leaderMu      sync.Mutex
	groupCommits  atomic.Int64
	batchedForces atomic.Int64

	// Adaptive commit window (see gatherWindow): EWMAs, in nanoseconds, of
	// forced-append inter-arrival time and commit duration, the previous
	// arrival stamp, and the window the current/most recent leader chose.
	// forceSig wakes a leader sleeping in its gather window early when a
	// new request arrives (capacity 1, non-blocking send).
	arrivalEWMA    atomic.Int64
	commitEWMA     atomic.Int64
	lastArrival    atomic.Int64
	windowNanos    atomic.Int64
	adaptiveWaits  atomic.Int64
	pipelinedSeals atomic.Int64
	forceSig       chan struct{}
	batchHist      [9]atomic.Int64 // pow-2 batch-size buckets 1,2,4,...,≥256

	// Pipelined sealer (s.mu + sealCond). pipe holds sealed blocks whose
	// images are durable in staging NVRAM but whose in-order device writes
	// have not completed; the background sealer drains it head-first.
	// pipeErr parks a hard device-write failure until a foreground
	// operation absorbs it (drainPipeLocked). staging is set at Open when
	// the NVRAM supports StagingNVRAM and CommitWindow >= 0.
	sealCond       *sync.Cond
	pipe           []*pendingSeal
	pipeErr        error
	sealerOn       bool
	sealerStop     bool
	staging        bool
	pendingBad     []int // bad-block records queued by pipeline slides
	stagedTailFrom int   // recovery: NVRAM tail renumber key (replayStagedSeals)

	lastTS          int64
	lastBound       int   // last boundary EntriesDue has been called for
	ckptAt          int   // sealedEnd as of the last emitted/restored checkpoint
	badBlocks       []int // full known bad-block list (recovery + live slides)
	pendingSnapshot []*catalog.Record
	closedFlag      atomic.Bool
	stats           Stats
	recovery        RecoveryReport

	// Fault tolerance: the effective retry schedule, and the blocks the
	// current client operation had to relocate past (reported back as a
	// DegradedError on completion).
	retry           faults.RetryPolicy
	opDegraded      []int
	opDegradedCause error
	// Relocations by the background sealer, reported on the next operation.
	pendingDegraded      []int
	pendingDegradedCause error

	// Compaction / cold tier (Options.Cold non-nil). cmpMu serializes
	// CompactOnce passes; cmpState is the sidecar-backed state, mutated only
	// under cmpMu (and read at Open before concurrency starts); cmpView is
	// the lock-free reader view republished at every sidecar commit;
	// compactHook is a test-only stage callback; coldFetches counts reads
	// served from the cold backend.
	cmpMu       sync.Mutex
	cmpState    *compactState
	cmpView     atomic.Pointer[compactView]
	compactHook func(stage string) error
	coldFetches atomic.Int64

	// Observability: obsM holds the registered latency instruments (nil
	// until RegisterMetrics — the same swap-able pattern as cacheP); tr is
	// the trace of the operation currently holding s.mu, set so deep
	// writer-path sites (seal, NVRAM store) can attach spans without
	// threading a parameter through every call.
	obsM atomic.Pointer[coreMetrics]
	tr   *obs.Trace

	nextTag int // next cache volume tag
}

// tailSnap is the immutable reader view of the service's write frontier.
// Write-once blocks below sealedEnd never change, so a reader holding a
// snapshot can resolve any block: sealed blocks via cache/device, the staged
// tail from the embedded image.
type tailSnap struct {
	sealedEnd  int
	tailGlobal int             // -1 when no tail is staged
	tailImage  []byte          // sealed image of the staged tail (nil when none)
	tailIDs    map[uint16]bool // ids present in the staged tail (never mutated)
	// pipe mirrors the in-flight pipelined seals, in global order just
	// above sealedEnd: readers resolve those blocks from the staged images
	// exactly like the tail, since the device copies may not exist yet.
	pipe []pipeSnap
	// lastSeal is the block the latest direct (unpipelined) seal wrote and
	// its final image. The cache receives that image only after the
	// snapshot calling the block sealed is published, so until then a
	// reader can find the block's older staged-tail image there and pass
	// over the entries the seal added; decodeBlock checks cache hits on
	// this block against it.
	lastSeal sealedImage
	// chainOpen is set while an append is mid-entry: a fragmented entry's
	// continuation may not be readable yet (assemble, errChainOpen).
	chainOpen bool
}

// sealedImage is one block's final image.
type sealedImage struct {
	global int
	img    []byte
}

// pipeSnap is the reader view of one in-flight pipelined seal.
type pipeSnap struct {
	global int
	img    []byte
	ids    map[uint16]bool
}

// end returns the snapshot's readable-block count (sealed + in-flight +
// staged tail).
func (sn *tailSnap) end() int {
	if sn.tailGlobal >= 0 {
		return sn.tailGlobal + 1
	}
	if n := len(sn.pipe); n > 0 {
		return sn.pipe[n-1].global + 1
	}
	return sn.sealedEnd
}

// publishTail publishes the current tail state for lock-free readers; s.mu
// held. img must be the current sealed tail image when a tail is staged
// (callers that just produced one pass it to avoid re-sealing), or nil to
// have publishTail derive it from the builder.
func (s *Service) publishTail(img []byte) {
	sn := &tailSnap{sealedEnd: s.sealedEnd, tailGlobal: s.tailGlobal, lastSeal: s.lastSeal, chainOpen: s.midChain}
	if len(s.pipe) > 0 {
		sn.pipe = make([]pipeSnap, len(s.pipe))
		for i, ps := range s.pipe {
			// ps.img and ps.idSet are never mutated after enqueue (slides
			// replace the image wholesale), so aliasing them is safe.
			sn.pipe[i] = pipeSnap{global: ps.global, img: ps.img, ids: ps.idSet}
		}
	}
	if s.tailGlobal >= 0 {
		if img == nil {
			img = s.builder.Seal()
		}
		sn.tailImage = img
		ids := make(map[uint16]bool, len(s.tailIDs))
		for id := range s.tailIDs {
			ids[id] = true
		}
		sn.tailIDs = ids
	}
	s.tailState.Store(sn)
	// Publish-order matters for the no-lost-wakeup protocol: the sequence
	// bump happens after the snapshot store, the broadcast after the bump,
	// so a subscriber that re-reads the sequence after installing a waiter
	// cannot miss the state this publish made visible.
	s.pubSeq.Add(1)
	s.wakeTail()
}

// wakeTail broadcasts a tail publish to any waiters. The idle path — no
// subscriber blocked at the tail — is a single atomic load.
func (s *Service) wakeTail() {
	if s.tailWake.Load() == nil {
		return
	}
	if ch := s.tailWake.Swap(nil); ch != nil {
		close(*ch)
	}
}

// TailSeq returns the current tail-publish sequence number. A subscriber
// reads it before scanning for new entries; if the scan comes up empty,
// TailNotify(seq) supplies a wake channel for anything published since.
func (s *Service) TailSeq() uint64 { return s.pubSeq.Load() }

// closedChan is the permanently closed channel TailNotify returns when the
// awaited publish has already happened.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// TailNotify returns a channel that is closed at the first tail publish
// after the given sequence (taken from TailSeq before the caller's scan).
// If a publish already happened — or the service closed — the returned
// channel is already closed, so a bare receive never loses a wakeup:
//
//	seq := s.TailSeq()
//	// ... cursor scan hits io.EOF ...
//	<-s.TailNotify(seq) // or select against ctx.Done()
//
// Waiters share one broadcast channel; a publish closes it for all of them.
func (s *Service) TailNotify(seq uint64) <-chan struct{} {
	for {
		if s.pubSeq.Load() != seq || s.closedFlag.Load() {
			return closedChan
		}
		ch := s.tailWake.Load()
		if ch == nil {
			nc := make(chan struct{})
			if !s.tailWake.CompareAndSwap(nil, &nc) {
				continue
			}
			ch = &nc
		}
		// Re-check after installing the waiter: a publish that raced ahead
		// of the install may have missed it.
		if s.pubSeq.Load() != seq || s.closedFlag.Load() {
			return closedChan
		}
		return *ch
	}
}

// snap returns the published tail snapshot (never nil after Open).
func (s *Service) snap() *tailSnap { return s.tailState.Load() }

// blockCache returns the current block cache (replaceable by experiments).
func (s *Service) blockCache() *cache.Cache { return s.cacheP.Load() }

// endShared is the reader-side endLocked: readable blocks per the snapshot.
func (s *Service) endShared() int {
	return s.snap().end()
}

// New creates a brand-new volume sequence on the given fresh device and
// returns the running service. The sequence id is derived from the creation
// time and the device geometry.
func New(dev wodev.Device, opt Options) (*Service, error) {
	opt = opt.withDefaults()
	if err := opt.check(); err != nil {
		return nil, err
	}
	if dev.BlockSize() != opt.BlockSize {
		return nil, fmt.Errorf("clio: device block size %d != option %d", dev.BlockSize(), opt.BlockSize)
	}
	now := opt.Now()
	var seq volume.SeqID
	for i := 0; i < 8; i++ {
		seq[i] = byte(now >> (8 * i))
	}
	seq[8] = byte(opt.Degree)
	seq[9] = byte(opt.BlockSize >> 8)
	hdr := volume.Header{
		Seq:         seq,
		Index:       0,
		StartOffset: 0,
		BlockSize:   uint32(opt.BlockSize),
		N:           uint16(opt.Degree),
		Created:     now,
	}
	if err := volume.Format(dev, hdr); err != nil {
		return nil, err
	}
	return Open([]wodev.Device{dev}, opt)
}

// Open mounts the given devices (the volumes of one sequence, any order;
// the newest must be present) and recovers the service state: locate the end
// of the written portion, reconstruct entrymap information, replay the
// catalog, and restore any NVRAM-staged tail block (§2.3.1).
func Open(devs []wodev.Device, opt Options) (*Service, error) {
	opt = opt.withDefaults()
	if len(devs) == 0 {
		return nil, errors.New("clio: no devices to mount")
	}
	if err := opt.check(); err != nil {
		return nil, err
	}
	s := &Service{
		opt:            opt,
		cat:            catalog.NewTable(),
		tailGlobal:     -1,
		retry:          faults.DefaultDevicePolicy(),
		forceSig:       make(chan struct{}, 1),
		stagedTailFrom: -1,
	}
	s.sealCond = sync.NewCond(&s.mu)
	if _, ok := opt.NVRAM.(StagingNVRAM); ok && opt.CommitWindow >= 0 {
		s.staging = true
	}
	s.cacheP.Store(cache.New(opt.CacheBlocks, opt.Clock))
	s.publishTail(nil)
	if opt.Retry != nil {
		s.retry = *opt.Retry
	}
	// Mount all volumes; adopt the sequence id from the first header.
	var vols []*volume.Volume
	for _, dev := range devs {
		v, err := volume.Mount(dev, s.nextTag)
		if err != nil {
			return nil, err
		}
		s.nextTag++
		vols = append(vols, v)
	}
	s.set = volume.NewSet(vols[0].Hdr.Seq)
	for _, v := range vols {
		if int(v.Hdr.BlockSize) != opt.BlockSize {
			return nil, fmt.Errorf("clio: volume %d block size %d != option %d",
				v.Hdr.Index, v.Hdr.BlockSize, opt.BlockSize)
		}
		if int(v.Hdr.N) != opt.Degree {
			return nil, fmt.Errorf("clio: volume %d degree %d != option %d",
				v.Hdr.Index, v.Hdr.N, opt.Degree)
		}
		if err := s.set.Add(v); err != nil {
			return nil, err
		}
	}
	acc, err := entrymap.NewAccumulator(opt.Degree)
	if err != nil {
		return nil, err
	}
	s.acc = acc
	loc, err := entrymap.NewLocator((*locatorSource)(s), opt.Degree)
	if err != nil {
		return nil, err
	}
	s.loc = loc
	// The compaction sidecar must load before recovery: replay may need to
	// read blocks of already-demoted volumes through the cold backend.
	if err := s.loadColdState(); err != nil {
		return nil, err
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	// Finish demotions a crash interrupted, then surface the compaction
	// state in the recovery report (recover() may have rebuilt s.recovery
	// from a checkpoint, so the counts are set afterwards).
	if err := s.sweepDemoted(); err != nil {
		return nil, err
	}
	if s.cmpState != nil {
		for _, v := range s.cmpState.Vols {
			s.recovery.VolumesRelocated++
			if v.Demoted {
				s.recovery.VolumesDemoted++
			}
		}
	}
	return s, nil
}

// Options returns the service's effective options.
func (s *Service) Options() Options { return s.opt }

// Degree returns the entrymap tree degree N.
func (s *Service) Degree() int { return s.opt.Degree }

// BlockSize returns the block size in bytes.
func (s *Service) BlockSize() int { return s.opt.BlockSize }

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	out.GroupCommits = s.groupCommits.Load()
	out.BatchedForces = s.batchedForces.Load()
	out.AdaptiveWaits = s.adaptiveWaits.Load()
	out.PipelinedSeals = s.pipelinedSeals.Load()
	out.CommitWindowNanos = s.windowNanos.Load()
	out.InflightSeals = int64(len(s.pipe))
	for _, ps := range s.pipe {
		out.StagedBytes += int64(len(ps.img))
	}
	out.ColdFetches = s.coldFetches.Load()
	if cv := s.cmpView.Load(); cv != nil {
		out.VolumesRelocated = int64(len(cv.vols))
		for _, v := range cv.vols {
			if v.Demoted {
				out.VolumesDemoted++
			}
		}
	}
	return out
}

// BatchSizeHistogram returns the distribution of group-commit batch sizes
// in power-of-two buckets: index i counts batches of 2^i..2^(i+1)-1 entries
// (the last bucket is unbounded).
func (s *Service) BatchSizeHistogram() [9]int64 {
	var out [9]int64
	for i := range s.batchHist {
		out[i] = s.batchHist[i].Load()
	}
	return out
}

// CacheStats returns the block cache counters.
func (s *Service) CacheStats() cache.Stats { return s.blockCache().Stats() }

// ResetCounters zeroes service, cache and device counters (experiments).
func (s *Service) ResetCounters() {
	s.mu.Lock()
	s.stats = Stats{}
	s.mu.Unlock()
	s.groupCommits.Store(0)
	s.batchedForces.Store(0)
	s.adaptiveWaits.Store(0)
	s.pipelinedSeals.Store(0)
	for i := range s.batchHist {
		s.batchHist[i].Store(0)
	}
	s.blockCache().ResetStats()
	for _, v := range s.set.Volumes() {
		v.Dev.ResetStats()
	}
}

// SetCacheCapacity replaces the block cache with one bounded to the given
// number of blocks (negative = unbounded), used by the §4 cache-economics
// experiment. The staged tail block is restaged so the service remains
// readable.
func (s *Service) SetCacheCapacity(blocks int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if blocks == 0 {
		blocks = 4096
	} else if blocks < 0 {
		blocks = 0
	}
	s.cacheP.Store(cache.New(blocks, s.opt.Clock))
	if s.tailGlobal >= 0 {
		s.stageTailLocked(false)
	}
}

// FlushCache empties the block cache (the §3.3.1 no-caching worst case).
// The staged tail block, if any, is restored afterwards so the service
// remains readable.
func (s *Service) FlushCache() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blockCache().Flush()
	if s.tailGlobal >= 0 {
		s.stageTailLocked(false)
	}
}

// End returns the number of readable data blocks (sealed plus staged tail).
func (s *Service) End() int {
	return s.endShared()
}

func (s *Service) endLocked() int {
	if s.tailGlobal >= 0 {
		return s.tailGlobal + 1
	}
	if n := len(s.pipe); n > 0 {
		return s.pipe[n-1].global + 1
	}
	return s.sealedEnd
}

// DeviceStats sums the device counters across mounted volumes.
func (s *Service) DeviceStats() wodev.Stats {
	var out wodev.Stats
	for _, v := range s.set.Volumes() {
		st := v.Dev.Stats()
		out.Reads += st.Reads
		out.Appends += st.Appends
		out.Invalidations += st.Invalidations
		out.Seeks += st.Seeks
		out.Probes += st.Probes
	}
	return out
}

// LocateStats returns the cumulative entrymap locator counters.
func (s *Service) LocateStats() entrymap.LocateStats {
	s.locMu.Lock()
	defer s.locMu.Unlock()
	return s.loc.Stats
}

// ResetLocateStats zeroes the locator counters.
func (s *Service) ResetLocateStats() {
	s.locMu.Lock()
	defer s.locMu.Unlock()
	s.loc.Stats = entrymap.LocateStats{}
}

// locFindNext, locFindPrev and locFindByTime run the shared locator under
// locMu: the locator keeps LocateStats and the accumulator view must not be
// interleaved between concurrent searches. Each search (lock wait included)
// lands in the locate latency histogram when metrics are registered.
func (s *Service) locFindNext(id uint16, from int) (int, error) {
	if m := s.met(); m != nil {
		defer m.locateLat.ObserveSince(time.Now())
	}
	s.locMu.Lock()
	defer s.locMu.Unlock()
	return s.loc.FindNext(id, from)
}

func (s *Service) locFindPrev(id uint16, before int) (int, error) {
	if m := s.met(); m != nil {
		defer m.locateLat.ObserveSince(time.Now())
	}
	s.locMu.Lock()
	defer s.locMu.Unlock()
	return s.loc.FindPrev(id, before)
}

func (s *Service) locFindByTime(ts int64) (int, error) {
	if m := s.met(); m != nil {
		defer m.locateLat.ObserveSince(time.Now())
	}
	s.locMu.Lock()
	defer s.locMu.Unlock()
	return s.loc.FindByTime(ts)
}

// Close flushes the tail and stops the service. With an NVRAM tail the
// partial block stays staged (it survives restarts); without one it is
// sealed to the device, padding the remainder. The devices themselves are
// owned by the caller and remain open.
func (s *Service) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closedFlag.Load() {
		return nil
	}
	// A clean close with the checkpoint policy active emits a final
	// checkpoint covering everything written, so the next Open replays
	// (almost) nothing. The emit seals the tail itself.
	if s.opt.CheckpointInterval > 0 && s.endLocked() > s.ckptAt {
		if err := s.emitCheckpointLocked(); err != nil {
			return err
		}
	}
	if s.tailGlobal >= 0 {
		if s.opt.NVRAM != nil {
			if err := s.stageTailLocked(true); err != nil {
				s.stopSealerLocked()
				return err
			}
		} else {
			if err := s.sealTailLocked(false); err != nil {
				s.stopSealerLocked()
				return err
			}
		}
	}
	// Completion barrier: every in-flight pipelined seal reaches the device
	// (or its hard error surfaces here) before the service reports closed.
	err := s.drainPipeLocked()
	s.stopSealerLocked()
	s.closedFlag.Store(true)
	s.wakeTail()
	if cerr := s.closeNVRAM(); err == nil {
		err = cerr
	}
	return err
}

// Crash simulates a power failure: the service is abandoned without
// flushing anything. Only NVRAM-staged and device-sealed state survives for
// a subsequent Open. The devices are left open for reuse by the test.
func (s *Service) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Stop the background sealer without draining: in-flight staged seals
	// are abandoned exactly where the power cut caught them (a device
	// write already underway may still land — indistinguishable from the
	// cut arriving a moment later). The wait is only so the sealer cannot
	// keep touching devices a test is about to hand to a new Open.
	s.stopSealerLocked()
	s.closedFlag.Store(true)
	s.wakeTail()
	s.closeNVRAM()
}

// closeNVRAM releases the NVRAM's resources (FileNVRAM's fd) when it holds
// any; a later Open over the same NVRAM reacquires them.
func (s *Service) closeNVRAM() error {
	if c, ok := s.opt.NVRAM.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Volumes returns the mounted volumes.
func (s *Service) Volumes() []*volume.Volume { return s.set.Volumes() }

// MountVolume brings a previously offline volume of this sequence online
// for reading ("previous volumes ... may be made available on demand,
// either automatically or manually", §2.1).
func (s *Service) MountVolume(dev wodev.Device) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closedFlag.Load() {
		return ErrClosed
	}
	v, err := volume.Mount(dev, s.nextTag)
	if err != nil {
		return err
	}
	if v.Hdr.Seq != s.set.Seq() {
		return volume.ErrSequenceMismatch
	}
	s.nextTag++
	return s.set.Add(v)
}

// UnmountVolume takes a non-active volume offline; its blocks become
// unreadable until it is mounted again.
func (s *Service) UnmountVolume(index uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.set.Remove(index)
	return err
}

// Catalog surface.

// CreateLog creates a log file at the given absolute path; the parent path
// must already exist ("/" for top-level log files). The new log file is a
// sublog of its parent (§2.1). The catalog record is logged durably before
// CreateLog returns.
func (s *Service) CreateLog(path string, perms uint16, owner string) (uint16, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closedFlag.Load() {
		return 0, ErrClosed
	}
	if len(path) == 0 || path[0] != '/' {
		return 0, fmt.Errorf("clio: %w: path %q must be absolute", catalog.ErrBadName, path)
	}
	dir, name := splitPath(path)
	parent, err := s.cat.Resolve(dir)
	if err != nil {
		return 0, err
	}
	s.awaitChainLocked()
	ts := s.nextTS(false)
	d, rec, err := s.cat.Create(parent, name, perms, owner, ts)
	if err != nil {
		return 0, err
	}
	if err := s.appendCatalogLocked(rec, ts); err != nil {
		return 0, err
	}
	return d.ID, nil
}

// Resolve maps an absolute path to a log-file id. Catalog lookups are served
// lock-free: the table synchronizes internally.
func (s *Service) Resolve(path string) (uint16, error) {
	return s.cat.Resolve(path)
}

// PathOf maps an id back to its absolute path.
func (s *Service) PathOf(id uint16) (string, error) {
	return s.cat.PathOf(id)
}

// List returns the sublog names beneath the given path, sorted.
func (s *Service) List(path string) ([]string, error) {
	id, err := s.cat.Resolve(path)
	if err != nil {
		return nil, err
	}
	return s.cat.List(id)
}

// Stat returns the catalog descriptor for a path.
func (s *Service) Stat(path string) (catalog.Descriptor, error) {
	id, err := s.cat.Resolve(path)
	if err != nil {
		return catalog.Descriptor{}, err
	}
	d, err := s.cat.Get(id)
	if err != nil {
		return catalog.Descriptor{}, err
	}
	return *d, nil
}

// SetPerms logs and applies a permissions change (§2.2: every attribute
// change is itself logged in the catalog log file).
func (s *Service) SetPerms(path string, perms uint16) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, err := s.cat.Resolve(path)
	if err != nil {
		return err
	}
	rec, err := s.cat.SetPerms(id, perms)
	if err != nil {
		return err
	}
	s.awaitChainLocked()
	return s.appendCatalogLocked(rec, s.nextTS(false))
}

// Retire closes a log file for further appends. Its entries remain readable
// until a compaction pass (Options.Cold) reclaims the space; without a cold
// tier they remain readable forever.
func (s *Service) Retire(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, err := s.cat.Resolve(path)
	if err != nil {
		return err
	}
	rec, err := s.cat.Retire(id)
	if err != nil {
		return err
	}
	s.awaitChainLocked()
	return s.appendCatalogLocked(rec, s.nextTS(false))
}

// splitPath separates an absolute path into its parent directory and final
// component ("/mail/smith" → "/mail", "smith").
func splitPath(path string) (dir, name string) {
	if path == "" {
		return "/", ""
	}
	last := -1
	for i := 0; i < len(path); i++ {
		if path[i] == '/' {
			last = i
		}
	}
	if last <= 0 {
		return "/", path[last+1:]
	}
	return path[:last], path[last+1:]
}

// nextTS returns a strictly increasing timestamp, charging the cost model
// when the timestamp is client-visible.
func (s *Service) nextTS(charge bool) int64 {
	ts := s.opt.Now()
	if ts <= s.lastTS {
		ts = s.lastTS + 1
	}
	s.lastTS = ts
	if charge {
		s.opt.Clock.ChargeTimestamp()
	}
	return ts
}
