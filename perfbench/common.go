package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"clio/internal/cache"
	"clio/internal/core"
	"clio/internal/entrymap"
	"clio/internal/logapi"
	"clio/internal/shard"
	"clio/internal/wodev"
)

// params sizes one workload run. main fills it from the flags; the smoke
// test shrinks it.
type params struct {
	seed    int64
	seconds float64 // length of the measured phase
	work    string  // scratch directory this run's stores live in
	setups  int     // setups per run; setup_s is their median
	// history: entries bulk-loaded at setup.
	histEntries int
	// tail: retired entries written at setup, and the writer's offered rate.
	tailChurn int
	tailRate  float64
}

func defaultParams(seed int64, secs float64, work string) params {
	return params{
		seed: seed, seconds: secs, work: work, setups: 3,
		histEntries: 300_000,
		tailChurn:   60_000,
		tailRate:    2000,
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int64
	notes             []string
	// e2e holds the BENCHMARK.json end-to-end metrics; detail the
	// per-operation metrics the run also reports (printed, not gated).
	e2e    map[string]metric
	detail []namedMetric
	// headline is the latency sample of the workload's headline op, for
	// the tracing-overhead ratio.
	headline lat
	// layers holds the per-layer metrics of a traced run, and spans the
	// spans it recorded.
	layers map[string]metric
	spans  *tracer
}

type namedMetric struct {
	name string
	metric
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, layers: map[string]metric{}}
}

// fail counts one failed op (an error or an oracle mismatch) and keeps the
// first few reasons for the report.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.notes) < 8 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) add(name string, v float64, unit string) {
	o.detail = append(o.detail, namedMetric{name, metric{v, unit}})
}

// setE2E records the end-to-end metrics shared by every workload: the
// phase's completed ops per second of the process's CPU time, the p99 of
// its headline op over the whole phase, setup time and space overhead. The
// wall-clock throughput, the headline op's p50 and the crash-to-reopen
// time are printed beside them but not gated: on a shared machine they
// move too much from run to run (README.md, "Why these metrics").
func (o *outcome) setE2E(setupS float64, all, head series, a, b snapshot, bytesPerUser float64) {
	o.headline = head.dur
	o.e2e["setup_s"] = metric{setupS, "s"}
	o.e2e["ops_per_cpu_s"] = metric{ratio(float64(len(all.at)), (b.cpuTime - a.cpuTime).Seconds()), "1/s"}
	o.e2e["p99_us"] = metric{head.dur.pct(0.99), "us"}
	o.e2e["bytes_per_user_byte"] = metric{bytesPerUser, "ratio"}
}

// Payloads identify themselves: tag and sequence number in the first 16
// bytes, then bytes derived from (seed, tag, seq), so an oracle can rebuild
// any entry it sees from its first 16 bytes.
func payload(dst []byte, seed int64, tag, seq uint64) []byte {
	binary.LittleEndian.PutUint64(dst[0:], tag)
	binary.LittleEndian.PutUint64(dst[8:], seq)
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ tag<<40 ^ seq
	for i := 16; i < len(dst); i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		dst[i] = byte(z ^ z>>31)
	}
	return dst
}

// checkPayload reports whether data is the payload its header names, of
// the given length (0 = any length of at least 16).
func checkPayload(data []byte, seed int64, size int) (tag, seq uint64, ok bool) {
	if len(data) < 16 || (size > 0 && len(data) != size) {
		return 0, 0, false
	}
	tag = binary.LittleEndian.Uint64(data[0:])
	seq = binary.LittleEndian.Uint64(data[8:])
	want := payload(make([]byte, len(data)), seed, tag, seq)
	return tag, seq, bytes.Equal(data, want)
}

// snapshot is the store's public counters at one instant, summed over
// shards.
type snapshot struct {
	at       time.Time
	cpu      []int64       // machine CPU ticks by state (cpuTicks)
	cpuTime  time.Duration // this process's CPU time (processCPU)
	stats    core.Stats
	commits  int64   // group-commit batches (batch-size histogram total)
	appended []int64 // entries appended per shard
	cache    cache.Stats
	// dev holds each mounted volume's device counters by (shard, volume
	// index): the store-wide sum would drop a volume's reads the moment
	// compaction demotes it.
	dev map[[2]uint32]wodev.Stats
	loc entrymap.LocateStats
}

func snap(st *shard.Store) snapshot {
	s := snapshot{at: time.Now(), cpu: cpuTicks(), cpuTime: processCPU(), stats: st.Stats(), dev: make(map[[2]uint32]wodev.Stats)}
	for i := 0; i < st.Shards(); i++ {
		svc := st.Service(i)
		for _, n := range svc.BatchSizeHistogram() {
			s.commits += n
		}
		s.appended = append(s.appended, svc.Stats().EntriesAppended)
		c := svc.CacheStats()
		s.cache.Hits += c.Hits
		s.cache.Misses += c.Misses
		s.cache.Evictions += c.Evictions
		s.cache.Inserts += c.Inserts
		for _, v := range svc.Volumes() {
			s.dev[[2]uint32{uint32(i), v.Hdr.Index}] = v.Dev.Stats()
		}
		l := svc.LocateStats()
		s.loc.EntriesExamined += l.EntriesExamined
		s.loc.PendingExamined += l.PendingExamined
		s.loc.RawScans += l.RawScans
		s.loc.TimestampReads += l.TimestampReads
	}
	return s
}

// spaceRatio is written blocks × block size over client bytes between two
// snapshots (§3.5 space overhead).
func spaceRatio(a, b snapshot) float64 {
	return ratio(float64(b.stats.BlocksSealed-a.stats.BlocksSealed)*float64(wodev.DefaultBlockSize),
		float64(b.stats.ClientBytes-a.stats.ClientBytes))
}

// createLog creates path and any missing parent directories (each a log
// file of its own, §2.1) and returns path's id.
func createLog(ctx context.Context, st *shard.Store, path string) (logapi.ID, error) {
	for i := 1; i < len(path); i++ {
		if path[i] != '/' {
			continue
		}
		if _, err := st.Resolve(ctx, path[:i]); err == nil {
			continue
		}
		if _, err := st.CreateLog(ctx, path[:i], 0o755, "bench"); err != nil {
			return 0, fmt.Errorf("create %s: %w", path[:i], err)
		}
	}
	id, err := st.CreateLog(ctx, path, 0o644, "bench")
	if err != nil {
		return 0, fmt.Errorf("create %s: %w", path, err)
	}
	return id, nil
}

// devDelta sums the device counters' growth between two snapshots over the
// volumes mounted at the second; a volume mounted since the first counts
// from zero.
func devDelta(a, b snapshot) wodev.Stats {
	var out wodev.Stats
	for k, y := range b.dev {
		x := a.dev[k]
		out.Reads += y.Reads - x.Reads
		out.Appends += y.Appends - x.Appends
		out.Seeks += y.Seeks - x.Seeks
	}
	return out
}

// addHost reports how the machine's CPUs spent the phase, so a run slowed
// by its neighbours (steal, iowait) can be told from one slowed by the
// store.
func (o *outcome) addHost(a, b snapshot) {
	if len(a.cpu) < 8 || len(b.cpu) < 8 {
		return
	}
	var total int64
	d := make([]int64, 8)
	for i := range d {
		d[i] = b.cpu[i] - a.cpu[i]
		total += d[i]
	}
	for i, name := range []string{"user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal"} {
		if name == "nice" || name == "irq" {
			continue
		}
		o.add("host."+name+"_frac", ratio(float64(d[i]), float64(total)), "ratio")
	}
}

// addCommitShape reports the group-commit counters of a phase.
func (o *outcome) addCommitShape(prefix string, a, b snapshot) {
	forced := float64(b.stats.ForcedWrites - a.stats.ForcedWrites)
	commits := float64(b.commits - a.commits)
	o.add(prefix+".mean_batch", ratio(forced, commits), "count")
	o.add(prefix+".adaptive_waits_per_commit", ratio(float64(b.stats.AdaptiveWaits-a.stats.AdaptiveWaits), commits), "ratio")
	o.add(prefix+".seals_per_force", ratio(float64(b.stats.BlocksSealed-a.stats.BlocksSealed), forced), "count")
}
