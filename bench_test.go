// Benchmarks: one per table/figure of the paper (wall-clock counterparts of
// the deterministic cmd/experiments harness), plus throughput benches for
// the main service paths.
//
//	go test -bench=. -benchmem
package clio_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"clio"
	"clio/internal/archive"
	"clio/internal/client"
	"clio/internal/core"
	"clio/internal/experiments"
	"clio/internal/logapi"
	"clio/internal/rewritefs"
	"clio/internal/scrub"
	"clio/internal/server"
	"clio/internal/shard"
	"clio/internal/vclock"
	"clio/internal/wodev"
	"clio/internal/workload"
)

func benchNow() func() int64 {
	var now int64
	return func() int64 { now += 1000; return now }
}

func benchService(b *testing.B, blockSize, degree int, nv core.NVRAM) *core.Service {
	b.Helper()
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: blockSize, Capacity: 1 << 22})
	svc, err := core.New(dev, core.Options{
		BlockSize: blockSize, Degree: degree, CacheBlocks: -1,
		NVRAM: nv, Now: benchNow(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { svc.Close() })
	return svc
}

// benchDelayedService builds a service whose device really blocks for
// writeDelay per block write (wodev.Injector.Delay), approximating the optical
// disk's millisecond-scale access time (§3.2). The forced-append path then
// spends real time inside each seal, which is the window that lets
// concurrent forces pile up into a group commit — without it, an in-memory
// seal is so fast that contention never forms (especially on one CPU).
func benchDelayedService(b *testing.B, blockSize, degree int, writeDelay time.Duration) *core.Service {
	b.Helper()
	dev := wodev.Inject(wodev.NewMem(wodev.MemOptions{BlockSize: blockSize, Capacity: 1 << 22}), 0)
	dev.Delay(writeDelay, 0)
	svc, err := core.New(dev, core.Options{
		BlockSize: blockSize, Degree: degree, CacheBlocks: -1, Now: benchNow(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { svc.Close() })
	return svc
}

// BenchmarkWriteNull is §3.2's null-entry synchronous write (paper: 2.0 ms
// on a Sun-3; the wall-clock number here is the modern in-memory cost).
func BenchmarkWriteNull(b *testing.B) {
	svc := benchService(b, 1024, 16, core.NewMemNVRAM())
	id, err := svc.CreateLog("/w", 0, "")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Append(id, nil, core.AppendOptions{Timestamped: true, Forced: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWrite50B is §3.2's 50-byte synchronous write (paper: 2.9 ms).
func BenchmarkWrite50B(b *testing.B) {
	svc := benchService(b, 1024, 16, core.NewMemNVRAM())
	id, err := svc.CreateLog("/w", 0, "")
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 50)
	b.SetBytes(50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Append(id, payload, core.AppendOptions{Timestamped: true, Forced: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteUnforced is the asynchronous write path.
func BenchmarkWriteUnforced(b *testing.B) {
	svc := benchService(b, 1024, 16, core.NewMemNVRAM())
	id, err := svc.CreateLog("/w", 0, "")
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 50)
	b.SetBytes(50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Append(id, payload, core.AppendOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// distance volume shared by the Table 1 / Figure 3 benches.
var (
	dvOnce sync.Once
	dvErr  error
	dv     *experiments.DistanceVolume
)

func sharedDV(b *testing.B) *experiments.DistanceVolume {
	b.Helper()
	dvOnce.Do(func() {
		clk := vclock.New(vclock.DefaultModel())
		dv, dvErr = experiments.BuildDistanceVolume(256, 16, 3, clk)
	})
	if dvErr != nil {
		b.Fatal(dvErr)
	}
	return dv
}

// BenchmarkReadWarm is Table 1: a log entry read at search distance N^k
// with complete caching.
func BenchmarkReadWarm(b *testing.B) {
	v := sharedDV(b)
	for _, t := range v.Targets {
		// Warm pass.
		if _, err := v.MeasureLocate(t, false); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("distance=16^%d", t.K), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := v.MeasureLocate(t, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLocateCold is Figure 3: the same locates against an empty cache.
func BenchmarkLocateCold(b *testing.B) {
	v := sharedDV(b)
	for _, t := range v.Targets {
		b.Run(fmt.Sprintf("distance=16^%d", t.K), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := v.MeasureLocate(t, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecovery is Figure 4: full server initialization over a written
// volume, including the binary search for the end of the written portion.
func BenchmarkRecovery(b *testing.B) {
	for _, blocks := range []int{1000, 10_000} {
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: blocks + 64})
			opt := core.Options{BlockSize: 256, Degree: 16, CacheBlocks: -1, Now: benchNow()}
			svc, err := core.New(dev, opt)
			if err != nil {
				b.Fatal(err)
			}
			id, err := svc.CreateLog("/l", 0, "")
			if err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, 64)
			for svc.End() < blocks {
				if _, err := svc.Append(id, payload, core.AppendOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			if err := svc.Force(); err != nil {
				b.Fatal(err)
			}
			svc.Crash()
			dev.SetReportEnd(false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s2, err := core.Open([]wodev.Device{dev}, opt)
				if err != nil {
					b.Fatal(err)
				}
				s2.Crash()
			}
		})
	}
}

// BenchmarkSpaceOverhead is §3.5: the login/logout workload; the reported
// metrics are the space-overhead figures.
func BenchmarkSpaceOverhead(b *testing.B) {
	svc := benchService(b, 1024, 16, core.NewMemNVRAM())
	tr := workload.NewLoginTrace(7, 8)
	ids := map[string]uint16{}
	for _, path := range tr.Logs() {
		if _, err := svc.CreateLog(path, 0, ""); err != nil {
			b.Fatal(err)
		}
		ids[path], _ = svc.Resolve(path)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := tr.Next()
		if _, err := svc.Append(ids[op.Log], op.Data, core.AppendOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := svc.Stats()
	if st.EntriesAppended > 0 {
		b.ReportMetric(float64(st.HeaderBytes)/float64(st.EntriesAppended), "hdrB/entry")
		b.ReportMetric(float64(st.EntrymapBytes)/float64(st.EntriesAppended), "emapB/entry")
	}
}

// BenchmarkForcedWrites is the §2.3.1 NVRAM ablation: forced 50-byte
// commits with and without the rewriteable tail.
func BenchmarkForcedWrites(b *testing.B) {
	for _, mode := range []struct {
		name  string
		nvram bool
	}{{"nvram", true}, {"no-nvram", false}} {
		b.Run(mode.name, func(b *testing.B) {
			var nv core.NVRAM
			if mode.nvram {
				nv = core.NewMemNVRAM()
			}
			svc := benchService(b, 1024, 16, nv)
			id, err := svc.CreateLog("/txn", 0, "")
			if err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, 50)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svc.Append(id, payload, core.AppendOptions{Forced: true}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if n := svc.Stats().EntriesAppended; n > 0 {
				b.ReportMetric(float64(svc.End())/float64(n)*1024, "devB/entry")
			}
		})
	}
}

// BenchmarkTailGrowth is the §1 motivation: appending one block to a large
// grown file, conventional FS vs log file.
func BenchmarkTailGrowth(b *testing.B) {
	const grown = 2200 // past the single-indirect region
	b.Run("rewritefs", func(b *testing.B) {
		store := rewritefs.NewStore(1024, 1<<26)
		fs := rewritefs.New(store)
		chunk := make([]byte, 1024)
		gen := 0
		newFile := func() string {
			gen++
			name := fmt.Sprintf("big%d", gen)
			if err := fs.Create(name); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < grown; i++ {
				if err := fs.Append(name, chunk); err != nil {
					b.Fatal(err)
				}
			}
			return name
		}
		name := newFile()
		limit := fs.MaxFileSize() - 64*1024
		b.SetBytes(1024)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if sz, _ := fs.Size(name); sz >= limit {
				b.StopTimer()
				name = newFile() // roll to a fresh grown file near the max
				b.StartTimer()
			}
			if err := fs.Append(name, chunk); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("logfile", func(b *testing.B) {
		svc := benchService(b, 1024, 16, core.NewMemNVRAM())
		id, err := svc.CreateLog("/big", 0, "")
		if err != nil {
			b.Fatal(err)
		}
		chunk := make([]byte, 960)
		for i := 0; i < grown; i++ {
			if _, err := svc.Append(id, chunk, core.AppendOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(1024)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.Append(id, chunk, core.AppendOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCursorScan is sequential read throughput over a populated log.
func BenchmarkCursorScan(b *testing.B) {
	svc := benchService(b, 1024, 16, core.NewMemNVRAM())
	id, err := svc.CreateLog("/scan", 0, "")
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 100)
	const entries = 20_000
	for i := 0; i < entries; i++ {
		if _, err := svc.Append(id, payload, core.AppendOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(100)
	b.ReportAllocs()
	b.ResetTimer()
	cur, err := svc.OpenCursor("/scan")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		e, err := cur.Next()
		if err == io.EOF {
			cur.SeekStart()
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
		_ = e
	}
}

// BenchmarkServerRoundTrip measures one append through the full protocol
// stack over a same-machine pipe (the paper's IPC path).
func BenchmarkServerRoundTrip(b *testing.B) {
	svc := benchService(b, 1024, 16, core.NewMemNVRAM())
	srv := server.New(svc)
	cConn, sConn := net.Pipe()
	go srv.ServeConn(sConn)
	cl := client.New(cConn)
	defer cl.Close()
	defer srv.Close()
	id, err := cl.CreateLog(context.Background(), "/rpc", 0, "")
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 50)
	b.SetBytes(50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Append(context.Background(), id, payload, client.AppendOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFileStore measures the file-backed append path end to end.
func BenchmarkFileStore(b *testing.B) {
	ctx := context.Background()
	dir := b.TempDir()
	st, err := clio.CreateStore(dir, clio.DirOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	id, err := st.CreateLog(ctx, "/f", 0, "")
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 100)
	b.SetBytes(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Append(ctx, id, payload, clio.AppendOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeekTime measures the locate-by-time search (§2.1's timestamp
// tree search) on a populated log.
func BenchmarkSeekTime(b *testing.B) {
	svc := benchService(b, 1024, 16, core.NewMemNVRAM())
	id, err := svc.CreateLog("/t", 0, "")
	if err != nil {
		b.Fatal(err)
	}
	var stamps []int64
	for i := 0; i < 20_000; i++ {
		ts, err := svc.Append(id, make([]byte, 60), core.AppendOptions{Timestamped: true})
		if err != nil {
			b.Fatal(err)
		}
		stamps = append(stamps, ts)
	}
	cur, err := svc.OpenCursor("/t")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cur.SeekTime(stamps[(i*7919)%len(stamps)]); err != nil {
			b.Fatal(err)
		}
		if _, err := cur.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScrub measures full-volume verification throughput.
func BenchmarkScrub(b *testing.B) {
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 1024, Capacity: 4096})
	svc, err := core.New(dev, core.Options{BlockSize: 1024, Degree: 16, Now: benchNow()})
	if err != nil {
		b.Fatal(err)
	}
	id, err := svc.CreateLog("/s", 0, "")
	if err != nil {
		b.Fatal(err)
	}
	for svc.End() < 2000 {
		if _, err := svc.Append(id, make([]byte, 200), core.AppendOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	if err := svc.SealTail(); err != nil {
		b.Fatal(err)
	}
	svc.Crash()
	b.SetBytes(int64(2000 * 1024))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := scrub.Volumes([]wodev.Device{dev}, scrub.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Clean() {
			b.Fatal("dirty volume")
		}
	}
}

// BenchmarkBackup measures the incremental-backup no-op path (everything
// already archived): the §1 "only the tail changed" property at work.
func BenchmarkBackup(b *testing.B) {
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 1024, Capacity: 4096})
	svc, err := core.New(dev, core.Options{BlockSize: 1024, Degree: 16, Now: benchNow()})
	if err != nil {
		b.Fatal(err)
	}
	id, err := svc.CreateLog("/a", 0, "")
	if err != nil {
		b.Fatal(err)
	}
	for svc.End() < 1000 {
		if _, err := svc.Append(id, make([]byte, 200), core.AppendOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	if err := svc.SealTail(); err != nil {
		b.Fatal(err)
	}
	svc.Crash()
	ctx := context.Background()
	be := archive.NewDir(b.TempDir())
	if _, err := archive.Backup(ctx, []wodev.Device{dev}, be); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := archive.Backup(ctx, []wodev.Device{dev}, be)
		if err != nil {
			b.Fatal(err)
		}
		if res.BlocksCopied != 0 {
			b.Fatal("incremental backup copied blocks")
		}
	}
}

// BenchmarkForcedAppendParallel measures group commit (§2.3.1 amortized
// across concurrent clients): g goroutines each issue forced 50-byte
// appends with no NVRAM tail, so every commit must seal a padded block —
// unless it shares the seal with queued neighbors. seals/force is the
// metric: ~1 at one goroutine, dropping toward 1/batch as concurrency
// grows. batched-frac is the fraction of forced appends that shared their
// commit.
func BenchmarkForcedAppendParallel(b *testing.B) {
	for _, g := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			svc := benchDelayedService(b, 1024, 16, 200*time.Microsecond)
			id, err := svc.CreateLog("/gc", 0, "")
			if err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, 50)
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			per, extra := b.N/g, b.N%g
			for w := 0; w < g; w++ {
				n := per
				if w < extra {
					n++
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if _, err := svc.Append(id, payload, core.AppendOptions{Forced: true}); err != nil {
							b.Error(err)
							return
						}
					}
				}(n)
			}
			wg.Wait()
			b.StopTimer()
			st := svc.Stats()
			if st.ForcedWrites > 0 {
				b.ReportMetric(float64(st.BlocksSealed)/float64(st.ForcedWrites), "seals/force")
				b.ReportMetric(float64(st.BatchedForces)/float64(st.ForcedWrites), "batched-frac")
			}
		})
	}
}

// BenchmarkForcedAppendParallelSharded is the scale-out counterpart of
// BenchmarkForcedAppendParallel: the same 64-goroutine forced 50-byte
// append workload against a 1-shard vs an 8-shard store over latent
// devices. Each shard is an independent volume sequence with its own
// group-commit queue and device, so the forced-append throughput ceiling
// (one seal at a time per sequence) multiplies with the shard count —
// the acceptance target is ≥3× ops/s at 8 shards.
func BenchmarkForcedAppendParallelSharded(b *testing.B) {
	const g = 64
	for _, n := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			svcs := make([]*core.Service, n)
			for i := range svcs {
				svcs[i] = benchDelayedService(b, 1024, 16, 200*time.Microsecond)
			}
			st, err := shard.New(svcs)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			// One log per goroutine; the root segments spread across the
			// shards by the store's own partitioning hash.
			ids := make([]logapi.ID, g)
			for w := range ids {
				id, err := st.CreateLog(ctx, fmt.Sprintf("/w%02d", w), 0, "")
				if err != nil {
					b.Fatal(err)
				}
				ids[w] = id
			}
			payload := make([]byte, 50)
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			per, extra := b.N/g, b.N%g
			for w := 0; w < g; w++ {
				ops := per
				if w < extra {
					ops++
				}
				wg.Add(1)
				go func(w, ops int) {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						if _, err := st.Append(ctx, ids[w], payload, core.AppendOptions{Forced: true}); err != nil {
							b.Error(err)
							return
						}
					}
				}(w, ops)
			}
			wg.Wait()
			b.StopTimer()
			stats := st.Stats()
			if stats.ForcedWrites > 0 {
				b.ReportMetric(float64(stats.BlocksSealed)/float64(stats.ForcedWrites), "seals/force")
			}
		})
	}
}

// BenchmarkReadWhileAppend measures the lock-decomposed read path: cursors
// scan a log concurrently with a background appender. Before the writer
// lock was decomposed, every Next serialized against every append; now
// sealed-block reads run lock-free off the published tail snapshot.
func BenchmarkReadWhileAppend(b *testing.B) {
	svc := benchService(b, 1024, 16, core.NewMemNVRAM())
	id, err := svc.CreateLog("/rw", 0, "")
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 100)
	for i := 0; i < 5000; i++ {
		if _, err := svc.Append(id, payload, core.AppendOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := svc.Append(id, payload, core.AppendOptions{}); err != nil {
				return
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		cur, err := svc.OpenCursor("/rw")
		if err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			e, err := cur.Next()
			if err == io.EOF {
				cur.SeekStart()
				continue
			}
			if err != nil {
				b.Error(err)
				return
			}
			_ = e
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
}
