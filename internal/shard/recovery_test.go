package shard

import (
	"testing"
	"time"

	"clio/internal/core"
	"clio/internal/vclock"
	"clio/internal/wodev"
)

// TestParallelRecovery asserts the scale-out recovery claim: opening an
// 8-shard store recovers every shard concurrently, so the wall-clock of
// the whole open stays within 2× the slowest single shard's recovery —
// not the sum. The shards carry deliberately unequal amounts of sealed
// data, each reopened device really sleeps per block read
// (wodev.Injector.Delay), and each shard charges its own virtual clock with the
// same per-read cost, so the per-shard vclock totals are the per-shard
// recovery times and the slowest shard's charge is the parallel lower
// bound.
func TestParallelRecovery(t *testing.T) {
	// Degree exceeds every shard's block count (entrymap.MaxDegree allowing), so no entrymap boundary
	// record is ever logged and recovery's reconstruction scan must read
	// every sealed block — recovery cost is proportional to shard size,
	// which is what makes "slowest shard" meaningful.
	const (
		shards    = 8
		blockSize = 256
		degree    = 256
		readDelay = 2 * time.Millisecond
	)

	// Build the shards with plain memory devices (fast), sealing an
	// increasing number of blocks on each so one shard is clearly the
	// slowest to recover, then crash them.
	mems := make([]*wodev.MemDevice, shards)
	payload := make([]byte, 200) // ~1 entry per 256-byte block
	for i := range mems {
		mems[i] = wodev.NewMem(wodev.MemOptions{BlockSize: blockSize, Capacity: 1 << 12})
		now := int64(0)
		svc, err := core.New(mems[i], core.Options{
			BlockSize: blockSize, Degree: degree,
			Now: func() int64 { now += 1000; return now },
		})
		if err != nil {
			t.Fatal(err)
		}
		id, err := svc.CreateLog("/r", 0, "")
		if err != nil {
			t.Fatal(err)
		}
		blocks := 8 + 4*i
		for svc.End() < blocks {
			if _, err := svc.Append(id, payload, core.AppendOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := svc.SealTail(); err != nil {
			t.Fatal(err)
		}
		svc.Crash()
	}

	// Reopen all shards as one store: every device read now sleeps
	// readDelay for real and charges readDelay of virtual time to that
	// shard's clock (seek cost only, no transfer term).
	devs := make([][]wodev.Device, shards)
	opts := make([]core.Options, shards)
	clks := make([]*vclock.Clock, shards)
	for i := range devs {
		dev := wodev.Inject(mems[i], 0)
		dev.Delay(0, readDelay)
		devs[i] = []wodev.Device{dev}
		clks[i] = vclock.New(vclock.CostModel{DeviceSeek: readDelay})
		now := int64(1 << 40)
		opts[i] = core.Options{
			BlockSize: blockSize, Degree: degree, Clock: clks[i],
			Now: func() int64 { now += 1000; return now },
		}
	}
	start := time.Now()
	st, err := Open(devs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	wall := time.Since(start)

	reports := st.LastRecoveryByShard()
	if len(reports) != shards {
		t.Fatalf("got %d recovery reports, want %d", len(reports), shards)
	}
	var slowest, sum time.Duration
	for i, clk := range clks {
		e := clk.Elapsed()
		if e == 0 {
			t.Fatalf("shard %d charged no recovery reads to its clock", i)
		}
		if reports[i].SealedBlocks < 8+4*i {
			t.Fatalf("shard %d recovered %d sealed blocks, want >= %d",
				i, reports[i].SealedBlocks, 8+4*i)
		}
		sum += e
		if e > slowest {
			slowest = e
		}
	}
	// The imbalance must be real, or the parallel bound below would also
	// hold for a serial recovery and prove nothing.
	if sum < 3*slowest {
		t.Fatalf("workload not imbalanced enough: serial cost %v < 3x slowest shard %v", sum, slowest)
	}
	if wall > 2*slowest {
		t.Fatalf("parallel recovery took %v, want <= 2x the slowest shard's %v (serial would be %v)",
			wall, slowest, sum)
	}
	t.Logf("recovered %d shards in %v; slowest shard %v, serial sum %v", shards, wall, slowest, sum)
}
