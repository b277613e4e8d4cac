package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"clio"
	"clio/internal/archive"
	"clio/internal/core"
	"clio/internal/shard"
	"clio/internal/volume"
	"clio/internal/wodev"
)

// The store every workload runs against is the one `cliod -sync -shards 2
// -volume-blocks 1024` serves: clio.CreateStore with FileNVRAM sidecars, the
// default adaptive commit window, the default block size and cache, and a
// cold tier beside each shard. Small volumes give the compactor whole
// volumes to retire within a run.
const (
	storeShards  = 2
	volumeBlocks = 1024
)

func dirOptions() clio.DirOptions {
	return clio.DirOptions{VolumeBlocks: volumeBlocks, SyncEvery: true, Shards: storeShards}
}

// stack opens stores for one workload run. With a nil tracer it goes
// through clio.CreateStore/OpenStore, the path the end-to-end numbers are
// measured on. With a tracer it assembles the same file components (volume
// files, FileNVRAM sidecars, directory cold tier, in the same on-disk
// layout) through core.New/core.Open and shard.New/shard.Open, wrapping the
// device, NVRAM and archive interfaces with timing wrappers.
type stack struct{ tr *tracer }

func (k stack) create(dir string) (*shard.Store, error) {
	if k.tr == nil {
		return clio.CreateStore(dir, dirOptions())
	}
	svcs := make([]*core.Service, storeShards)
	for i := range svcs {
		sd := shardPath(dir, i)
		if err := os.MkdirAll(sd, 0o755); err != nil {
			return nil, err
		}
		dev, err := k.openVolume(sd, 0)
		if err != nil {
			return nil, err
		}
		svc, err := core.New(dev, k.options(sd))
		if err != nil {
			return nil, fmt.Errorf("create shard %d: %w", i, err)
		}
		svcs[i] = svc
	}
	return shard.New(svcs)
}

func (k stack) open(dir string) (*shard.Store, error) {
	if k.tr == nil {
		return clio.OpenStore(dir, dirOptions())
	}
	devs := make([][]wodev.Device, storeShards)
	opts := make([]core.Options, storeShards)
	for i := range devs {
		sd := shardPath(dir, i)
		ents, err := os.ReadDir(sd)
		if err != nil {
			return nil, err
		}
		var idx []int
		for _, e := range ents {
			var n int
			if _, err := fmt.Sscanf(e.Name(), "vol-%08d.clio", &n); err == nil && strings.HasSuffix(e.Name(), ".clio") {
				idx = append(idx, n)
			}
		}
		sort.Ints(idx)
		for _, n := range idx {
			dev, err := k.openVolume(sd, uint32(n))
			if err != nil {
				return nil, err
			}
			devs[i] = append(devs[i], dev)
		}
		opts[i] = k.options(sd)
	}
	return shard.Open(devs, opts)
}

// The names below mirror the file-backed layout in the clio package, so a
// traced store is byte-for-byte the store CreateStore would have made.
func shardPath(dir string, i int) string { return filepath.Join(dir, fmt.Sprintf("shard-%d", i)) }

func volumePath(sd string, index uint32) string {
	return filepath.Join(sd, fmt.Sprintf("vol-%08d.clio", index))
}

func (k stack) openVolume(sd string, index uint32) (wodev.Device, error) {
	dev, err := wodev.OpenFile(volumePath(sd, index), wodev.FileOptions{
		BlockSize: wodev.DefaultBlockSize, Capacity: volumeBlocks, SyncEvery: true,
	})
	if err != nil {
		return nil, err
	}
	return &timedDevice{Device: dev, tr: k.tr}, nil
}

func (k stack) options(sd string) core.Options {
	return core.Options{
		NVRAM: &timedNVRAM{nv: core.NewFileNVRAM(filepath.Join(sd, "nvram.clio")), tr: k.tr},
		Allocate: func(_ volume.SeqID, index uint32, _ uint64, _ int) (wodev.Device, error) {
			return k.openVolume(sd, index)
		},
		Cold: &core.ColdTier{
			Backend: &timedArchive{Backend: archive.NewDir(filepath.Join(sd, "cold")), tr: k.tr},
			State:   core.NewFileState(filepath.Join(sd, "compact.clio")),
			Release: func(index uint32) error {
				err := os.Remove(volumePath(sd, index))
				if os.IsNotExist(err) {
					return nil
				}
				return err
			},
		},
	}
}

// crash abandons the store's volatile state as a power cut would and
// releases its file handles, so the directory can be reopened.
func crash(st *shard.Store) {
	st.Crash()
	for i := 0; i < st.Shards(); i++ {
		for _, v := range st.Service(i).Volumes() {
			v.Dev.Close()
		}
	}
}

// recoveries is how many crash-and-reopen cycles recover_s is the median
// of. Reopening takes about a millisecond, so one sample is mostly noise.
const recoveries = 9

// recoverCycles crashes and reopens the store recoveries times and returns
// the reopened store and the median crash-to-open time in seconds. The
// first reopen recovers what the run wrote; the later ones repeat the same
// recovery.
func (k stack) recoverCycles(st *shard.Store, dir string) (*shard.Store, float64, error) {
	quiesce()
	var ts []float64
	for i := 0; i < recoveries; i++ {
		crash(st)
		t0 := time.Now()
		var err error
		st, err = k.open(dir)
		if err != nil {
			return nil, 0, fmt.Errorf("reopen after crash: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return st, median(ts), nil
}
