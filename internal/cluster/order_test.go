package cluster

// Replication-ordering test for the pipelined-seal PR: the core's seal
// pipeline must never reorder the frames a follower applies. In cluster
// mode the leader's NVRAM is wrapped in tapNVRAM, which deliberately does
// NOT forward the StagingNVRAM extension — so the core's background seal
// pipeline auto-disables, every seal reaches tapDevice synchronously in
// commit order, and per-device frame order equals leader seal order. This
// test pins both halves: the pipeline stays off under replication, and
// follower apply order matches leader seal order while seals from
// concurrent group commits (two shards, many writers) are in flight.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clio/internal/client"
	"clio/internal/wodev"
)

// checkFollowerPrefix verifies one follower device against the leader's:
// the follower's written blocks must form a gapless prefix of the leader's
// and match byte for byte. Called while frames are still being applied, so
// it samples the in-flight ordering, not just the converged end state.
func checkFollowerPrefix(t *testing.T, who string, leader, follower wodev.Device) {
	t.Helper()
	bs := leader.BlockSize()
	lbuf, fbuf := make([]byte, bs), make([]byte, bs)
	limit := leader.Written()
	frontier := -1 // first unwritten follower block, once seen
	for i := 0; i < limit; i++ {
		ferr := follower.ReadBlock(i, fbuf)
		if ferr != nil {
			if frontier < 0 {
				frontier = i
			}
			continue
		}
		if frontier >= 0 {
			t.Fatalf("%s: block %d applied but block %d is not: follower apply order broke leader seal order",
				who, i, frontier)
		}
		if lerr := leader.ReadBlock(i, lbuf); lerr != nil {
			t.Fatalf("%s: follower holds block %d the leader does not (%v)", who, i, lerr)
		}
		if !bytes.Equal(fbuf, lbuf) {
			t.Fatalf("%s: block %d differs from the leader's", who, i)
		}
	}
}

func TestFollowerApplyOrderMatchesLeaderSealOrder(t *testing.T) {
	addrs := freeAddrs(t, 3)
	var tns [3]*testNode
	for i := 0; i < 3; i++ {
		devs, nvrams := freshShards(2)
		if i == 0 {
			// Slow the leader's device writes so seals stay in flight long
			// enough for concurrent forces to pile into group commits — the
			// ordering property is only interesting under that overlap.
			for s := range devs {
				dev := wodev.Inject(devs[s][0], 0)
				dev.Delay(300*time.Microsecond, 0)
				devs[s][0] = dev
			}
		}
		peers := make([]string, 0, 2)
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		tns[i] = startNode(t, addrs[i], peers, devs, nvrams, i == 0, i == 0, nil)
	}

	ctx := context.Background()
	admin := testClient(t, 1, addrs, nil)
	paths := []string{"/order-a", "/order-b"}
	var ids [2]client.ID
	for i, p := range paths {
		id, err := admin.CreateLog(ctx, p, 0o644, "test")
		if err != nil {
			t.Fatalf("create %s: %v", p, err)
		}
		ids[i] = id
	}

	const writers = 12
	const perWriter = 25
	filler := strings.Repeat("o", 24)
	var ackedTotal atomic.Int64
	var wg sync.WaitGroup
	stormDone := make(chan struct{})
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := testClient(t, uint64(200+g), addrs, nil)
			id := ids[g%2]
			for i := 0; i < perWriter; i++ {
				payload := fmt.Sprintf("g%d-%04d:%s", g, i, filler)
				if _, err := c.Append(ctx, id, []byte(payload), client.AppendOptions{Forced: true}); err == nil {
					ackedTotal.Add(1)
				}
			}
		}(g)
	}
	go func() { wg.Wait(); close(stormDone) }()

	// Sample follower devices against the leader's while seals are in
	// flight: every observation must show a byte-identical gapless prefix.
	samples := 0
	for sampling := true; sampling; {
		select {
		case <-stormDone:
			sampling = false
		case <-time.After(5 * time.Millisecond):
		}
		for f := 1; f <= 2; f++ {
			for s := 0; s < 2; s++ {
				who := fmt.Sprintf("follower %d shard %d (sample %d)", f, s, samples)
				checkFollowerPrefix(t, who, tns[0].devs[s][0], tns[f].devs[s][0])
			}
		}
		samples++
	}
	if got := ackedTotal.Load(); got < int64(writers*perWriter) {
		t.Fatalf("only %d of %d appends acked", got, writers*perWriter)
	}

	// The leader's store must show the pipeline disabled under replication:
	// tapNVRAM hides the StagingNVRAM extension, so seals are synchronous
	// and frame order is seal order — the property sampled above.
	tns[0].node.mu.Lock()
	store := tns[0].node.store
	tns[0].node.mu.Unlock()
	st := store.Stats()
	if st.PipelinedSeals != 0 || st.InflightSeals != 0 || st.StagedBytes != 0 {
		t.Errorf("seal pipeline active under replication: pipelined=%d inflight=%d staged=%d",
			st.PipelinedSeals, st.InflightSeals, st.StagedBytes)
	}
	if st.GroupCommits == 0 || st.BlocksSealed < 8 {
		t.Errorf("storm too small: groupCommits=%d sealed=%d", st.GroupCommits, st.BlocksSealed)
	}

	// Converged end state: both followers hold exactly the leader's blocks.
	waitFor(t, "followers to converge", 15*time.Second, func() bool {
		ends := tns[0].node.Status().ShardEnds
		return shardEndsEqual(ends, tns[1].node.Status().ShardEnds) &&
			shardEndsEqual(ends, tns[2].node.Status().ShardEnds)
	})
	for f := 1; f <= 2; f++ {
		for s := 0; s < 2; s++ {
			leader, follower := tns[0].devs[s][0], tns[f].devs[s][0]
			checkFollowerPrefix(t, fmt.Sprintf("follower %d shard %d (final)", f, s), leader, follower)
			if lw, fw := leader.Written(), follower.Written(); fw < lw {
				t.Errorf("follower %d shard %d converged at %d blocks, leader has %d", f, s, fw, lw)
			}
		}
	}
	t.Logf("acked=%d samples=%d sealed=%d groupCommits=%d",
		ackedTotal.Load(), samples, st.BlocksSealed, st.GroupCommits)
}
