package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"

	"clio/internal/core"
	"clio/internal/logapi"
	"clio/internal/obs"
	"clio/internal/server"
	"clio/internal/shard"
	"clio/internal/wodev"
)

// cursorPair serves an n-shard in-memory store through a net.Pipe and
// returns a client on it, the store itself (for in-process cursors on the
// same data) and the server's metrics registry.
func cursorPair(t *testing.T, shards int) (*Client, *shard.Store, *obs.Registry) {
	t.Helper()
	svcs := make([]*core.Service, shards)
	for i := range svcs {
		dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 14})
		now := int64(0)
		svc, err := core.New(dev, core.Options{
			BlockSize: 512, Degree: 8,
			Now: func() int64 { now += 1000; return now },
		})
		if err != nil {
			t.Fatal(err)
		}
		svcs[i] = svc
	}
	st, err := shard.New(svcs)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewStore(st)
	reg := obs.NewRegistry()
	srv.RegisterMetrics(reg)
	cConn, sConn := net.Pipe()
	go srv.ServeConn(sConn)
	cl := New(cConn)
	t.Cleanup(func() { cl.Close(); srv.Close(); st.Close() })
	return cl, st, reg
}

// requests sums clio_server_requests_total over every op.
func requests(reg *obs.Registry) int64 {
	var n int64
	for _, m := range reg.Snapshot() {
		if m.Name == "clio_server_requests_total" {
			n += m.Value
		}
	}
	return n
}

// sameEntry reports how two cursor answers differ, or "" when they agree.
func sameEntry(want, got *Entry, werr, gerr error) string {
	if (werr == nil) != (gerr == nil) || werr == io.EOF != (gerr == io.EOF) {
		return fmt.Sprintf("in-process err %v, remote err %v", werr, gerr)
	}
	if werr != nil {
		return ""
	}
	if want.LogID != got.LogID || want.Timestamp != got.Timestamp ||
		want.Timestamped != got.Timestamped || want.Forced != got.Forced ||
		want.Shard != got.Shard || want.Block != got.Block || want.Index != got.Index ||
		fmt.Sprint(want.ExtraIDs) != fmt.Sprint(got.ExtraIDs) || !bytes.Equal(want.Data, got.Data) {
		return fmt.Sprintf("in-process %d/%d@%d:%d:%d %q, remote %d/%d@%d:%d:%d %q",
			want.LogID, want.Timestamp, want.Shard, want.Block, want.Index, want.Data,
			got.LogID, got.Timestamp, got.Shard, got.Block, got.Index, got.Data)
	}
	return ""
}

// TestCursorReadAheadMatchesInProcess drives seeded random sequences of
// Next, Prev, SeekTime, SeekStart, SeekEnd and SeekPos through a remote
// cursor and an in-process cursor on the same store, interleaved with
// appends to the log being read, and requires identical entries and EOFs
// after every call. The sequences reverse and seek with read-ahead entries
// still buffered, read logs shorter than the window and logs whose batches
// end on the byte cap, and walk the merged multi-shard root cursor.
func TestCursorReadAheadMatchesInProcess(t *testing.T) {
	for _, tc := range []struct {
		shards int
		path   string
		fill   int // entries appended before the walk
	}{
		{1, "/long", 300},
		{1, "/short", 3},
		{1, "/empty", 0},
		{3, "/long", 200},
		{3, "/", 150},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("shards%d%s/seed%d", tc.shards, tc.path, seed), func(t *testing.T) {
				equivalenceRun(t, tc.shards, tc.path, tc.fill, seed)
			})
		}
	}
}

func equivalenceRun(t *testing.T, shards int, path string, fill int, seed int64) {
	cl, st, _ := cursorPair(t, shards)
	rng := rand.New(rand.NewSource(seed))
	// Logs on every shard, so the root cursor merges real streams; the
	// walked log (or, for the root, a log on the last shard) takes the
	// interleaved appends.
	var ids []logapi.ID
	for _, p := range []string{"/long", "/short", "/empty", "/x", "/y", "/z"} {
		id, err := st.CreateLog(bg, p, 0, "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	live := ids[0]
	switch path {
	case "/short":
		live = ids[1]
	case "/empty":
		live = ids[2]
	case "/":
		live = ids[5]
	}
	var stamps []int64
	appendOne := func(id logapi.ID) {
		size := 1 + rng.Intn(40)
		if rng.Intn(8) == 0 {
			size = 600 + rng.Intn(1800) // spans blocks; batches hit the byte cap
		}
		data := bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, size)
		opts := core.AppendOptions{Timestamped: rng.Intn(3) == 0, Forced: rng.Intn(10) == 0}
		var ts int64
		var err error
		if other := ids[rng.Intn(len(ids))]; rng.Intn(6) == 0 && other != id && other.Shard() == id.Shard() {
			ts, err = st.AppendMulti(bg, []logapi.ID{id, other}, data, opts)
		} else {
			ts, err = st.Append(bg, id, data, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		stamps = append(stamps, ts)
	}
	for i := 0; i < fill; i++ {
		if path == "/" {
			appendOne(ids[rng.Intn(len(ids))])
		} else {
			appendOne(live)
			if rng.Intn(3) == 0 {
				appendOne(ids[3+rng.Intn(3)]) // unrelated entries between ours
			}
		}
	}

	want, err := st.OpenCursor(bg, path)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	got, err := cl.OpenCursor(bg, path)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()

	var seen []*Entry // entries returned so far, for SeekPos targets
	var trail []string
	for step := 0; step < 600; step++ {
		var op string
		switch r := rng.Intn(100); {
		case r < 45:
			op = "next"
		case r < 75:
			op = "prev"
		case r < 82:
			op = "seektime"
		case r < 85:
			op = "seekstart"
		case r < 88:
			op = "seekend"
		case r < 94:
			op = "seekpos"
		default:
			op = "append"
		}
		trail = append(trail, op)
		if len(trail) > 12 {
			trail = trail[1:]
		}
		var werr, gerr error
		switch op {
		case "next", "prev":
			var we, ge *Entry
			if op == "next" {
				we, werr = want.Next(bg)
				ge, gerr = got.Next(bg)
			} else {
				we, werr = want.Prev(bg)
				ge, gerr = got.Prev(bg)
			}
			if d := sameEntry(we, ge, werr, gerr); d != "" {
				t.Fatalf("step %d %s: %s (last ops %v)", step, op, d, trail)
			}
			if werr == nil {
				seen = append(seen, we)
			}
			continue
		case "seektime":
			ts := int64(rng.Intn(1000))
			if len(stamps) > 0 {
				ts += stamps[rng.Intn(len(stamps))] - 500
			}
			werr, gerr = want.SeekTime(bg, ts), got.SeekTime(bg, ts)
		case "seekstart":
			werr, gerr = want.SeekStart(bg), got.SeekStart(bg)
		case "seekend":
			werr, gerr = want.SeekEnd(bg), got.SeekEnd(bg)
		case "seekpos":
			if len(seen) == 0 {
				continue
			}
			e := seen[rng.Intn(len(seen))]
			rec := e.Index + rng.Intn(2) // before or after the entry
			if rng.Intn(8) == 0 {
				rec = 1 << 20 // past the block's last record
			}
			werr, gerr = want.SeekPos(bg, e.Block, rec), got.SeekPos(bg, e.Block, rec)
		case "append":
			appendOne(live)
		}
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("step %d %s: in-process err %v, remote err %v", step, op, werr, gerr)
		}
	}
}

// TestCursorReadAheadNeverCachesEOF: a live log read to its end returns
// EOF, takes an append, and the next Next returns the new entry — also when
// the batch that hit the end still has entries buffered.
func TestCursorReadAheadNeverCachesEOF(t *testing.T) {
	cl, st, _ := cursorPair(t, 1)
	id, err := st.CreateLog(bg, "/live", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	add := func(s string) {
		if _, err := st.Append(bg, id, []byte(s), core.AppendOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := cl.OpenCursor(bg, "/live")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if _, err := cur.Next(bg); err != io.EOF {
		t.Fatalf("empty log: %v, want EOF", err)
	}
	add("a")
	add("b")
	add("c")
	next := func(want string) {
		t.Helper()
		e, err := cur.Next(bg)
		if err != nil || string(e.Data) != want {
			t.Fatalf("Next = %v, %v; want %q", e, err, want)
		}
	}
	next("a") // the batch ran into the end: b and c stay buffered
	add("d")
	next("b")
	next("c")
	next("d")
	if _, err := cur.Next(bg); err != io.EOF {
		t.Fatalf("after d: %v, want EOF", err)
	}
	add("e")
	next("e")
}

// TestCursorConcurrentDrain: two goroutines draining one remote cursor see
// every entry exactly once between them.
func TestCursorConcurrentDrain(t *testing.T) {
	cl, st, _ := cursorPair(t, 1)
	id, err := st.CreateLog(bg, "/shared", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if _, err := st.Append(bg, id, []byte(fmt.Sprint(i)), core.AppendOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := cl.OpenCursor(bg, "/shared")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var mu sync.Mutex
	count := make(map[string]int)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				e, err := cur.Next(bg)
				if err == io.EOF {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				count[string(e.Data)]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(count) != n {
		t.Fatalf("saw %d distinct entries, want %d", len(count), n)
	}
	for k, c := range count {
		if c != 1 {
			t.Fatalf("entry %s seen %d times", k, c)
		}
	}
}

// TestLocateRoundTrips pins the request count of a remote locate: open,
// SeekTime, 8 Next and Close cost 4 requests (one step fetches all 8), and
// the read-ahead window doubles up to its cap on a long scan.
func TestLocateRoundTrips(t *testing.T) {
	cl, st, reg := cursorPair(t, 1)
	id, err := st.CreateLog(bg, "/loc", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	var stamps []int64
	for i := 0; i < 400; i++ {
		ts, err := st.Append(bg, id, []byte(fmt.Sprint(i)), core.AppendOptions{Timestamped: true})
		if err != nil {
			t.Fatal(err)
		}
		stamps = append(stamps, ts)
	}
	before := requests(reg)
	cur, err := cl.OpenCursor(bg, "/loc")
	if err != nil {
		t.Fatal(err)
	}
	if err := cur.SeekTime(bg, stamps[100]); err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 108; i++ {
		e, err := cur.Next(bg)
		if err != nil || string(e.Data) != fmt.Sprint(i) {
			t.Fatalf("Next = %v, %v; want entry %d", e, err, i)
		}
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if got := requests(reg) - before; got != 4 {
		t.Fatalf("locate took %d requests, want 4", got)
	}

	// A full scan of 400 entries asks for 8, 16, 32, 64, 64, ... entries:
	// 8 steps carry 376 entries, a 9th the last 24, a 10th finds the end.
	before = requests(reg)
	ctx := context.Background()
	cur, err = cl.OpenCursor(ctx, "/loc")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if _, err := cur.Next(ctx); err == io.EOF {
			if i != len(stamps) {
				t.Fatalf("scan saw %d entries, want %d", i, len(stamps))
			}
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if got := requests(reg) - before; got != 1+10 {
		t.Fatalf("scan took %d requests, want 11", got)
	}
}
