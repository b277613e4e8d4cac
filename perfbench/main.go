// Command perfbench is the repository's benchmark: three workloads on the
// file-backed store `cliod -sync` serves, each with its own correctness
// oracle, and a traced mode that breaks the end-to-end numbers down by
// module. See README.md for the workloads, the metrics and how to run it.
//
// Usage:
//
//	perfbench --workload ingest|history|tail --seed N --seconds S --trace 0|1
//
// It prints a run descriptor and every metric by name and unit, one per
// line, then one JSON object as the last line:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"clio"
	"clio/internal/wodev"
)

var workloads = map[string]func(context.Context, params, stack) (*outcome, error){
	"ingest":  runIngest,
	"history": runHistory,
	"tail":    runTail,
}

// headline names each workload's headline op, the one p50_us and p99_us
// time.
var headline = map[string]string{
	"ingest":  "forced append, timed by the caller",
	"history": "locate (OpenCursor + SeekTime + 8 Next) over TCP",
	"tail":    "delivery, scheduled send time to subscriber Recv",
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: ingest, history or tail")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	secs := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced breakdown instead of the end-to-end measurement")
	work := flag.String("work", filepath.Join(".bench_build", "work"), "directory for the run's stores and span files")
	flag.Parse()
	if err := run(*name, *seed, *secs, *trace == 1, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, secs float64, traced bool, work string) error {
	if _, ok := workloads[name]; !ok {
		return fmt.Errorf("unknown workload %q (want ingest, history or tail)", name)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	dir := filepath.Join(work, fmt.Sprintf("%s-seed%d-pid%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	p := defaultParams(seed, secs, dir)
	describe(name, p, traced)
	o, gated, err := execute(context.Background(), name, p, traced)
	if err != nil {
		return err
	}
	if traced {
		spans := filepath.Join(work, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := o.spans.write(spans); err != nil {
			return err
		}
		fmt.Printf("spans %s\n", spans)
	}
	return report(o, gated)
}

// execute runs one workload and returns its outcome and the metrics the
// final line reports: the end-to-end ones, or, traced, the per-layer ones.
func execute(ctx context.Context, name string, p params, traced bool) (*outcome, map[string]metric, error) {
	fn := workloads[name]
	if !traced {
		o, err := fn(ctx, p, stack{})
		if err != nil {
			return nil, nil, err
		}
		return o, o.e2e, nil
	}
	// Traced: half the time untraced on CreateStore, half on the traced
	// assembly, then the replay; the ratio of the two headline medians is
	// the tracing overhead.
	secs, work := p.seconds, p.work
	p.seconds, p.setups = secs/2, 1
	p.work = filepath.Join(work, "plain")
	plain, err := fn(ctx, p, stack{})
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	p.work = filepath.Join(work, "traced")
	o, err := fn(ctx, p, stack{tr: tr})
	if err != nil {
		return nil, nil, err
	}
	o.spans = tr
	o.attempted += plain.attempted
	o.failed += plain.failed
	o.notes = append(o.notes, plain.notes...)
	o.layers["trace.overhead_p50"] = metric{ratio(o.headline.pct(0.5), plain.headline.pct(0.5)), "ratio"}
	// The CPU cost of tracing: on ingest the p50 ratio above is as noisy as
	// the p50 itself, while CPU per op is steady.
	o.layers["trace.overhead_cpu"] = metric{ratio(plain.e2e["ops_per_cpu_s"].Value, o.e2e["ops_per_cpu_s"].Value), "ratio"}
	o.add("trace.untraced_p50_us", plain.headline.pct(0.5), "us")
	o.add("trace.traced_p50_us", o.headline.pct(0.5), "us")
	o.add("trace.spans_dropped", float64(tr.dropped), "count")
	return o, o.layers, nil
}

// describe prints the run descriptor: what was measured, on what.
func describe(name string, p params, traced bool) {
	d := map[string]any{
		"workload":           name,
		"headline_op":        headline[name],
		"seed":               p.seed,
		"seconds":            p.seconds,
		"traced":             traced,
		"nproc":              runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"go":                 runtime.Version(),
		"store_fs":           fsType(p.work),
		"flush_policy":       "SyncEvery: fsync every sealed block (cliod -sync)",
		"block_size":         wodev.DefaultBlockSize,
		"cache_blocks":       defaultCacheBlocks(),
		"commit_window":      "adaptive (core default)",
		"shards":             storeShards,
		"volume_blocks":      volumeBlocks,
		"tail_offered_per_s": p.tailRate,
		"history_entries":    p.histEntries,
	}
	b, _ := json.Marshal(d)
	fmt.Printf("descriptor %s\n", b)
}

// defaultCacheBlocks is the per-shard block cache size the store runs
// with: the core default, read from a scratch in-memory service.
func defaultCacheBlocks() any {
	st, err := clio.NewMemStore(1, wodev.DefaultBlockSize, 16, clio.Options{})
	if err != nil {
		return err.Error()
	}
	defer st.Close()
	return st.Service(0).Options().CacheBlocks
}

func report(o *outcome, gated map[string]metric) error {
	for _, n := range o.notes {
		fmt.Printf("failure %s\n", n)
	}
	var names []string
	for n := range gated {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %s %v %s\n", n, gated[n].Value, gated[n].Unit)
	}
	for _, m := range o.detail {
		fmt.Printf("detail %s %v %s\n", m.name, m.Value, m.Unit)
	}
	if o.attempted < 1 {
		return fmt.Errorf("the run attempted no operations")
	}
	b, err := json.Marshal(result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: gated})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
