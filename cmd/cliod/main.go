// Command cliod runs the Clio log server: it opens (or creates) a
// file-backed log store and serves the log-file protocol over TCP — the
// stand-alone deployment of the paper's extended file server.
//
// Usage:
//
//	cliod -store /var/lib/clio [-config /etc/clio.conf] [-listen :7846]
//	      [-create] [-shards N] [-volume-blocks N] [-checkpoint-interval N]
//	      [-admin :7847] [-slow-trace 100ms] [-force-window 0]
//	      [-compact-interval 0] [-compact-max-live 0.5] [-compact-min-hot 2]
//	      [-drain-timeout 30s]
//
// Configuration is layered: built-in defaults, then the -config file (flat
// key=value lines using the flag spellings), then CLIO_* environment
// variables (CLIO_LISTEN, CLIO_STORE, ...), then explicit flags — later
// layers win. Tenants are declared in the config file only:
//
//	tenant.acme.token = s3cret
//	tenant.acme.max-logs = 1000
//	tenant.acme.max-bytes = 1073741824
//	tenant.acme.max-sessions = 64
//
// With one or more tenants configured the daemon is multi-tenant: sessions
// must authenticate (clio -tenant acme -token s3cret), each tenant's log
// files live under /<name>, and quota-exceeded requests fail with a typed
// status instead of silently dropping. Without tenants the daemon runs open,
// exactly as before.
//
// Lifecycle: SIGHUP re-reads the config layers and applies the reloadable
// keys (tenant table, slow-trace, compaction knobs, drain-timeout) without
// dropping sessions; non-reloadable changes are logged as needing a restart.
// SIGTERM/SIGINT drains: listeners close, in-flight requests and group
// commits finish (bounded by -drain-timeout), stream subscriptions end with
// a final frame, then the store closes cleanly. A second signal forces
// immediate exit.
//
// -force-window controls the group-commit policy: 0 (the default) sizes the
// gather window adaptively from the observed arrival rate and seal latency,
// and a negative value restores the legacy leader/rider queue with no window
// and no seal pipeline. A positive value is refused.
//
// -compact-interval enables background space reclamation: every interval,
// each shard copies the live entries of mostly-dead sealed volumes forward,
// demotes the emptied volumes to its cold archive (<shard>/cold) and deletes
// the local volume files, keeping hot storage bounded while reads of demoted
// blocks transparently fetch from the archive. -compact-max-live caps the
// live fraction a volume may have and still be compacted; -compact-min-hot
// is the floor of volumes kept mounted per shard. 0 disables the loop
// (`clio compact` still works offline).
//
// A 1-shard store holds one file per log volume plus the NVRAM sidecar that
// stages the current partial block across restarts (§2.3.1). -create
// -shards N lays the store out as N hash-partitioned volume sequences
// (shard-K subdirectories, each with its own NVRAM sidecar) behind one
// namespace; reopening detects the shard count from the directory.
//
// -admin starts an HTTP endpoint serving /metrics (Prometheus text format),
// /statusz (JSON: volumes, tail state, session and tenant tables), /tracez
// (recent and slow request traces) and /debug/pprof. Requests slower than
// -slow-trace are captured with their per-layer spans (server dispatch,
// group commit, device write).
//
// Replicated cluster mode — -peers switches the node into per-shard
// leader/follower replication:
//
//	cliod -store /var/lib/clio -listen :7846 -create \
//	      -peers b:7846,c:7846 -advertise a:7846 -role leader [-quorum 2]
//
// The leader orders every append through its group-commit path and acks a
// forced append only after a quorum of replicas has durably staged it;
// followers serve reads of sealed history and redirect writes to the
// leader. `clio promote` turns a follower into the leader after a failure;
// `clio status` shows each node's role, term and replication lag. In
// cluster mode /statusz gains a "cluster" section and /metrics the
// clio_cluster_* instruments. Volume allocation is disabled (capacity is
// the initial volume), background compaction is rejected (the compactor
// deletes volume files a replica must mirror exactly), and shutdown never
// seals the staged tail — a replica must not write blocks its leader did
// not order. Tenants and -slow-trace apply to the leader's embedded server.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"clio"
	"clio/internal/cluster"
	"clio/internal/config"
	"clio/internal/obs"
	"clio/internal/server"
)

// buildConfig merges the config layers in order — defaults, file,
// environment, flags — and validates the result. It is re-run verbatim on
// SIGHUP, so a reload sees exactly what a restart would.
func buildConfig(confPath string) (*config.Config, error) {
	cfg := config.Default()
	if confPath != "" {
		if err := cfg.LoadFile(confPath); err != nil {
			return nil, err
		}
	}
	if err := cfg.ApplyEnv(os.LookupEnv); err != nil {
		return nil, err
	}
	var ferr error
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "config" || ferr != nil {
			return
		}
		ferr = cfg.Set(f.Name, f.Value.String())
	})
	if ferr != nil {
		return nil, ferr
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// serverTenants converts the config's tenant table to the server's shape.
func serverTenants(cfg *config.Config) []server.Tenant {
	var out []server.Tenant
	for _, t := range cfg.TenantList() {
		out = append(out, server.Tenant{
			Name: t.Name, Token: t.Token,
			MaxLogs: t.MaxLogs, MaxBytes: t.MaxBytes, MaxSessions: t.MaxSessions,
		})
	}
	return out
}

// reloadable is the subset of live daemon state a SIGHUP may retune.
type reloadable struct {
	tracer          *obs.Tracer // nil without -admin
	drainTimeout    atomic.Int64
	compactInterval atomic.Int64
	compactMaxLive  atomic.Uint64 // float64 bits
	compactMinHot   atomic.Int64
	compactPoke     chan struct{} // nil in cluster mode
	setTenants      func([]server.Tenant)
}

func (r *reloadable) apply(cfg *config.Config) {
	r.drainTimeout.Store(int64(cfg.DrainTimeout))
	r.compactInterval.Store(int64(cfg.CompactInterval))
	r.compactMaxLive.Store(math.Float64bits(cfg.CompactMaxLive))
	r.compactMinHot.Store(int64(cfg.CompactMinHot))
	r.tracer.SetSlowThreshold(cfg.SlowTrace)
	if r.setTenants != nil {
		r.setTenants(serverTenants(cfg))
	}
	if r.compactPoke != nil {
		select {
		case r.compactPoke <- struct{}{}:
		default:
		}
	}
}

// reload re-merges the config layers and applies what may change at
// runtime, warning about the rest. The old config stays in force when the
// new one fails to load or validate — a broken edit must not take down a
// running daemon.
func reload(confPath string, cur *config.Config, r *reloadable) *config.Config {
	next, err := buildConfig(confPath)
	if err != nil {
		log.Printf("cliod: reload rejected, keeping previous config: %v", err)
		return cur
	}
	changed := cur.Diff(next)
	if len(changed) == 0 {
		log.Print("cliod: reload: no changes")
		return cur
	}
	applied := changed[:0:0]
	for _, key := range changed {
		if key == "tenants" || config.Reloadable(key) {
			applied = append(applied, key)
		} else {
			log.Printf("cliod: reload: %s changed but needs a restart to apply", key)
		}
	}
	if len(applied) > 0 {
		r.apply(next)
		log.Printf("cliod: reloaded: %s", strings.Join(applied, ", "))
	}
	return next
}

func main() {
	def := config.Default()
	confPath := flag.String("config", "", "config file (flat key=value lines; flags and CLIO_* env override it)")
	flag.String("store", "", "store directory (required)")
	flag.String("listen", def.Listen, "TCP listen address")
	flag.Bool("create", false, "create a new store instead of opening one")
	flag.Int("shards", 0, "hash partitions for -create (reopen detects; >0 asserts the count)")
	flag.Int("volume-blocks", def.VolumeBlocks, "capacity of each volume file in blocks")
	flag.Int("block-size", def.BlockSize, "block size in bytes")
	flag.Bool("sync", false, "fsync every sealed block")
	flag.Int("checkpoint-interval", 0, "emit a recovery checkpoint every N sealed blocks per shard, and on clean shutdown (0 disables; recovery then reconstructs from scratch)")
	flag.String("admin", "", "HTTP admin listen address (/metrics, /statusz, /tracez, /debug/pprof); empty disables")
	flag.Duration("slow-trace", def.SlowTrace, "requests at least this slow are kept in /tracez's slow ring (0 keeps everything)")
	flag.String("peers", "", "comma-separated replica addresses; enables cluster mode")
	flag.String("advertise", "", "address peers and redirected clients reach this node at (default -listen)")
	flag.String("role", def.Role, "initial cluster role: leader or follower")
	flag.Int("quorum", def.Quorum, "replicas (leader included) that must stage a write before it is acked")
	flag.Duration("force-window", 0, "group-commit gather window: 0 sizes it adaptively from the arrival rate, <0 restores the legacy leader/rider queue (no window, no seal pipeline); >0 is refused")
	flag.Duration("compact-interval", 0, "run a compaction pass on every shard this often; 0 disables background reclamation")
	flag.Float64("compact-max-live", 0, "max fraction of live blocks for a volume to be compacted (0 = default 0.5)")
	flag.Int("compact-min-hot", 0, "minimum volumes kept mounted per shard (0 = default 2)")
	flag.Duration("drain-timeout", def.DrainTimeout, "how long a SIGTERM drain lets in-flight requests and group commits finish before forcing connections closed")
	flag.Parse()

	cfg, err := buildConfig(*confPath)
	if err != nil {
		log.Fatalf("cliod: %v", err)
	}

	// Registered before the store opens: a signal during startup is held in
	// the buffer (2 deep: one drain trigger plus one force-exit) until the
	// lifecycle goroutine drains it, never the runtime's default action.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)

	opts := clio.DirOptions{VolumeBlocks: cfg.VolumeBlocks, SyncEvery: cfg.Sync, Shards: cfg.Shards}
	opts.BlockSize = cfg.BlockSize
	opts.CheckpointInterval = cfg.CheckpointInterval
	opts.CommitWindow = cfg.ForceWindow
	if cfg.Peers != "" {
		runCluster(cfg, *confPath, opts, sig)
		return
	}
	var st *clio.Store
	if cfg.Create {
		st, err = clio.CreateStore(cfg.Store, opts)
	} else {
		st, err = clio.OpenStore(cfg.Store, opts)
	}
	if err != nil {
		log.Fatalf("cliod: %v", err)
	}
	rep := st.LastRecovery()
	log.Printf("cliod: store %s open: %d shards, %d data blocks, %d catalog records, tails restored=%d, checkpoints used=%d/%d",
		cfg.Store, st.Shards(), rep.SealedBlocks, rep.CatalogEntries, rep.TailsRestored, rep.CheckpointsUsed, st.Shards())
	if rep.VolumesRelocated > 0 || rep.VolumesDemoted > 0 {
		log.Printf("cliod: compaction state: %d volumes relocated, %d demoted cold", rep.VolumesRelocated, rep.VolumesDemoted)
	}

	srv := server.NewStore(st)
	srv.Logf = log.Printf
	if tenants := serverTenants(cfg); len(tenants) > 0 {
		srv.SetTenants(tenants)
		log.Printf("cliod: multi-tenant: %d tenants configured", len(tenants))
	}

	rl := &reloadable{compactPoke: make(chan struct{}, 1), setTenants: srv.SetTenants}

	// Background reclamation: one compaction pass across every shard per
	// tick. CompactOnce serializes with itself per shard, and a pass only
	// examines volumes present when it starts, so a slow pass simply delays
	// the next tick rather than piling up. The loop re-reads its knobs from
	// rl each round, so a SIGHUP can retune, enable or disable it live.
	compactCtx, stopCompactLoop := context.WithCancel(context.Background())
	compactDone := make(chan struct{})
	go func() {
		defer close(compactDone)
		for {
			var tick <-chan time.Time
			var timer *time.Timer
			if iv := time.Duration(rl.compactInterval.Load()); iv > 0 {
				timer = time.NewTimer(iv)
				tick = timer.C
			}
			select {
			case <-compactCtx.Done():
				if timer != nil {
					timer.Stop()
				}
				return
			case <-rl.compactPoke:
				if timer != nil {
					timer.Stop()
				}
				continue
			case <-tick:
			}
			copt := clio.CompactOptions{
				MaxLiveFraction: math.Float64frombits(rl.compactMaxLive.Load()),
				MinHotVolumes:   int(rl.compactMinHot.Load()),
			}
			res, err := st.CompactOnce(compactCtx, copt)
			if err != nil {
				log.Printf("cliod: compact: %v", err)
			}
			if res.VolumesReloc > 0 || res.VolumesDemoted > 0 {
				log.Printf("cliod: compacted %d volumes (%d entries, %d bytes relocated), %d demoted cold",
					res.VolumesReloc, res.EntriesCopied, res.BytesCopied, res.VolumesDemoted)
			}
		}
	}()
	if cfg.CompactInterval > 0 {
		log.Printf("cliod: background compaction every %s", cfg.CompactInterval)
	}

	var adminSrv *http.Server
	if cfg.Admin != "" {
		reg := obs.NewRegistry()
		st.RegisterMetrics(reg)
		st.RegisterStreamMetrics(reg)
		srv.RegisterMetrics(reg)
		obs.RegisterProcessMetrics(reg)
		srv.Tracer = obs.NewTracer(256, cfg.SlowTrace)
		rl.tracer = srv.Tracer
		mux := obs.NewAdminMux(reg, srv.Tracer, func() any {
			return map[string]any{
				"shards": st.Status(),
				"server": srv.Status(),
			}
		})
		aln, err := net.Listen("tcp", cfg.Admin)
		if err != nil {
			log.Fatalf("cliod: admin listen: %v", err)
		}
		log.Printf("cliod: admin on http://%s", aln.Addr())
		adminSrv = &http.Server{Handler: mux}
		go func() {
			if err := adminSrv.Serve(aln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("cliod: admin: %v", err)
			}
		}()
	}
	rl.apply(cfg)

	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		log.Fatalf("cliod: listen: %v", err)
	}
	log.Printf("cliod: serving on %s", ln.Addr())

	// Lifecycle: SIGHUP reloads, the first TERM/INT starts a bounded
	// graceful drain, a second one forces immediate exit.
	var draining atomic.Bool
	drained := make(chan struct{})
	go func() {
		for s := range sig {
			if s == syscall.SIGHUP {
				cfg = reload(*confPath, cfg, rl)
				continue
			}
			if draining.Swap(true) {
				log.Printf("cliod: %s during drain, exiting immediately", s)
				os.Exit(1)
			}
			dt := time.Duration(rl.drainTimeout.Load())
			log.Printf("cliod: %s: draining (in-flight requests get up to %s)", s, dt)
			go func() {
				defer close(drained)
				ctx, cancel := context.WithTimeout(context.Background(), dt)
				defer cancel()
				if adminSrv != nil {
					adminSrv.Shutdown(ctx)
				}
				if err := srv.Shutdown(ctx); err != nil {
					log.Printf("cliod: drain incomplete after %s, closing remaining connections: %v", dt, err)
				}
			}()
		}
	}()

	if err := srv.Serve(ln); err != nil && !errors.Is(err, server.ErrServerClosed) {
		log.Printf("cliod: serve: %v", err)
	}
	if draining.Load() {
		<-drained
	}
	stopCompactLoop()
	<-compactDone
	if err := st.Close(); err != nil {
		log.Printf("cliod: close: %v", err)
	}
	log.Print("cliod: store closed, exiting")
}

// runCluster runs the node as a replication cluster member: the store is
// opened as raw devices (a follower holds media its leader writes; only a
// leader — initial or promoted — mounts a service over them).
func runCluster(cfg *config.Config, confPath string, opts clio.DirOptions, sig chan os.Signal) {
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		log.Fatalf("cliod: listen: %v", err)
	}
	advertise := cfg.Advertise
	if advertise == "" {
		advertise = ln.Addr().String()
	}
	// -create provisions this node's volume files whatever its role; only
	// the leader formats store metadata — a follower's media is written
	// solely by replication so it mirrors the leader's ordering exactly.
	raw, err := clio.OpenRaw(cfg.Store, opts, cfg.Create)
	if err != nil {
		log.Fatalf("cliod: %v", err)
	}
	var tracer *obs.Tracer
	if cfg.Admin != "" {
		tracer = obs.NewTracer(256, cfg.SlowTrace)
	}
	node, err := cluster.New(cluster.Config{
		NodeID:  advertise,
		Peers:   strings.Split(cfg.Peers, ","),
		Quorum:  cfg.Quorum,
		Devices: raw.Devices,
		NVRAMs:  raw.NVRAMs,
		Opts:    raw.Opts,
		Create:  cfg.Create && cfg.Role == "leader",
		// Persist term arbitration next to the store: a restarted node must
		// remember the highest term it has seen, or a stale leader could be
		// mistaken for the legitimate one after a full-cluster restart.
		TermPath: filepath.Join(cfg.Store, "term.clio"),
		Reset:    raw.Reset,
		Logf:     log.Printf,
		Tracer:   tracer,
		Tenants:  serverTenants(cfg),
	})
	if err != nil {
		log.Fatalf("cliod: %v", err)
	}
	if err := node.Start(cfg.Role == "leader"); err != nil {
		log.Fatalf("cliod: %v", err)
	}
	if cfg.Role == "leader" {
		if rep, ok := node.PromotionRecovery(); ok {
			log.Printf("cliod: store %s recovered: %d data blocks, %d replayed past checkpoints, %d tails restored",
				cfg.Store, rep.SealedBlocks, rep.BlocksReplayed, rep.TailsRestored)
		}
	}
	var adminSrv *http.Server
	if cfg.Admin != "" {
		reg := obs.NewRegistry()
		node.RegisterMetrics(reg)
		obs.RegisterProcessMetrics(reg)
		mux := obs.NewAdminMux(reg, tracer, func() any {
			s := map[string]any{"cluster": node.Status()}
			if st := node.Store(); st != nil {
				s["shards"] = st.Status()
			}
			return s
		})
		aln, err := net.Listen("tcp", cfg.Admin)
		if err != nil {
			log.Fatalf("cliod: admin listen: %v", err)
		}
		log.Printf("cliod: admin on http://%s", aln.Addr())
		adminSrv = &http.Server{Handler: mux}
		go func() {
			if err := adminSrv.Serve(aln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("cliod: admin: %v", err)
			}
		}()
	}
	rl := &reloadable{tracer: tracer, setTenants: node.SetTenants}
	rl.apply(cfg)
	var stopping atomic.Bool
	go func() {
		for s := range sig {
			if s == syscall.SIGHUP {
				cfg = reload(confPath, cfg, rl)
				continue
			}
			if stopping.Swap(true) {
				log.Printf("cliod: %s during shutdown, exiting immediately", s)
				os.Exit(1)
			}
			// A replica stops rather than drains: every acked mutation is
			// already quorum-staged, and the media must stay exactly as the
			// leader ordered it. Handing leadership off is `clio promote`'s
			// job, not SIGTERM's.
			log.Printf("cliod: %s: shutting down (replica media stays exactly as ordered)", s)
			if adminSrv != nil {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				adminSrv.Shutdown(ctx)
				cancel()
			}
			node.Kill()
		}
	}()
	log.Printf("cliod: %s serving as cluster %s on %s (peers %s, quorum %d)",
		advertise, cfg.Role, ln.Addr(), cfg.Peers, cfg.Quorum)
	if err := node.Serve(ln); err != nil && !stopping.Load() {
		log.Printf("cliod: serve: %v", err)
	}
}
