// Package cluster replicates a Clio store across nodes: one per-shard-set
// leader orders every mutation through the existing group-commit path and
// ships the resulting device writes — sealed blocks and NVRAM-staged tail
// frames — to followers over an extension of the sessioned wire protocol
// (internal/wire repl ops). A client ack leaves the leader only after a
// configurable quorum of replicas has durably staged the batch, so a leader
// crash loses no acknowledged entry: a promoted follower holds every device
// block, tail image and session duplicate-suppression record the ack
// depended on, and the client's ordinary reconnect/replay machinery carries
// its session across the failover unchanged (the cluster epoch survives
// promotion, so replays hit the replicated dedup window instead of
// re-executing).
//
// The design leans on the write-once discipline the paper builds on: a
// replica's device state is an append-only prefix, so "how far along is
// this follower" is a pair of integers per device and catch-up is always
// "newest checkpoint + suffix", never a diff. Divergence (a follower whose
// blocks are not a prefix of the leader's) can only arise from an
// un-replicated leader surviving a crash, is detected by comparing the last
// common block's checksum, and is resolved by resetting the device.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clio/internal/core"
	"clio/internal/durable"
	"clio/internal/obs"
	"clio/internal/server"
	"clio/internal/shard"
	"clio/internal/wire"
	"clio/internal/wodev"
)

// DefaultAckTimeout bounds how long a mutation waits for quorum before the
// client is told the write is not (yet) replicated.
const DefaultAckTimeout = 5 * time.Second

// DefaultDialTimeout bounds one replication dial attempt.
const DefaultDialTimeout = 2 * time.Second

// DefaultStreamQueue is the default per-subscriber replication frame
// buffer (Config.StreamQueue).
const DefaultStreamQueue = 4096

// Config describes one cluster node.
type Config struct {
	// NodeID is this node's advertised address: what peers dial and what
	// followers hand to clients in StatusNotLeader redirects.
	NodeID string
	// Peers lists the other nodes' advertised addresses.
	Peers []string
	// Quorum is how many replicas (the leader included) must have durably
	// staged a mutation before the client is acked. 0 defaults to 2
	// (leader + 1 follower); 1 disables waiting. It must not exceed
	// 1+len(Peers).
	Quorum int
	// Devices holds the node's write-once devices, per shard then per
	// volume. Followers apply replicated writes to them directly; a leader
	// opens the store over them.
	Devices [][]wodev.Device
	// NVRAMs holds one NVRAM per shard; replication of forced tails rides
	// the same staging writes the single-node crash path uses.
	NVRAMs []core.NVRAM
	// Opts is the per-shard core option template (the NVRAM field is filled
	// in per shard).
	Opts core.Options
	// Create formats fresh single-volume shards when the node first becomes
	// leader, instead of opening existing state.
	Create bool
	// TermPath, when set, persists the highest term this node has seen to
	// that file (written atomically via rename); New reloads it. Without
	// it terms live only in memory, so a full-cluster restart forgets the
	// term history and a formerly-demoted node restarted as leader is
	// indistinguishable from the legitimate one.
	TermPath string
	// StreamQueue is each replication subscriber's frame buffer; a sender
	// that falls this far behind is cut loose and restarts with a suffix
	// catch-up. Size it against the group-commit rate to make that rare.
	// 0 uses DefaultStreamQueue.
	StreamQueue int
	// AckTimeout bounds the quorum wait per mutation; 0 uses
	// DefaultAckTimeout.
	AckTimeout time.Duration
	// DialTimeout bounds one replication dial; 0 uses DefaultDialTimeout.
	DialTimeout time.Duration
	// Dial, when set, replaces net.Dial for replication streams (tests
	// inject partitions here).
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// Reset, when set, supplies a blank replacement for a diverged device
	// so the node can re-sync it from block zero. Without it, divergence
	// leaves the device stuck and logged.
	Reset func(shard, dev int) (wodev.Device, error)
	// Logf, when set, receives node-level logs.
	Logf func(format string, args ...any)
	// Tracer, when set, is installed on the leader's embedded server so
	// request tracing (slow-trace capture) works in cluster mode exactly as
	// it does single-node. Followers serve no client requests and ignore it.
	Tracer *obs.Tracer
	// Tenants, when non-empty, is installed on the leader's embedded server:
	// clients must authenticate to a tenant and stay inside its namespace.
	// SetTenants replaces the table at runtime (config reload).
	Tenants []server.Tenant
}

// Node is one cluster member, serving either role: as leader it fronts a
// live store and streams every device mutation to its peers; as follower it
// applies those streams to its local devices and serves reads of sealed
// history, redirecting write-class clients to the leader.
type Node struct {
	cfg    Config
	stream *stream

	// roleMu serializes role transitions (start, promote, step-down, kill);
	// mu guards the snapshot fields and is never held across blocking work.
	roleMu sync.Mutex

	mu         sync.Mutex
	role       int
	term       uint64
	epoch      uint64
	leaderAddr string
	devs       [][]wodev.Device // mutable copy of cfg.Devices (Reset swaps entries)
	srv        *server.Server   // leader only
	store      *shard.Store     // leader only
	peers      []*peer          // leader only
	fol        *followerState   // follower only
	lns        []net.Listener
	conns      map[net.Conn]struct{}
	tenants    []server.Tenant // current tenant table; installed on promotion
	stopped    bool
	promoRec   shard.MergedRecovery
	promoRecOK bool

	stopCh chan struct{}

	commitMu  sync.Mutex
	committed uint64
	commitCh  chan struct{}

	wg sync.WaitGroup

	promotions     atomic.Int64
	demotions      atomic.Int64
	quorumTimeouts atomic.Int64
	quorumRefusals atomic.Int64
	framesEmitted  atomic.Int64

	// streamGen numbers accepted replication handshakes; applyMu serializes
	// frame application against it. Together they guarantee exactly one
	// stream lands frames at a time: each accepted folHello bumps the
	// generation (superseding every older connection, even the same
	// leader's — its in-flight frames would race the new session's catch-up)
	// and then takes applyMu once as a barrier, so an apply already past its
	// generation check finishes before the handshake snapshots extents.
	streamGen atomic.Uint64
	applyMu   sync.Mutex
}

// New validates cfg and returns an idle node; call Start and Serve.
func New(cfg Config) (*Node, error) {
	if cfg.NodeID == "" {
		return nil, errors.New("cluster: NodeID required")
	}
	if len(cfg.Devices) == 0 || len(cfg.Devices) != len(cfg.NVRAMs) {
		return nil, fmt.Errorf("cluster: need matching Devices and NVRAMs per shard (%d devices shards, %d nvrams)",
			len(cfg.Devices), len(cfg.NVRAMs))
	}
	for i, devs := range cfg.Devices {
		if len(devs) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no devices", i)
		}
	}
	if cfg.Quorum == 0 {
		cfg.Quorum = 2
	}
	if cfg.Quorum < 1 || cfg.Quorum > 1+len(cfg.Peers) {
		return nil, fmt.Errorf("cluster: quorum %d impossible with %d peers", cfg.Quorum, len(cfg.Peers))
	}
	if cfg.AckTimeout == 0 {
		cfg.AckTimeout = DefaultAckTimeout
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.StreamQueue == 0 {
		cfg.StreamQueue = DefaultStreamQueue
	}
	devs := make([][]wodev.Device, len(cfg.Devices))
	for i := range cfg.Devices {
		devs[i] = append([]wodev.Device(nil), cfg.Devices[i]...)
	}
	n := &Node{
		cfg:      cfg,
		stream:   newStream(cfg.StreamQueue),
		devs:     devs,
		role:     wire.RoleFollower,
		conns:    make(map[net.Conn]struct{}),
		tenants:  append([]server.Tenant(nil), cfg.Tenants...),
		stopCh:   make(chan struct{}),
		commitCh: make(chan struct{}),
	}
	if cfg.TermPath != "" {
		term, err := loadTerm(cfg.TermPath)
		if err != nil {
			return nil, fmt.Errorf("cluster: term file: %w", err)
		}
		n.term = term
	}
	return n, nil
}

// persistTerm records term in cfg.TermPath so a restart cannot regress the
// node's term arbitration; the write is durable and atomic, so a crash or
// power loss mid-write leaves the old term, never garbage. No-op without a
// path. Small, rare writes: safe to call with n.mu held.
func (n *Node) persistTerm(term uint64) error {
	if n.cfg.TermPath == "" {
		return nil
	}
	return durable.WriteFile(n.cfg.TermPath, []byte(strconv.FormatUint(term, 10)+"\n"))
}

// loadTerm reads a persisted term; a missing file is term 0 (fresh node).
func loadTerm(path string) (uint64, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	term, err := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	return term, nil
}

// Start brings the node up in the given role. A leader opens (or, with
// cfg.Create, formats) the store and begins streaming to its peers, at one
// past the highest persisted term — starting a node as leader is an
// operator's explicit claim of authority over anything it has seen before;
// a follower waits for a leader's stream and for Promote.
func (n *Node) Start(leader bool) error {
	n.roleMu.Lock()
	defer n.roleMu.Unlock()
	if leader {
		n.mu.Lock()
		term := n.term + 1
		n.mu.Unlock()
		return n.becomeLeader(term, 0, nil, n.cfg.Create)
	}
	n.mu.Lock()
	n.fol = newFollowerState(n)
	n.role = wire.RoleFollower
	n.mu.Unlock()
	return nil
}

// SetTenants replaces the node's tenant table (config reload). If the node
// is currently the leader the embedded server picks the table up
// immediately; either way future promotions install it.
func (n *Node) SetTenants(list []server.Tenant) {
	cp := append([]server.Tenant(nil), list...)
	n.mu.Lock()
	n.tenants = cp
	srv := n.srv
	n.mu.Unlock()
	if srv != nil {
		srv.SetTenants(cp)
	}
}

// becomeLeader opens the store over tapped devices and installs the
// replication hooks. roleMu must be held.
func (n *Node) becomeLeader(term, epoch uint64, sessions []server.SessionState, create bool) error {
	// Persist before anything else: a leader that crashes right after
	// minting its term must come back remembering it.
	if err := n.persistTerm(term); err != nil {
		return fmt.Errorf("cluster: persist term %d: %w", term, err)
	}
	n.mu.Lock()
	devs := n.devs
	n.mu.Unlock()
	svcs := make([]*core.Service, len(devs))
	fail := func(err error) error {
		for _, svc := range svcs {
			if svc != nil {
				svc.Crash()
			}
		}
		return err
	}
	for i, shardDevs := range devs {
		opt := n.cfg.Opts
		opt.NVRAM = &tapNVRAM{NVRAM: n.cfg.NVRAMs[i], n: n, shard: uint32(i)}
		taps := make([]wodev.Device, len(shardDevs))
		for j, d := range shardDevs {
			taps[j] = &tapDevice{Device: d, n: n, shard: uint32(i), dev: uint32(j)}
		}
		var svc *core.Service
		var err error
		if create {
			if len(taps) != 1 {
				return fail(fmt.Errorf("cluster: shard %d: create requires exactly one device, have %d", i, len(taps)))
			}
			svc, err = core.New(taps[0], opt)
		} else {
			svc, err = core.Open(taps, opt)
		}
		if err != nil {
			return fail(fmt.Errorf("cluster: shard %d: %w", i, err))
		}
		svcs[i] = svc
	}
	store, err := shard.New(svcs)
	if err != nil {
		return fail(err)
	}
	srv := server.NewStore(store)
	srv.Logf = n.cfg.Logf
	srv.Tracer = n.cfg.Tracer
	n.mu.Lock()
	tenants := n.tenants
	n.mu.Unlock()
	if len(tenants) > 0 {
		srv.SetTenants(tenants)
	}
	if epoch != 0 {
		// Keep the cluster epoch minted by the first leader: clients must
		// not see a promotion as a state-losing restart.
		srv.SetEpoch(epoch)
	}
	if len(sessions) > 0 {
		srv.InstallSessions(sessions)
	}
	srv.Gate = n.gate
	srv.PreGate = n.preGate
	srv.ExtOp = n.leaderExtOp
	rec := store.LastRecovery()

	n.mu.Lock()
	n.role = wire.RoleLeader
	n.term = term
	n.epoch = srv.Epoch()
	n.leaderAddr = n.cfg.NodeID
	n.srv = srv
	n.store = store
	n.fol = nil
	if !create {
		n.promoRec = rec
		n.promoRecOK = true
	}
	peers := make([]*peer, 0, len(n.cfg.Peers))
	for _, a := range n.cfg.Peers {
		peers = append(peers, newPeer(a))
	}
	n.peers = peers
	n.mu.Unlock()
	for _, p := range peers {
		n.wg.Add(1)
		go n.runSender(p)
	}
	return nil
}

// Promote turns a follower into the leader: it fences and drains the
// replication apply path, recovers a live store over the replicated devices
// and NVRAM tails (checkpoint-bounded, exactly the single-node restart
// path), installs the replicated session table under the preserved cluster
// epoch, bumps the term, and starts streaming to peers. Returns the new
// term.
func (n *Node) Promote() (uint64, error) { return n.promoteExcept(nil) }

// promoteExcept is Promote with one connection exempt from the fence's
// connection sweep: the follower handler that received OpPromote calls this
// with its own connection so it can still write the response.
func (n *Node) promoteExcept(keep net.Conn) (uint64, error) {
	n.roleMu.Lock()
	defer n.roleMu.Unlock()
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return 0, errors.New("cluster: node stopped")
	}
	if n.role == wire.RoleLeader {
		term := n.term
		n.mu.Unlock()
		return term, nil
	}
	fol := n.fol
	term := n.term + 1
	epoch := n.epoch
	n.mu.Unlock()
	if fol == nil {
		return 0, errors.New("cluster: follower state missing")
	}
	// Fence: no new apply handlers, sever the stale leader's streams, wait
	// out in-flight applies, then the devices are exclusively ours.
	fol.mu.Lock()
	fol.frozen.Store(true)
	fol.mu.Unlock()
	n.closeConnsExcept(keep)
	fol.wg.Wait()
	sessions := fol.exportSessions()
	if err := n.becomeLeader(term, epoch, sessions, false); err != nil {
		fol.frozen.Store(false) // stay follower; the leader's sender will reconnect
		return 0, err
	}
	n.promotions.Add(1)
	n.logf("cluster: %s promoted to leader, term %d", n.cfg.NodeID, term)
	return term, nil
}

// stepDown demotes a leader that has learned of a higher term — or, losing
// the same-term arbitration in leaderExtOp, an equal one. Safe to call from
// any goroutine except a server request handler (it closes the server,
// which waits for handlers to drain — callers inside one must use `go`).
func (n *Node) stepDown(newTerm uint64, newLeader string) {
	n.roleMu.Lock()
	defer n.roleMu.Unlock()
	n.mu.Lock()
	if n.stopped || n.role != wire.RoleLeader || newTerm < n.term ||
		(newTerm == n.term && newLeader == "") {
		n.mu.Unlock()
		return
	}
	srv, store, peers := n.srv, n.store, n.peers
	n.srv, n.store, n.peers = nil, nil, nil
	n.role = wire.RoleFollower
	n.term = newTerm
	n.leaderAddr = newLeader
	n.fol = newFollowerState(n)
	// Counted with the role change, so a status that shows the node as a
	// follower also counts its step-down.
	n.demotions.Add(1)
	if err := n.persistTerm(newTerm); err != nil {
		// Demoting is the safe direction even unpersisted; log and continue.
		n.logf("cluster: persist term %d on step-down: %v", newTerm, err)
	}
	n.mu.Unlock()
	n.wakeCommit() // quorum waiters re-check the role and fail fast
	for _, p := range peers {
		p.stop()
	}
	srv.Close()
	// Crash, not Close: a graceful close would seal the staged tail, and a
	// demoted node writing blocks the new leader did not order is exactly
	// the divergence replication exists to prevent.
	store.Crash()
	n.logf("cluster: %s stepped down, new term %d (leader %s)", n.cfg.NodeID, newTerm, newLeader)
}

// Kill tears the node down abruptly — no checkpoint, no tail seal — leaving
// its devices exactly as a crash would. Chaos tests use it as the kill
// switch; it is also the regular shutdown path, because a replica must
// never write outside the leader's ordering.
func (n *Node) Kill() {
	n.roleMu.Lock()
	defer n.roleMu.Unlock()
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	close(n.stopCh)
	lns := n.lns
	n.lns = nil
	srv, store, peers := n.srv, n.store, n.peers
	n.srv, n.store, n.peers = nil, nil, nil
	conns := make([]net.Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.conns = make(map[net.Conn]struct{})
	n.mu.Unlock()
	n.wakeCommit()
	for _, ln := range lns {
		ln.Close()
	}
	for _, p := range peers {
		p.stop()
	}
	for _, c := range conns {
		c.Close()
	}
	if srv != nil {
		srv.Close()
	}
	if store != nil {
		store.Crash()
	}
	n.wg.Wait()
}

// Close is Kill: see there for why a replica never shuts down gracefully.
func (n *Node) Close() { n.Kill() }

// Serve accepts connections on ln until the node is killed, routing each by
// the node's role at accept time: a leader's connections speak the full
// client protocol; a follower's get the replication/redirect handler.
func (n *Node) Serve(ln net.Listener) error {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		ln.Close()
		return errors.New("cluster: node stopped")
	}
	n.lns = append(n.lns, ln)
	n.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if n.isStopped() {
				return nil
			}
			return err
		}
		n.mu.Lock()
		if n.stopped {
			n.mu.Unlock()
			conn.Close()
			return nil
		}
		n.conns[conn] = struct{}{}
		n.wg.Add(1)
		n.mu.Unlock()
		go n.serveConn(conn)
	}
}

func (n *Node) serveConn(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		n.mu.Lock()
		delete(n.conns, conn)
		n.mu.Unlock()
		conn.Close()
	}()
	n.mu.Lock()
	role, srv := n.role, n.srv
	n.mu.Unlock()
	if role == wire.RoleLeader && srv != nil {
		srv.ServeConn(conn)
		return
	}
	n.serveFollowerConn(conn)
}

// closeConnsExcept severs every tracked connection but keep (they re-route
// by the node's new role when the other side reconnects).
func (n *Node) closeConnsExcept(keep net.Conn) {
	n.mu.Lock()
	conns := make([]net.Conn, 0, len(n.conns))
	for c := range n.conns {
		if c != keep {
			conns = append(conns, c)
		}
	}
	n.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// gate holds every successful mutation's response until a quorum of
// replicas has durably staged everything the response depends on. The
// session dedup record rides the stream as a ReplAck frame; its position is
// by construction after every device frame the mutation emitted, so "ack
// position committed" implies the full batch is on a quorum.
func (n *Node) gate(op byte, session, seq uint64, status byte, resp []byte) (byte, []byte, bool) {
	if status == server.StatusErr || n.cfg.Quorum <= 1 {
		return status, resp, true
	}
	pos := n.emitFrame(wire.OpReplAck,
		(&wire.ReplAck{Session: session, Seq: seq, Status: status, Resp: resp}).Encode(nil))
	if err := n.waitCommitted(pos); err != nil {
		n.quorumTimeouts.Add(1)
		// record=false: the client's replay must re-attempt the quorum wait,
		// not be fed this failure from the dedup window.
		return server.StatusErr, server.PutString(nil, err.Error()), false
	}
	return status, resp, true
}

// preGate refuses mutations before they execute while the live replica
// count cannot reach quorum. Refusing up front — rather than executing and
// failing the quorum wait — keeps a minority-partitioned leader from
// growing its write-once devices past what the majority has, which is what
// lets a healed node catch up by suffix instead of resetting.
func (n *Node) preGate(op byte) (byte, []byte, bool) {
	q := n.cfg.Quorum
	if q <= 1 {
		return 0, nil, false
	}
	live := 1
	n.mu.Lock()
	peers := n.peers
	n.mu.Unlock()
	for _, p := range peers {
		if p.alive.Load() {
			live++
		}
	}
	if live >= q {
		return 0, nil, false
	}
	n.quorumRefusals.Add(1)
	return server.StatusUnavailable, server.PutString(nil,
		fmt.Sprintf("cluster: only %d of %d replicas required for quorum are reachable; refusing writes", live, q)), true
}

// leaderExtOp serves the replication opcodes a leader can answer on a
// client connection: status, promotion (a no-op returning the term), and a
// rival leader's hello, which either reveals our own term is stale (step
// down, asynchronously — this runs inside a request handler) or tells the
// caller theirs is.
func (n *Node) leaderExtOp(op byte, payload []byte) (byte, []byte, bool) {
	switch op {
	case wire.OpReplStatus:
		return server.StatusOK, n.statusPayload(), true
	case wire.OpPromote:
		n.mu.Lock()
		term := n.term
		n.mu.Unlock()
		return server.StatusOK, wire.PutUint64(nil, term), true
	case wire.OpReplHello:
		h, err := wire.DecodeReplHello(payload)
		if err != nil {
			return server.StatusErr, server.PutString(nil, err.Error()), true
		}
		n.mu.Lock()
		term := n.term
		n.mu.Unlock()
		resp := &wire.ReplHelloResp{Accept: false, Term: term}
		switch {
		case h.Term > term:
			resp.Term = h.Term
			resp.Reason = "stepping down to follower; retry"
			go n.stepDown(h.Term, h.LeaderAddr)
		case h.Term == term && h.LeaderAddr != n.cfg.NodeID && h.LeaderAddr > n.cfg.NodeID:
			// Same-term rival (two concurrent promotions, or an operator
			// double-start). Neither side outranks the other by term, so
			// break the tie deterministically: the greater advertised
			// address keeps leadership. Both leaders dial each other, each
			// evaluates the same comparison, and exactly one demotes.
			resp.Reason = fmt.Sprintf("same-term rival %s wins arbitration; stepping down", h.LeaderAddr)
			go n.stepDown(h.Term, h.LeaderAddr)
		default:
			resp.Reason = fmt.Sprintf("node is leader at term %d", term)
		}
		return server.StatusOK, resp.Encode(nil), true
	}
	return 0, nil, false
}

// waitCommitted blocks until the quorum commit point reaches pos, the
// configured timeout passes, or the node stops being leader.
func (n *Node) waitCommitted(pos uint64) error {
	timer := time.NewTimer(n.cfg.AckTimeout)
	defer timer.Stop()
	for {
		n.commitMu.Lock()
		committed := n.committed
		ch := n.commitCh
		n.commitMu.Unlock()
		if committed >= pos {
			return nil
		}
		if !n.isLeader() {
			return errors.New("cluster: stepped down before quorum")
		}
		select {
		case <-ch:
		case <-n.stopCh:
			return errors.New("cluster: node stopping before quorum")
		case <-timer.C:
			return fmt.Errorf("cluster: quorum not reached within %v", n.cfg.AckTimeout)
		}
	}
}

// noteAck recomputes the commit point: with quorum q, the (q-1)-th largest
// per-peer cumulative ack (the leader itself is the q-th copy).
func (n *Node) noteAck() {
	need := n.cfg.Quorum - 1
	if need <= 0 {
		return
	}
	n.mu.Lock()
	peers := n.peers
	n.mu.Unlock()
	if len(peers) < need {
		return
	}
	acks := make([]uint64, len(peers))
	for i, p := range peers {
		acks[i] = p.acked.Load()
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i] > acks[j] })
	n.advanceCommitted(acks[need-1])
}

func (n *Node) advanceCommitted(c uint64) {
	n.commitMu.Lock()
	if c > n.committed {
		n.committed = c
		close(n.commitCh)
		n.commitCh = make(chan struct{})
	}
	n.commitMu.Unlock()
}

// wakeCommit broadcasts to quorum waiters without moving the commit point,
// so they re-check role and stop state.
func (n *Node) wakeCommit() {
	n.commitMu.Lock()
	close(n.commitCh)
	n.commitCh = make(chan struct{})
	n.commitMu.Unlock()
}

func (n *Node) isLeader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == wire.RoleLeader
}

func (n *Node) isStopped() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stopped
}

func (n *Node) device(shard, dev uint32) (wodev.Device, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if int(shard) >= len(n.devs) || int(dev) >= len(n.devs[shard]) {
		return nil, fmt.Errorf("cluster: no device (shard %d, dev %d)", shard, dev)
	}
	return n.devs[shard][dev], nil
}

// PromotionRecovery reports the recovery that backed the node's last
// promotion (or non-create leader start): the proof that failover cost is
// bounded by checkpoint tail length, not volume size.
func (n *Node) PromotionRecovery() (shard.MergedRecovery, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.promoRec, n.promoRecOK
}

// Term returns the node's current term.
func (n *Node) Term() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

// Applied returns the highest replication stream position this node has
// durably applied (0 on a leader — it is the stream's source).
func (n *Node) Applied() uint64 {
	n.mu.Lock()
	fol := n.fol
	n.mu.Unlock()
	if fol == nil {
		return 0
	}
	return fol.applied.Load()
}

// Store returns the live store when the node is leader (nil otherwise);
// tests use it to checkpoint and inspect.
func (n *Node) Store() *shard.Store {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.store
}

func (n *Node) dialPeer(ctx context.Context, addr string) (net.Conn, error) {
	if n.cfg.Dial != nil {
		return n.cfg.Dial(ctx, addr)
	}
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// blockCRC is the divergence probe: the CRC-32C of a device's block, with
// unreadable (invalidated) blocks mapping to 0 on both sides by convention.
func blockCRC(dev wodev.Device, idx int) uint32 {
	buf := make([]byte, dev.BlockSize())
	if err := dev.ReadBlock(idx, buf); err != nil {
		return 0
	}
	return wire.Checksum(buf)
}

// respError renders a status payload's length-prefixed message.
func respError(payload []byte) string {
	if s, err := server.NewDecoder(payload).String(); err == nil {
		return s
	}
	return fmt.Sprintf("%d-byte response", len(payload))
}
