package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pregelix/internal/dfs"
	"pregelix/internal/hyracks"
	"pregelix/internal/wire"
	"pregelix/pregel"
)

// CoordinatorConfig configures the cluster controller of a distributed
// (multi-process) cluster.
type CoordinatorConfig struct {
	// ListenAddr is the control-plane listen address workers dial.
	ListenAddr string
	// Workers is the number of worker processes the cluster waits for.
	Workers int
	// PartitionsPerNode / RAMBytes / PageSize are dictated to every
	// worker so all runtimes agree.
	PartitionsPerNode int
	RAMBytes          int64
	PageSize          int
	// BaseDir roots the coordinator's replicated checkpoint store
	// ("" = a temp dir removed on Close). The store stands in for HDFS:
	// it lives outside every worker process, so a committed checkpoint
	// outlives the worker that wrote it.
	BaseDir string
	// StateDir, when set, makes the coordinator itself durable and
	// restartable: the checkpoint store roots here with a persistent
	// DFS namespace (so committed manifests AND the delta journal
	// survive the coordinator process), and the sealed-version catalog
	// is persisted beside it. A coordinator restarted against the same
	// StateDir re-adopts rejoining workers — their registration
	// handshakes report the sealed query versions they still hold — and
	// in-flight jobs resume from the last committed checkpoint manifest
	// (DistSubmission.Resume). Overrides BaseDir; never removed on
	// Close.
	StateDir string
	// CheckpointReplication is the checkpoint store's block replication
	// factor (default 2, so a checkpoint also survives losing one of the
	// store's datanode directories).
	CheckpointReplication int
	// HeartbeatInterval is the liveness-probe period (default 2s); a
	// worker that misses HeartbeatMisses consecutive probes (default 3)
	// is declared dead even if its TCP connection still looks open.
	HeartbeatInterval time.Duration
	HeartbeatMisses   int
	// ReplaceWait bounds how long failure recovery waits for a standby
	// `pregelix worker` to adopt the dead worker's nodes before
	// redistributing them over the survivors (default 0: redistribute
	// immediately unless a standby is already parked).
	ReplaceWait time.Duration
	// Adaptive configures the runtime-stats feedback loop (adaptive.go):
	// stats-driven replanning, hot-partition splitting, and straggler
	// relief. Disabled by default.
	Adaptive AdaptiveOptions
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

func (c *CoordinatorConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// ccWorker is the controller's handle on one registered worker.
type ccWorker struct {
	ctrl     *wire.ControlConn
	caller   *wire.Caller
	dataAddr string
	owned    []string
	regID    int64
	// elastic marks a parked joiner that asked for a rebalance (scale-
	// out) rather than passive standby duty.
	elastic bool
	// draining marks an active worker whose graceful departure is
	// pending: the next rebalance point migrates its partitions out and
	// releases it.
	draining atomic.Bool
	// inflight counts outstanding non-heartbeat RPCs. While it is
	// non-zero the heartbeat monitor does not count misses: a checkpoint
	// or restore ships whole partition images as single JSON envelopes
	// on this same connection, and a probe parked behind one is latency,
	// not death (a real crash still fails the connection instantly).
	inflight atomic.Int64
	// lostRecorded dedups the worker-lost recovery event between the
	// heartbeat monitor and reapDead.
	lostRecorded atomic.Bool
	// sealed holds the sealed-version reports from the registration
	// handshake until the cluster assembles (a rejoining worker telling
	// a restarted coordinator what it still serves); folded into the
	// query catalog at finalize.
	sealed []sealedReport
}

func (w *ccWorker) dead() bool {
	return w.caller != nil && w.caller.Err() != nil
}

// call issues one RPC, tracking it for the heartbeat monitor.
func (w *ccWorker) call(ctx context.Context, method string, params, result any) error {
	w.inflight.Add(1)
	defer w.inflight.Add(-1)
	return w.caller.Call(ctx, method, params, result)
}

// recordLost reports whether this call is the first to record the
// worker's loss.
func (w *ccWorker) recordLost() bool {
	return w.lostRecorded.CompareAndSwap(false, true)
}

// RecoveryEvent records one failure-handling action, surfaced through
// the serve API so operators can see what the cluster did.
type RecoveryEvent struct {
	Time time.Time `json:"time"`
	// Kind is "worker-lost", "replaced" or "redistributed".
	Kind string `json:"kind"`
	// Worker is the affected worker's control-plane address.
	Worker string `json:"worker,omitempty"`
	// Nodes lists the node IDs involved (lost, adopted or respread).
	Nodes []string `json:"nodes,omitempty"`
	// Detail is a human-readable summary (the detection error, the
	// adopting worker, …).
	Detail string `json:"detail,omitempty"`
}

// Coordinator is the cluster controller of a multi-process cluster: it
// assembles the node registry from worker handshakes, hands every
// process the agreed topology, and drives jobs phase by phase — each
// phase one hyracks job that all workers execute simultaneously, with
// the shuffle crossing the wire transport. The coordinator itself hosts
// no node controllers; it owns the global state, the plan choices, the
// replicated checkpoint store, and the failure manager: it probes
// workers with heartbeats, and when one dies it aborts the in-flight
// phase, repairs the topology (adopting a standby worker or spreading
// the dead worker's nodes over the survivors), restores every partition
// from the last committed checkpoint, and resumes the superstep loop.
type Coordinator struct {
	cfg     CoordinatorConfig
	ln      net.Listener
	ckpt    *dfs.FileSystem
	ckptDir string
	ownsDir bool

	mu        sync.Mutex
	pending   []*ccWorker
	workers   []*ccWorker
	spares    []*ccWorker
	nodes     []hyracks.NodeID
	peers     map[string]string // node ID → data-plane address
	events    []RecoveryEvent
	rebal     []RebalanceEvent
	assembled bool
	readyErr  error
	closed    bool
	// partLoad holds each partition's latest vertex+message counters
	// (merged from superstep replies); the rebalancer and the adaptive
	// split planner weigh migration picks with them.
	partLoad map[int]int64
	// splits is the committed hot-partition split list of the running
	// job (split.go); every superstep verb re-broadcasts it so worker
	// tables never drift, and checkpoint manifests journal it.
	splits []splitRec
	// adaptEvents is the adaptive runtime's decision log (adaptive.go).
	adaptEvents []AdaptiveEvent

	ready   chan struct{}
	stop    chan struct{}
	spareCh chan struct{}
	// scaleCh wakes the idle rebalancer when an elastic worker parks or
	// a drain is requested.
	scaleCh chan struct{}
	jobMu   sync.Mutex // one distributed job runs at a time
	// shipped caches the content hash of files already replicated to the
	// workers, so resubmitting jobs over the same uploaded input does not
	// re-ship the graph every time. Cleared whenever the topology is
	// repaired (a replacement worker has none of the files). Guarded by
	// jobMu (only RunJob and the repairs it drives use it).
	shipped map[string]uint64

	// Query tier (coordinator_query.go): the latest sealed result
	// version per base job name with its partition→worker owner map, the
	// hot-vertex LRU, and the in-flight point reads being coalesced.
	qmu      sync.Mutex
	queries  map[string]*clusterResult
	qcache   *vertexCache
	qflights map[string]*qflight
}

// NewCoordinator starts the control-plane listener and begins accepting
// worker registrations. WaitReady blocks until the expected number of
// workers has joined.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("core: CoordinatorConfig.Workers must be positive")
	}
	if cfg.PartitionsPerNode <= 0 {
		cfg.PartitionsPerNode = 1
	}
	if cfg.CheckpointReplication <= 0 {
		cfg.CheckpointReplication = 2
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 2 * time.Second
	}
	if cfg.HeartbeatMisses <= 0 {
		cfg.HeartbeatMisses = 3
	}
	dir := cfg.BaseDir
	ownsDir := false
	metaDir := ""
	if cfg.StateDir != "" {
		// Durable mode: everything roots in the external state dir and
		// the DFS namespace persists, so a restarted coordinator finds
		// its committed checkpoints and journaled deltas intact.
		dir = cfg.StateDir
		metaDir = filepath.Join(dir, "ckpt")
	} else if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "pregelix-cc-")
		if err != nil {
			return nil, err
		}
		ownsDir = true
	}
	var datanodes []*dfs.Datanode
	for i := 1; i <= 3; i++ {
		datanodes = append(datanodes, &dfs.Datanode{
			Name: fmt.Sprintf("cc%d", i),
			Dir:  filepath.Join(dir, "ckpt", fmt.Sprintf("cc%d", i)),
		})
	}
	ckpt, err := dfs.New(datanodes, dfs.Options{Replication: cfg.CheckpointReplication, MetaDir: metaDir})
	if err != nil {
		if ownsDir {
			os.RemoveAll(dir)
		}
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		if ownsDir {
			os.RemoveAll(dir)
		}
		return nil, err
	}
	c := &Coordinator{
		cfg:      cfg,
		ln:       ln,
		ckpt:     ckpt,
		ckptDir:  dir,
		ownsDir:  ownsDir,
		peers:    make(map[string]string),
		partLoad: make(map[int]int64),
		ready:    make(chan struct{}),
		stop:     make(chan struct{}),
		spareCh:  make(chan struct{}, 1),
		scaleCh:  make(chan struct{}, 1),
		shipped:  make(map[string]uint64),
		queries:  make(map[string]*clusterResult),
		qcache:   newVertexCache(0),
		qflights: make(map[string]*qflight),
	}
	go c.acceptLoop()
	go c.idleRebalanceLoop()
	return c, nil
}

// Addr returns the bound control-plane address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// WaitReady blocks until every expected worker has registered and the
// cluster topology has been broadcast.
func (c *Coordinator) WaitReady(ctx context.Context) error {
	// Check readiness first: with an already-expired ctx both select
	// cases would be runnable and the choice random.
	select {
	case <-c.ready:
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.readyErr
	default:
	}
	select {
	case <-c.ready:
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.readyErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Ready reports (without blocking) whether the cluster has assembled
// successfully.
func (c *Coordinator) Ready() bool {
	select {
	case <-c.ready:
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.readyErr == nil
	default:
		return false
	}
}

// Err reports why the cluster cannot run jobs at all: an assembly
// failure, or every worker lost with no standby to adopt their nodes.
// A single lost worker is NOT an error — the next job submission
// repairs the topology (standby adoption or redistribution) before
// loading; see RecoveryEvents for what happened.
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readyErr != nil {
		return c.readyErr
	}
	if !c.assembled {
		return nil
	}
	live := 0
	for _, w := range c.workers {
		if !w.dead() {
			live++
		}
	}
	if live == 0 && c.liveSparesLocked() == 0 {
		return fmt.Errorf("core: no live workers remain (start a standby `pregelix worker` to recover)")
	}
	return nil
}

// liveSparesLocked counts parked standbys whose connection is still up
// (a spare can die while parked; its caller's read loop notices).
func (c *Coordinator) liveSparesLocked() int {
	n := 0
	for _, sp := range c.spares {
		if !sp.dead() {
			n++
		}
	}
	return n
}

// Nodes returns a copy of the agreed cluster node list (empty until the
// cluster has assembled).
func (c *Coordinator) Nodes() []hyracks.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]hyracks.NodeID(nil), c.nodes...)
}

// Workers returns the live registered worker count (after WaitReady).
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, w := range c.workers {
		if !w.dead() {
			n++
		}
	}
	return n
}

// Standbys returns the number of live parked replacement workers.
func (c *Coordinator) Standbys() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveSparesLocked()
}

// RecoveryEvents returns the failure-handling log (oldest first).
func (c *Coordinator) RecoveryEvents() []RecoveryEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]RecoveryEvent(nil), c.events...)
}

func (c *Coordinator) recordEvent(ev RecoveryEvent) {
	ev.Time = time.Now()
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
	c.cfg.logf("coordinator: %s %s %v %s", ev.Kind, ev.Worker, ev.Nodes, ev.Detail)
}

// Close shuts the control plane down; worker processes observe their
// control connection dropping and exit.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	conns := append([]*ccWorker(nil), c.pending...)
	conns = append(conns, c.workers...)
	conns = append(conns, c.spares...)
	c.mu.Unlock()
	close(c.stop)
	c.ln.Close()
	for _, w := range conns {
		w.ctrl.Close()
	}
	if c.ownsDir {
		os.RemoveAll(c.ckptDir)
	}
}

func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		go c.register(conn)
	}
}

// register consumes one worker's handshake request. Before assembly the
// worker joins the forming cluster; once the expected count is reached
// the topology is built and broadcast. A worker registering against an
// already-assembled cluster parks as a standby, adopted by the next
// topology repair — or, when it registered as elastic, picked up by the
// next rebalance point, which migrates partitions onto it.
func (c *Coordinator) register(conn net.Conn) {
	ctrl, err := wire.AcceptControl(conn)
	if err != nil {
		conn.Close()
		return
	}
	env, err := ctrl.Read()
	if err != nil || env.Method != "register" {
		ctrl.Close()
		return
	}
	var reg registerMsg
	if err := json.Unmarshal(env.Data, &reg); err != nil || reg.Nodes <= 0 || reg.DataAddr == "" {
		ctrl.Send(wire.Envelope{ID: env.ID, Error: "bad registration"})
		ctrl.Close()
		return
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		ctrl.Send(wire.Envelope{ID: env.ID, Error: "cluster is shutting down"})
		ctrl.Close()
		return
	}
	w := &ccWorker{ctrl: ctrl, dataAddr: reg.DataAddr, regID: env.ID, elastic: reg.Elastic, sealed: reg.Sealed}
	if c.assembled {
		// Standby: hold the handshake open; adoption answers it with the
		// node IDs the worker is taking over. The caller starts now even
		// though no RPC flows until adoption: a parked worker sends
		// nothing except a possible drain notification, so the read
		// loop's outcomes before then are detecting the connection dying
		// — which keeps Standbys/Err honest about how much recovery
		// capacity is really parked — and releasing a drained spare.
		w.caller = wire.NewCaller(ctrl)
		w.caller.OnNotify(func(env wire.Envelope) { c.handleNotify(w, env) })
		w.caller.Start()
		c.spares = append(c.spares, w)
		c.mu.Unlock()
		if w.elastic {
			c.cfg.logf("coordinator: elastic worker %s joined (rebalance pending)", ctrl.RemoteAddr())
		} else {
			c.cfg.logf("coordinator: standby worker %s parked (awaiting adoption)", ctrl.RemoteAddr())
		}
		// A rejoiner holding sealed versions keeps them parked: it is
		// blocked in its handshake read and cannot serve query RPCs
		// until startSpare completes the handshake, so its reports are
		// folded in at promotion time, not here.
		select {
		case c.spareCh <- struct{}{}:
		default:
		}
		if w.elastic {
			c.signalRebalance()
		}
		return
	}
	if len(c.pending)+len(c.workers) >= c.cfg.Workers {
		c.mu.Unlock()
		ctrl.Send(wire.Envelope{ID: env.ID, Error: "cluster already assembled"})
		ctrl.Close()
		return
	}
	for i := 0; i < reg.Nodes; i++ {
		w.owned = append(w.owned, "") // node IDs assigned at finalize
	}
	c.pending = append(c.pending, w)
	complete := len(c.pending) == c.cfg.Workers
	c.mu.Unlock()
	c.cfg.logf("coordinator: worker %s registered (%d nodes)", ctrl.RemoteAddr(), reg.Nodes)
	if complete {
		c.finalize()
	}
}

// finalize assigns node IDs (nc1..ncN in registration order), broadcasts
// the start message, opens the RPC callers and starts the heartbeat
// monitors.
func (c *Coordinator) finalize() {
	c.mu.Lock()
	workers := c.pending
	c.pending = nil
	idx := 1
	for _, w := range workers {
		for i := range w.owned {
			id := fmt.Sprintf("nc%d", idx)
			idx++
			w.owned[i] = id
			c.peers[id] = w.dataAddr
			c.nodes = append(c.nodes, hyracks.NodeID(id))
		}
	}
	total := idx - 1
	c.workers = workers
	c.assembled = true
	peers := c.peersLocked()
	c.mu.Unlock()

	for _, w := range workers {
		data, err := json.Marshal(startMsg{
			TotalNodes:        total,
			Owned:             w.owned,
			Peers:             peers,
			PartitionsPerNode: c.cfg.PartitionsPerNode,
			RAMBytes:          c.cfg.RAMBytes,
			PageSize:          c.cfg.PageSize,
		})
		if err == nil {
			err = w.ctrl.Send(wire.Envelope{ID: w.regID, Data: data})
		}
		if err != nil {
			c.mu.Lock()
			c.readyErr = fmt.Errorf("core: starting worker %s: %w", w.ctrl.RemoteAddr(), err)
			c.mu.Unlock()
		}
		w.caller = wire.NewCaller(w.ctrl)
		w.caller.OnNotify(func(env wire.Envelope) { c.handleNotify(w, env) })
		w.caller.Start()
		go c.monitor(w)
	}
	// Rejoining workers whose sessions outlived a previous coordinator
	// reported the sealed query versions they still hold; rebuild the
	// catalog from the reports so reads resume without re-running jobs.
	for _, w := range workers {
		c.adoptSealed(w, w.sealed)
		w.sealed = nil
	}
	c.cfg.logf("coordinator: cluster assembled — %d workers, %d nodes", len(workers), total)
	close(c.ready)
}

func (c *Coordinator) peersLocked() map[string]string {
	out := make(map[string]string, len(c.peers))
	for k, v := range c.peers {
		out[k] = v
	}
	return out
}

// monitor probes one worker's liveness over the control connection. A
// worker that misses HeartbeatMisses consecutive probes — hung, wedged
// behind a dead NAT entry, or otherwise unresponsive while its TCP
// connection still looks open — has its connection closed, which fails
// its RPC caller exactly as a crash would: in-flight phase calls
// unblock immediately and the next superstep error triggers recovery.
// A crashed worker (connection reset) is detected without waiting for
// a probe, since the caller's read loop fails at once.
func (c *Coordinator) monitor(w *ccWorker) {
	t := time.NewTicker(c.cfg.HeartbeatInterval)
	defer t.Stop()
	misses := 0
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		if w.caller.Err() != nil {
			return // connection already dead; recovery observes caller.Err
		}
		if w.inflight.Load() > 0 {
			// A phase RPC is outstanding on this connection. Checkpoint
			// and restore envelopes carry whole partition images, so a
			// heartbeat queued behind one can legitimately exceed the
			// miss budget; don't convert a slow bulk transfer into a
			// declared death (a genuine crash mid-transfer still breaks
			// the connection, which fails the phase call immediately).
			misses = 0
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HeartbeatInterval)
		err := w.caller.Call(ctx, rpcHeartbeat, struct{}{}, nil)
		cancel()
		if err == nil {
			misses = 0
			continue
		}
		if w.caller.Err() != nil {
			return
		}
		misses++
		if misses >= c.cfg.HeartbeatMisses {
			if w.recordLost() {
				c.mu.Lock()
				nodes := append([]string(nil), w.owned...)
				c.mu.Unlock()
				c.recordEvent(RecoveryEvent{
					Kind:   "worker-lost",
					Worker: w.ctrl.RemoteAddr(),
					Nodes:  nodes,
					Detail: fmt.Sprintf("missed %d heartbeats", misses),
				})
			}
			w.ctrl.Close() // fails the caller; blocked phase RPCs unwind
			return
		}
	}
}

// reapDead removes workers with failed control connections from the
// active set and returns them. Their nodes become orphans that the next
// repairTopology reassigns.
func (c *Coordinator) reapDead() []*ccWorker {
	c.mu.Lock()
	var dead, live []*ccWorker
	for _, w := range c.workers {
		if w.dead() {
			dead = append(dead, w)
		} else {
			live = append(live, w)
		}
	}
	if len(dead) > 0 {
		c.workers = live
	}
	deadNodes := make([][]string, len(dead))
	for i, w := range dead {
		deadNodes[i] = append([]string(nil), w.owned...)
	}
	c.mu.Unlock()
	for i, w := range dead {
		if w.recordLost() { // the heartbeat monitor may have recorded it
			c.recordEvent(RecoveryEvent{
				Kind:   "worker-lost",
				Worker: w.ctrl.RemoteAddr(),
				Nodes:  deadNodes[i],
				Detail: w.caller.Err().Error(),
			})
		}
		w.ctrl.Close()
	}
	return dead
}

// takeSpare pops the oldest live parked standby worker, if any,
// discarding spares whose connection died while parked.
func (c *Coordinator) takeSpare() *ccWorker {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.spares) > 0 {
		sp := c.spares[0]
		c.spares = c.spares[1:]
		if sp.dead() {
			sp.ctrl.Close()
			continue
		}
		return sp
	}
	return nil
}

// startSpare completes a parked worker's held-open handshake, handing
// it the node IDs it will host, and (when a job is in flight) opens the
// job session on it so a following restore or migration can populate
// its partitions. It commits nothing in the coordinator's own state:
// the caller flips ownership and routing only once the spare is known
// good, so a spare dying here leaves the cluster untouched.
func (c *Coordinator) startSpare(ctx context.Context, sp *ccWorker, owned []string, begin *jobBeginMsg) error {
	c.mu.Lock()
	total := len(c.nodes)
	peers := c.peersLocked()
	c.mu.Unlock()
	for _, id := range owned {
		peers[id] = sp.dataAddr // the spare's own view routes its nodes to itself
	}
	data, err := json.Marshal(startMsg{
		TotalNodes:        total,
		Owned:             owned,
		Peers:             peers,
		PartitionsPerNode: c.cfg.PartitionsPerNode,
		RAMBytes:          c.cfg.RAMBytes,
		PageSize:          c.cfg.PageSize,
	})
	if err != nil {
		return err
	}
	if err := sp.ctrl.Send(wire.Envelope{ID: sp.regID, Data: data}); err != nil {
		return err
	}
	// The spare's caller has been running since it parked (detecting
	// death-while-parked); from here it carries real RPCs.
	if err := sp.call(ctx, rpcPing, struct{}{}, nil); err != nil {
		return err
	}
	// The worker is serving now; if its session rejoined with sealed
	// query versions (it reconnected after a coordinator restart or a
	// transient partition), fold them back into the catalog so reads
	// route to it again.
	if len(sp.sealed) > 0 {
		c.adoptSealed(sp, sp.sealed)
		sp.sealed = nil
	}
	if begin != nil {
		if err := sp.call(ctx, rpcJobBegin, begin, nil); err != nil {
			return err
		}
	}
	return nil
}

// adopt completes a standby's held-open handshake, handing it the
// orphaned node IDs, and (when a job is in flight) opens the job
// session on it so the following restore can populate its partitions.
func (c *Coordinator) adopt(ctx context.Context, sp *ccWorker, orphans []string, begin *jobBeginMsg) error {
	if err := c.startSpare(ctx, sp, orphans, begin); err != nil {
		sp.ctrl.Close()
		return err
	}
	c.mu.Lock()
	sp.owned = append([]string(nil), orphans...)
	for _, id := range orphans {
		c.peers[id] = sp.dataAddr
	}
	c.workers = append(c.workers, sp)
	c.mu.Unlock()
	go c.monitor(sp)
	return nil
}

// repairTopology reassigns orphaned node IDs — nodes whose hosting
// worker died — to a standby worker if one joins within ReplaceWait, or
// otherwise spreads them round-robin over the survivors, then
// broadcasts the updated routing table to every worker. It is a no-op
// on a healthy topology. Callers hold jobMu, so no phase is in flight
// while the local-node sets change. begin, when non-nil, is the open
// job session an adopted standby must join.
func (c *Coordinator) repairTopology(ctx context.Context, begin *jobBeginMsg) error {
	c.mu.Lock()
	ownedNow := make(map[string]bool)
	for _, w := range c.workers {
		for _, id := range w.owned {
			ownedNow[id] = true
		}
	}
	var orphans []string
	for _, id := range c.nodes {
		if !ownedNow[string(id)] {
			orphans = append(orphans, string(id))
		}
	}
	survivors := len(c.workers)
	c.mu.Unlock()
	if len(orphans) == 0 {
		return nil
	}

	// Files replicated to the lost process are gone with it; the next
	// job must re-ship its input to the repaired cluster.
	c.shipped = make(map[string]uint64)

	var adopted *ccWorker
	deadline := time.Now().Add(c.cfg.ReplaceWait)
	for {
		sp := c.takeSpare()
		if sp != nil {
			if err := c.adopt(ctx, sp, orphans, begin); err != nil {
				c.cfg.logf("coordinator: standby %s failed during adoption: %v", sp.ctrl.RemoteAddr(), err)
				continue // a fresher standby may still be parked
			}
			adopted = sp
			break
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			break
		}
		if wait > 100*time.Millisecond {
			wait = 100 * time.Millisecond
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-c.spareCh:
		case <-time.After(wait):
		}
	}

	if adopted != nil {
		c.recordEvent(RecoveryEvent{
			Kind:   "replaced",
			Worker: adopted.ctrl.RemoteAddr(),
			Nodes:  orphans,
			Detail: "standby worker adopted the lost nodes",
		})
	} else {
		if survivors == 0 {
			return fmt.Errorf("core: no live workers remain and no standby joined within %s", c.cfg.ReplaceWait)
		}
		c.mu.Lock()
		for i, id := range orphans {
			w := c.workers[i%len(c.workers)]
			w.owned = append(w.owned, id)
			c.peers[id] = w.dataAddr
		}
		c.mu.Unlock()
		c.recordEvent(RecoveryEvent{
			Kind:   "redistributed",
			Nodes:  orphans,
			Detail: fmt.Sprintf("respread over %d surviving workers", survivors),
		})
	}

	// Broadcast the repaired routing table. Every worker — including an
	// adopted standby, idempotently — installs its owned set and peers.
	return c.broadcastTopology(ctx, nil)
}

// broadcastTopology ships every active worker its owned-node set and
// the cluster routing table (cluster.reconfigure), plus the names of
// jobs whose parked wire streams it must purge — after a migration the
// old topology's stragglers can never be claimed.
func (c *Coordinator) broadcastTopology(ctx context.Context, purgeJobs []string) error {
	c.mu.Lock()
	workers := append([]*ccWorker(nil), c.workers...)
	peers := c.peersLocked()
	c.mu.Unlock()
	for _, w := range workers {
		msg := reconfigureMsg{Owned: append([]string(nil), w.owned...), Peers: peers, PurgeJobs: purgeJobs}
		if err := w.call(ctx, rpcReconfigure, msg, nil); err != nil {
			return fmt.Errorf("core: reconfiguring worker %s: %w", w.ctrl.RemoteAddr(), err)
		}
	}
	return nil
}

// phaseCall issues one RPC to every worker in parallel and collects the
// typed replies. The first failure cancels the job's in-flight phase on
// all workers (so peers blocked in the same phase unwind) and is
// returned once every call — and the cancellation wave itself — has
// come back, so no stale abort can race a later retry of the phase.
func phaseCall[T any](ctx context.Context, c *Coordinator, jobName, method string, params any) ([]T, error) {
	results, _, err := phaseCallW[T](ctx, c, jobName, method, params)
	return results, err
}

// phaseCallW is phaseCall returning the worker snapshot the replies are
// aligned with — the straggler detector needs to attribute reply
// timings to worker addresses.
func phaseCallW[T any](ctx context.Context, c *Coordinator, jobName, method string, params any) ([]T, []*ccWorker, error) {
	c.mu.Lock()
	workers := append([]*ccWorker(nil), c.workers...)
	c.mu.Unlock()
	results := make([]T, len(workers))
	errs := make([]error, len(workers))
	var once sync.Once
	var wg, cancelWG sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *ccWorker) {
			defer wg.Done()
			errs[i] = w.call(ctx, method, params, &results[i])
			if errs[i] != nil && jobName != "" {
				once.Do(func() {
					cancelWG.Add(1)
					go func() {
						defer cancelWG.Done()
						c.cancelJob(jobName)
					}()
				})
			}
		}(i, w)
	}
	wg.Wait()
	cancelWG.Wait()
	for _, err := range errs {
		if err != nil {
			return results, workers, err
		}
	}
	return results, workers, nil
}

// cancelJob aborts a job's in-flight phase on every worker (best
// effort); sessions and their partition state stay open.
func (c *Coordinator) cancelJob(name string) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	phaseCall[struct{}](ctx, c, "", rpcJobCancel, jobNameMsg{Name: name})
}

// PutFile replicates a DFS file onto every worker (inputs are uploaded
// to the controller and shipped to the cluster before the load phase).
func (c *Coordinator) PutFile(ctx context.Context, path string, data []byte) error {
	_, err := phaseCall[struct{}](ctx, c, "", rpcPutFile, putFileMsg{Path: path, Data: data})
	return err
}

// DistSubmission is one job for the distributed cluster.
type DistSubmission struct {
	// Name is the unique (tenant-qualified) execution name.
	Name string
	// Spec is the opaque job descriptor shipped verbatim to every
	// worker's JobBuilder.
	Spec json.RawMessage
	// Job is the controller's own build of the same descriptor, used for
	// plan decisions (join advisor, superstep cap, CheckpointEvery) and
	// validation.
	Job *pregel.Job
	// InputPath/InputData: when data is non-nil it is replicated to the
	// workers' file systems at InputPath before loading.
	InputPath string
	InputData []byte
	// WantOutput requests the dumped result rows back.
	WantOutput bool
	// Progress, when non-nil, is called after every committed superstep
	// (live status for the serve API; fault-injection tests use it to
	// time their kills).
	Progress func(superstep int64)
	// Resume asks the run to continue from the job's last committed
	// checkpoint manifest instead of loading from scratch — the restart
	// path for a job that was mid-flight when a durable coordinator
	// died. With no committed manifest (the crash predated the first
	// checkpoint) the run silently rolls back to a fresh load, which is
	// the correct recovery for that case too.
	Resume bool
}

// errNotRecoverable marks a job failure with no dead worker behind it:
// an application error (or a user cancellation) that must be forwarded,
// not retried — the failure-manager contract of Section 5.7.
var errNotRecoverable = errors.New("core: failure is not a worker loss")

// RunJob executes one Pregel job across the registered workers and
// blocks until it finishes: load, the superstep loop (the controller
// owns the global state, chooses each superstep's join plan centrally,
// merges the workers' partition counters, decides the halt, and drives
// a distributed checkpoint every Job.CheckpointEvery supersteps), and
// optionally the dump, whose rows come back from the worker that hosted
// the write task. Sticky vertex-partition placement holds across
// processes because every worker compiles the same deterministic
// schedule for every phase.
//
// When a worker dies mid-run and the job has a committed checkpoint,
// RunJob recovers instead of failing: the in-flight superstep is
// aborted everywhere, the topology is repaired, every partition is
// restored from the checkpoint, and the loop resumes from the
// checkpointed superstep — producing results identical to a
// failure-free run. A failure before the first checkpoint commits (or
// with CheckpointEvery unset) fails the job, but the cluster itself
// still heals before the next submission.
func (c *Coordinator) RunJob(ctx context.Context, sub DistSubmission) (*JobStats, []byte, error) {
	if err := c.WaitReady(ctx); err != nil {
		return nil, nil, err
	}
	if err := sub.Job.Validate(); err != nil {
		return nil, nil, err
	}
	c.jobMu.Lock()
	defer c.jobMu.Unlock()

	// Heal any failure that happened between jobs, so a degraded cluster
	// repairs itself on the next submission instead of failing forever —
	// and fold in any pending elasticity work (an elastic worker that
	// joined, a drain requested) before loading, while moving a node
	// costs nothing but a routing update.
	c.reapDead()
	if err := c.repairTopology(ctx, nil); err != nil {
		return nil, nil, err
	}
	if err := c.rebalance(ctx, nil); err != nil {
		return nil, nil, err
	}

	// A fresh run starts from the base partition table with fresh load
	// counters; a resumed run re-adopts its splits from the manifest in
	// restoreCluster below.
	c.mu.Lock()
	c.splits = nil
	c.partLoad = make(map[int]int64)
	c.mu.Unlock()

	// The adaptive runtime's feedback loop, when enabled: replanning,
	// hot-partition splitting, and straggler relief (adaptive.go).
	var adv RuntimeAdvisor
	if c.cfg.Adaptive.Enabled {
		adv = newAdaptiveAdvisor(c.cfg.Adaptive)
	}

	start := time.Now()
	stats := &JobStats{Job: sub.Name}
	if sub.InputData != nil {
		// Workers keep replicated files in their file systems for the
		// process lifetime, so an input already shipped (same path, same
		// content) need not cross the control plane again.
		h := fnv.New64a()
		h.Write(sub.InputData)
		sum := h.Sum64()
		if c.shipped[sub.InputPath] != sum {
			if err := c.PutFile(ctx, sub.InputPath, sub.InputData); err != nil {
				return stats, nil, err
			}
			c.shipped[sub.InputPath] = sum
		}
	}

	runDir := "jobs/" + strings.ReplaceAll(sub.Name, "/", "_")
	begin := jobBeginMsg{
		Name:     sub.Name,
		Spec:     sub.Spec,
		ScanNode: string(c.nodes[0]),
		RunDir:   runDir,
	}
	if _, err := phaseCall[struct{}](ctx, c, sub.Name, rpcJobBegin, begin); err != nil {
		return stats, nil, err
	}
	// A run that completes seals its partition indexes on the workers as
	// a new query-tier result version; a failed or canceled run tears
	// down plainly, leaving any previously sealed version serving.
	completed := false
	defer func() {
		endCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		c.endJobSessions(endCtx, sub.Name, completed)
		// Keep the checkpoints of a run interrupted by cancellation: on
		// a durable coordinator that is the graceful-shutdown path, and
		// the checkpoints are exactly what the restarted process resumes
		// from. (If the same name later completes, they are reclaimed.)
		if completed || ctx.Err() == nil {
			c.removeCheckpoints(sub.Name)
		}
	}()

	gs := globalState{}
	attempt := int64(0)

	// Resume path: a durable coordinator restarting a job that was
	// mid-flight when the previous process died skips the load and
	// rewinds every worker to the last committed checkpoint manifest.
	// No manifest (the crash predated the first commit) rolls back to
	// an ordinary fresh load.
	resumed := false
	if sub.Resume && sub.Job.CheckpointEvery > 0 {
		if m := latestManifest(c.ckpt, "/pregelix/"+sub.Name+"/ckpt/"); m != nil {
			if err := c.restoreCluster(ctx, sub.Name, m, attempt); err != nil {
				return stats, nil, fmt.Errorf("core: resuming %s from checkpoint: %w", sub.Name, err)
			}
			gs = m.GS
			gs.Halt = false
			resumed = true
			stats.Recoveries++
			c.cfg.logf("coordinator: %s resumed from committed checkpoint at superstep %d", sub.Name, m.Superstep)
		} else {
			c.cfg.logf("coordinator: %s has no committed checkpoint — rolling back to a fresh load", sub.Name)
		}
	}

	if !resumed {
		// Load phase: every worker bulk-loads its partitions; the merged
		// counters seed the global state. A worker lost here fails the job
		// (nothing has been checkpointed), but the cluster heals before the
		// next submission.
		loadStart := time.Now()
		loads, err := phaseCall[loadReply](ctx, c, sub.Name, rpcJobLoad, jobNameMsg{Name: sub.Name})
		if err != nil {
			return stats, nil, fmt.Errorf("core: distributed load %s: %w", sub.Name, err)
		}
		for _, rep := range loads {
			for _, p := range rep.Parts {
				gs.NumVertices += p.Vertices
				gs.NumEdges += p.Edges
			}
		}
		gs.LiveVertices = gs.NumVertices
		stats.LoadDuration = time.Since(loadStart)
		c.cfg.logf("coordinator: %s loaded — %d vertices, %d edges", sub.Name, gs.NumVertices, gs.NumEdges)
	}

	// recoverOrFail folds a phase failure into either a completed
	// recovery (gs rewound to the checkpoint, nil returned) or the
	// error the caller must forward.
	recoverOrFail := func(phase string, err error) error {
		m, rerr := c.recoverJob(ctx, &sub, &begin, attempt+1)
		if rerr != nil {
			if errors.Is(rerr, errNotRecoverable) {
				return fmt.Errorf("core: %s of %s: %w", phase, sub.Name, err)
			}
			return fmt.Errorf("core: %s of %s: %w (recovery failed: %v)", phase, sub.Name, err, rerr)
		}
		attempt++
		stats.Recoveries++
		gs = m.GS
		gs.Halt = false
		rollbackStats(stats, gs.Superstep)
		if adv != nil {
			// Pre-failure timing streaks and pending decisions are stale
			// after the rollback (satellite of the same coin: restoreCluster
			// also resets the per-partition load counters).
			adv.Reset()
		}
		c.cfg.logf("coordinator: %s recovered — resuming from superstep %d (attempt %d)",
			sub.Name, gs.Superstep, attempt)
		return nil
	}

	// Superstep loop: the controller is the statistics collector, the
	// plan advisor, the checkpoint committer and the failure manager;
	// workers execute. The dump joins the loop so a failure during it
	// also rewinds to the last checkpoint.
	runStart := time.Now()
	var output []byte
	var lastPlan string
	for done := false; !done; {
		if err := ctx.Err(); err != nil {
			c.cancelJob(sub.Name)
			return stats, nil, err
		}
		// Superstep boundaries are the rebalance points: no phase is in
		// flight, so partitions can migrate to an elastic joiner (or off
		// a draining worker) as whole images, with no rollback and no
		// lost superstep. A rebalance that fails because a worker died
		// mid-migration falls through to checkpoint recovery.
		if c.pendingRebalance() {
			sess := &rebalSession{name: sub.Name, begin: &begin, gs: gs, attempt: &attempt, stats: stats}
			if err := c.rebalance(ctx, sess); err != nil {
				if rerr := recoverOrFail("rebalance", err); rerr != nil {
					return stats, nil, rerr
				}
				continue
			}
		}
		ss := gs.Superstep + 1
		atCap := sub.Job.MaxSupersteps > 0 && ss > int64(sub.Job.MaxSupersteps)
		if !atCap && !gs.Halt {
			join := chooseJoinFor(sub.Job, &gs, ss)
			if adv != nil {
				join = adv.Plan(sub.Job, &gs, ss)
			}
			stats.recordPlan(ss, join)
			if adv != nil && lastPlan != "" && join.String() != lastPlan {
				c.recordAdaptive(AdaptiveEvent{
					Kind: "plan-switch", Job: sub.Name, Superstep: ss,
					Plan: join.String(), PrevPlan: lastPlan,
					Detail: fmt.Sprintf("live=%d msgs=%d |V|=%d", gs.LiveVertices, gs.Messages, gs.NumVertices),
				})
			}
			lastPlan = join.String()
			stepStart := time.Now()
			reps, stepWorkers, err := phaseCallW[superstepReply](ctx, c, sub.Name, rpcSuperstep,
				superstepMsg{Name: sub.Name, SS: ss, GS: gs, Join: join, Attempt: attempt, Splits: c.currentSplits()})
			if err != nil {
				if rerr := recoverOrFail(fmt.Sprintf("superstep %d", ss), err); rerr != nil {
					return stats, nil, rerr
				}
				continue
			}

			var msgs, live, nv, ne, netTuples, netBytes, netWireBytes, netWireRawBytes, ioBytes int64
			var haltAll, sawOwner bool
			gs.Aggregate = nil
			c.mu.Lock()
			for _, rep := range reps {
				for _, p := range rep.Parts {
					// Feed the rebalancer's per-partition weights.
					c.partLoad[p.Part] = p.Vertices + p.Msgs
				}
			}
			c.mu.Unlock()
			for _, rep := range reps {
				for _, p := range rep.Parts {
					msgs += p.Msgs
					live += p.Live
					nv += p.Vertices
					ne += p.Edges
				}
				netTuples += rep.NetTuples
				netBytes += rep.NetBytes
				netWireBytes += rep.NetWireBytes
				netWireRawBytes += rep.NetWireRawBytes
				ioBytes += rep.IOBytes
				if rep.GSOwner {
					if sawOwner {
						return stats, nil, fmt.Errorf("core: superstep %d of %s: two workers claim the global-state task", ss, sub.Name)
					}
					sawOwner = true
					haltAll = rep.HaltAll
					if rep.HasAgg {
						gs.Aggregate = rep.Aggregate
					}
				}
			}
			if !sawOwner {
				return stats, nil, fmt.Errorf("core: superstep %d of %s: no worker reported the global state", ss, sub.Name)
			}
			gs.Superstep = ss
			gs.Messages = msgs
			gs.LiveVertices = live
			gs.NumVertices = nv
			gs.NumEdges = ne
			gs.Halt = haltAll && msgs == 0

			stats.Supersteps = ss
			stats.TotalMessages += msgs
			stats.SuperstepStats = append(stats.SuperstepStats, SuperstepStat{
				Superstep:           ss,
				Duration:            time.Since(stepStart),
				Messages:            msgs,
				LiveVertices:        live,
				NumVertices:         nv,
				NumEdges:            ne,
				IOBytes:             ioBytes,
				NetworkTuples:       netTuples,
				NetworkBytes:        netBytes,
				NetworkWireBytes:    netWireBytes,
				NetworkWireRawBytes: netWireRawBytes,
				Plan:                stats.pendingPlan,
			})
			if sub.Progress != nil {
				sub.Progress(ss)
			}

			// Feed the advisor and act on its decisions at this superstep
			// boundary (no phase in flight). A committed split forces an
			// immediate checkpoint so the new partition table is journaled
			// before anything can fail.
			wantCkpt := sub.Job.CheckpointEvery > 0 && ss%int64(sub.Job.CheckpointEvery) == 0
			if adv != nil {
				splits := c.currentSplits()
				c.mu.Lock()
				loadCopy := make(map[int]int64, len(c.partLoad))
				for p, l := range c.partLoad {
					loadCopy[p] = l
				}
				base := c.basePartsLocked()
				c.mu.Unlock()
				phases := make([]WorkerPhase, 0, len(reps))
				for i, rep := range reps {
					phases = append(phases, WorkerPhase{
						Addr:     stepWorkers[i].ctrl.RemoteAddr(),
						Duration: time.Duration(rep.DurationNS),
					})
				}
				adv.Observe(RuntimeObservation{
					Job:        sub.Name,
					Stat:       stats.SuperstepStats[len(stats.SuperstepStats)-1],
					PartLoad:   loadCopy,
					Workers:    phases,
					BaseParts:  base,
					TotalParts: totalParts(base, splits),
					NumSplits:  len(splits),
				})
				sess := &rebalSession{name: sub.Name, begin: &begin, gs: gs, attempt: &attempt, stats: stats}
				if d, ok := adv.SplitCandidate(); ok {
					committed, err := c.splitPartition(ctx, sess, d)
					if err != nil {
						if rerr := recoverOrFail(fmt.Sprintf("split at superstep %d", ss), err); rerr != nil {
							return stats, nil, rerr
						}
						continue
					}
					if committed && sub.Job.CheckpointEvery > 0 {
						wantCkpt = true
					}
				} else if addr, ok := adv.Straggler(); ok {
					relieved, err := c.relieveWorker(ctx, sess, addr)
					if err != nil {
						if rerr := recoverOrFail(fmt.Sprintf("straggler relief at superstep %d", ss), err); rerr != nil {
							return stats, nil, rerr
						}
						continue
					}
					if relieved {
						c.recordAdaptive(AdaptiveEvent{
							Kind: "relief", Job: sub.Name, Superstep: ss, Worker: addr,
							Detail: "straggler's heaviest node migrated to the least-loaded peer",
						})
					}
				}
			}

			// Distributed checkpoint at the configured cadence: every
			// worker snapshots its partitions into the controller's
			// replicated store; the manifest commits only after all acks.
			if wantCkpt {
				if err := c.checkpointCluster(ctx, sub.Name, ss, gs); err != nil {
					if rerr := recoverOrFail(fmt.Sprintf("checkpoint at superstep %d", ss), err); rerr != nil {
						return stats, nil, rerr
					}
					continue
				}
				stats.Checkpoints++
			}
			if !gs.Halt {
				continue
			}
		}
		stats.RunDuration = time.Since(runStart)

		// Dump phase: the write task's host returns the ordered rows.
		if sub.WantOutput {
			dumpStart := time.Now()
			dumps, err := phaseCall[dumpReply](ctx, c, sub.Name, rpcJobDump, jobNameMsg{Name: sub.Name})
			if err != nil {
				if rerr := recoverOrFail("dump", err); rerr != nil {
					return stats, nil, rerr
				}
				continue
			}
			var sb strings.Builder
			found := false
			for _, rep := range dumps {
				if !rep.Owner {
					continue
				}
				if found {
					return stats, nil, fmt.Errorf("core: dump of %s: two workers claim the write task", sub.Name)
				}
				found = true
				for _, line := range rep.Lines {
					sb.WriteString(line)
					sb.WriteByte('\n')
				}
			}
			if !found {
				return stats, nil, fmt.Errorf("core: dump of %s: no worker returned rows", sub.Name)
			}
			output = []byte(sb.String())
			stats.DumpDuration = time.Since(dumpStart)
		}
		done = true
	}

	stats.TotalDuration = time.Since(start)
	stats.FinalState = GlobalStateView{
		Superstep:    gs.Superstep,
		NumVertices:  gs.NumVertices,
		NumEdges:     gs.NumEdges,
		LiveVertices: gs.LiveVertices,
		Aggregate:    gs.Aggregate,
	}
	completed = true
	return stats, output, nil
}

// ckptPath returns a job's checkpoint directory in the controller's
// replicated store.
func ckptPath(job string, ss int64) string {
	return fmt.Sprintf("/pregelix/%s/ckpt/ss%d", job, ss)
}

// checkpointCluster drives one distributed checkpoint: every worker
// snapshots its owned partitions (vertex relation + pending messages as
// packed frame images) over the control plane, the controller writes
// them into its replicated checkpoint store, and — only after every
// worker has acked and every image is durable — commits the manifest
// (superstep, global state, partition→file map) atomically. A crash or
// failure anywhere before the commit leaves the previous checkpoint
// intact.
func (c *Coordinator) checkpointCluster(ctx context.Context, name string, ss int64, gs globalState) error {
	reps, err := phaseCall[ckptReply](ctx, c, name, rpcJobCkpt, ckptMsg{Name: name, SS: ss})
	if err != nil {
		return err
	}
	byPart := make(map[int]*ckptPartData)
	for i := range reps {
		for j := range reps[i].Parts {
			pd := &reps[i].Parts[j]
			if _, dup := byPart[pd.Part]; dup {
				return fmt.Errorf("core: checkpoint of %s: two workers snapshot partition %d", name, pd.Part)
			}
			byPart[pd.Part] = pd
		}
	}
	dir := ckptPath(name, ss)
	c.mu.Lock()
	base := c.basePartsLocked()
	splits := append([]splitRec(nil), c.splits...)
	c.mu.Unlock()
	m := checkpointManifest{Superstep: ss, Partitions: len(byPart), GS: gs, BaseParts: base, Splits: splits}
	m.PartStats = make([]partStat, len(byPart))
	for i := 0; i < len(byPart); i++ {
		pd := byPart[i]
		if pd == nil {
			return fmt.Errorf("core: checkpoint of %s: no worker snapshot partition %d", name, i)
		}
		st := pd.Stats
		st.VertexFile = fmt.Sprintf("%s/vertex-p%d", dir, i)
		st.MsgFile = fmt.Sprintf("%s/msg-p%d", dir, i)
		if err := c.ckpt.WriteFile(st.VertexFile, pd.Vertex); err != nil {
			return err
		}
		if err := c.ckpt.WriteFile(st.MsgFile, pd.Msg); err != nil {
			return err
		}
		m.PartStats[i] = st
	}
	if err := commitManifest(c.ckpt, dir, &m); err != nil {
		return err
	}
	c.cfg.logf("coordinator: %s checkpointed at superstep %d (%d partitions)", name, ss, len(byPart))
	return nil
}

// removeCheckpoints reclaims a finished job's checkpoint files. A
// coordinator that is shutting down keeps them: on a durable
// coordinator they are exactly what the restarted process resumes
// in-flight jobs from.
func (c *Coordinator) removeCheckpoints(name string) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return
	}
	for _, path := range c.ckpt.List("/pregelix/" + name + "/") {
		c.ckpt.Remove(path)
	}
}

// recoverJob is the distributed failure manager (the cluster analog of
// runState.recover): called when a phase fails, it verifies the failure
// is a worker loss (anything else is forwarded as an application
// error), aborts the in-flight phase everywhere, repairs the topology,
// and restores every worker from the latest committed checkpoint, whose
// manifest it returns so the caller can rewind the global state.
func (c *Coordinator) recoverJob(ctx context.Context, sub *DistSubmission, begin *jobBeginMsg, attempt int64) (*checkpointManifest, error) {
	dead := c.reapDead()
	if len(dead) == 0 {
		return nil, errNotRecoverable
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if sub.Job.CheckpointEvery <= 0 {
		return nil, fmt.Errorf("core: worker lost and job has no checkpoints (set CheckpointEvery)")
	}
	m := latestManifest(c.ckpt, "/pregelix/"+sub.Name+"/ckpt/")
	if m == nil {
		return nil, fmt.Errorf("core: worker lost before the first checkpoint committed")
	}

	// 1. Quiesce: abort the in-flight phase on every survivor and wait
	// for their tasks to drain, so topology and partition state can be
	// mutated safely.
	phaseCall[struct{}](ctx, c, "", rpcJobAbort, jobNameMsg{Name: sub.Name})
	// 2. Repair: adopt a standby worker (joining the open job session)
	// or redistribute the orphaned nodes over the survivors.
	if err := c.repairTopology(ctx, begin); err != nil {
		return nil, err
	}
	// 3. Restore: rewind every worker to the checkpoint.
	if err := c.restoreCluster(ctx, sub.Name, m, attempt); err != nil {
		return nil, err
	}
	return m, nil
}

// restoreCluster ships each worker the checkpoint images of the
// partitions it now owns and rewinds all sessions to the manifest's
// superstep.
func (c *Coordinator) restoreCluster(ctx context.Context, name string, m *checkpointManifest, attempt int64) error {
	c.mu.Lock()
	workers := append([]*ccWorker(nil), c.workers...)
	nodes := append([]hyracks.NodeID(nil), c.nodes...)
	c.mu.Unlock()
	if len(nodes) == 0 {
		return fmt.Errorf("core: no cluster topology")
	}
	ownerOf := make(map[string]*ccWorker)
	for _, w := range workers {
		for _, id := range w.owned {
			ownerOf[id] = w
		}
	}
	// Adopt the manifest's journaled split table as the cluster's, and
	// reset the per-partition load counters: pre-failure statistics
	// describe a partition layout and message distribution that no
	// longer exist, and feeding them to the rebalancer or the split
	// planner would act on ghosts.
	c.mu.Lock()
	c.splits = append([]splitRec(nil), m.Splits...)
	c.partLoad = make(map[int]int64)
	c.mu.Unlock()
	// Partition i lives on node i%N — the same deterministic round-robin
	// placement every runState computes (assignPartitions, applySplits).
	msgs := make(map[*ccWorker]*restoreMsg, len(workers))
	for _, w := range workers {
		msgs[w] = &restoreMsg{Name: name, SS: m.Superstep, GS: m.GS, Attempt: attempt, Splits: m.Splits}
	}
	for i := 0; i < m.Partitions; i++ {
		node := string(nodes[i%len(nodes)])
		w := ownerOf[node]
		if w == nil {
			return fmt.Errorf("core: restore of %s: partition %d's node %s has no owner", name, i, node)
		}
		if i >= len(m.PartStats) {
			return fmt.Errorf("core: restore of %s: manifest missing stats for partition %d", name, i)
		}
		st := m.PartStats[i]
		vdata, err := c.ckpt.ReadFile(st.VertexFile)
		if err != nil {
			return fmt.Errorf("core: restore of %s: reading %s: %w", name, st.VertexFile, err)
		}
		mdata, err := c.ckpt.ReadFile(st.MsgFile)
		if err != nil {
			return fmt.Errorf("core: restore of %s: reading %s: %w", name, st.MsgFile, err)
		}
		msgs[w].Parts = append(msgs[w].Parts, ckptPartData{Part: i, Vertex: vdata, Msg: mdata, Stats: st})
	}

	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *ccWorker) {
			defer wg.Done()
			errs[i] = w.call(ctx, rpcJobRestore, msgs[w], nil)
		}(i, w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("core: restoring worker %s: %w", workers[i].ctrl.RemoteAddr(), err)
		}
	}
	return nil
}
