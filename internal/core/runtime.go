// Package core implements the Pregelix runtime: the plan generator that
// compiles the Pregel logical plan (Figures 3-5 of the paper) into
// physical Hyracks jobs per superstep, the data loading/dumping plans,
// checkpoint/recovery, job pipelining, the statistics collector, and the
// failure manager (Section 5.7). Completed jobs stay queryable: their
// partition B-trees are sealed in a versioned query store and serve
// point, top-k and k-hop reads until a re-submission under the same
// name retires the version (see query.go and coordinator_query.go).
package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"pregelix/internal/dfs"
	"pregelix/internal/hyracks"
	"pregelix/internal/storage"
	"pregelix/internal/tuple"
	"pregelix/pregel"
)

// Options configures a Pregelix runtime instance.
type Options struct {
	// BaseDir roots all node-local storage; required.
	BaseDir string
	// Nodes is the simulated cluster size (default 4).
	Nodes int
	// NodeConfig configures each simulated machine (RAM budget, buffer
	// cache share, operator memory, page size).
	NodeConfig hyracks.NodeConfig
	// PartitionsPerNode controls parallelism; the paper's scheduler
	// assigns as many partitions per machine as cores (default 1 here,
	// since machines are simulated by goroutines).
	PartitionsPerNode int
	// DFSReplication is the checkpoint/input replication factor
	// (default 2, capped at the node count).
	DFSReplication int
	// DFSBlockSize is the simulated HDFS block size.
	DFSBlockSize int64
	// Exec selects the connector transport and this process's share of
	// the cluster's nodes. The zero value (in-process channels, all
	// nodes local) is the single-process mode; distributed workers run
	// with a wire transport and their owned node subset.
	Exec hyracks.ExecOptions
	// Compress is the frame compression policy for bulk byte streams
	// this process produces: checkpoint and migration images (and, via
	// the wire transport's own Config.Compress, shuffle streams). Zero
	// value is tuple.CompressOff; readers sniff the format, so any mix
	// of compressing and non-compressing processes interoperates.
	Compress tuple.CompressMode
}

// Runtime is a Pregelix instance bound to a simulated cluster plus a
// distributed file system whose datanodes are co-located with the
// cluster's node controllers.
type Runtime struct {
	opts    Options
	Cluster *hyracks.Cluster
	DFS     *dfs.FileSystem
	// queries retains finished managed jobs' partition indexes so the
	// serving layer answers point/top-k/k-hop reads without re-reading a
	// dump (the single-process half of the always-on query tier).
	queries *QueryStore
}

// NewRuntime builds the simulated cluster and its DFS.
func NewRuntime(opts Options) (*Runtime, error) {
	if opts.BaseDir == "" {
		return nil, fmt.Errorf("core: Options.BaseDir is required")
	}
	if opts.Nodes <= 0 {
		opts.Nodes = 4
	}
	if opts.PartitionsPerNode <= 0 {
		opts.PartitionsPerNode = 1
	}
	if opts.DFSReplication <= 0 {
		opts.DFSReplication = 2
	}
	cluster, err := hyracks.NewCluster(filepath.Join(opts.BaseDir, "cluster"), opts.Nodes, opts.NodeConfig)
	if err != nil {
		return nil, err
	}
	var datanodes []*dfs.Datanode
	for _, n := range cluster.Nodes() {
		datanodes = append(datanodes, &dfs.Datanode{
			Name: string(n.ID),
			Dir:  filepath.Join(opts.BaseDir, "dfs", string(n.ID)),
		})
	}
	fsys, err := dfs.New(datanodes, dfs.Options{
		BlockSize:   opts.DFSBlockSize,
		Replication: opts.DFSReplication,
	})
	if err != nil {
		return nil, err
	}
	return &Runtime{opts: opts, Cluster: cluster, DFS: fsys, queries: newQueryStore()}, nil
}

// Queries exposes the runtime's retained-results store: point, top-k
// and k-hop reads against finished managed jobs.
func (r *Runtime) Queries() *QueryStore { return r.queries }

// Close removes node-local temporary state.
func (r *Runtime) Close() error {
	r.queries.closeAll()
	return os.RemoveAll(filepath.Join(r.opts.BaseDir, "cluster"))
}

// globalState is the GS relation of Table 1 plus the Pregel-specific
// statistics the statistics collector tracks; its primary copy lives in
// the DFS (Section 5.2), so it is not part of checkpoints.
type globalState struct {
	Superstep    int64  `json:"superstep"`
	Halt         bool   `json:"halt"`
	Aggregate    []byte `json:"aggregate,omitempty"`
	NumVertices  int64  `json:"numVertices"`
	NumEdges     int64  `json:"numEdges"`
	LiveVertices int64  `json:"liveVertices"`
	Messages     int64  `json:"messages"`
}

// partitionState tracks one graph partition's node placement and local
// storage between supersteps.
type partitionState struct {
	idx  int
	node *hyracks.NodeController

	// vertexIdx stores the partition's share of the Vertex relation.
	vertexIdx storage.Index
	// msgPath is the sorted combined-message run file feeding the next
	// superstep ("" when empty).
	msgPath string
	msgs    int64
	// vid is the live-vertex index (left-outer-join plan only).
	vid *storage.BTree

	// Pending next-superstep state, swapped in after the job completes.
	nextMsgPath string
	nextMsgs    int64
	nextVid     *storage.BTree

	// Partition-local statistics.
	numVertices, numEdges, liveVertices int64
}

// runState is the per-job execution state shared by the plan generator's
// operator closures.
type runState struct {
	rt    *Runtime
	job   *pregel.Job
	codec *pregel.Codec
	parts []*partitionState
	gs    globalState

	// baseParts is the partition count fixed at load (the base routing
	// modulus); splits is the committed hot-partition split list, which
	// appends child partitions past the base table (split.go). Both are
	// dictated by the cluster controller on every superstep verb so all
	// workers route identically.
	baseParts int
	splits    []splitRec

	// opMem is the per-job operator-memory carve assigned by the
	// admission scheduler (0 = each node's default budget).
	opMem int64
	// runDir is the node-relative scratch subdirectory isolating this
	// job's local files from concurrent tenants ("" = node root).
	runDir string
	// exec is the transport / local-node selection every hyracks job of
	// this run executes with.
	exec hyracks.ExecOptions
	// pinScan pins the load scan to one node. Distributed runs set it so
	// every participant compiles the same schedule; "" lets the runtime
	// pick by DFS block locality.
	pinScan hyracks.NodeID
	// joinOverride, when non-nil, forces the superstep join plan. The
	// cluster controller of a distributed run decides the plan centrally
	// and ships it to every worker so they compile identical specs.
	joinOverride *pregel.JoinKind
	// attempt is the cluster-recovery epoch (0 = first attempt). It
	// suffixes superstep spec names so that a superstep retried after a
	// distributed recovery can never meet straggler wire streams of the
	// aborted attempt: stream identity includes the spec name.
	attempt int64

	// pendingGS accumulates the superstep's global aggregation results
	// (written by the single-partition gs operator).
	pendingGS struct {
		haltAll   bool
		aggregate []byte
		hasAgg    bool
	}

	stats *JobStats
	seq   atomic.Int64 // local file version counter
	// ioBytes accumulates the job's own temp-file I/O (per-tenant, so
	// concurrent jobs on the shared cluster don't pollute each other's
	// superstep statistics).
	ioBytes atomic.Int64
}

// SuperstepStat records the statistics collector's view of one superstep.
type SuperstepStat struct {
	Superstep    int64
	Duration     time.Duration
	Messages     int64
	LiveVertices int64
	NumVertices  int64
	NumEdges     int64
	IOBytes      int64
	// NetworkTuples/NetworkBytes count the traffic shipped over the
	// m-to-n connectors during the superstep (the statistics
	// collector's network usage counter, Section 5.7).
	NetworkTuples int64
	NetworkBytes  int64
	// NetworkWireBytes counts the bytes that actually hit the network
	// sockets (post-compression, message headers included); zero on
	// in-process channel transports. NetworkWireRawBytes is what the
	// same socket traffic would have cost uncompressed, so
	// NetworkWireRawBytes/NetworkWireBytes is the shuffle's wire
	// compression ratio — NetworkBytes can't serve as the baseline
	// because it also counts streams that stayed process-local.
	NetworkWireBytes    int64
	NetworkWireRawBytes int64
	// Plan is the join strategy the superstep executed with (relevant
	// under Job.AutoPlan, where it may change between supersteps).
	Plan string
}

// recordPlan stores the join choice for the superstep being built so the
// completed SuperstepStat can report it.
func (s *JobStats) recordPlan(ss int64, join pregel.JoinKind) {
	s.pendingPlan = join.String()
}

// JobStats summarizes a job run.
type JobStats struct {
	// Job is the (tenant-qualified) execution name.
	Job         string
	pendingPlan string
	// Supersteps is the number of committed supersteps.
	Supersteps int64
	// LoadDuration/RunDuration/DumpDuration/TotalDuration break the wall
	// clock into the three phases of a run.
	LoadDuration  time.Duration
	RunDuration   time.Duration
	DumpDuration  time.Duration
	TotalDuration time.Duration
	// TotalMessages counts messages across all committed supersteps.
	TotalMessages int64
	// Recoveries counts checkpoint rollbacks after failures;
	// Checkpoints counts committed checkpoints.
	Recoveries  int
	Checkpoints int
	// Rebalances counts elastic topology changes (workers joining or
	// draining) the job was carried across — unlike Recoveries these
	// lose no superstep and rewind nothing.
	Rebalances     int
	SuperstepStats []SuperstepStat
	FinalState     GlobalStateView
}

// rollbackStats drops per-superstep statistics past a checkpoint
// rollback point and recomputes the derived totals: the rolled-back
// supersteps will re-execute and re-record, so keeping their entries
// would double-count messages and duplicate SuperstepStats rows.
func rollbackStats(s *JobStats, superstep int64) {
	kept := s.SuperstepStats[:0]
	var msgs int64
	for _, st := range s.SuperstepStats {
		if st.Superstep <= superstep {
			kept = append(kept, st)
			msgs += st.Messages
		}
	}
	s.SuperstepStats = kept
	s.TotalMessages = msgs
	s.Supersteps = superstep
}

// AvgIterationTime returns the mean superstep duration, the metric of
// the paper's Figure 11.
func (s *JobStats) AvgIterationTime() time.Duration {
	if len(s.SuperstepStats) == 0 {
		return 0
	}
	var total time.Duration
	for _, ss := range s.SuperstepStats {
		total += ss.Duration
	}
	return total / time.Duration(len(s.SuperstepStats))
}

// GlobalStateView is the user-visible final global state.
type GlobalStateView struct {
	Superstep    int64
	NumVertices  int64
	NumEdges     int64
	LiveVertices int64
	Aggregate    []byte
}

func (rs *runState) gsPath() string {
	return "/pregelix/" + rs.job.Name + "/gs.json"
}

func (rs *runState) writeGS() error {
	data, err := json.Marshal(&rs.gs)
	if err != nil {
		return err
	}
	return rs.rt.DFS.WriteFile(rs.gsPath(), data)
}

// Run executes one job end to end: load from DFS, iterate supersteps
// until termination, dump results to DFS.
func (r *Runtime) Run(ctx context.Context, job *pregel.Job) (*JobStats, error) {
	stats, _, err := r.run(ctx, job, nil, true, tenancy{})
	return stats, err
}

// tenancy carries the multi-tenant isolation parameters the JobManager
// assigns to a managed job.
type tenancy struct {
	// opMem is the per-job operator-memory carve (0 = node default).
	opMem int64
	// runDir is the per-job node-local scratch subdirectory.
	runDir string
	// retain seals the finished job's partition indexes into the
	// runtime's query store instead of dropping them (managed jobs only;
	// plain Run/RunPipeline tear down as before).
	retain bool
}

// runManaged executes a job under the admission scheduler's resource
// carve with isolated node-local scratch directories.
func (r *Runtime) runManaged(ctx context.Context, job *pregel.Job, ten tenancy) (*JobStats, error) {
	stats, _, err := r.run(ctx, job, nil, true, ten)
	return stats, err
}

// RunPipeline executes compatible contiguous jobs with pipelining
// (Section 5.6): only the first job loads from DFS and only the last
// dumps; intermediate Vertex state stays in the partition indexes,
// skipping HDFS round trips and index bulk-loads. All jobs must share
// vertex/edge codecs (they must "interpret the corresponding bits in the
// same way").
func (r *Runtime) RunPipeline(ctx context.Context, jobs []*pregel.Job) ([]*JobStats, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("core: empty pipeline")
	}
	var all []*JobStats
	var carried []*partitionState
	for i, job := range jobs {
		last := i == len(jobs)-1
		stats, parts, err := r.run(ctx, job, carried, last, tenancy{})
		if err != nil {
			return all, err
		}
		all = append(all, stats)
		carried = parts
	}
	return all, nil
}

func (r *Runtime) run(ctx context.Context, job *pregel.Job, carried []*partitionState, dump bool, ten tenancy) (*JobStats, []*partitionState, error) {
	if err := job.Validate(); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	rs := &runState{
		rt:     r,
		job:    job,
		codec:  &job.Codec,
		opMem:  ten.opMem,
		runDir: ten.runDir,
		exec:   r.opts.Exec,
		stats:  &JobStats{Job: job.Name},
	}

	// Load or inherit the Vertex relation.
	if carried != nil {
		rs.adoptPartitions(carried)
	} else {
		loadStart := time.Now()
		if err := rs.load(ctx); err != nil {
			return rs.stats, nil, fmt.Errorf("core: load %s: %w", job.Name, err)
		}
		rs.stats.LoadDuration = time.Since(loadStart)
	}

	// Superstep loop with failure management.
	runStart := time.Now()
	if err := rs.superstepLoop(ctx); err != nil {
		rs.cleanup()
		return rs.stats, nil, err
	}
	rs.stats.RunDuration = time.Since(runStart)

	if dump {
		dumpStart := time.Now()
		if job.OutputPath != "" {
			if err := rs.dump(ctx); err != nil {
				rs.cleanup()
				return rs.stats, nil, fmt.Errorf("core: dump %s: %w", job.Name, err)
			}
		}
		rs.stats.DumpDuration = time.Since(dumpStart)
	}
	rs.stats.TotalDuration = time.Since(start)
	rs.stats.FinalState = GlobalStateView{
		Superstep:    rs.gs.Superstep,
		NumVertices:  rs.gs.NumVertices,
		NumEdges:     rs.gs.NumEdges,
		LiveVertices: rs.gs.LiveVertices,
		Aggregate:    rs.gs.Aggregate,
	}
	if dump {
		if ten.retain {
			r.retainResults(rs)
		} else {
			rs.cleanup()
		}
		return rs.stats, nil, nil
	}
	// Hand partitions to the next pipelined job.
	parts := rs.parts
	rs.parts = nil
	return rs.stats, parts, nil
}

// adoptPartitions reuses a predecessor job's loaded partitions,
// reactivating every vertex (each Pregel job starts with all vertices
// active) by rebuilding the Vid index from the full vertex set when the
// left-outer-join plan is selected.
func (rs *runState) adoptPartitions(parts []*partitionState) {
	rs.parts = parts
	var nv, ne int64
	for _, ps := range parts {
		// Drop any stale message/vid state from the previous job.
		if ps.msgPath != "" {
			os.Remove(ps.msgPath)
			ps.msgPath = ""
			ps.msgs = 0
		}
		if ps.vid != nil {
			ps.vid.Drop()
			ps.vid = nil
		}
		nv += ps.numVertices
		ne += ps.numEdges
	}
	rs.gs = globalState{Superstep: 0, NumVertices: nv, NumEdges: ne, LiveVertices: nv}
}

func (rs *runState) superstepLoop(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		ss := rs.gs.Superstep + 1
		if rs.job.MaxSupersteps > 0 && ss > int64(rs.job.MaxSupersteps) {
			return nil
		}
		stepStart := time.Now()
		ioBefore := rs.ioBytes.Load()

		spec, err := rs.buildSuperstepJob(ss)
		if err != nil {
			return err
		}
		jobRes, err := rs.runHyracks(ctx, spec)
		if err != nil {
			if nf, ok := failureOf(err); ok {
				if rerr := rs.recover(ctx, nf); rerr != nil {
					return fmt.Errorf("core: unrecoverable after %v: %w", err, rerr)
				}
				rs.stats.Recoveries++
				// Statistics rewind with the state: supersteps past the
				// checkpoint will re-run and re-record, so drop their
				// entries rather than double-counting them.
				rollbackStats(rs.stats, rs.gs.Superstep)
				continue // retry from the restored superstep
			}
			return err
		}
		rs.commitSuperstep(ss)
		rs.stats.Supersteps = ss
		rs.stats.TotalMessages += rs.gs.Messages
		rs.stats.SuperstepStats = append(rs.stats.SuperstepStats, SuperstepStat{
			Superstep:    ss,
			Duration:     time.Since(stepStart),
			Messages:     rs.gs.Messages,
			LiveVertices: rs.gs.LiveVertices,
			NumVertices:  rs.gs.NumVertices,
			NumEdges:     rs.gs.NumEdges,
			IOBytes:      rs.ioBytes.Load() - ioBefore,
			Plan:         rs.stats.pendingPlan,
		})
		if jobRes != nil {
			st := &rs.stats.SuperstepStats[len(rs.stats.SuperstepStats)-1]
			for _, cs := range jobRes.ConnStats {
				st.NetworkTuples += cs.Tuples()
				st.NetworkBytes += cs.Bytes()
				st.NetworkWireBytes += cs.WireBytes()
				st.NetworkWireRawBytes += cs.WireRawBytes()
			}
		}
		if err := rs.writeGS(); err != nil {
			return err
		}
		if rs.job.CheckpointEvery > 0 && ss%int64(rs.job.CheckpointEvery) == 0 {
			if err := rs.checkpoint(ctx, ss); err != nil {
				return fmt.Errorf("core: checkpoint at superstep %d: %w", ss, err)
			}
			rs.stats.Checkpoints++
		}
		if rs.gs.Halt {
			return nil
		}
	}
}

// commitSuperstep folds the job's outputs into the global state and
// swaps in next-superstep partition state.
func (rs *runState) commitSuperstep(ss int64) {
	var msgs, live, nv, ne int64
	for _, ps := range rs.parts {
		if ps.msgPath != "" {
			os.Remove(ps.msgPath)
		}
		ps.msgPath, ps.msgs = ps.nextMsgPath, ps.nextMsgs
		ps.nextMsgPath, ps.nextMsgs = "", 0
		if ps.vid != nil {
			ps.vid.Drop()
		}
		ps.vid, ps.nextVid = ps.nextVid, nil
		msgs += ps.msgs
		live += ps.liveVertices
		nv += ps.numVertices
		ne += ps.numEdges
	}
	rs.gs.Superstep = ss
	rs.gs.Messages = msgs
	rs.gs.LiveVertices = live
	rs.gs.NumVertices = nv
	rs.gs.NumEdges = ne
	rs.gs.Aggregate = nil
	if rs.pendingGS.hasAgg {
		rs.gs.Aggregate = rs.pendingGS.aggregate
	}
	// The program terminates when every vertex halted and no messages
	// are in flight (footnote 3 of the paper).
	rs.gs.Halt = rs.pendingGS.haltAll && msgs == 0
	rs.pendingGS.haltAll = false
	rs.pendingGS.aggregate = nil
	rs.pendingGS.hasAgg = false
}

// retainResults seals a completed run's vertex indexes into the query
// store (retiring any previous version of the same base job name) and
// cleans up everything else. The sealed version owns the job's scratch
// directory: it is reclaimed when the version retires and its readers
// drain, not here.
func (r *Runtime) retainResults(rs *runState) {
	parts := make(map[int]storage.Index, len(rs.parts))
	for _, ps := range rs.parts {
		if ps.vertexIdx != nil {
			parts[ps.idx] = ps.vertexIdx
			ps.vertexIdx = nil // cleanup below must not drop it
		}
	}
	numParts := len(rs.parts)
	runDir := rs.runDir
	rs.cleanup()
	if len(parts) == 0 {
		return
	}
	r.queries.seal(&retainedResult{
		version:  rs.job.Name,
		numParts: numParts,
		codec:    rs.codec,
		parts:    parts,
		cleanup: func() {
			for _, n := range r.Cluster.Nodes() {
				n.RemoveJobDir(runDir)
			}
		},
	})
}

func (rs *runState) cleanup() {
	for _, ps := range rs.parts {
		if ps.vertexIdx != nil {
			ps.vertexIdx.Drop()
		}
		if ps.vid != nil {
			ps.vid.Drop()
		}
		if ps.nextVid != nil {
			ps.nextVid.Drop()
		}
		for _, p := range []string{ps.msgPath, ps.nextMsgPath} {
			if p != "" {
				os.Remove(p)
			}
		}
	}
	rs.parts = nil
}

// numPartitions returns the job parallelism.
func (rs *runState) numPartitions() int {
	return len(rs.rt.Cluster.LiveNodes()) * rs.rt.opts.PartitionsPerNode
}

// initParts builds the run's partition table with the deterministic
// round-robin placement every cluster participant computes identically.
// The load plan populates the partitions; a cluster worker joining as a
// replacement instead populates them straight from a checkpoint.
func (rs *runState) initParts() {
	p := rs.numPartitions()
	nodes := rs.assignPartitions(p)
	rs.parts = make([]*partitionState, p)
	for i := range rs.parts {
		rs.parts[i] = &partitionState{idx: i, node: nodes[i]}
	}
	rs.baseParts = p
	rs.splits = nil
}

// assignPartitions maps partitions round-robin over live nodes.
func (rs *runState) assignPartitions(n int) []*hyracks.NodeController {
	live := rs.rt.Cluster.LiveNodes()
	out := make([]*hyracks.NodeController, n)
	for i := range out {
		out[i] = live[i%len(live)]
	}
	return out
}

// locations lists the node of each current partition (the sticky
// location constraints of Section 5.3.4).
func (rs *runState) locations() []hyracks.NodeID {
	out := make([]hyracks.NodeID, len(rs.parts))
	for i, ps := range rs.parts {
		out[i] = ps.node.ID
	}
	return out
}

func (rs *runState) nextSeq() int64 { return rs.seq.Add(1) }

// newSpec creates a physical job spec carrying the run's tenancy
// parameters (operator-memory carve, isolated scratch directory) so
// every task of every compiled plan observes them.
func (rs *runState) newSpec(name string) *hyracks.JobSpec {
	return &hyracks.JobSpec{
		Name:             name,
		OperatorMemBytes: rs.opMem,
		RunDir:           rs.runDir,
		IOCounter:        &rs.ioBytes,
	}
}

// runHyracks executes one compiled physical job with the run's
// transport and local-node selection.
func (rs *runState) runHyracks(ctx context.Context, spec *hyracks.JobSpec) (*hyracks.JobResult, error) {
	return hyracks.RunJobWith(ctx, rs.rt.Cluster, spec, rs.exec)
}

// tempPath returns a job-scoped temp file path on the given node, under
// the run's isolated scratch directory when one is set.
func (rs *runState) tempPath(node *hyracks.NodeController, prefix string) string {
	return node.TempPathIn(rs.runDir, prefix)
}

// localDir returns a job-scoped node-local directory path (for LSM
// component trees), under the run's scratch directory when set.
func (rs *runState) localDir(node *hyracks.NodeController, name string) string {
	return filepath.Join(node.JobDir(rs.runDir), name)
}

// operatorMem returns the effective per-operator budget on a node.
func (rs *runState) operatorMem(node *hyracks.NodeController) int64 {
	if rs.opMem > 0 {
		return rs.opMem
	}
	return node.OperatorMem
}

// failureOf unwraps a recoverable node failure, distinguishing it from
// application errors which are forwarded to the user (the failure
// manager contract of Section 5.7).
func failureOf(err error) (*hyracks.NodeFailure, bool) {
	var nf *hyracks.NodeFailure
	if ok := asErr(err, &nf); ok {
		return nf, true
	}
	return nil, false
}
