package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"pregelix/internal/hyracks"
	"pregelix/internal/operators"
	"pregelix/internal/storage"
	"pregelix/internal/tuple"
	"pregelix/pregel"
)

// Output ports of the compute operator; the filter, compute UDF call,
// Vertex update, and field extraction are fused into the join operator
// as "mini-operators" (Section 5.3.2), so the join/compute task feeds
// all downstream flows of Figures 3-5 directly.
const (
	portMsgs      = 0 // D3: outgoing messages
	portMutations = 1 // D6: vertex additions/removals
	portGS        = 2 // D4+D5: pre-aggregated global state contribution
)

// asErr wraps errors.As for the failure manager.
func asErr(err error, target any) bool { return errors.As(err, target) }

// needVid reports whether the Vid live-vertex index must be maintained:
// always for the left-outer-join plan, and under AutoPlan so the advisor
// can switch to it at any superstep boundary.
func (rs *runState) needVid() bool {
	return rs.job.Join == pregel.LeftOuterJoin || rs.job.AutoPlan
}

// lojSelectivityThreshold is the fraction of the vertex relation below
// which the advisor prefers probing over scanning: index point lookups
// cost several page accesses each, so the probe side must be a small
// minority of the relation to beat one sequential pass (the trade-off
// Figure 14 measures).
const lojSelectivityThreshold = 0.25

// chooseJoin is the cost-based plan advisor: it estimates next
// superstep's compute input cardinality (distinct message receivers plus
// live vertices, both known exactly from the previous superstep) and
// picks the cheaper join plan. A distributed worker runs with the plan
// its cluster controller decided (joinOverride) so every participant
// compiles the same spec.
func (rs *runState) chooseJoin(ss int64) pregel.JoinKind {
	if rs.joinOverride != nil {
		return *rs.joinOverride
	}
	return chooseJoinFor(rs.job, &rs.gs, ss)
}

// chooseJoinFor is the advisor itself, shared by the in-process runtime
// and the distributed cluster controller.
func chooseJoinFor(job *pregel.Job, gs *globalState, ss int64) pregel.JoinKind {
	if !job.AutoPlan {
		return job.Join
	}
	if ss == 1 {
		// Every vertex is live in superstep 1: scan wins.
		return pregel.FullOuterJoin
	}
	touched := gs.Messages + gs.LiveVertices // upper bound on probes
	if gs.NumVertices > 0 &&
		float64(touched) < lojSelectivityThreshold*float64(gs.NumVertices) {
		return pregel.LeftOuterJoin
	}
	return pregel.FullOuterJoin
}

// buildSuperstepJob compiles the physical plan for superstep ss from the
// job's plan hints: join strategy (Figure 8), group-by strategy
// (Figure 7), connector policy, and vertex storage.
func (rs *runState) buildSuperstepJob(ss int64) (*hyracks.JobSpec, error) {
	p := len(rs.parts)
	locs := rs.locations()
	name := fmt.Sprintf("%s-ss%d", rs.job.Name, ss)
	if rs.attempt > 0 {
		// Recovery epoch: a fresh spec name gives the retried superstep
		// fresh wire-stream identities (see runState.attempt).
		name = fmt.Sprintf("%s-ss%d.r%d", rs.job.Name, ss, rs.attempt)
	}
	spec := rs.newSpec(name)

	// Join + compute source, pinned to the vertex partitions. The join
	// strategy comes from the job hint, or from the cost-based advisor
	// when AutoPlan is set.
	join := rs.chooseJoin(ss)
	rs.stats.recordPlan(ss, join)
	spec.AddOp(&hyracks.OperatorDesc{
		ID:         "compute",
		Partitions: p,
		Locations:  locs,
		NewSource: func(tc *hyracks.TaskContext) (hyracks.SourceRuntime, error) {
			return &computeSource{rs: rs, ss: ss, tc: tc, join: join}, nil
		},
	})

	// Message combination: sender-side group-by fused with compute,
	// then redistribution, then receiver-side group-by fused into the
	// per-partition Msg file writer.
	gbKind := operators.SortGroupBy
	if rs.job.GroupBy == pregel.HashSortGroupBy {
		gbKind = operators.HashSortGroupBy
	}
	spec.AddOp(&hyracks.OperatorDesc{
		ID:         "gb-local",
		Partitions: p,
		Locations:  locs,
		NewRuntime: func(tc *hyracks.TaskContext) (hyracks.PushRuntime, error) {
			return operators.NewGroupByRuntime(tc, gbKind, &msgCombiner{job: rs.job}), nil
		},
	})
	spec.Connect(&hyracks.ConnectorDesc{From: "compute", FromPort: portMsgs, To: "gb-local", Type: hyracks.OneToOne})

	recvKind := gbKind
	connType := hyracks.MToNPartitioning
	if rs.job.Connector == pregel.MergeConnector {
		connType = hyracks.MToNPartitioningMerging
		recvKind = operators.PreclusteredGroupBy
	}
	spec.AddOp(&hyracks.OperatorDesc{
		ID:         "gb-final",
		Partitions: p,
		Locations:  locs,
		NewRuntime: func(tc *hyracks.TaskContext) (hyracks.PushRuntime, error) {
			return operators.NewGroupByRuntime(tc, recvKind, &msgCombiner{job: rs.job}), nil
		},
	})
	spec.Connect(&hyracks.ConnectorDesc{
		From: "gb-local", To: "gb-final",
		Type:        connType,
		Partitioner: rs.vidPartitioner(),
	})

	spec.AddOp(&hyracks.OperatorDesc{
		ID:         "msg-sink",
		Partitions: p,
		Locations:  locs,
		NewRuntime: func(tc *hyracks.TaskContext) (hyracks.PushRuntime, error) {
			return newMsgSink(rs, tc)
		},
	})
	spec.Connect(&hyracks.ConnectorDesc{From: "gb-final", To: "msg-sink", Type: hyracks.OneToOne})

	// Graph mutations: redistribute by vid, group + resolve + apply
	// (Figure 5). The group-by is receiver-side only because resolve is
	// not guaranteed to be distributive (Section 5.3.3).
	spec.AddOp(&hyracks.OperatorDesc{
		ID:         "resolve",
		Partitions: p,
		Locations:  locs,
		NewRuntime: func(tc *hyracks.TaskContext) (hyracks.PushRuntime, error) {
			return newResolveSink(rs, tc), nil
		},
	})
	spec.Connect(&hyracks.ConnectorDesc{
		From: "compute", FromPort: portMutations, To: "resolve",
		Type:        hyracks.MToNPartitioning,
		Partitioner: rs.vidPartitioner(),
	})

	// Global state: two-stage aggregation; stage one (per-partition
	// pre-aggregation) is fused inside the compute task, stage two is
	// the single global aggregator below (Section 5.3.3).
	spec.AddOp(&hyracks.OperatorDesc{
		ID:         "gs",
		Partitions: 1,
		NewRuntime: func(tc *hyracks.TaskContext) (hyracks.PushRuntime, error) {
			return newGSSink(rs), nil
		},
	})
	spec.Connect(&hyracks.ConnectorDesc{From: "compute", FromPort: portGS, To: "gs", Type: hyracks.ReduceToOne})

	return spec, nil
}

// msgCombiner adapts the job's message combiner to the tuple level.
// Message payloads are encoded lists; without a user combiner, lists for
// the same destination are concatenated (the default "gather into a
// list" combine of the paper's footnote 4). It keeps decode scratch, so
// each group-by task needs its own.
//
// An accumulator's header has a spare slot past its length. It holds
// the payload buffer the accumulator owns, nil until the first Add: until
// then acc[1] aliases First's argument and must not be written.
type msgCombiner struct {
	job  *pregel.Job
	a, b []pregel.Value // decoded lists, Values reused by the next decode
	enc  []byte         // encoded combined list
}

func (c *msgCombiner) First(t tuple.Tuple) tuple.Tuple {
	acc := make(tuple.Tuple, 2, 3)
	acc[0], acc[1] = t[0], t[1]
	return acc
}

func (c *msgCombiner) Add(acc, t tuple.Tuple) tuple.Tuple {
	own := acc[:3][2]
	if c.job.Combiner == nil {
		if own != nil {
			own = pregel.ExtendMsgList(own, t[1])
		} else {
			own = pregel.AppendMsgLists(acc[1], t[1])
		}
		acc[1], acc[:3][2] = own, own
		return acc
	}
	var err error
	if c.a, err = c.job.Codec.DecodeMsgListInto(c.a[:0], acc[1]); err != nil {
		panic(fmt.Sprintf("pregelix: corrupt message list: %v", err))
	}
	if c.b, err = c.job.Codec.DecodeMsgListInto(c.b[:0], t[1]); err != nil {
		panic(fmt.Sprintf("pregelix: corrupt message list: %v", err))
	}
	// Fold acc's messages, then t's; either list may be empty.
	var m pregel.Value
	for _, l := range [2][]pregel.Value{c.a, c.b} {
		for _, x := range l {
			if m == nil {
				m = x
				continue
			}
			m = c.job.Combiner.Combine(m, x)
		}
	}
	// Encode aside first: m may be built from bytes of acc[1], which
	// own can be.
	c.enc = pregel.AppendMsgList(c.enc[:0], m)
	own = append(own[:0], c.enc...)
	acc[1], acc[:3][2] = own, own
	return acc
}

// newMsgSink writes the combined, vid-sorted message stream to the
// partition's Msg run file for the next superstep (Section 5.2).
func newMsgSink(rs *runState, tc *hyracks.TaskContext) (hyracks.PushRuntime, error) {
	ps := rs.parts[tc.Partition]
	var rf *storage.RunFile
	return &hyracks.FuncRuntime{
		OnOpen: func(_ *hyracks.BaseRuntime) error {
			path := tc.TempPath(fmt.Sprintf("msg-v%d", rs.nextSeq()))
			var err error
			rf, err = storage.CreateRunFile(path)
			return err
		},
		OnRef: func(_ *hyracks.BaseRuntime, r tuple.TupleRef) error {
			return rf.AppendRef(r)
		},
		OnClose: func(_ *hyracks.BaseRuntime) error {
			if err := rf.CloseWrite(); err != nil {
				return err
			}
			tc.AddIOBytes(rf.PayloadBytes())
			ps.nextMsgPath = rf.Path()
			ps.nextMsgs = rf.Count()
			return nil
		},
		OnFail: func(_ *hyracks.BaseRuntime, _ error) {
			// Aborted superstep (peer failure, cancellation): the half-
			// written run never becomes ps.nextMsgPath, so its pooled
			// frame, fd and temp file must be reclaimed here.
			if rf != nil {
				rf.Delete()
			}
		},
	}, nil
}

// Mutation op codes for the mutation flow tuples (vid, op, vertexBytes).
const (
	mutAdd    = 1
	mutRemove = 2
)

// resolveSink buffers the partition's mutation tuples, then groups them
// by vid and applies the resolve UDF to the Vertex relation via the
// index insert/delete operator. It applies at Close, which the dataflow
// guarantees happens only after every compute task has finished its
// scan, so index mutation never races a scan.
type resolveSink struct {
	hyracks.BaseRuntime
	rs     *runState
	ps     *partitionState
	muts   map[uint64]*mutationSet
	order  []uint64
	failed bool
}

type mutationSet struct {
	additions []*pregel.Vertex
	removed   bool
}

func newResolveSink(rs *runState, tc *hyracks.TaskContext) *resolveSink {
	return &resolveSink{rs: rs, ps: rs.parts[tc.Partition], muts: make(map[uint64]*mutationSet)}
}

func (r *resolveSink) Open() error { return nil }

func (r *resolveSink) NextFrame(f *tuple.Frame) error {
	for i := 0; i < f.Len(); i++ {
		t := f.Tuple(i)
		vid := tuple.DecodeUint64(t.Field(0))
		ms := r.muts[vid]
		if ms == nil {
			ms = &mutationSet{}
			r.muts[vid] = ms
			r.order = append(r.order, vid)
		}
		switch op := t.Field(1); op[0] {
		case mutAdd:
			// DecodeVertex copies all bytes it keeps, so the retained
			// vertex does not alias the borrowed frame.
			v, err := r.rs.codec.DecodeVertex(pregel.VertexID(vid), t.Field(2))
			if err != nil {
				return fmt.Errorf("pregelix: corrupt mutation vertex: %w", err)
			}
			ms.additions = append(ms.additions, v)
		case mutRemove:
			ms.removed = true
		default:
			return fmt.Errorf("pregelix: unknown mutation op %d", op[0])
		}
	}
	return nil
}

func (r *resolveSink) Fail(err error) { r.failed = true }

func (r *resolveSink) Close() error {
	if r.failed {
		return nil
	}
	resolver := r.rs.job.ResolverOrDefault()
	for _, vid := range r.order {
		ms := r.muts[vid]
		key := tuple.EncodeUint64(vid)
		var existing *pregel.Vertex
		if raw, err := r.ps.vertexIdx.Search(key); err == nil {
			v, derr := r.rs.codec.DecodeVertex(pregel.VertexID(vid), raw)
			if derr != nil {
				return derr
			}
			existing = v
		} else if err != storage.ErrNotFound {
			return err
		}
		had := existing != nil
		final := resolver.Resolve(pregel.VertexID(vid), existing, ms.additions, ms.removed)
		switch {
		case final == nil && had:
			if err := r.ps.vertexIdx.Delete(key); err != nil {
				return err
			}
			r.ps.numVertices--
			r.ps.numEdges -= int64(len(existing.Edges))
			if r.ps.nextVid != nil {
				if _, err := r.ps.nextVid.Delete(key); err != nil {
					return err
				}
			}
		case final != nil:
			if err := r.ps.vertexIdx.Insert(key, r.rs.codec.EncodeVertex(final)); err != nil {
				return err
			}
			if had {
				r.ps.numEdges += int64(len(final.Edges) - len(existing.Edges))
			} else {
				r.ps.numVertices++
				r.ps.numEdges += int64(len(final.Edges))
			}
			// Newly materialized vertices are live next superstep.
			if r.ps.nextVid != nil && !final.Halted {
				if err := r.ps.nextVid.Insert(key, nil); err != nil {
					return err
				}
			}
			if !final.Halted && !had {
				r.ps.liveVertices++
			}
		}
	}
	return nil
}

// gsSink is stage two of the global aggregation: it folds the
// per-partition contribution tuples into the pending global state.
// Contribution tuple layout: (haltAll u8, hasAgg u8, aggBytes).
type gsSink struct {
	hyracks.BaseRuntime
	rs      *runState
	haltAll bool
	agg     pregel.Value
	failed  bool
}

func newGSSink(rs *runState) *gsSink {
	return &gsSink{rs: rs, haltAll: true}
}

func (g *gsSink) Open() error { return nil }

func (g *gsSink) NextFrame(f *tuple.Frame) error {
	for i := 0; i < f.Len(); i++ {
		t := f.Tuple(i)
		g.haltAll = g.haltAll && tuple.DecodeBool(t.Field(0))
		if tuple.DecodeBool(t.Field(1)) {
			if g.rs.job.Aggregator == nil {
				return fmt.Errorf("pregelix: aggregate contribution without Aggregator")
			}
			contrib, err := decodeAggValue(g.rs.job, t.Field(2))
			if err != nil {
				return err
			}
			if g.agg == nil {
				g.agg = contrib
			} else {
				g.agg = g.rs.job.Aggregator.Merge(g.agg, contrib)
			}
		}
	}
	return nil
}

func (g *gsSink) Fail(err error) { g.failed = true }

func (g *gsSink) Close() error {
	if g.failed {
		return nil
	}
	g.rs.pendingGS.haltAll = g.haltAll
	if g.agg != nil {
		g.rs.pendingGS.aggregate = pregel.MarshalValue(g.agg)
		g.rs.pendingGS.hasAgg = true
	}
	return nil
}

// decodeAggValue decodes a global-aggregate value with the aggregator's
// zero as the type witness.
func decodeAggValue(job *pregel.Job, data []byte) (pregel.Value, error) {
	v := job.Aggregator.Zero()
	if err := v.Unmarshal(data); err != nil {
		return nil, err
	}
	return v, nil
}

// computeSource is the fused join + compute task for one partition: the
// left side of Figure 8 (index full outer join) or the right side
// (NullMsg/Vid merge + index left outer join), with the compute UDF,
// vertex update, and projection mini-operators inlined.
type computeSource struct {
	hyracks.BaseSource
	rs   *runState
	ss   int64
	tc   *hyracks.TaskContext
	join pregel.JoinKind
}

// Run executes the partition's share of the superstep.
func (c *computeSource) Run(ctx context.Context) error {
	if err := c.OpenOutputs(); err != nil {
		c.FailOutputs(err)
		return err
	}
	if err := c.run(ctx); err != nil {
		c.FailOutputs(err)
		return err
	}
	return c.CloseOutputs()
}

func (c *computeSource) run(ctx context.Context) error {
	rs, ps := c.rs, c.rs.parts[c.tc.Partition]

	// Open the combined-message stream of the previous superstep.
	var msgs tuple.RefSource = tuple.EmptySource{}
	if ps.msgPath != "" {
		rr, err := storage.OpenRunReader(ps.msgPath)
		if err != nil {
			return err
		}
		defer rr.Close()
		msgs = rr
	}

	// Vertex updates (flow D2) are spooled and applied after the scan:
	// the same-task deferral keeps the update mini-operator from
	// mutating pages the scan cursor has pinned.
	updates, err := storage.CreateRunFile(c.tc.TempPath("updates"))
	if err != nil {
		return err
	}
	defer updates.Delete()

	// The left-outer-join plan rebuilds the Vid live-vertex index for
	// the next superstep via a bulk load fed in vid order (Figure 8's
	// D11/D12 flows). AutoPlan maintains it under both plans so the
	// advisor may switch at any boundary.
	var vidLoader *storage.BulkLoader
	if rs.needVid() {
		vt, err := storage.CreateBTree(ps.node.BufferCache,
			rs.tempPath(ps.node, fmt.Sprintf("vid-v%d", rs.nextSeq())))
		if err != nil {
			return err
		}
		ps.nextVid = vt
		if vidLoader, err = vt.NewBulkLoader(1.0); err != nil {
			return err
		}
	}

	cc := &computeCtx{rs: rs, src: c, ss: c.ss}
	ps.liveVertices = 0
	cc.haltAll = true

	emit := func(vid, msgPayload, vertexBytes []byte) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return c.processVertex(cc, ps, updates, vidLoader, vid, msgPayload, vertexBytes)
	}

	if c.join == pregel.LeftOuterJoin {
		// Merge(choose()) of the Msg stream with the Vid index scanned
		// as (vid, NULL) tuples — the NullMsg function of Figure 8.
		var cur storage.IndexCursor
		if ps.vid != nil {
			if cur, err = storage.AsIndex(ps.vid).ScanFrom(nil); err != nil {
				return err
			}
		}
		vids := operators.NewNullMsgSource(cur)
		defer vids.Close()
		merged := operators.NewChooseMergeSource(msgs, vids)
		if err := operators.ProbeJoinLeftOuter(merged, ps.vertexIdx, emit); err != nil {
			return err
		}
	} else {
		if err := operators.FullOuterIndexJoin(msgs, ps.vertexIdx, emit); err != nil {
			return err
		}
	}

	// Apply the deferred vertex updates (flow D2).
	if err := updates.CloseWrite(); err != nil {
		return err
	}
	c.tc.AddIOBytes(updates.PayloadBytes() * 2)
	ur, err := storage.OpenRunReader(updates.Path())
	if err != nil {
		return err
	}
	defer ur.Close()
	for {
		r, err := ur.NextRef()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := ps.vertexIdx.Insert(r.Field(0), r.Field(1)); err != nil {
			return err
		}
	}
	if vidLoader != nil {
		if err := vidLoader.Finish(); err != nil {
			return err
		}
	}

	// Emit the pre-aggregated global-state contribution (stage one of
	// the two-stage aggregation).
	gsTuple := tuple.Tuple{
		tuple.EncodeBool(cc.haltAll),
		tuple.EncodeBool(cc.agg != nil),
		pregel.MarshalValue(cc.agg),
	}
	return c.Emit(portGS, gsTuple)
}

// processVertex applies the σ(halt=false || msg!=NULL) filter and the
// compute UDF to one joined row.
func (c *computeSource) processVertex(cc *computeCtx, ps *partitionState,
	updates *storage.RunFile, vidLoader *storage.BulkLoader,
	vid, msgPayload, vertexBytes []byte) error {

	rs := c.rs
	firstOfJob := c.ss == 1
	// σ(halt=false || msg!=NULL) fast path: a halted vertex with no
	// incoming message is scanned (the FOJ pays that I/O) but never
	// decoded or computed — the filter mini-operator of Section 5.3.2.
	if vertexBytes != nil && msgPayload == nil && !firstOfJob && vertexBytes[0] != 0 {
		return nil
	}
	var v *pregel.Vertex
	created := false
	if vertexBytes == nil {
		// Left-outer case of Figure 2: a message addressed to a vertex
		// that does not exist materializes it with NULL-ish fields.
		v = &pregel.Vertex{
			ID:    pregel.VertexID(tuple.DecodeUint64(vid)),
			Value: rs.codec.NewVertexValue(),
		}
		created = true
	} else {
		var err error
		v, err = rs.codec.DecodeVertex(pregel.VertexID(tuple.DecodeUint64(vid)), vertexBytes)
		if err != nil {
			return err
		}
	}

	hasMsg := msgPayload != nil
	firstStep := c.ss == 1 && rs.gs.Superstep == 0
	active := !v.Halted || hasMsg || firstStep
	if !active {
		// Keep a halted, messageless vertex as-is; it contributes
		// halt=true implicitly (no change to cc.haltAll).
		return nil
	}
	if hasMsg {
		v.Halted = false // message receipt reactivates the vertex
	}
	if firstStep {
		v.Halted = false
	}

	var msgVals []pregel.Value
	if hasMsg {
		var err error
		msgVals, err = rs.codec.DecodeMsgList(msgPayload)
		if err != nil {
			return err
		}
	}

	cc.vertexSent = 0
	if err := rs.job.Program.Compute(cc, v, msgVals); err != nil {
		return err
	}
	if cc.err != nil {
		return cc.err
	}

	// Persist the (possibly updated) vertex: D2.
	if err := updates.AppendFields(vid, rs.codec.EncodeVertex(v)); err != nil {
		return err
	}
	if created {
		ps.numVertices++
		ps.numEdges += int64(len(v.Edges))
	}

	// Global halt contribution: false unless the vertex halted with no
	// outbound messages.
	vertexHalts := v.Halted && cc.vertexSent == 0
	cc.haltAll = cc.haltAll && vertexHalts
	if !v.Halted {
		ps.liveVertices++
		if vidLoader != nil {
			if err := vidLoader.Add(vid, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// computeCtx implements pregel.Context for one partition task.
type computeCtx struct {
	rs  *runState
	src *computeSource
	ss  int64

	haltAll    bool
	agg        pregel.Value
	vertexSent int
	err        error
}

func (c *computeCtx) Superstep() int64   { return c.ss }
func (c *computeCtx) NumVertices() int64 { return c.rs.gs.NumVertices }
func (c *computeCtx) NumEdges() int64    { return c.rs.gs.NumEdges }

func (c *computeCtx) GlobalAggregate() pregel.Value {
	if c.rs.gs.Aggregate == nil || c.rs.job.Aggregator == nil {
		return nil
	}
	v, err := decodeAggValue(c.rs.job, c.rs.gs.Aggregate)
	if err != nil {
		c.err = err
		return nil
	}
	return v
}

func (c *computeCtx) Config(key string) string { return c.rs.job.Config[key] }

func (c *computeCtx) SendMessage(to pregel.VertexID, m pregel.Value) {
	var vid [8]byte
	binary.BigEndian.PutUint64(vid[:], uint64(to))
	if err := c.src.EmitFields(portMsgs, vid[:], pregel.EncodeMsgList(m)); err != nil && c.err == nil {
		c.err = err
	}
	c.vertexSent++
}

func (c *computeCtx) Aggregate(v pregel.Value) {
	if c.rs.job.Aggregator == nil {
		if c.err == nil {
			c.err = fmt.Errorf("pregelix: Aggregate called without Job.Aggregator")
		}
		return
	}
	if c.agg == nil {
		c.agg = c.rs.job.Aggregator.Merge(c.rs.job.Aggregator.Zero(), v)
		return
	}
	c.agg = c.rs.job.Aggregator.Merge(c.agg, v)
}

func (c *computeCtx) AddVertex(v *pregel.Vertex) {
	t := tuple.Tuple{
		tuple.EncodeUint64(uint64(v.ID)),
		{mutAdd},
		c.rs.codec.EncodeVertex(v),
	}
	if err := c.src.Emit(portMutations, t); err != nil && c.err == nil {
		c.err = err
	}
}

func (c *computeCtx) RemoveVertex(id pregel.VertexID) {
	t := tuple.Tuple{tuple.EncodeUint64(uint64(id)), {mutRemove}, nil}
	if err := c.src.Emit(portMutations, t); err != nil && c.err == nil {
		c.err = err
	}
}
