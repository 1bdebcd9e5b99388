package hyracks

import (
	"context"
	"fmt"
	"sync"

	"pregelix/internal/tuple"
)

// JobResult carries post-run information for the statistics collector.
type JobResult struct {
	// ConnStats maps "from->to" connector labels to traffic statistics.
	// Each process counts the frames its own sender tasks flushed, so on
	// a multi-process run the cluster-wide totals are the sum over
	// participants.
	ConnStats map[string]*ConnStats
	// Assignment is the schedule the job ran with: operator ID to the
	// node of each partition. Identical on every participant of a
	// multi-process execution (the schedule is deterministic).
	Assignment map[string][]NodeID
}

// RunJob executes the job DAG on the cluster in-process and blocks until
// completion: every task runs in this process and connector streams are
// Go channels. The first task error cancels the whole job and is
// returned.
func RunJob(ctx context.Context, cluster *Cluster, spec *JobSpec) (*JobResult, error) {
	return RunJobWith(ctx, cluster, spec, ExecOptions{})
}

// RunJobWith executes the local share of the job DAG: tasks whose
// assigned node is in opts.LocalNodes run here; connector streams are
// carried by opts.Transport, which routes frames to tasks hosted by
// other processes. Multi-process execution runs RunJobWith with the same
// spec on every participant — the schedule is deterministic, so they
// agree on placement — and returns when the local tasks are done.
func RunJobWith(ctx context.Context, cluster *Cluster, spec *JobSpec, opts ExecOptions) (*JobResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	assign, err := Schedule(cluster, spec)
	if err != nil {
		return nil, err
	}

	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ex := &executor{
		spec:    spec,
		assign:  assign,
		opts:    opts,
		ctx:     jctx,
		cancel:  cancel,
		result:  &JobResult{ConnStats: make(map[string]*ConnStats)},
		inbound: make(map[string]*connState),
	}
	ex.result.Assignment = make(map[string][]NodeID, len(assign))
	for op, nodes := range assign {
		ids := make([]NodeID, len(nodes))
		for i, n := range nodes {
			ids[i] = n.ID
		}
		ex.result.Assignment[op] = ids
	}

	// Index connectors.
	outbound := make(map[string]map[int]*connState) // opID -> port -> conn
	fused := make(map[string]bool)
	for _, cd := range spec.Conns {
		cs := &connState{desc: cd, stats: &ConnStats{}}
		ex.result.ConnStats[cd.From+"->"+cd.To] = cs.stats
		if outbound[cd.From] == nil {
			outbound[cd.From] = make(map[int]*connState)
		}
		if _, dup := outbound[cd.From][cd.FromPort]; dup {
			return nil, fmt.Errorf("job %s: operator %s port %d has two connectors", spec.Name, cd.From, cd.FromPort)
		}
		outbound[cd.From][cd.FromPort] = cs
		if cd.Type != OneToOne {
			if _, dup := ex.inbound[cd.To]; dup {
				return nil, fmt.Errorf("job %s: operator %s has two non-fused inbound connectors", spec.Name, cd.To)
			}
			ex.inbound[cd.To] = cs
		} else {
			if fused[cd.To] {
				return nil, fmt.Errorf("job %s: operator %s fused twice", spec.Name, cd.To)
			}
			fused[cd.To] = true
		}
	}
	ex.outbound = outbound

	// Allocate transport streams for non-fused connectors. The cleanup
	// is registered first so a failure partway through the loop still
	// releases the connectors already opened (wire transports keep
	// per-connector registrations until closed).
	defer func() {
		for _, cs := range ex.inbound {
			if cs.trans != nil {
				cs.trans.Close()
			}
		}
	}()
	for _, cs := range ex.inbound {
		if err := cs.allocate(spec, assign, opts.transport()); err != nil {
			return nil, err
		}
	}

	// Launch receiver tasks, then source tasks (local nodes only).
	for _, op := range spec.Ops {
		if cs, ok := ex.inbound[op.ID]; ok {
			ex.launchReceivers(op, cs)
		}
	}
	for _, op := range spec.Ops {
		if op.NewSource != nil {
			ex.launchSources(op)
		}
	}

	ex.wg.Wait()
	if ex.err != nil {
		return ex.result, ex.err
	}
	return ex.result, nil
}

type connState struct {
	desc    *ConnectorDesc
	stats   *ConnStats
	trans   ConnTransport
	senders int
}

func (cs *connState) allocate(spec *JobSpec, assign map[string][]*NodeController, t Transport) error {
	from := spec.op(cs.desc.From)
	to := spec.op(cs.desc.To)
	buf := cs.desc.BufferFrames
	if buf <= 0 {
		buf = 8
	}
	cs.senders = from.Partitions
	nodeIDs := func(nodes []*NodeController) []NodeID {
		ids := make([]NodeID, len(nodes))
		for i, n := range nodes {
			ids[i] = n.ID
		}
		return ids
	}
	ct, err := t.OpenConn(ConnPlacement{
		ID:            ConnID{Job: spec.Name, Conn: cs.desc.From + "->" + cs.desc.To},
		Senders:       from.Partitions,
		Receivers:     to.Partitions,
		BufferFrames:  buf,
		Merging:       cs.desc.Type == MToNPartitioningMerging,
		SenderNodes:   nodeIDs(assign[from.ID]),
		ReceiverNodes: nodeIDs(assign[to.ID]),
		Stats:         cs.stats,
	})
	if err != nil {
		return err
	}
	cs.trans = ct
	return nil
}

type executor struct {
	spec     *JobSpec
	assign   map[string][]*NodeController
	opts     ExecOptions
	ctx      context.Context
	cancel   context.CancelFunc
	result   *JobResult
	inbound  map[string]*connState
	outbound map[string]map[int]*connState

	wg      sync.WaitGroup
	errOnce sync.Once
	err     error
}

func (ex *executor) fail(err error) {
	ex.errOnce.Do(func() {
		ex.err = err
		ex.cancel()
	})
}

func (ex *executor) taskContext(op *OperatorDesc, partition int, node *NodeController) *TaskContext {
	opMem := node.OperatorMem
	if ex.spec.OperatorMemBytes > 0 {
		opMem = ex.spec.OperatorMemBytes
	}
	return &TaskContext{
		Ctx:           ex.ctx,
		Node:          node,
		JobName:       ex.spec.Name,
		OperatorID:    op.ID,
		Partition:     partition,
		NumPartitions: op.Partitions,
		OperatorMem:   opMem,
		RunDir:        ex.spec.RunDir,
		ioCounter:     ex.spec.IOCounter,
	}
}

// buildOutputs constructs the output writer for every port of op's task.
func (ex *executor) buildOutputs(op *OperatorDesc, partition int, node *NodeController) ([]FrameWriter, error) {
	ports := ex.outbound[op.ID]
	if len(ports) == 0 {
		return nil, nil
	}
	maxPort := 0
	for p := range ports {
		if p > maxPort {
			maxPort = p
		}
	}
	outs := make([]FrameWriter, maxPort+1)
	for i := range outs {
		cs, ok := ports[i]
		if !ok {
			outs[i] = discardWriter{}
			continue
		}
		w, err := ex.buildWriter(cs, op, partition, node)
		if err != nil {
			return nil, err
		}
		outs[i] = w
	}
	return outs, nil
}

// sendPorts returns the sender endpoints of one producer partition, one
// per consumer partition.
func (ex *executor) sendPorts(cs *connState, sender, receivers int) []SendPort {
	ports := make([]SendPort, receivers)
	for r := range ports {
		ports[r] = cs.trans.SendPort(sender, r)
	}
	return ports
}

// buildWriter creates the sender endpoint of a connector for one producer
// task, fusing OneToOne consumers in-process.
func (ex *executor) buildWriter(cs *connState, fromOp *OperatorDesc, partition int, node *NodeController) (FrameWriter, error) {
	cd := cs.desc
	toOp := ex.spec.op(cd.To)
	switch cd.Type {
	case OneToOne:
		// Fuse: instantiate the consumer runtime in this task.
		return ex.buildRuntime(toOp, partition, node)
	case MToNPartitioning:
		var w FrameWriter = &partitionSender{ctx: ex.ctx, ports: ex.sendPorts(cs, partition, toOp.Partitions), part: cd.Partitioner, stats: cs.stats}
		if cd.Materialized {
			w = newMaterializingWriter(ex.ctx, node,
				node.TempPathIn(ex.spec.RunDir, fmt.Sprintf("%s-%s-p%d-mat", ex.spec.Name, cd.From, partition)), ex.spec.IOCounter, w)
		}
		return w, nil
	case MToNPartitioningMerging:
		inner := &partitionSender{ctx: ex.ctx, ports: ex.sendPorts(cs, partition, toOp.Partitions), part: cd.Partitioner, stats: cs.stats}
		// Merging connectors always use the sender-side materializing
		// pipelined policy to avoid deadlock (Section 5.3.1).
		return newMaterializingWriter(ex.ctx, node,
			node.TempPathIn(ex.spec.RunDir, fmt.Sprintf("%s-%s-p%d-merge", ex.spec.Name, cd.From, partition)), ex.spec.IOCounter, inner), nil
	case ReduceToOne:
		toZero := func(_ tuple.TupleRef, _ int) int { return 0 }
		return &partitionSender{ctx: ex.ctx, ports: ex.sendPorts(cs, partition, 1), part: toZero, stats: cs.stats}, nil
	default:
		return nil, fmt.Errorf("job %s: unknown connector type %v", ex.spec.Name, cd.Type)
	}
}

// buildRuntime instantiates op's PushRuntime for one partition with its
// outputs wired (recursively fusing OneToOne chains).
func (ex *executor) buildRuntime(op *OperatorDesc, partition int, node *NodeController) (PushRuntime, error) {
	if op.NewRuntime == nil {
		return nil, fmt.Errorf("job %s: operator %s used as consumer but has no NewRuntime", ex.spec.Name, op.ID)
	}
	tc := ex.taskContext(op, partition, node)
	rt, err := op.NewRuntime(tc)
	if err != nil {
		return nil, err
	}
	outs, err := ex.buildOutputs(op, partition, node)
	if err != nil {
		return nil, err
	}
	rt.SetOutputs(outs)
	return rt, nil
}

func (ex *executor) launchReceivers(op *OperatorDesc, cs *connState) {
	nodes := ex.assign[op.ID]
	for p := 0; p < op.Partitions; p++ {
		p, node := p, nodes[p]
		if !ex.opts.Local(node.ID) {
			continue // hosted by another process
		}
		ex.wg.Add(1)
		go func() {
			defer ex.wg.Done()
			if node.Failed() {
				ex.fail(&NodeFailure{node.ID})
				return
			}
			rt, err := ex.buildRuntime(op, p, node)
			if err != nil {
				ex.fail(err)
				return
			}
			switch cs.desc.Type {
			case MToNPartitioningMerging:
				ports := make([]RecvPort, cs.senders)
				for s := 0; s < cs.senders; s++ {
					ports[s] = cs.trans.RecvMerge(s, p)
				}
				if err := runMergingReceiver(ex.ctx, rt, ports); err != nil {
					ex.fail(err)
				}
			default:
				if err := runPlainReceiver(ex.ctx, rt, cs.trans.RecvPlain(p), cs.senders); err != nil {
					ex.fail(err)
				}
			}
		}()
	}
}

func (ex *executor) launchSources(op *OperatorDesc) {
	nodes := ex.assign[op.ID]
	for p := 0; p < op.Partitions; p++ {
		p, node := p, nodes[p]
		if !ex.opts.Local(node.ID) {
			continue // hosted by another process
		}
		ex.wg.Add(1)
		go func() {
			defer ex.wg.Done()
			if node.Failed() {
				ex.fail(&NodeFailure{node.ID})
				return
			}
			tc := ex.taskContext(op, p, node)
			src, err := op.NewSource(tc)
			if err != nil {
				ex.fail(err)
				return
			}
			outs, err := ex.buildOutputs(op, p, node)
			if err != nil {
				ex.fail(err)
				return
			}
			src.SetOutputs(outs)
			if err := src.Run(ex.ctx); err != nil {
				ex.fail(err)
			}
		}()
	}
}
