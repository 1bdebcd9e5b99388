package core

// Single-process side of the delta-refresh subsystem: the Runtime
// clones a sealed version's partitions locally, applies the mutations,
// arms the dirty frontier and reuses the ordinary superstep loop (with
// its checkpoint/recovery machinery) until convergence, then seals the
// refreshed clone as the base job's new query version. The JobManager
// wraps that in admission control so refreshes queue behind — and are
// resource-isolated from — ordinary submissions.

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"pregelix/internal/delta"
	"pregelix/internal/hyracks"
	"pregelix/internal/tuple"
	"pregelix/pregel"
)

// deltaRefresh incrementally refreshes the sealed result version
// fromVersion by applying muts (in order) and running delta supersteps
// until convergence. job must be the same program the sealed run
// executed, with job.Name set to the NEW version name — it must share
// the source's base job name, so sealing the refreshed result retires
// the source. The source version keeps serving queries until the seal.
func (r *Runtime) deltaRefresh(ctx context.Context, job *pregel.Job, fromVersion string, muts []delta.Mutation, ten tenancy) (*JobStats, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	if len(muts) == 0 {
		return nil, fmt.Errorf("core: delta refresh of %s: no mutations", fromVersion)
	}
	src, err := r.queries.acquire(fromVersion)
	if err != nil {
		return nil, err
	}
	defer src.release()

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
	rs.initParts()
	if len(rs.parts) != src.numParts {
		rs.cleanup()
		return rs.stats, fmt.Errorf("core: delta refresh of %s: cluster has %d partitions, sealed result has %d",
			fromVersion, len(rs.parts), src.numParts)
	}

	// Clone, mutate, arm — partition by partition.
	ingestStart := time.Now()
	routed := delta.Route(muts, src.numParts)
	for _, ps := range rs.parts {
		if err := ctx.Err(); err != nil {
			rs.cleanup()
			return rs.stats, err
		}
		idx := src.parts[ps.idx]
		if idx == nil {
			rs.cleanup()
			return rs.stats, fmt.Errorf("core: delta refresh of %s: partition %d not sealed", fromVersion, ps.idx)
		}
		img, err := sealedPartitionImage(idx, ps.idx, tuple.CompressOff)
		if err != nil {
			rs.cleanup()
			return rs.stats, fmt.Errorf("core: delta refresh of %s: imaging partition %d: %w", fromVersion, ps.idx, err)
		}
		if err := rs.cloneDeltaPartition(ps, &img); err != nil {
			rs.cleanup()
			return rs.stats, fmt.Errorf("core: delta refresh of %s: cloning partition %d: %w", fromVersion, ps.idx, err)
		}
		dirty := make(map[uint64]struct{})
		if err := rs.applyDeltaMutations(ps, routed[ps.idx], dirty); err != nil {
			rs.cleanup()
			return rs.stats, fmt.Errorf("core: delta refresh of %s: applying to partition %d: %w", fromVersion, ps.idx, err)
		}
		if err := rs.armDeltaPartition(ps, dirty); err != nil {
			rs.cleanup()
			return rs.stats, fmt.Errorf("core: delta refresh of %s: arming partition %d: %w", fromVersion, ps.idx, err)
		}
	}
	rs.seedDeltaGS()
	rs.stats.LoadDuration = time.Since(ingestStart)

	// Delta supersteps: the ordinary loop, starting at ss=2 (past both
	// superstep-1 full-activation gates) with checkpoint/recovery intact.
	runStart := time.Now()
	if err := rs.superstepLoop(ctx); err != nil {
		rs.cleanup()
		return rs.stats, err
	}
	rs.stats.RunDuration = time.Since(runStart)
	rs.stats.TotalDuration = time.Since(start)
	rs.stats.FinalState = GlobalStateView{
		Superstep:    rs.gs.Superstep,
		NumVertices:  rs.gs.NumVertices,
		NumEdges:     rs.gs.NumEdges,
		LiveVertices: rs.gs.LiveVertices,
		Aggregate:    rs.gs.Aggregate,
	}
	// Seal the refreshed clone; same base name → the source retires and
	// the base job's queries atomically switch to the new values.
	r.retainResults(rs)
	return rs.stats, nil
}

// SubmitDelta enqueues a delta refresh of the sealed version
// fromVersion under the manager's admission control. job must be the
// same program the sealed run executed (Name is overwritten); seq names
// the refreshed version "<fromVersion>@d<seq>" — callers pass the last
// journal sequence the drained run covers, so version names record
// exactly how much of the mutation stream each seal reflects.
func (m *JobManager) SubmitDelta(ctx context.Context, job *pregel.Job, fromVersion string, seq uint64, muts []delta.Mutation) (*JobHandle, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	if len(muts) == 0 {
		return nil, fmt.Errorf("core: delta refresh of %s: no mutations", fromVersion)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, hyracks.ErrSchedulerClosed
	}
	ticket, err := m.sched.Submit(job.Name)
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}

	tenantJob := *job
	tenantJob.Name = fmt.Sprintf("%s@d%d", fromVersion, seq)
	jobCtx, cancel := context.WithCancel(ctx)
	h := &JobHandle{
		id:     ticket.ID(),
		name:   tenantJob.Name,
		ticket: ticket,
		cancel: cancel,
		done:   make(chan struct{}),
	}
	m.handles[h.id] = h
	m.order = append(m.order, h.id)
	m.wg.Add(1)
	m.mu.Unlock()

	go m.runDelta(jobCtx, h, &tenantJob, fromVersion, muts)
	return h, nil
}

// runDelta drives one delta refresh through admission, execution,
// release and scratch cleanup — the refresh analog of runJob.
func (m *JobManager) runDelta(ctx context.Context, h *JobHandle, job *pregel.Job, fromVersion string, muts []delta.Mutation) {
	defer m.wg.Done()
	defer close(h.done)
	defer h.cancel()

	stopWatch := make(chan struct{})
	defer close(stopWatch)
	go func() {
		select {
		case <-h.ticket.Done():
			h.cancel()
		case <-stopWatch:
		}
	}()

	if err := h.ticket.Await(ctx); err != nil {
		h.finish(nil, err)
		return
	}

	runDir := filepath.Join("jobs", fmt.Sprintf("j%d", h.id))
	stats, err := m.rt.deltaRefresh(ctx, job, fromVersion, muts, tenancy{
		opMem:  h.ticket.OperatorMem(),
		runDir: runDir,
	})
	h.ticket.Release(err)
	if !m.rt.Queries().Retained(job.Name) {
		for _, n := range m.rt.Cluster.Nodes() {
			n.RemoveJobDir(runDir)
		}
	}
	h.finish(stats, err)
	m.evictFinished()
}
