package wire

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"pregelix/internal/hyracks"
	"pregelix/internal/tuple"
)

// The connector failure-path suite: producer Fail(err) propagation and
// context cancellation mid-stream, over both the in-process channel
// transport and loopback TCP. Each case asserts (a) the error surfaces,
// (b) no goroutine is leaked, and (c) no frame is stranded outside the
// pool (tuple.LeasedFrames returns to its pre-run level — the lease
// check the frame pool's double-release panics complement).

// failHarness runs a job factory under one transport and checks
// goroutine and frame-lease hygiene around it.
type failHarness struct {
	t       *testing.T
	name    string
	cluster *hyracks.Cluster
	opts    hyracks.ExecOptions
}

func newFailHarness(t *testing.T, name string, nodes int) *failHarness {
	t.Helper()
	h := &failHarness{t: t, name: name, cluster: testCluster(t, nodes)}
	if name == "tcp" {
		tr, err := NewTCPTransport(Config{ListenAddr: "127.0.0.1:0", ForceWire: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		local := nodeSet(h.cluster, 0, nodes)
		peers := make(map[hyracks.NodeID]string)
		for id := range local {
			peers[id] = tr.Addr()
		}
		tr.SetPeers(peers, local)
		h.opts = hyracks.ExecOptions{Transport: tr, LocalNodes: local}
	}
	return h
}

// settle polls until cond holds (failure paths finish asynchronously:
// best-effort ERR writes, demux drops, pump teardown).
func settle(t *testing.T, what string, cond func() (bool, string)) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var detail string
	for time.Now().Before(deadline) {
		var ok bool
		if ok, detail = cond(); ok {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("%s never settled: %s", what, detail)
}

// run executes one job and asserts hygiene afterwards.
func (h *failHarness) run(build func() *hyracks.JobSpec, ctx context.Context, wantErr bool) error {
	h.t.Helper()
	leases := tuple.LeasedFrames()
	goroutines := runtime.NumGoroutine()

	_, err := hyracks.RunJobWith(ctx, h.cluster, build(), h.opts)
	if wantErr && err == nil {
		h.t.Fatal("job succeeded, expected failure")
	}
	if !wantErr && err != nil {
		h.t.Fatal(err)
	}

	settle(h.t, "frame leases", func() (bool, string) {
		now := tuple.LeasedFrames()
		return now == leases, fmt.Sprintf("%d leased frames, baseline %d", now, leases)
	})
	settle(h.t, "goroutines", func() (bool, string) {
		now := runtime.NumGoroutine()
		// Transport-level goroutines (accept loops, per-connection demux)
		// are process-lifetime by design; per-job goroutines must drain.
		// A warmed-up harness has all connections open already, so the
		// count must return to the pre-run level (small scheduler slack).
		return now <= goroutines+2, fmt.Sprintf("%d goroutines, baseline %d", now, goroutines)
	})
	return err
}

// warm runs one healthy job so the TCP harness has its connections and
// demux goroutines established before baselines are taken.
func (h *failHarness) warm() {
	h.t.Helper()
	col := &shuffleCollector{}
	_, err := hyracks.RunJobWith(context.Background(), h.cluster,
		shuffleSpec(h.name+"-warm", 2, 2, 100, false, col), h.opts)
	if err != nil {
		h.t.Fatal(err)
	}
}

// failSpec builds a shuffle whose source partition 0 fails after n
// tuples; with merging it exercises the materializing writer and spool.
func failSpec(name string, nodes int, merging bool, boom error) *hyracks.JobSpec {
	spec := &hyracks.JobSpec{Name: name}
	spec.AddOp(&hyracks.OperatorDesc{
		ID:         "src",
		Partitions: nodes,
		NewSource: func(tc *hyracks.TaskContext) (hyracks.SourceRuntime, error) {
			part := tc.Partition
			return &hyracks.FuncSource{F: func(ctx context.Context, b *hyracks.BaseSource) error {
				for i := 0; ; i++ {
					if part == 0 && i == 2000 {
						return boom
					}
					if i >= 4000 { // other senders finish normally
						return nil
					}
					if err := ctx.Err(); err != nil {
						return err
					}
					if err := b.EmitFields(0, tuple.EncodeUint64(uint64(i*nodes+part)), []byte("xxxxxxxx")); err != nil {
						return err
					}
				}
			}}, nil
		},
	})
	spec.AddOp(&hyracks.OperatorDesc{
		ID:         "sink",
		Partitions: nodes,
		NewRuntime: func(tc *hyracks.TaskContext) (hyracks.PushRuntime, error) {
			return &hyracks.FuncRuntime{OnRef: func(_ *hyracks.BaseRuntime, r tuple.TupleRef) error {
				return nil
			}}, nil
		},
	})
	cd := &hyracks.ConnectorDesc{
		From: "src", To: "sink",
		Type:        hyracks.MToNPartitioning,
		Partitioner: hyracks.HashPartitioner(0),
		// Tiny windows keep senders blocked on backpressure when the
		// failure hits, exercising the unblock paths.
		BufferFrames: 1,
	}
	if merging {
		cd.Type = hyracks.MToNPartitioningMerging
	}
	spec.Connect(cd)
	return spec
}

func TestConnectorFailPropagation(t *testing.T) {
	for _, transport := range []string{"chan", "tcp"} {
		for _, merging := range []bool{false, true} {
			name := fmt.Sprintf("%s-%s", transport, map[bool]string{false: "plain", true: "merging"}[merging])
			t.Run(name, func(t *testing.T) {
				const nodes = 3
				h := newFailHarness(t, transport, nodes)
				h.warm()
				boom := errors.New("boom: " + name)
				for round := 0; round < 3; round++ {
					err := h.run(func() *hyracks.JobSpec {
						return failSpec(fmt.Sprintf("fail-%s-%d", name, round), nodes, merging, boom)
					}, context.Background(), true)
					if !errors.Is(err, boom) && err.Error() != boom.Error() {
						t.Fatalf("round %d: got error %v, want %v", round, err, boom)
					}
				}
			})
		}
	}
}

// cancelSpec builds a shuffle that never terminates on its own: sources
// emit forever and the sink stalls, so only context cancellation can end
// the job.
func cancelSpec(name string, nodes int, stall chan struct{}) *hyracks.JobSpec {
	spec := &hyracks.JobSpec{Name: name}
	spec.AddOp(&hyracks.OperatorDesc{
		ID:         "src",
		Partitions: nodes,
		NewSource: func(tc *hyracks.TaskContext) (hyracks.SourceRuntime, error) {
			part := tc.Partition
			return &hyracks.FuncSource{F: func(ctx context.Context, b *hyracks.BaseSource) error {
				for i := 0; ; i++ {
					if err := ctx.Err(); err != nil {
						return err
					}
					if err := b.EmitFields(0, tuple.EncodeUint64(uint64(i*nodes+part)), []byte("payload")); err != nil {
						return err
					}
				}
			}}, nil
		},
	})
	spec.AddOp(&hyracks.OperatorDesc{
		ID:         "sink",
		Partitions: nodes,
		NewRuntime: func(tc *hyracks.TaskContext) (hyracks.PushRuntime, error) {
			return &hyracks.FuncRuntime{OnRef: func(_ *hyracks.BaseRuntime, r tuple.TupleRef) error {
				select {
				case <-stall: // held open until the test cancels
				case <-tc.Ctx.Done():
				}
				return tc.Ctx.Err()
			}}, nil
		},
	})
	spec.Connect(&hyracks.ConnectorDesc{
		From: "src", To: "sink",
		Type:         hyracks.MToNPartitioning,
		Partitioner:  hyracks.HashPartitioner(0),
		BufferFrames: 1,
	})
	return spec
}

func TestConnectorContextCancelMidStream(t *testing.T) {
	for _, transport := range []string{"chan", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			const nodes = 3
			h := newFailHarness(t, transport, nodes)
			h.warm()
			for round := 0; round < 3; round++ {
				ctx, cancel := context.WithCancel(context.Background())
				stall := make(chan struct{})
				go func() {
					time.Sleep(50 * time.Millisecond)
					cancel()
					close(stall)
				}()
				err := h.run(func() *hyracks.JobSpec {
					return cancelSpec(fmt.Sprintf("cancel-%s-%d", transport, round), nodes, stall)
				}, ctx, true)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("round %d: got %v, want context.Canceled", round, err)
				}
				cancel()
			}
		})
	}
}
