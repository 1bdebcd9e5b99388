package hyracks

import (
	"context"
	"sync"
	"testing"

	"pregelix/internal/tuple"
)

// TestConnectorFramePoolNoReuseWhileHeld floods a many-to-many
// partitioning connector with enough data that sender-side frames cycle
// through the pool many times while receivers are still draining. Every
// tuple carries a payload derived from its key; any frame recycled while
// a consumer still holds it shows up as a payload/key mismatch (and the
// pool's lease assertions panic on double release). Run under -race this
// also checks the handoff ordering between senders and receivers.
func TestConnectorFramePoolNoReuseWhileHeld(t *testing.T) {
	const (
		senders   = 4
		receivers = 4
		perSender = 20000
	)
	cluster := testCluster(t, senders)

	payload := func(vid uint64) []byte {
		p := make([]byte, 24)
		for i := range p {
			p[i] = byte(vid>>uint(i%8*8)) ^ byte(i)
		}
		return p
	}

	var mu sync.Mutex
	sums := make([]uint64, receivers)
	counts := make([]int, receivers)

	spec := &JobSpec{Name: "pool-race"}
	spec.AddOp(&OperatorDesc{
		ID:         "src",
		Partitions: senders,
		NewSource: func(tc *TaskContext) (SourceRuntime, error) {
			part := tc.Partition
			return &FuncSource{F: func(ctx context.Context, b *BaseSource) error {
				for i := 0; i < perSender; i++ {
					vid := uint64(part*perSender + i)
					if err := b.EmitFields(0, tuple.EncodeUint64(vid), payload(vid)); err != nil {
						return err
					}
				}
				return nil
			}}, nil
		},
	})
	spec.AddOp(&OperatorDesc{
		ID:         "sink",
		Partitions: receivers,
		NewRuntime: func(tc *TaskContext) (PushRuntime, error) {
			p := tc.Partition
			return &FuncRuntime{OnRef: func(_ *BaseRuntime, r tuple.TupleRef) error {
				vid := tuple.DecodeUint64(r.Field(0))
				want := payload(vid)
				got := r.Field(1)
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("vid %d payload corrupted at byte %d", vid, i)
						break
					}
				}
				mu.Lock()
				sums[p] += vid
				counts[p]++
				mu.Unlock()
				return nil
			}}, nil
		},
	})
	spec.Connect(&ConnectorDesc{
		From: "src", To: "sink",
		Type:        MToNPartitioning,
		Partitioner: HashPartitioner(0),
		// A tiny channel buffer maximizes pool churn under backpressure.
		BufferFrames: 1,
	})

	if _, err := RunJob(context.Background(), cluster, spec); err != nil {
		t.Fatal(err)
	}

	total := 0
	var sum uint64
	for p := range counts {
		total += counts[p]
		sum += sums[p]
	}
	const n = senders * perSender
	if total != n {
		t.Fatalf("received %d tuples, want %d", total, n)
	}
	if want := uint64(n) * uint64(n-1) / 2; sum != want {
		t.Fatalf("vid checksum %d want %d", sum, want)
	}
}

// TestMergingConnectorFramePool drives the materializing+merging path
// (spool files, pooled reader frames, ref-based merge heap) and checks
// global order and completeness of the merged stream.
func TestMergingConnectorFramePool(t *testing.T) {
	const (
		senders   = 3
		receivers = 2
		perSender = 8000
	)
	cluster := testCluster(t, senders)

	var mu sync.Mutex
	perPart := make(map[int][]uint64)

	spec := &JobSpec{Name: "pool-merge"}
	spec.AddOp(&OperatorDesc{
		ID:         "src",
		Partitions: senders,
		NewSource: func(tc *TaskContext) (SourceRuntime, error) {
			part := tc.Partition
			return &FuncSource{F: func(ctx context.Context, b *BaseSource) error {
				// Each sender emits an ascending (sorted) key sequence.
				for i := 0; i < perSender; i++ {
					vid := uint64(i*senders + part)
					if err := b.EmitFields(0, tuple.EncodeUint64(vid)); err != nil {
						return err
					}
				}
				return nil
			}}, nil
		},
	})
	spec.AddOp(&OperatorDesc{
		ID:         "sink",
		Partitions: receivers,
		NewRuntime: func(tc *TaskContext) (PushRuntime, error) {
			p := tc.Partition
			return &FuncRuntime{OnRef: func(_ *BaseRuntime, r tuple.TupleRef) error {
				mu.Lock()
				perPart[p] = append(perPart[p], tuple.DecodeUint64(r.Field(0)))
				mu.Unlock()
				return nil
			}}, nil
		},
	})
	spec.Connect(&ConnectorDesc{
		From: "src", To: "sink",
		Type:         MToNPartitioningMerging,
		Partitioner:  HashPartitioner(0),
		BufferFrames: 1,
	})

	if _, err := RunJob(context.Background(), cluster, spec); err != nil {
		t.Fatal(err)
	}

	total := 0
	for p, vids := range perPart {
		total += len(vids)
		for i := 1; i < len(vids); i++ {
			if vids[i-1] > vids[i] {
				t.Fatalf("partition %d not globally sorted at %d: %d > %d", p, i, vids[i-1], vids[i])
			}
		}
	}
	if want := senders * perSender; total != want {
		t.Fatalf("received %d tuples, want %d", total, want)
	}
}
