package wire

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"pregelix/internal/hyracks"
	"pregelix/internal/tuple"
)

func testCluster(t *testing.T, n int) *hyracks.Cluster {
	t.Helper()
	c, err := hyracks.NewCluster(t.TempDir(), n, hyracks.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func nodeSet(c *hyracks.Cluster, from, to int) map[hyracks.NodeID]bool {
	out := make(map[hyracks.NodeID]bool)
	for i, n := range c.Nodes() {
		if i >= from && i < to {
			out[n.ID] = true
		}
	}
	return out
}

// shuffleSpec builds a src -> sink m-to-n partitioning job whose sink
// checksums what it receives.
type shuffleCollector struct {
	mu     sync.Mutex
	sum    uint64
	count  int
	byPart map[int]int
}

func shuffleSpec(name string, senders, receivers, perSender int, merging bool, col *shuffleCollector) *hyracks.JobSpec {
	spec := &hyracks.JobSpec{Name: name}
	spec.AddOp(&hyracks.OperatorDesc{
		ID:         "src",
		Partitions: senders,
		NewSource: func(tc *hyracks.TaskContext) (hyracks.SourceRuntime, error) {
			part := tc.Partition
			return &hyracks.FuncSource{F: func(ctx context.Context, b *hyracks.BaseSource) error {
				for i := 0; i < perSender; i++ {
					var vid uint64
					if merging {
						vid = uint64(i*senders + part) // ascending per sender
					} else {
						vid = uint64(part*perSender + i)
					}
					if err := b.EmitFields(0, tuple.EncodeUint64(vid), []byte("payload")); err != nil {
						return err
					}
				}
				return nil
			}}, nil
		},
	})
	spec.AddOp(&hyracks.OperatorDesc{
		ID:         "sink",
		Partitions: receivers,
		NewRuntime: func(tc *hyracks.TaskContext) (hyracks.PushRuntime, error) {
			p := tc.Partition
			return &hyracks.FuncRuntime{OnRef: func(_ *hyracks.BaseRuntime, r tuple.TupleRef) error {
				vid := tuple.DecodeUint64(r.Field(0))
				col.mu.Lock()
				col.sum += vid
				col.count++
				if col.byPart != nil {
					col.byPart[p]++
				}
				col.mu.Unlock()
				return nil
			}}, nil
		},
	})
	cd := &hyracks.ConnectorDesc{
		From: "src", To: "sink",
		Type:         hyracks.MToNPartitioning,
		Partitioner:  hyracks.HashPartitioner(0),
		BufferFrames: 2, // small window to exercise credit backpressure
	}
	if merging {
		cd.Type = hyracks.MToNPartitioningMerging
	}
	spec.Connect(cd)
	return spec
}

// TestForceWireShuffle pushes a partitioned shuffle through loopback TCP
// in a single process and checks it matches the channel transport
// tuple-for-tuple (counts, checksum, ConnStats).
func TestForceWireShuffle(t *testing.T) {
	const senders, receivers, perSender = 4, 4, 5000
	cluster := testCluster(t, senders)

	chanCol := &shuffleCollector{}
	chanRes, err := hyracks.RunJob(context.Background(), cluster,
		shuffleSpec("shuffle-chan", senders, receivers, perSender, false, chanCol))
	if err != nil {
		t.Fatal(err)
	}

	tr, err := NewTCPTransport(Config{
		ListenAddr: "127.0.0.1:0",
		ForceWire:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	local := nodeSet(cluster, 0, senders)
	peers := make(map[hyracks.NodeID]string)
	for id := range local {
		peers[id] = tr.Addr()
	}
	tr.SetPeers(peers, local)

	wireCol := &shuffleCollector{}
	wireRes, err := hyracks.RunJobWith(context.Background(), cluster,
		shuffleSpec("shuffle-wire", senders, receivers, perSender, false, wireCol),
		hyracks.ExecOptions{Transport: tr, LocalNodes: local})
	if err != nil {
		t.Fatal(err)
	}

	if wireCol.count != chanCol.count || wireCol.sum != chanCol.sum {
		t.Fatalf("wire saw (%d tuples, sum %d), chan saw (%d, %d)",
			wireCol.count, wireCol.sum, chanCol.count, chanCol.sum)
	}
	cs, ws := chanRes.ConnStats["src->sink"], wireRes.ConnStats["src->sink"]
	if cs.Tuples() != ws.Tuples() || cs.Bytes() != ws.Bytes() {
		t.Fatalf("conn stats diverge: chan (%d tuples, %d bytes), wire (%d, %d)",
			cs.Tuples(), cs.Bytes(), ws.Tuples(), ws.Bytes())
	}
}

// twoProc builds two transports that split the cluster's nodes in half,
// simulating two worker processes on loopback.
func twoProc(t *testing.T, clusterA, clusterB *hyracks.Cluster) (a, b *TCPTransport, localA, localB map[hyracks.NodeID]bool) {
	t.Helper()
	n := len(clusterA.Nodes())
	localA = nodeSet(clusterA, 0, n/2)
	localB = nodeSet(clusterB, n/2, n)
	var err error
	a, err = NewTCPTransport(Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	b, err = NewTCPTransport(Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	peers := make(map[hyracks.NodeID]string)
	for id := range localA {
		peers[id] = a.Addr()
	}
	for id := range localB {
		peers[id] = b.Addr()
	}
	a.SetPeers(peers, localA)
	b.SetPeers(peers, localB)
	return a, b, localA, localB
}

// TestTwoProcessShuffle runs the same job spec in two executor instances
// that each own half the nodes, with the shuffle crossing real sockets.
func TestTwoProcessShuffle(t *testing.T) {
	for _, merging := range []bool{false, true} {
		name := "plain"
		if merging {
			name = "merging"
		}
		t.Run(name, func(t *testing.T) {
			const senders, receivers, perSender = 4, 4, 4000
			dirA, dirB := t.TempDir(), t.TempDir()
			clusterA, err := hyracks.NewCluster(dirA, senders, hyracks.NodeConfig{})
			if err != nil {
				t.Fatal(err)
			}
			clusterB, err := hyracks.NewCluster(dirB, senders, hyracks.NodeConfig{})
			if err != nil {
				t.Fatal(err)
			}
			trA, trB, localA, localB := twoProc(t, clusterA, clusterB)

			col := &shuffleCollector{byPart: make(map[int]int)}
			specName := "dist-" + name
			var wg sync.WaitGroup
			errs := make([]error, 2)
			run := func(i int, cluster *hyracks.Cluster, tr *TCPTransport, local map[hyracks.NodeID]bool) {
				defer wg.Done()
				_, errs[i] = hyracks.RunJobWith(context.Background(), cluster,
					shuffleSpec(specName, senders, receivers, perSender, merging, col),
					hyracks.ExecOptions{Transport: tr, LocalNodes: local})
			}
			wg.Add(2)
			go run(0, clusterA, trA, localA)
			go run(1, clusterB, trB, localB)
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("process %d: %v", i, err)
				}
			}

			n := senders * perSender
			if col.count != n {
				t.Fatalf("received %d tuples, want %d", col.count, n)
			}
			if want := uint64(n) * uint64(n-1) / 2; col.sum != want {
				t.Fatalf("checksum %d, want %d", col.sum, want)
			}
			// Every receiver partition, wherever it lives, saw traffic.
			if len(col.byPart) != receivers {
				t.Fatalf("only %d of %d receiver partitions saw tuples", len(col.byPart), receivers)
			}
		})
	}
}

// TestTwoProcessErrorPropagation fails a source in process A and expects
// the error to reach the receivers hosted by process B in-band.
func TestTwoProcessErrorPropagation(t *testing.T) {
	const nodes = 4
	dirA, dirB := t.TempDir(), t.TempDir()
	clusterA, err := hyracks.NewCluster(dirA, nodes, hyracks.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	clusterB, err := hyracks.NewCluster(dirB, nodes, hyracks.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	trA, trB, localA, localB := twoProc(t, clusterA, clusterB)

	boom := errors.New("boom: injected source failure")
	spec := func() *hyracks.JobSpec {
		s := &hyracks.JobSpec{Name: "dist-fail"}
		s.AddOp(&hyracks.OperatorDesc{
			ID:         "src",
			Partitions: nodes,
			NewSource: func(tc *hyracks.TaskContext) (hyracks.SourceRuntime, error) {
				part := tc.Partition
				return &hyracks.FuncSource{F: func(ctx context.Context, b *hyracks.BaseSource) error {
					for i := 0; ; i++ {
						if part == 0 && i == 500 {
							return boom
						}
						if err := ctx.Err(); err != nil {
							return err
						}
						if err := b.EmitFields(0, tuple.EncodeUint64(uint64(i)), nil); err != nil {
							return err
						}
					}
				}}, nil
			},
		})
		s.AddOp(&hyracks.OperatorDesc{
			ID:         "sink",
			Partitions: nodes,
			NewRuntime: func(tc *hyracks.TaskContext) (hyracks.PushRuntime, error) {
				return &hyracks.FuncRuntime{}, nil
			},
		})
		s.Connect(&hyracks.ConnectorDesc{
			From: "src", To: "sink",
			Type: hyracks.MToNPartitioning, Partitioner: hyracks.HashPartitioner(0),
			BufferFrames: 2,
		})
		return s
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, errs[0] = hyracks.RunJobWith(context.Background(), clusterA, spec(),
			hyracks.ExecOptions{Transport: trA, LocalNodes: localA})
	}()
	go func() {
		defer wg.Done()
		_, errs[1] = hyracks.RunJobWith(context.Background(), clusterB, spec(),
			hyracks.ExecOptions{Transport: trB, LocalNodes: localB})
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("two-process failure run wedged:\n%s", buf[:runtime.Stack(buf, true)])
	}
	// The failing process reports the error; node 0 lives in process A.
	if errs[0] == nil || errs[0].Error() != boom.Error() {
		t.Fatalf("process A error = %v, want %v", errs[0], boom)
	}
	// Process B's receivers must observe the failure (in-band ERR or its
	// own sender streams resetting) rather than hanging; either way its
	// run ends with a non-nil error.
	if errs[1] == nil {
		t.Fatal("process B returned nil error after remote failure")
	}
}

// TestStreamResetUnblocksSender verifies that closing the receiving side
// of a connector resets blocked remote senders instead of leaving them
// waiting for credits.
func TestStreamResetUnblocksSender(t *testing.T) {
	recvT, err := NewTCPTransport(Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer recvT.Close()
	sendT, err := NewTCPTransport(Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer sendT.Close()

	nodes := []hyracks.NodeID{"nc1", "nc2"}
	peers := map[hyracks.NodeID]string{nodes[0]: sendT.Addr(), nodes[1]: recvT.Addr()}
	sendT.SetPeers(peers, map[hyracks.NodeID]bool{nodes[0]: true})
	recvT.SetPeers(peers, map[hyracks.NodeID]bool{nodes[1]: true})

	placement := hyracks.ConnPlacement{
		ID:            hyracks.ConnID{Job: "reset-job", Conn: "a->b"},
		Senders:       1,
		Receivers:     1,
		BufferFrames:  2,
		SenderNodes:   []hyracks.NodeID{nodes[0]},
		ReceiverNodes: []hyracks.NodeID{nodes[1]},
	}
	sendConn, err := sendT.OpenConn(placement)
	if err != nil {
		t.Fatal(err)
	}
	defer sendConn.Close()
	recvConn, err := recvT.OpenConn(placement)
	if err != nil {
		t.Fatal(err)
	}

	port := sendConn.SendPort(0, 0)
	frame := func() *tuple.Frame {
		f := tuple.GetFrame()
		a := tuple.NewFrameAppender(f)
		a.Append([]byte("x"))
		return f
	}
	// The receiver never drains, so the sender must run out of credits
	// after the stream's bounded window (inbox + shared queue) fills.
	const maxWindow = 16 // well above 2*BufferFrames
	sent := make(chan int, 1)
	sendErr := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			if err := port.Send(context.Background(), hyracks.Packet{Frame: frame()}); err != nil {
				sent <- i
				sendErr <- err
				return
			}
		}
	}()
	select {
	case <-sendErr:
		t.Fatalf("sender failed before the receiver closed (sent %d)", <-sent)
	case <-time.After(300 * time.Millisecond):
		// blocked on credits, as intended
	}
	recvConn.Close() // receiver goes away: RESET expected
	select {
	case err := <-sendErr:
		if !errors.Is(err, ErrStreamReset) {
			t.Fatalf("blocked send failed with %v, want ErrStreamReset", err)
		}
		if n := <-sent; n > maxWindow {
			t.Fatalf("sender shipped %d frames into a stalled stream; backpressure window leaks", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked sender not unblocked by receiver close")
	}
}

// TestManyStreamsOneConn checks stream multiplexing: many connectors of
// many jobs between the same process pair share one TCP connection.
func TestManyStreamsOneConn(t *testing.T) {
	const jobs = 8
	dirA, dirB := t.TempDir(), t.TempDir()
	clusterA, err := hyracks.NewCluster(dirA, 2, hyracks.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	clusterB, err := hyracks.NewCluster(dirB, 2, hyracks.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	trA, trB, localA, localB := twoProc(t, clusterA, clusterB)

	var wg sync.WaitGroup
	errs := make([]error, 2*jobs)
	for j := 0; j < jobs; j++ {
		col := &shuffleCollector{}
		spec := fmt.Sprintf("multi-%d", j)
		wg.Add(2)
		go func(j int) {
			defer wg.Done()
			_, errs[2*j] = hyracks.RunJobWith(context.Background(), clusterA,
				shuffleSpec(spec, 2, 2, 1000, false, col),
				hyracks.ExecOptions{Transport: trA, LocalNodes: localA})
		}(j)
		go func(j int) {
			defer wg.Done()
			_, errs[2*j+1] = hyracks.RunJobWith(context.Background(), clusterB,
				shuffleSpec(spec, 2, 2, 1000, false, col),
				hyracks.ExecOptions{Transport: trB, LocalNodes: localB})
		}(j)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}
