package wire

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"pregelix/internal/hyracks"
	"pregelix/internal/tuple"
)

// wireShuffle runs the standard shuffle spec over a ForceWire transport
// with the given compression mode and returns the collector plus the
// connector stats.
func wireShuffle(t *testing.T, name string, mode tuple.CompressMode) (*shuffleCollector, *hyracks.ConnStats) {
	t.Helper()
	const senders, receivers, perSender = 4, 4, 5000
	cluster := testCluster(t, senders)
	tr, err := NewTCPTransport(Config{
		ListenAddr: "127.0.0.1:0",
		ForceWire:  true,
		Compress:   mode,
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
	col := &shuffleCollector{}
	res, err := hyracks.RunJobWith(context.Background(), cluster,
		shuffleSpec(name, senders, receivers, perSender, false, col),
		hyracks.ExecOptions{Transport: tr, LocalNodes: local})
	if err != nil {
		t.Fatal(err)
	}
	return col, res.ConnStats["src->sink"]
}

// TestCompressedShuffleParity runs the same shuffle with every
// compression mode and requires identical results, with flate and auto
// shipping measurably fewer wire bytes than off.
func TestCompressedShuffleParity(t *testing.T) {
	offCol, offStats := wireShuffle(t, "shuffle-comp-off", tuple.CompressOff)
	if offStats.WireBytes() == 0 {
		t.Fatal("wire run recorded no on-wire bytes")
	}
	for _, mode := range []tuple.CompressMode{tuple.CompressFlate, tuple.CompressAuto} {
		col, stats := wireShuffle(t, "shuffle-comp-"+mode.String(), mode)
		if col.count != offCol.count || col.sum != offCol.sum {
			t.Fatalf("%v saw (%d tuples, sum %d), off saw (%d, %d)",
				mode, col.count, col.sum, offCol.count, offCol.sum)
		}
		if stats.Tuples() != offStats.Tuples() || stats.Bytes() != offStats.Bytes() {
			t.Fatalf("%v payload stats diverge: (%d tuples, %d bytes) vs off (%d, %d)",
				mode, stats.Tuples(), stats.Bytes(), offStats.Tuples(), offStats.Bytes())
		}
		// The shuffle's sequential-vid + constant-payload tuples must
		// compress by well over the 30%% acceptance bar.
		if w, o := stats.WireBytes(), offStats.WireBytes(); w*10 > o*7 {
			t.Fatalf("%v shipped %d wire bytes, off shipped %d — less than 30%% saved", mode, w, o)
		}
	}
}

// TestMixedCompressionNegotiation splits the shuffle across two
// processes where only one compresses: every stream must downgrade to
// raw frames and the job must still produce exact results — the
// OPEN-negotiation interop the mixed-cluster test exercises end to end
// at the core layer.
func TestMixedCompressionNegotiation(t *testing.T) {
	cases := []struct {
		name         string
		modeA, modeB tuple.CompressMode
	}{
		{"compressing-sender-raw-receiver", tuple.CompressAuto, tuple.CompressOff},
		{"raw-sender-compressing-receiver", tuple.CompressOff, tuple.CompressAuto},
		{"both-compressing", tuple.CompressFlate, tuple.CompressAuto},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
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
			localA := nodeSet(clusterA, 0, senders/2)
			localB := nodeSet(clusterB, senders/2, senders)
			trA, err := NewTCPTransport(Config{ListenAddr: "127.0.0.1:0", Compress: tc.modeA})
			if err != nil {
				t.Fatal(err)
			}
			defer trA.Close()
			trB, err := NewTCPTransport(Config{ListenAddr: "127.0.0.1:0", Compress: tc.modeB})
			if err != nil {
				t.Fatal(err)
			}
			defer trB.Close()
			peers := make(map[hyracks.NodeID]string)
			for id := range localA {
				peers[id] = trA.Addr()
			}
			for id := range localB {
				peers[id] = trB.Addr()
			}
			trA.SetPeers(peers, localA)
			trB.SetPeers(peers, localB)

			col := &shuffleCollector{byPart: make(map[int]int)}
			specName := "mixed-" + tc.name
			var wg sync.WaitGroup
			errs := make([]error, 2)
			wg.Add(2)
			go func() {
				defer wg.Done()
				_, errs[0] = hyracks.RunJobWith(context.Background(), clusterA,
					shuffleSpec(specName, senders, receivers, perSender, false, col),
					hyracks.ExecOptions{Transport: trA, LocalNodes: localA})
			}()
			go func() {
				defer wg.Done()
				_, errs[1] = hyracks.RunJobWith(context.Background(), clusterB,
					shuffleSpec(specName, senders, receivers, perSender, false, col),
					hyracks.ExecOptions{Transport: trB, LocalNodes: localB})
			}()
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
		})
	}
}

// dialData opens a raw data-plane connection speaking the protocol by
// hand, so malformed messages can be injected.
func dialData(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write([]byte(dataMagic)); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestCorruptCompressedFrameDropsConn handshakes a compressed stream by
// hand, sends a DATA message whose flate body is garbage, and requires
// the receiver to drop the connection instead of delivering a bogus
// frame (or crashing).
func TestCorruptCompressedFrameDropsConn(t *testing.T) {
	recvT, err := NewTCPTransport(Config{ListenAddr: "127.0.0.1:0", Compress: tuple.CompressAuto})
	if err != nil {
		t.Fatal(err)
	}
	defer recvT.Close()
	sender, receiver := hyracks.NodeID("nc1"), hyracks.NodeID("nc2")
	recvT.SetPeers(map[hyracks.NodeID]string{sender: "", receiver: recvT.Addr()},
		map[hyracks.NodeID]bool{receiver: true})
	rc, err := recvT.OpenConn(hyracks.ConnPlacement{
		ID:            hyracks.ConnID{Job: "corrupt-job", Conn: "a->b"},
		Senders:       1,
		Receivers:     1,
		BufferFrames:  2,
		SenderNodes:   []hyracks.NodeID{sender},
		ReceiverNodes: []hyracks.NodeID{receiver},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	conn := dialData(t, recvT.Addr())
	open, _ := json.Marshal(openInfo{Job: "corrupt-job", Conn: "a->b", Sender: 0, Receiver: 0, Buffer: 2, Comp: "auto"})
	var hdr [9]byte
	writeRaw := func(typ byte, stream uint32, payload []byte) {
		hdr[0] = typ
		binary.LittleEndian.PutUint32(hdr[1:], stream)
		binary.LittleEndian.PutUint32(hdr[5:], uint32(len(payload)))
		if _, err := conn.Write(append(hdr[:], payload...)); err != nil {
			t.Fatal(err)
		}
	}
	writeRaw(msgOpen, 1, open)

	// The initial CREDIT must answer the proposal with accept=1.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var chdr [9]byte
	if _, err := io.ReadFull(conn, chdr[:]); err != nil {
		t.Fatalf("no initial credit: %v", err)
	}
	if chdr[0] != msgCredit {
		t.Fatalf("expected CREDIT, got type %d", chdr[0])
	}
	clen := binary.LittleEndian.Uint32(chdr[5:])
	if clen != 5 {
		t.Fatalf("initial credit payload is %d bytes, want 5 (accept byte)", clen)
	}
	cp := make([]byte, clen)
	if _, err := io.ReadFull(conn, cp); err != nil {
		t.Fatal(err)
	}
	if cp[4] != 1 {
		t.Fatalf("compressing receiver declined the proposal (accept byte %d)", cp[4])
	}

	// Garbage flate body: the demultiplexer must kill the connection.
	writeRaw(msgData, 1, append([]byte{tuple.EncFlate}, []byte("this is not a deflate stream")...))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection still alive after corrupt compressed frame")
	}
}

// incompressibleShuffle shuffles tuples the codec can do nothing with —
// pseudorandom 256-byte values under multiplicatively scrambled vids, so
// frames are neither delta-eligible nor deflate-compressible — and
// returns the shuffle wall time plus the connector stats. This is the
// worst case for auto mode: it must detect incompressibility from the
// sample and fall back to raw frames without hurting throughput.
func incompressibleShuffle(t *testing.T, name string, mode tuple.CompressMode) (time.Duration, *hyracks.ConnStats) {
	t.Helper()
	const senders, receivers, perSender = 4, 4, 3000
	// One fixed pseudorandom blob; each tuple takes a distinct window.
	blob := make([]byte, 1<<16)
	state := uint64(0x2545F4914F6CDD1D)
	for i := range blob {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		blob[i] = byte(state)
	}
	cluster := testCluster(t, senders)
	tr, err := NewTCPTransport(Config{ListenAddr: "127.0.0.1:0", ForceWire: true, Compress: mode})
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

	spec := &hyracks.JobSpec{Name: name}
	spec.AddOp(&hyracks.OperatorDesc{
		ID:         "src",
		Partitions: senders,
		NewSource: func(tc *hyracks.TaskContext) (hyracks.SourceRuntime, error) {
			part := tc.Partition
			return &hyracks.FuncSource{F: func(ctx context.Context, b *hyracks.BaseSource) error {
				for i := 0; i < perSender; i++ {
					vid := uint64(part*perSender+i) * 0x9E3779B97F4A7C15 // unsorted: no delta
					off := (part*perSender + i*97) % (len(blob) - 256)
					if err := b.EmitFields(0, tuple.EncodeUint64(vid), blob[off:off+256]); err != nil {
						return err
					}
				}
				return nil
			}}, nil
		},
	})
	col := &shuffleCollector{}
	spec.AddOp(&hyracks.OperatorDesc{
		ID:         "sink",
		Partitions: receivers,
		NewRuntime: func(tc *hyracks.TaskContext) (hyracks.PushRuntime, error) {
			return &hyracks.FuncRuntime{OnRef: func(_ *hyracks.BaseRuntime, r tuple.TupleRef) error {
				col.mu.Lock()
				col.sum += tuple.DecodeUint64(r.Field(0))
				col.count++
				col.mu.Unlock()
				return nil
			}}, nil
		},
	})
	spec.Connect(&hyracks.ConnectorDesc{
		From: "src", To: "sink",
		Type:         hyracks.MToNPartitioning,
		Partitioner:  hyracks.HashPartitioner(0),
		BufferFrames: 2,
	})

	start := time.Now()
	res, err := hyracks.RunJobWith(context.Background(), cluster, spec,
		hyracks.ExecOptions{Transport: tr, LocalNodes: local})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if col.count != senders*perSender {
		t.Fatalf("received %d tuples, want %d", col.count, senders*perSender)
	}
	return elapsed, res.ConnStats["src->sink"]
}

// TestAutoNoRegressionOnIncompressiblePayload is the CI bench smoke for
// the auto fallback: on payload that cannot compress, auto must ship
// essentially the same wire bytes as off — raw frames plus the one-byte
// encoding tag. That auto does no DEFLATE work there is checked
// deterministically in internal/tuple
// (TestAutoSkipsDeflateOnIncompressiblePayload); the shuffle rates
// depend on machine load, so their ratio is only logged.
func TestAutoNoRegressionOnIncompressiblePayload(t *testing.T) {
	offWall, offStats := incompressibleShuffle(t, "incomp-off", tuple.CompressOff)
	autoWall, autoStats := incompressibleShuffle(t, "incomp-auto", tuple.CompressAuto)
	if autoStats.Bytes() != offStats.Bytes() {
		t.Fatalf("payload bytes diverge: auto %d, off %d", autoStats.Bytes(), offStats.Bytes())
	}
	// Auto's only overhead on raw frames is the per-DATA encoding tag.
	if w, o := autoStats.WireBytes(), offStats.WireBytes(); w > o+autoStats.Frames() {
		t.Fatalf("auto shipped %d wire bytes on incompressible payload, off shipped %d (+%d frames allowed)",
			w, o, autoStats.Frames())
	}
	off := float64(offStats.Bytes()) / offWall.Seconds() / (1 << 20)
	auto := float64(autoStats.Bytes()) / autoWall.Seconds() / (1 << 20)
	t.Logf("incompressible shuffle: auto %.1f MB/s, off %.1f MB/s (ratio %.2f)", auto, off, auto/off)
}

// TestUnproposedStreamGetsLegacyCredit checks the downgrade wire
// format: a sender that does not propose compression must receive the
// legacy 4-byte credit even from a compressing receiver, so
// pre-compression peers keep working unchanged.
func TestUnproposedStreamGetsLegacyCredit(t *testing.T) {
	recvT, err := NewTCPTransport(Config{ListenAddr: "127.0.0.1:0", Compress: tuple.CompressFlate})
	if err != nil {
		t.Fatal(err)
	}
	defer recvT.Close()
	sender, receiver := hyracks.NodeID("nc1"), hyracks.NodeID("nc2")
	recvT.SetPeers(map[hyracks.NodeID]string{sender: "", receiver: recvT.Addr()},
		map[hyracks.NodeID]bool{receiver: true})
	rc, err := recvT.OpenConn(hyracks.ConnPlacement{
		ID:            hyracks.ConnID{Job: "legacy-job", Conn: "a->b"},
		Senders:       1,
		Receivers:     1,
		BufferFrames:  3,
		SenderNodes:   []hyracks.NodeID{sender},
		ReceiverNodes: []hyracks.NodeID{receiver},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	conn := dialData(t, recvT.Addr())
	open, _ := json.Marshal(openInfo{Job: "legacy-job", Conn: "a->b", Sender: 0, Receiver: 0, Buffer: 3})
	var hdr [9]byte
	hdr[0] = msgOpen
	binary.LittleEndian.PutUint32(hdr[1:], 1)
	binary.LittleEndian.PutUint32(hdr[5:], uint32(len(open)))
	if _, err := conn.Write(append(hdr[:], open...)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var chdr [9]byte
	if _, err := io.ReadFull(conn, chdr[:]); err != nil {
		t.Fatalf("no initial credit: %v", err)
	}
	if chdr[0] != msgCredit {
		t.Fatalf("expected CREDIT, got type %d", chdr[0])
	}
	if clen := binary.LittleEndian.Uint32(chdr[5:]); clen != 4 {
		t.Fatalf("unproposed stream got a %d-byte credit, want legacy 4", clen)
	}
}
