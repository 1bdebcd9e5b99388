package operators

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"slices"
	"testing"
	"testing/quick"

	"pregelix/internal/hyracks"
	"pregelix/internal/tuple"
)

// collectWriter is a FrameWriter that keeps owned copies of every tuple.
type collectWriter struct{ out []tuple.Tuple }

func (c *collectWriter) Open() error { return nil }
func (c *collectWriter) NextFrame(f *tuple.Frame) error {
	for i := 0; i < f.Len(); i++ {
		c.out = append(c.out, f.Tuple(i).Materialize())
	}
	return nil
}
func (c *collectWriter) Fail(error)   {}
func (c *collectWriter) Close() error { return nil }

// discardWriter is a FrameWriter that drops its input.
type discardWriter struct{}

func (discardWriter) Open() error                  { return nil }
func (discardWriter) NextFrame(*tuple.Frame) error { return nil }
func (discardWriter) Fail(error)                   {}
func (discardWriter) Close() error                 { return nil }

// gbTask drives one group-by task by hand, so a test can look at the
// task between its input and its Close.
type gbTask struct {
	node *hyracks.NodeController
	tc   *hyracks.TaskContext
}

func newGBTask(tb testing.TB, opMem int64) *gbTask {
	tb.Helper()
	cluster, err := hyracks.NewCluster(tb.TempDir(), 1, hyracks.NodeConfig{
		PageSize: 1024, OperatorMemBytes: opMem,
	})
	if err != nil {
		tb.Fatal(err)
	}
	node := cluster.Nodes()[0]
	return &gbTask{node: node, tc: &hyracks.TaskContext{
		Ctx: context.Background(), Node: node, JobName: "gb", OperatorID: "gb",
		NumPartitions: 1, OperatorMem: opMem, RunDir: "run",
	}}
}

// open starts a group-by runtime writing to out.
func (g *gbTask) open(tb testing.TB, kind GroupByKind, c Combiner, out hyracks.FrameWriter) hyracks.PushRuntime {
	tb.Helper()
	rt := NewGroupByRuntime(g.tc, kind, c)
	rt.SetOutputs([]hyracks.FrameWriter{out})
	if err := rt.Open(); err != nil {
		tb.Fatal(err)
	}
	return rt
}

// tempFiles counts the files in the task's scratch directory.
func (g *gbTask) tempFiles(tb testing.TB) int {
	tb.Helper()
	ents, err := os.ReadDir(g.node.JobDir("run"))
	if errors.Is(err, os.ErrNotExist) {
		return 0
	}
	if err != nil {
		tb.Fatal(err)
	}
	return len(ents)
}

// packFrames packs tuples into frames the caller releases.
func packFrames(in []tuple.Tuple) []*tuple.Frame {
	var fs []*tuple.Frame
	var app tuple.FrameAppender
	for _, tp := range in {
		if app.Frame() == nil || !app.AppendTuple(tp) {
			f := tuple.GetFrame()
			fs = append(fs, f)
			app.Reset(f)
			app.AppendTuple(tp)
		}
	}
	return fs
}

func push(tb testing.TB, rt hyracks.PushRuntime, fs []*tuple.Frame) {
	tb.Helper()
	for _, f := range fs {
		if err := rt.NextFrame(f); err != nil {
			tb.Fatal(err)
		}
	}
}

func putFrames(fs []*tuple.Frame) {
	for _, f := range fs {
		tuple.PutFrame(f)
	}
}

// concatCombiner folds a group by concatenating payloads, so its output
// records the order in which the operator folded the group.
type concatCombiner struct{}

func (concatCombiner) First(t tuple.Tuple) tuple.Tuple {
	return tuple.Tuple{t[0], append([]byte(nil), t[1]...)}
}

func (concatCombiner) Add(acc, t tuple.Tuple) tuple.Tuple {
	acc[1] = append(acc[1], t[1]...)
	return acc
}

// keepFirstCombiner keeps each group's first tuple. It allocates
// nothing, so allocation counts measure the operator alone.
type keepFirstCombiner struct{}

func (keepFirstCombiner) First(t tuple.Tuple) tuple.Tuple    { return t }
func (keepFirstCombiner) Add(acc, _ tuple.Tuple) tuple.Tuple { return acc }

// spillInput draws n tuples whose keys come from a small pool mixing
// 8-byte vids with shorter and longer keys, among them keys that share
// an 8-byte prefix or are zero-padded prefixes of each other. Payloads
// carry the arrival index (plus padding, so frames fill fast).
func spillInput(rng *rand.Rand, n int) []tuple.Tuple {
	pool := [][]byte{
		{}, {0}, {1}, {1, 0}, {1, 0, 0, 0, 0, 0, 0, 0}, {1, 0, 0, 0, 0, 0, 0, 0, 0},
		{1, 0, 0, 0, 0, 0, 0, 0, 7}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, {0xff},
	}
	for len(pool) < 40 {
		pool = append(pool, tuple.EncodeUint64(uint64(rng.Intn(1000))))
	}
	in := make([]tuple.Tuple, n)
	for i := range in {
		v := binary.BigEndian.AppendUint64(nil, uint64(i))
		v = append(v, make([]byte, 50+rng.Intn(100))...)
		in[i] = tuple.Tuple{pool[rng.Intn(len(pool))], v}
	}
	return in
}

// TestSortGroupBySpillOrderQuick: with at least ten spills over keys of
// mixed widths, the sort group-by without a combiner is a stable sort,
// and with an order-sensitive combiner every group folds in arrival
// order. A spilling task keeps all its runs in one temp file, removed
// by Close.
func TestSortGroupBySpillOrderQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := spillInput(rng, 3500+rng.Intn(1500))
		want := slices.Clone(in)
		slices.SortStableFunc(want, func(a, b tuple.Tuple) int { return bytes.Compare(a[0], b[0]) })
		var wantGroups []tuple.Tuple
		for _, tp := range want {
			if n := len(wantGroups); n > 0 && bytes.Equal(wantGroups[n-1][0], tp[0]) {
				wantGroups[n-1][1] = append(wantGroups[n-1][1], tp[1]...)
				continue
			}
			wantGroups = append(wantGroups, tuple.Tuple{tp[0], slices.Clone(tp[1])})
		}
		fs := packFrames(in)
		defer putFrames(fs)
		for _, c := range []struct {
			comb Combiner
			want []tuple.Tuple
		}{{nil, want}, {concatCombiner{}, wantGroups}} {
			task := newGBTask(t, 4<<10)
			out := &collectWriter{}
			rt := task.open(t, SortGroupBy, c.comb, out)
			push(t, rt, fs)
			if runs := len(rt.(*spillingGroupBy).runs); runs < 10 {
				t.Fatalf("seed %d: %d spills, want at least 10", seed, runs)
			}
			if n := task.tempFiles(t); n != 1 {
				t.Fatalf("seed %d: %d temp files while open, want 1", seed, n)
			}
			if err := rt.Close(); err != nil {
				t.Fatal(err)
			}
			if n := task.tempFiles(t); n != 0 {
				t.Fatalf("seed %d: %d temp files after Close", seed, n)
			}
			if !slices.EqualFunc(out.out, c.want, tuple.Equal) {
				t.Fatalf("seed %d, combiner %T: output differs from the stable sort of the input", seed, c.comb)
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// TestGroupBySpillFileRemovedOnFail: a task that spilled and then fails
// leaves no temp file and no leased frame, for both spilling kinds.
func TestGroupBySpillFileRemovedOnFail(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := makeMsgs(rng, 20000, 6000)
	fs := packFrames(in)
	defer putFrames(fs)
	for _, kind := range []GroupByKind{SortGroupBy, HashSortGroupBy} {
		leased := tuple.LeasedFrames()
		task := newGBTask(t, 8<<10)
		rt := task.open(t, kind, sumCombiner{}, discardWriter{})
		push(t, rt, fs)
		if runs := len(rt.(*spillingGroupBy).runs); runs < 2 {
			t.Fatalf("%v: %d spills, want several", kind, runs)
		}
		if n := task.tempFiles(t); n != 1 {
			t.Fatalf("%v: %d temp files while open, want 1", kind, n)
		}
		rt.Fail(errors.New("injected"))
		if n := task.tempFiles(t); n != 0 {
			t.Fatalf("%v: %d temp files after Fail", kind, n)
		}
		if d := tuple.LeasedFrames() - leased; d != 0 {
			t.Fatalf("%v: %d frames still leased after Fail", kind, d)
		}
	}
}

// TestSortGroupByAllocsPerTuple is the machine-independent allocation
// gate of the sort group-by's spill path: over 20k tuples and forced
// spills, allocations grow with groups and spills, not with tuples.
func TestSortGroupByAllocsPerTuple(t *testing.T) {
	const n = 20000
	rng := rand.New(rand.NewSource(8))
	fs := packFrames(makeMsgs(rng, n, 2000))
	defer putFrames(fs)
	task := newGBTask(t, 8<<10)
	var spills int
	allocs := testing.AllocsPerRun(5, func() {
		rt := task.open(t, SortGroupBy, keepFirstCombiner{}, discardWriter{})
		push(t, rt, fs)
		spills = len(rt.(*spillingGroupBy).runs)
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if spills < 10 {
		t.Fatalf("%d spills, want at least 10", spills)
	}
	t.Logf("%.0f allocs per task: %.4f per tuple, %d spills", allocs, allocs/n, spills)
	if perTuple := allocs / n; perTuple >= 0.1 {
		t.Fatalf("%.3f allocs per tuple (%.0f per task, %d spills), want < 0.1", perTuple, allocs, spills)
	}
}

// BenchmarkSpillingGroupBy runs one spilling group-by task per
// iteration: 20k tuples over 2k keys with an 8 KiB operator budget.
func BenchmarkSpillingGroupBy(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	fs := packFrames(makeMsgs(rng, 20000, 2000))
	defer putFrames(fs)
	for _, kind := range []GroupByKind{SortGroupBy, HashSortGroupBy} {
		b.Run(kind.String(), func(b *testing.B) {
			task := newGBTask(b, 8<<10)
			b.ReportAllocs()
			for b.Loop() {
				rt := task.open(b, kind, keepFirstCombiner{}, discardWriter{})
				push(b, rt, fs)
				if err := rt.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
