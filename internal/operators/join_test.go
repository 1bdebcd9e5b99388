package operators

import (
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"pregelix/internal/memory"
	"pregelix/internal/storage"
	"pregelix/internal/tuple"
)

func buildVertexIndex(t *testing.T, vids []uint64) storage.Index {
	t.Helper()
	bc := storage.NewBufferCache(1024, memory.NewBudget("join", 0))
	bt, err := storage.CreateBTree(bc, filepath.Join(t.TempDir(), "v.btree"))
	if err != nil {
		t.Fatal(err)
	}
	loader, _ := bt.NewBulkLoader(1.0)
	for _, v := range vids {
		if err := loader.Add(tuple.EncodeUint64(v), []byte(fmt.Sprintf("vertex-%d", v))); err != nil {
			t.Fatal(err)
		}
	}
	if err := loader.Finish(); err != nil {
		t.Fatal(err)
	}
	return storage.AsIndex(bt)
}

func msgsFor(vids ...uint64) tuple.RefSource {
	var ts []tuple.Tuple
	for _, v := range vids {
		ts = append(ts, tuple.Tuple{tuple.EncodeUint64(v), []byte(fmt.Sprintf("msg-%d", v))})
	}
	return refsOf(ts...)
}

// packOne packs t alone into f (a new frame when f is nil).
func packOne(f *tuple.Frame, t tuple.Tuple) *tuple.Frame {
	if f == nil {
		f = tuple.NewFrame()
	}
	f.Reset()
	tuple.NewFrameAppender(f).AppendTuple(t)
	return f
}

// tupleRefs streams boxed tuples as a tuple.RefSource, packing each in
// turn into one frame, so a ref is valid only until the next call.
type tupleRefs struct {
	ts []tuple.Tuple
	f  *tuple.Frame
}

func refsOf(ts ...tuple.Tuple) *tupleRefs { return &tupleRefs{ts: ts} }

func (s *tupleRefs) NextRef() (tuple.TupleRef, error) {
	if len(s.ts) == 0 {
		return tuple.TupleRef{}, io.EOF
	}
	s.f = packOne(s.f, s.ts[0])
	s.ts = s.ts[1:]
	return s.f.Tuple(0), nil
}

// drain reads a source to its end, copying every tuple.
func drain(src tuple.RefSource) ([]tuple.Tuple, error) {
	var out []tuple.Tuple
	for {
		r, err := src.NextRef()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, r.Materialize())
	}
}

type joinRow struct {
	vid       uint64
	hasMsg    bool
	hasVertex bool
}

func collectJoin(t *testing.T, join func(emit JoinEmitter) error) []joinRow {
	t.Helper()
	var rows []joinRow
	err := join(func(vid, msg, vertex []byte) error {
		rows = append(rows, joinRow{tuple.DecodeUint64(vid), msg != nil, vertex != nil})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestFullOuterIndexJoinAllCases(t *testing.T) {
	idx := buildVertexIndex(t, []uint64{1, 2, 4, 6})
	defer idx.Close()
	// messages for 2 (inner), 3 (no vertex), 6 (inner); 1 and 4 have no
	// messages (right-outer).
	rows := collectJoin(t, func(emit JoinEmitter) error {
		return FullOuterIndexJoin(msgsFor(2, 3, 6), idx, emit)
	})
	want := []joinRow{
		{1, false, true},
		{2, true, true},
		{3, true, false},
		{4, false, true},
		{6, true, true},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows: %+v", rows)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("row %d: got %+v want %+v", i, rows[i], want[i])
		}
	}
}

func TestFullOuterJoinEmptyMsgs(t *testing.T) {
	idx := buildVertexIndex(t, []uint64{10, 20})
	defer idx.Close()
	rows := collectJoin(t, func(emit JoinEmitter) error {
		return FullOuterIndexJoin(tuple.EmptySource{}, idx, emit)
	})
	if len(rows) != 2 || rows[0].hasMsg || !rows[0].hasVertex {
		t.Fatalf("rows: %+v", rows)
	}
}

func TestFullOuterJoinEmptyIndex(t *testing.T) {
	idx := buildVertexIndex(t, nil)
	defer idx.Close()
	rows := collectJoin(t, func(emit JoinEmitter) error {
		return FullOuterIndexJoin(msgsFor(5, 7), idx, emit)
	})
	if len(rows) != 2 || !rows[0].hasMsg || rows[0].hasVertex {
		t.Fatalf("rows: %+v", rows)
	}
}

func TestProbeJoinLeftOuter(t *testing.T) {
	idx := buildVertexIndex(t, []uint64{1, 3, 5})
	defer idx.Close()
	rows := collectJoin(t, func(emit JoinEmitter) error {
		return ProbeJoinLeftOuter(msgsFor(1, 2, 5), idx, emit)
	})
	want := []joinRow{
		{1, true, true},
		{2, true, false},
		{5, true, true},
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("row %d: got %+v want %+v", i, rows[i], want[i])
		}
	}
	// The left outer join must NOT visit messageless vertex 3.
	if len(rows) != 3 {
		t.Fatalf("LOJ visited messageless vertices: %+v", rows)
	}
}

func TestChooseMergePrefersFirstSource(t *testing.T) {
	msg := refsOf(
		tuple.Tuple{tuple.EncodeUint64(2), []byte("m2")},
		tuple.Tuple{tuple.EncodeUint64(4), []byte("m4")},
	)
	vid := refsOf(
		tuple.Tuple{tuple.EncodeUint64(1), nil},
		tuple.Tuple{tuple.EncodeUint64(2), nil},
		tuple.Tuple{tuple.EncodeUint64(5), nil},
	)
	merged, err := drain(NewChooseMergeSource(msg, vid))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, t := range merged {
		got = append(got, fmt.Sprintf("%d:%s", tuple.DecodeUint64(t[0]), t[1]))
	}
	want := []string{"1:", "2:m2", "4:m4", "5:"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("at %d: got %q want %q", i, got[i], want[i])
		}
	}
}

// TestFOJAndLOJAgreeOnLiveSet: for the same message stream plus a Vid
// stream covering all live vertices, the LOJ plan must call compute on
// exactly the same (vid, hasMsg) set as the FOJ plan restricted to
// live-or-addressed vertices. This is the plan-equivalence invariant of
// Figure 8.
func TestFOJAndLOJAgreeOnLiveSet(t *testing.T) {
	vertices := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	live := map[uint64]bool{2: true, 5: true, 7: true}
	idx := buildVertexIndex(t, vertices)
	defer idx.Close()
	msgVids := []uint64{3, 5}

	// FOJ: emits every vertex; the compute filter keeps live || msg.
	fojSet := map[string]bool{}
	err := FullOuterIndexJoin(msgsFor(msgVids...), idx, func(vid, msg, vertex []byte) error {
		v := tuple.DecodeUint64(vid)
		if live[v] || msg != nil {
			fojSet[fmt.Sprintf("%d/%v", v, msg != nil)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// LOJ: choose-merge msgs with the Vid index scanned as null-msgs,
	// then probe.
	var liveVids []uint64
	for _, v := range vertices {
		if live[v] {
			liveVids = append(liveVids, v)
		}
	}
	vidIdx := buildVertexIndex(t, liveVids)
	defer vidIdx.Close()
	cur, err := vidIdx.ScanFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	vids := NewNullMsgSource(cur)
	defer vids.Close()
	lojSet := map[string]bool{}
	err = ProbeJoinLeftOuter(NewChooseMergeSource(msgsFor(msgVids...), vids), idx, func(vid, msg, vertex []byte) error {
		v := tuple.DecodeUint64(vid)
		lojSet[fmt.Sprintf("%d/%v", v, msg != nil)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(fojSet) != len(lojSet) {
		t.Fatalf("FOJ %v vs LOJ %v", fojSet, lojSet)
	}
	for k := range fojSet {
		if !lojSet[k] {
			t.Fatalf("LOJ missing %s", k)
		}
	}
}

// sliceCursor is a storage.IndexCursor over fixed keys that allocates
// nothing, so an allocation count sees only the code under test.
type sliceCursor struct{ keys [][]byte }

func (c *sliceCursor) Next() (key, value []byte, ok bool) {
	if len(c.keys) == 0 {
		return nil, nil, false
	}
	k := c.keys[0]
	c.keys = c.keys[1:]
	return k, nil, true
}
func (c *sliceCursor) Err() error { return nil }
func (c *sliceCursor) Close()     {}

// mapIndex is a storage.Index whose Search allocates nothing; only
// Search is implemented.
type mapIndex struct {
	storage.Index
	m map[string][]byte
}

func (x mapIndex) Search(key []byte) ([]byte, error) {
	if v, ok := x.m[string(key)]; ok {
		return v, nil
	}
	return nil, storage.ErrNotFound
}

// limitSource ends its source's stream after n more tuples.
type limitSource struct {
	src tuple.RefSource
	n   int
}

func (s *limitSource) NextRef() (tuple.TupleRef, error) {
	if s.n <= 0 {
		return tuple.TupleRef{}, io.EOF
	}
	s.n--
	return s.src.NextRef()
}

// TestLOJInputZeroAllocs: the LOJ plan's join input — a spilled Msg run
// read through the choose-merge with the Vid scan — and the probe join
// over it allocate nothing per tuple; only the vertex-index cursor may.
// Each measured run joins a slice of one long stream that crosses many
// run-file frames.
func TestLOJInputZeroAllocs(t *testing.T) {
	const msgs, perRun, runs = 8000, 400, 20
	rf, err := storage.CreateRunFile(filepath.Join(t.TempDir(), "msg.run"))
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Delete()
	vertices := map[string][]byte{}
	var vidKeys [][]byte
	for i := uint64(0); i < msgs; i++ {
		vid := tuple.EncodeUint64(2 * i)
		if err := rf.AppendFields(vid, []byte("payload!")); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			vertices[string(vid)] = []byte("vertex")
		}
		if i%2 == 0 { // live; half of these also have a message
			vidKeys = append(vidKeys, tuple.EncodeUint64(2*i+uint64(i%4)/2))
		}
	}
	if err := rf.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	rr, err := storage.OpenRunReader(rf.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	vids := NewNullMsgSource(&sliceCursor{keys: vidKeys})
	defer vids.Close()
	in := &limitSource{src: NewChooseMergeSource(rr, vids)}
	var idx storage.Index = mapIndex{m: vertices}
	var rows, nullMsgs int
	emit := func(vid, msg, vertex []byte) error {
		rows++
		if msg == nil {
			nullMsgs++
		}
		return nil
	}
	allocs := testing.AllocsPerRun(runs, func() {
		in.n = perRun
		if err := ProbeJoinLeftOuter(in, idx, emit); err != nil {
			t.Fatal(err)
		}
	})
	if rows != (runs+1)*perRun || nullMsgs == 0 {
		t.Fatalf("joined %d rows (%d from the Vid scan), want %d with some", rows, nullMsgs, (runs+1)*perRun)
	}
	if allocs != 0 {
		t.Fatalf("%.0f allocs per %d joined tuples, want 0", allocs, perRun)
	}
}
