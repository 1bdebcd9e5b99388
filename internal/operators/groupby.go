// Package operators provides the data-parallel relational operators
// Pregelix composes into physical plans: an external sort, the three
// group-by implementations of Section 4 (sort-based, HashSort, and
// preclustered), index-based outer joins, and helpers for two-stage
// global aggregation.
//
// All operators are out-of-core capable: they meter their buffers against
// the task's operator-memory budget and spill sorted runs when it is
// exhausted, then merge the runs on close. A task appends all its runs to
// one node-local temporary run file, each run a section of it, so a spill
// opens no file. Buffered input is held as packed frames (one pooled byte
// buffer per frame) and sorted by key prefix and location, and the merge
// reads runs through zero-copy tuple refs, so neither the sort, the spill
// nor the merge performs per-tuple or per-field heap allocation.
package operators

import (
	"bytes"
	"cmp"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"pregelix/internal/hyracks"
	"pregelix/internal/memory"
	"pregelix/internal/storage"
	"pregelix/internal/tuple"
)

// Combiner folds tuples that share a group key (field 0) into one
// accumulated tuple. Implementations must be insensitive to input order
// within a group (the paper's combine UDF contract).
//
// Aliasing contract: First may retain (alias) the fields of its argument
// — callers guarantee those bytes outlive the accumulator. Add must NOT
// retain t or its field slices past the call; it may only fold t's data
// into the accumulator, because t is typically a borrowed view into a
// transport frame that will be recycled.
type Combiner interface {
	// First starts an accumulator from the first tuple of a group. The
	// returned tuple may alias t.
	First(t tuple.Tuple) tuple.Tuple
	// Add folds t into acc, returning the new accumulator.
	Add(acc, t tuple.Tuple) tuple.Tuple
}

// GroupByKind selects a group-by implementation.
type GroupByKind int

const (
	// SortGroupBy pushes aggregation into both the in-memory sort phase
	// and the run-merge phase of an external sort.
	SortGroupBy GroupByKind = iota
	// HashSortGroupBy aggregates eagerly in a hash table, sorting only
	// on spill/emit; it wins when the number of distinct keys is small.
	HashSortGroupBy
	// PreclusteredGroupBy assumes input already clustered by key and
	// aggregates in a single streaming pass with O(1) state.
	PreclusteredGroupBy
)

func (k GroupByKind) String() string {
	switch k {
	case SortGroupBy:
		return "sort"
	case HashSortGroupBy:
		return "hashsort"
	case PreclusteredGroupBy:
		return "preclustered"
	default:
		return fmt.Sprintf("groupby(%d)", int(k))
	}
}

// NewGroupByRuntime builds a group-by PushRuntime of the given kind.
// combiner may be nil, in which case the operator degenerates to an
// external sort (SortGroupBy/HashSortGroupBy) or a no-op pass-through
// (PreclusteredGroupBy). Output is emitted on port 0 in ascending key
// order for the sorting kinds, and in input order for preclustered.
func NewGroupByRuntime(tc *hyracks.TaskContext, kind GroupByKind, combiner Combiner) hyracks.PushRuntime {
	switch kind {
	case PreclusteredGroupBy:
		return &preclusteredGroupBy{combiner: combiner}
	case HashSortGroupBy:
		return &spillingGroupBy{tc: tc, combiner: combiner, hash: true}
	default:
		return &spillingGroupBy{tc: tc, combiner: combiner}
	}
}

// NewExternalSortRuntime builds an external sort on field 0.
func NewExternalSortRuntime(tc *hyracks.TaskContext) hyracks.PushRuntime {
	return &spillingGroupBy{tc: tc}
}

// preclusteredGroupBy streams clustered input, folding adjacent tuples
// with equal keys.
type preclusteredGroupBy struct {
	hyracks.BaseRuntime
	combiner Combiner
	acc      tuple.Tuple
	scratch  tuple.Tuple
	failed   bool
}

func (g *preclusteredGroupBy) Open() error { return g.OpenOutputs() }

func (g *preclusteredGroupBy) NextFrame(f *tuple.Frame) error {
	for i := 0; i < f.Len(); i++ {
		r := f.Tuple(i)
		if g.combiner == nil {
			if err := g.EmitRef(0, r); err != nil {
				return err
			}
			continue
		}
		if g.acc == nil {
			// The accumulator outlives this frame: own its bytes.
			g.acc = g.combiner.First(r.Materialize())
			continue
		}
		if bytes.Equal(g.acc[0], r.Field(0)) {
			g.scratch = r.AppendFieldsTo(g.scratch[:0])
			g.acc = g.combiner.Add(g.acc, g.scratch)
			continue
		}
		if err := g.Emit(0, g.acc); err != nil {
			return err
		}
		g.acc = g.combiner.First(r.Materialize())
	}
	return nil
}

func (g *preclusteredGroupBy) Fail(err error) {
	g.failed = true
	g.FailOutputs(err)
}

func (g *preclusteredGroupBy) Close() error {
	if g.failed {
		return nil
	}
	if g.acc != nil {
		if err := g.Emit(0, g.acc); err != nil {
			g.FailOutputs(err)
			return err
		}
		g.acc = nil
	}
	return g.CloseOutputs()
}

// spillingGroupBy implements both the sort-based and HashSort group-bys
// (and, with a nil combiner, a plain external sort). It accumulates
// input in packed frames metered whole-buffer-at-a-time against the
// task's operator-memory budget, spilling sorted (combined) runs to
// disk, and merges runs with final combining on close.
//
// All of a task's runs go to one run file, created at the first spill:
// each spill appends a run and keeps its section. The sort buffers, the
// accumulator buffer and that file are the operator's own, reused
// across spills and dropped at Close or Fail.
type spillingGroupBy struct {
	hyracks.BaseRuntime
	tc       *hyracks.TaskContext
	combiner Combiner
	hash     bool

	budget *memory.Budget

	// Sort-mode buffer: owned packed frames, and one sort entry per
	// buffered tuple. oddKeys records a key that is not 8 bytes wide,
	// whose order the prefix alone may not settle.
	frames  []*tuple.Frame
	app     tuple.FrameAppender
	keys    []keyLoc
	oddKeys bool

	// Hash-mode table: key -> boxed accumulator; ts is its sort buffer.
	table map[string]tuple.Tuple
	ts    []hashEntry

	// The group being folded: acc from the combiner; accHdr and accBuf
	// hold the copy of its first tuple that First receives; scratch is
	// the borrowed view Add receives.
	acc     tuple.Tuple
	accHdr  tuple.Tuple
	accBuf  []byte
	scratch tuple.Tuple

	runFile *storage.RunFile
	runs    []storage.RunSection
	failed  bool
}

// keyLoc is the sort entry of one buffered tuple: the first 8 bytes of
// its key, big-endian and zero-padded, and its location, frame index in
// the high 32 bits and slot in the low ones. Locations grow with
// arrival, so ordering ties by location keeps the sort stable.
type keyLoc struct {
	prefix, loc uint64
}

// hashEntry is the sort entry of one hash-table accumulator.
type hashEntry struct {
	prefix uint64
	acc    tuple.Tuple
}

// keyPrefix returns the first 8 bytes of k as a big-endian number,
// zero-padded. Where two keys' prefixes differ they order the keys;
// where they are equal the keys are equal if both are 8 bytes wide.
func keyPrefix(k []byte) uint64 {
	if len(k) >= 8 {
		return binary.BigEndian.Uint64(k)
	}
	var b [8]byte
	copy(b[:], k)
	return binary.BigEndian.Uint64(b[:])
}

func (g *spillingGroupBy) Open() error {
	cap := g.tc.OperatorMem
	g.budget = g.tc.Node.RAM.Child(
		fmt.Sprintf("groupby-%s-p%d", g.tc.OperatorID, g.tc.Partition), cap)
	if g.hash && g.combiner != nil {
		g.table = make(map[string]tuple.Tuple)
	}
	return g.OpenOutputs()
}

func (g *spillingGroupBy) NextFrame(f *tuple.Frame) error {
	for i := 0; i < f.Len(); i++ {
		if err := g.add(f.Tuple(i)); err != nil {
			return err
		}
	}
	return nil
}

func (g *spillingGroupBy) add(r tuple.TupleRef) error {
	if g.table != nil {
		return g.addHash(r)
	}
	// Sort mode: copy the packed record into the operator's own frames.
	if g.app.Frame() == nil || !g.app.AppendRef(r) {
		if err := g.addFrame(r); err != nil {
			return err
		}
	}
	k := r.Field(0)
	if len(k) != 8 {
		g.oddKeys = true
	}
	f := g.app.Frame()
	g.keys = append(g.keys, keyLoc{keyPrefix(k), uint64(len(g.frames)-1)<<32 | uint64(f.Len()-1)})
	return nil
}

// addFrame meters and starts a new buffer frame holding r, spilling
// first when the budget is exhausted.
func (g *spillingGroupBy) addFrame(r tuple.TupleRef) error {
	// Meter a whole new frame buffer, plus the sort-entry bookkeeping of
	// the frame just finished (charged at frame granularity to keep the
	// per-tuple path lock-free).
	need := int64(tuple.DefaultFrameSize)
	if prev := g.app.Frame(); prev != nil {
		need += int64(prev.Len()) * refOverheadBytes
	}
	if !g.budget.TryAllocate(need) {
		if err := g.spill(); err != nil {
			return err
		}
		// Retry after spilling; a budget smaller than one frame admits
		// the frame unmetered (it spills again as soon as it fills).
		g.budget.TryAllocate(need)
	}
	f := tuple.GetFrame()
	g.frames = append(g.frames, f)
	g.app.Reset(f)
	// Pooled frames may arrive pre-grown (up to 4x) from an earlier
	// oversized tuple; meter only growth this append causes, not the
	// frame's history.
	capBefore := f.Cap()
	if !g.app.AppendRef(r) {
		return fmt.Errorf("groupby: tuple does not fit an empty frame")
	}
	if grown := f.Cap() - capBefore; grown > 0 {
		// Oversized tuple grew the buffer; meter the growth best-effort.
		g.budget.TryAllocate(int64(grown))
	}
	return nil
}

// refOverheadBytes estimates the in-memory bookkeeping per buffered
// tuple (a sort entry plus slice growth slack) for budget metering.
const refOverheadBytes = 32

// ref returns the buffered tuple at loc.
func (g *spillingGroupBy) ref(loc uint64) tuple.TupleRef {
	return g.frames[loc>>32].Tuple(int(uint32(loc)))
}

func (g *spillingGroupBy) addHash(r tuple.TupleRef) error {
	k := string(r.Field(0))
	if acc, ok := g.table[k]; ok {
		old := acc.Size()
		g.scratch = r.AppendFieldsTo(g.scratch[:0])
		acc = g.combiner.Add(acc, g.scratch)
		g.table[k] = acc
		// Meter accumulator growth, best effort.
		if delta := int64(acc.Size() - old); delta > 0 {
			g.budget.TryAllocate(delta)
		}
		return nil
	}
	sz := int64(r.Size() + 48) // payload + per-entry bookkeeping estimate
	if !g.budget.TryAllocate(sz) {
		if err := g.spill(); err != nil {
			return err
		}
		if !g.budget.TryAllocate(sz) {
			// A single tuple larger than the whole budget: admit it
			// unmetered; it will be spilled on the next add.
			sz = 0
		}
	}
	g.table[k] = g.combiner.First(r.Materialize())
	return nil
}

// sortKeys puts the sort-mode buffer's entries into key order, ties in
// arrival order. Entries compare by key prefix, then, when some key is
// not 8 bytes wide, by the whole key, then by location.
func (g *spillingGroupBy) sortKeys() {
	slices.SortFunc(g.keys, func(a, b keyLoc) int {
		if a.prefix != b.prefix {
			return cmp.Compare(a.prefix, b.prefix)
		}
		if g.oddKeys {
			if c := bytes.Compare(g.ref(a.loc).Field(0), g.ref(b.loc).Field(0)); c != 0 {
				return c
			}
		}
		return cmp.Compare(a.loc, b.loc)
	})
}

// takeSortedTable drains the hash table into key order. The returned
// slice is reused by the next drain.
func (g *spillingGroupBy) takeSortedTable() []hashEntry {
	ts := g.ts[:0]
	for _, acc := range g.table {
		ts = append(ts, hashEntry{keyPrefix(acc[0]), acc})
	}
	clear(g.table)
	slices.SortFunc(ts, func(a, b hashEntry) int {
		if a.prefix != b.prefix {
			return cmp.Compare(a.prefix, b.prefix)
		}
		return bytes.Compare(a.acc[0], b.acc[0])
	})
	g.ts = ts
	return ts
}

// releaseMem returns buffered frames to the pool and the metered bytes
// to the budget, keeping the sort buffers for the next fill.
func (g *spillingGroupBy) releaseMem() {
	for _, f := range g.frames {
		tuple.PutFrame(f)
	}
	clear(g.frames)
	g.frames = g.frames[:0]
	g.app.Reset(nil)
	g.keys = g.keys[:0]
	g.oddKeys = false
	clear(g.ts)
	g.ts = g.ts[:0]
	if g.budget != nil {
		g.budget.Release(g.budget.Used())
	}
}

// spill appends the sorted (combined) buffer to the task's run file as
// one more run.
func (g *spillingGroupBy) spill() error {
	if len(g.keys) == 0 && len(g.table) == 0 {
		return nil
	}
	if g.runFile == nil {
		rf, err := storage.CreateRunFile(g.tc.TempPath("runs"))
		if err != nil {
			return err
		}
		g.runFile = rf
	}
	rf := g.runFile
	payload := rf.PayloadBytes()
	if g.table != nil {
		for _, e := range g.takeSortedTable() {
			if err := rf.Append(e.acc); err != nil {
				return err
			}
		}
	} else {
		g.sortKeys()
		if err := g.drainSorted(rf.AppendRef, rf.Append); err != nil {
			return err
		}
	}
	s, err := rf.EndRun()
	if err != nil {
		return err
	}
	g.tc.AddIOBytes(rf.PayloadBytes() - payload)
	g.runs = append(g.runs, s)
	g.releaseMem()
	return nil
}

// drainSorted passes the sorted sort-mode buffer through consume.
func (g *spillingGroupBy) drainSorted(emitRef func(tuple.TupleRef) error, emit func(tuple.Tuple) error) error {
	for _, k := range g.keys {
		if err := g.consume(g.ref(k.loc), emitRef, emit); err != nil {
			return err
		}
	}
	return g.endGroup(emit)
}

// consume takes the next tuple of a key-ordered stream. With no
// combiner it passes through to emitRef (one memmove). Otherwise a
// tuple with the current group's key is folded in through a borrowed
// view, and any other key ends the group (emitting its accumulator) and
// starts the next from a copy of the tuple in the operator's
// accumulator buffer. First may retain that copy: it stays untouched
// until the accumulator is emitted, so r need only be valid during
// this call.
func (g *spillingGroupBy) consume(r tuple.TupleRef, emitRef func(tuple.TupleRef) error, emit func(tuple.Tuple) error) error {
	if g.combiner == nil {
		return emitRef(r)
	}
	if g.acc != nil && bytes.Equal(g.acc[0], r.Field(0)) {
		g.scratch = r.AppendFieldsTo(g.scratch[:0])
		g.acc = g.combiner.Add(g.acc, g.scratch)
		return nil
	}
	if err := g.endGroup(emit); err != nil {
		return err
	}
	h := r.AppendFieldsTo(g.accHdr[:0])
	if n := r.Size(); cap(g.accBuf) < n {
		g.accBuf = make([]byte, 0, n)
	}
	buf := g.accBuf[:0]
	for i, f := range h {
		at := len(buf)
		buf = append(buf, f...)
		// Cap each field so a combiner appending to one cannot
		// overwrite the next.
		h[i] = buf[at:len(buf):len(buf)]
	}
	g.accHdr = h
	g.acc = g.combiner.First(h)
	return nil
}

// endGroup emits the current group's accumulator, if any.
func (g *spillingGroupBy) endGroup(emit func(tuple.Tuple) error) error {
	if g.acc == nil {
		return nil
	}
	acc := g.acc
	g.acc = nil
	return emit(acc)
}

func (g *spillingGroupBy) Fail(err error) {
	g.failed = true
	g.cleanup()
	g.FailOutputs(err)
}

func (g *spillingGroupBy) cleanup() {
	if g.runFile != nil {
		g.runFile.Delete()
		g.runFile = nil
	}
	g.runs = nil
	g.table = nil
	g.releaseMem()
	g.frames, g.keys, g.ts = nil, nil, nil
	g.acc, g.accHdr, g.accBuf, g.scratch = nil, nil, nil, nil
}

func (g *spillingGroupBy) Close() error {
	if g.failed {
		return nil
	}
	err := g.finish()
	g.cleanup()
	if err != nil {
		g.FailOutputs(err)
		return err
	}
	return g.CloseOutputs()
}

func (g *spillingGroupBy) finish() error {
	emitRef := func(r tuple.TupleRef) error { return g.EmitRef(0, r) }
	emit := func(t tuple.Tuple) error { return g.Emit(0, t) }
	if g.table != nil {
		mem := g.takeSortedTable()
		if len(g.runs) == 0 {
			// Fully in-memory: the table already holds one accumulator
			// per key.
			for _, e := range mem {
				if err := emit(e.acc); err != nil {
					return err
				}
			}
			return nil
		}
		srcs := make([]TupleSource, 0, len(g.runs)+1)
		for _, s := range g.runs {
			rr := g.runFile.OpenSection(s)
			defer rr.Close()
			srcs = append(srcs, rr)
		}
		if len(mem) > 0 {
			ts := make([]tuple.Tuple, len(mem))
			for i, e := range mem {
				ts[i] = e.acc
			}
			srcs = append(srcs, NewSliceSource(ts))
		}
		return MergeSources(srcs, g.combiner, emit)
	}
	g.sortKeys()
	if len(g.runs) == 0 {
		// Fully in-memory: emit straight out of the packed frames.
		return g.drainSorted(emitRef, emit)
	}
	// Merge the spilled runs, oldest first, then the in-memory
	// remainder, which holds the latest arrivals.
	srcs := make([]refSource, 0, len(g.runs)+1)
	for _, s := range g.runs {
		rr := g.runFile.OpenSection(s)
		defer rr.Close()
		srcs = append(srcs, rr)
	}
	if len(g.keys) > 0 {
		srcs = append(srcs, &memSource{g: g})
	}
	return g.mergeRuns(srcs, emitRef, emit)
}

// refSource is a pull iterator over a key-ordered stream of tuple refs;
// NextRef returns io.EOF at the end. A ref is valid until the next
// NextRef call. *storage.RunReader satisfies it.
type refSource interface {
	NextRef() (tuple.TupleRef, error)
}

// memSource streams the sorted in-memory buffer as a refSource.
type memSource struct {
	g *spillingGroupBy
	i int
}

func (s *memSource) NextRef() (tuple.TupleRef, error) {
	if s.i >= len(s.g.keys) {
		return tuple.TupleRef{}, io.EOF
	}
	r := s.g.ref(s.g.keys[s.i].loc)
	s.i++
	return r, nil
}

// mergeItem is one source's current head in the k-way merge, with its
// key cached for comparisons.
type mergeItem struct {
	key []byte
	ref tuple.TupleRef
	src int
}

// mergeLess orders heads by key, then by source index, so equal keys
// leave in run order, which is arrival order.
func mergeLess(a, b *mergeItem) bool {
	if c := bytes.Compare(a.key, b.key); c != 0 {
		return c < 0
	}
	return a.src < b.src
}

// siftDown restores the min-heap order of h below index i.
func siftDown(h []mergeItem, i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && mergeLess(&h[r], &h[m]) {
			m = r
		}
		if !mergeLess(&h[m], &h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// mergeRuns k-way merges key-ordered ref sources through consume. Each
// head is consumed before its source advances, because advancing may
// cross a frame and invalidate the ref; so the merge copies no tuple,
// only each group's first one into the accumulator buffer.
func (g *spillingGroupBy) mergeRuns(srcs []refSource, emitRef func(tuple.TupleRef) error, emit func(tuple.Tuple) error) error {
	h := make([]mergeItem, 0, len(srcs))
	for i, s := range srcs {
		r, err := s.NextRef()
		if err == io.EOF {
			continue
		}
		if err != nil {
			return err
		}
		h = append(h, mergeItem{r.Field(0), r, i})
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 0 {
		top := &h[0]
		if err := g.consume(top.ref, emitRef, emit); err != nil {
			return err
		}
		r, err := srcs[top.src].NextRef()
		switch {
		case err == io.EOF:
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		case err != nil:
			return err
		default:
			top.key, top.ref = r.Field(0), r
		}
		siftDown(h, 0)
	}
	return g.endGroup(emit)
}

// TupleSource is a pull iterator over a (usually sorted) tuple stream;
// Next returns io.EOF at the end. *storage.RunReader satisfies it.
type TupleSource interface {
	Next() (tuple.Tuple, error)
}

// SliceSource adapts an in-memory tuple slice to a TupleSource.
type SliceSource struct {
	ts []tuple.Tuple
	i  int
}

// NewSliceSource wraps ts (which must already be in the desired order).
func NewSliceSource(ts []tuple.Tuple) *SliceSource { return &SliceSource{ts: ts} }

// Next returns the next tuple or io.EOF.
func (s *SliceSource) Next() (tuple.Tuple, error) {
	if s.i >= len(s.ts) {
		return nil, io.EOF
	}
	t := s.ts[s.i]
	s.i++
	return t, nil
}

type srcHeap struct {
	items []srcItem
}

type srcItem struct {
	t   tuple.Tuple
	src TupleSource
}

func (h *srcHeap) Len() int           { return len(h.items) }
func (h *srcHeap) Less(i, j int) bool { return bytes.Compare(h.items[i].t[0], h.items[j].t[0]) < 0 }
func (h *srcHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *srcHeap) Push(x any)         { h.items = append(h.items, x.(srcItem)) }
func (h *srcHeap) Pop() any {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}

// MergeSources k-way merges sorted sources, folding equal keys through
// the combiner (when non-nil), and emits in ascending key order.
func MergeSources(srcs []TupleSource, combiner Combiner, emit func(tuple.Tuple) error) error {
	h := &srcHeap{}
	for _, s := range srcs {
		t, err := s.Next()
		if err == io.EOF {
			continue
		}
		if err != nil {
			return err
		}
		h.items = append(h.items, srcItem{t, s})
	}
	heap.Init(h)
	var acc tuple.Tuple
	for h.Len() > 0 {
		item := h.items[0]
		t, err := item.src.Next()
		if err != nil && err != io.EOF {
			return err
		}
		if err == io.EOF {
			heap.Pop(h)
		} else {
			h.items[0] = srcItem{t, item.src}
			heap.Fix(h, 0)
		}
		cur := item.t
		switch {
		case combiner == nil:
			if err := emit(cur); err != nil {
				return err
			}
		case acc == nil:
			acc = combiner.First(cur)
		case bytes.Equal(acc[0], cur[0]):
			acc = combiner.Add(acc, cur)
		default:
			if err := emit(acc); err != nil {
				return err
			}
			acc = combiner.First(cur)
		}
	}
	if acc != nil {
		return emit(acc)
	}
	return nil
}
