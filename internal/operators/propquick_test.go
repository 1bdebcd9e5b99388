package operators

import (
	"bytes"
	"io"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"pregelix/internal/tuple"
)

// TestMergeSourcesEqualsSortQuick: k-way merging K sorted fragments of
// a random multiset with tuple.Merge must equal stably sorting the
// fragments' concatenation by key: ascending keys, and equal keys in
// source order, then in order within their source.
func TestMergeSourcesEqualsSortQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(5)
		frags := make([][]tuple.Tuple, k)
		for i := range 200 + rng.Intn(800) {
			f := rng.Intn(k)
			frags[f] = append(frags[f], tuple.Tuple{
				tuple.EncodeUint64(uint64(rng.Intn(100))),
				tuple.EncodeUint64(uint64(f)<<32 | uint64(i)), // source, arrival
			})
		}
		var want []tuple.Tuple
		srcs := make([]tuple.RefSource, k)
		for i, frag := range frags {
			slices.SortStableFunc(frag, func(a, b tuple.Tuple) int { return bytes.Compare(a[0], b[0]) })
			want = append(want, frag...)
			srcs[i] = refsOf(frag...)
		}
		slices.SortStableFunc(want, func(a, b tuple.Tuple) int { return bytes.Compare(a[0], b[0]) })
		var got []tuple.Tuple
		err := tuple.Merge(srcs, func(r tuple.TupleRef) error {
			got = append(got, r.Materialize())
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: merged %d tuples, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if !tuple.Equal(got[i], want[i]) {
				t.Fatalf("seed %d: at %d got %v want %v", seed, i, got[i], want[i])
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestChooseMergeQuick: the merged stream must contain exactly the union
// of keys, preferring stream a's tuple on collisions, in sorted order.
func TestChooseMergeQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(tag byte) ([]tuple.Tuple, map[uint64]bool) {
			n := rng.Intn(60)
			keys := map[uint64]bool{}
			for i := 0; i < n; i++ {
				keys[uint64(rng.Intn(80))] = true
			}
			sorted := make([]uint64, 0, len(keys))
			for k := range keys {
				sorted = append(sorted, k)
			}
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			ts := make([]tuple.Tuple, len(sorted))
			for i, k := range sorted {
				ts[i] = tuple.Tuple{tuple.EncodeUint64(k), {tag}}
			}
			return ts, keys
		}
		at, akeys := mk('a')
		bt, bkeys := mk('b')
		got, err := drain(NewChooseMergeSource(refsOf(at...), refsOf(bt...)))
		if err != nil {
			t.Fatal(err)
		}
		union := map[uint64]bool{}
		for k := range akeys {
			union[k] = true
		}
		for k := range bkeys {
			union[k] = true
		}
		if len(got) != len(union) {
			t.Fatalf("seed %d: %d tuples, union %d", seed, len(got), len(union))
		}
		for i, tp := range got {
			k := tuple.DecodeUint64(tp[0])
			if !union[k] {
				t.Fatalf("seed %d: phantom key %d", seed, k)
			}
			if akeys[k] && tp[1][0] != 'a' {
				t.Fatalf("seed %d: key %d should come from a", seed, k)
			}
			if !akeys[k] && tp[1][0] != 'b' {
				t.Fatalf("seed %d: key %d should come from b", seed, k)
			}
			if i > 0 && bytes.Compare(got[i-1][0], tp[0]) >= 0 {
				t.Fatalf("seed %d: output unsorted", seed)
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// errSource fails after n tuples; joins must propagate the error.
type errSource struct {
	n int
	f *tuple.Frame
}

func (s *errSource) NextRef() (tuple.TupleRef, error) {
	if s.n <= 0 {
		return tuple.TupleRef{}, io.ErrUnexpectedEOF
	}
	s.n--
	s.f = packOne(s.f, tuple.Tuple{tuple.EncodeUint64(uint64(s.n)), nil})
	return s.f.Tuple(0), nil
}

func TestJoinsPropagateSourceErrors(t *testing.T) {
	idx := buildVertexIndex(t, []uint64{1, 2, 3})
	defer idx.Close()
	noop := func(_, _, _ []byte) error { return nil }
	if err := FullOuterIndexJoin(&errSource{n: 1}, idx, noop); err == nil {
		t.Fatal("FOJ swallowed source error")
	}
	if err := ProbeJoinLeftOuter(&errSource{n: 1}, idx, noop); err == nil {
		t.Fatal("LOJ swallowed source error")
	}
	// The LOJ plan's choose-merge passes either input's error on.
	for _, in := range []*ChooseMergeSource{
		NewChooseMergeSource(&errSource{n: 1}, refsOf(tuple.Tuple{tuple.EncodeUint64(9), nil})),
		NewChooseMergeSource(refsOf(tuple.Tuple{tuple.EncodeUint64(9), []byte("m")}), &errSource{n: 1}),
	} {
		if err := ProbeJoinLeftOuter(in, idx, noop); err == nil {
			t.Fatal("choose-merge swallowed source error")
		}
	}
}
