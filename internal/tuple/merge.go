package tuple

import (
	"bytes"
	"io"
)

// RefSource is a pull iterator over a stream of packed tuples, usually
// ordered by field 0. NextRef returns io.EOF at the end. The ref stays
// valid until the next NextRef call, which may recycle the frame it
// points into; a caller that keeps a tuple longer must copy it.
type RefSource interface {
	NextRef() (TupleRef, error)
}

// EmptySource is a RefSource with no tuples.
type EmptySource struct{}

// NextRef implements RefSource.
func (EmptySource) NextRef() (TupleRef, error) { return TupleRef{}, io.EOF }

// mergeHead is one source's current tuple in the k-way merge, with its
// key cached for comparisons.
type mergeHead struct {
	key []byte
	ref TupleRef
	src int
}

// less orders heads by key bytes, then by source index, so equal keys
// leave in source order.
func (a *mergeHead) less(b *mergeHead) bool {
	if c := bytes.Compare(a.key, b.key); c != 0 {
		return c < 0
	}
	return a.src < b.src
}

// siftDown restores the min-heap order of h below index i.
func siftDown(h []mergeHead, i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h[r].less(&h[m]) {
			m = r
		}
		if !h[m].less(&h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Merge k-way merges sources ordered by field 0 into one stream ordered
// by field 0 (bytewise), passing each tuple to consume. Equal keys leave
// in source order: every tuple of srcs[i] before any equal-keyed tuple
// of srcs[j>i]. Each head is consumed before its source advances, so
// consume may use the ref but not keep it; the merge itself copies no
// tuple.
func Merge(srcs []RefSource, consume func(TupleRef) error) error {
	h := make([]mergeHead, 0, len(srcs))
	for i, s := range srcs {
		r, err := s.NextRef()
		if err == io.EOF {
			continue
		}
		if err != nil {
			return err
		}
		h = append(h, mergeHead{r.Field(0), r, i})
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 0 {
		top := &h[0]
		if err := consume(top.ref); err != nil {
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
	return nil
}
