package tuple

import (
	"bytes"
	"io"
	"math"
	"testing"
	"testing/quick"
)

func TestUint64EncodingOrderPreserving(t *testing.T) {
	f := func(a, b uint64) bool {
		ea, eb := EncodeUint64(a), EncodeUint64(b)
		cmp := bytes.Compare(ea, eb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64RoundTrip(t *testing.T) {
	f := func(v uint64) bool { return DecodeUint64(EncodeUint64(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1.5, -3.25, math.MaxFloat64, math.Inf(1), math.SmallestNonzeroFloat64} {
		if DecodeFloat64(EncodeFloat64(v)) != v {
			t.Fatalf("round trip failed for %v", v)
		}
	}
	if !math.IsNaN(DecodeFloat64(EncodeFloat64(math.NaN()))) {
		t.Fatal("NaN round trip failed")
	}
}

func TestBoolEncoding(t *testing.T) {
	if !DecodeBool(EncodeBool(true)) || DecodeBool(EncodeBool(false)) {
		t.Fatal("bool encoding broken")
	}
	if DecodeBool(nil) {
		t.Fatal("nil should decode to false")
	}
}

func TestTupleCloneIndependence(t *testing.T) {
	orig := Tuple{[]byte{1, 2}, []byte{3}}
	c := orig.Clone()
	c[0][0] = 99
	if orig[0][0] == 99 {
		t.Fatal("clone shares memory with original")
	}
}

func TestTupleStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tuples := []Tuple{
		{EncodeUint64(1), []byte("hello")},
		{},
		{nil, nil, []byte("x")},
		{EncodeUint64(math.MaxUint64)},
	}
	for _, tp := range tuples {
		if err := WriteTuple(&buf, tp); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	for i, want := range tuples {
		got, err := ReadTuple(r)
		if err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("tuple %d: field count %d want %d", i, len(got), len(want))
		}
		for j := range want {
			if !bytes.Equal(got[j], want[j]) {
				t.Fatalf("tuple %d field %d mismatch", i, j)
			}
		}
	}
	if _, err := ReadTuple(r); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestReadTupleTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTuple(&buf, Tuple{[]byte("abcdef")}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadTuple(bytes.NewReader(trunc)); err == nil || err == io.EOF {
		t.Fatalf("truncated stream: want error, got %v", err)
	}
}

func TestFrameCapacityAndGrowth(t *testing.T) {
	f := NewFrame()
	app := NewFrameAppender(f)
	// An oversized tuple on an empty frame grows the buffer.
	big := make([]byte, 2*DefaultFrameSize)
	if !app.Append(big) {
		t.Fatal("append to empty frame must always succeed")
	}
	if f.Len() != 1 || f.Cap() <= DefaultFrameSize {
		t.Fatalf("frame did not grow: len=%d cap=%d", f.Len(), f.Cap())
	}
	// A full frame rejects further appends until reset.
	if app.Append([]byte("x")) {
		t.Fatal("append to a full frame should report false")
	}
	f.Reset()
	if f.Len() != 0 || f.DataBytes() != 0 {
		t.Fatal("reset did not clear frame")
	}
	if !app.Append([]byte("small")) {
		t.Fatal("small tuple should fit after reset")
	}
}

// TestComparators: tuples order by their big-endian field 0 alone —
// the key Merge compares — and Equal compares every field.
func TestComparators(t *testing.T) {
	a := Tuple{EncodeUint64(5), []byte("x")}
	b := Tuple{EncodeUint64(9), []byte("a")}
	var got []Tuple
	err := Merge([]RefSource{refsOf(t, b), refsOf(t, a)}, func(r TupleRef) error {
		got = append(got, r.Materialize())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !Equal(got[0], a) || !Equal(got[1], b) {
		t.Fatalf("merge did not order by field 0: %v", got)
	}
	if !Equal(a, a.Clone()) || Equal(a, b) {
		t.Fatal("Equal broken")
	}
}

// frameSource streams the tuples of one frame as a RefSource.
type frameSource struct {
	f *Frame
	i int
}

func (s *frameSource) NextRef() (TupleRef, error) {
	if s.i >= s.f.Len() {
		return TupleRef{}, io.EOF
	}
	s.i++
	return s.f.Tuple(s.i - 1), nil
}

// refsOf packs ts into one frame and streams it.
func refsOf(t *testing.T, ts ...Tuple) RefSource {
	t.Helper()
	f := NewFrame()
	a := NewFrameAppender(f)
	for _, tp := range ts {
		if !a.AppendTuple(tp) {
			t.Fatal("test tuples overflow one frame")
		}
	}
	return &frameSource{f: f}
}
