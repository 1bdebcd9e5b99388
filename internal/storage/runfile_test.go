package storage

import (
	"io"
	"path/filepath"
	"testing"

	"pregelix/internal/tuple"
)

func TestRunFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.run")
	rf, err := CreateRunFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		tp := tuple.Tuple{tuple.EncodeUint64(uint64(i)), []byte("payload"), nil}
		if err := rf.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	if rf.Count() != n {
		t.Fatalf("count %d want %d", rf.Count(), n)
	}
	if err := rf.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	rr, err := OpenRunReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	for i := 0; i < n; i++ {
		r, err := rr.NextRef()
		if err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		if tuple.DecodeUint64(r.Field(0)) != uint64(i) || string(r.Field(1)) != "payload" || len(r.Field(2)) != 0 {
			t.Fatalf("tuple %d corrupted: %v", i, r)
		}
	}
	if _, err := rr.NextRef(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestRunFileEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e.run")
	rf, err := CreateRunFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rf.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	rr, err := OpenRunReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	if _, err := rr.NextRef(); err != io.EOF {
		t.Fatalf("expected EOF from an empty run file, got %v", err)
	}
}

// TestRunFileSections: runs appended to one file read back as separate
// sections, each while later runs are still being appended, and an
// empty run reads back empty.
func TestRunFileSections(t *testing.T) {
	rf, err := CreateRunFile(filepath.Join(t.TempDir(), "s.run"))
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Delete()
	sizes := []int{3000, 0, 1, 700} // 3000 tuples span several frames
	var secs []RunSection
	for run, n := range sizes {
		for i := 0; i < n; i++ {
			if err := rf.Append(tuple.Tuple{tuple.EncodeUint64(uint64(i)), {byte(run)}}); err != nil {
				t.Fatal(err)
			}
		}
		s, err := rf.EndRun()
		if err != nil {
			t.Fatal(err)
		}
		secs = append(secs, s)
		for r, s := range secs {
			rr := rf.OpenSection(s)
			for i := 0; ; i++ {
				ref, err := rr.NextRef()
				if err == io.EOF {
					if i != sizes[r] {
						t.Fatalf("run %d read back %d tuples, want %d", r, i, sizes[r])
					}
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if tuple.DecodeUint64(ref.Field(0)) != uint64(i) || ref.Field(1)[0] != byte(r) {
					t.Fatalf("run %d tuple %d corrupted: %v", r, i, ref)
				}
			}
			if err := rr.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestBufferCacheEvictionWriteback(t *testing.T) {
	dir := t.TempDir()
	bc := newTestCache(t, 4)
	fid, err := bc.OpenFile(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	// Create 16 pages, each stamped with its page number.
	for i := 0; i < 16; i++ {
		fr, err := bc.NewPage(fid)
		if err != nil {
			t.Fatal(err)
		}
		fr.Data[0] = byte(i)
		bc.Unpin(fr, true)
	}
	if bc.Evictions == 0 {
		t.Fatal("expected evictions")
	}
	// All pages must read back correctly (evicted ones from disk).
	for i := 0; i < 16; i++ {
		fr, err := bc.Pin(fid, PageNum(i))
		if err != nil {
			t.Fatal(err)
		}
		if fr.Data[0] != byte(i) {
			t.Fatalf("page %d: stamp %d", i, fr.Data[0])
		}
		bc.Unpin(fr, false)
	}
	if err := bc.CloseFile(fid); err != nil {
		t.Fatal(err)
	}
}

func TestBufferCachePinBeyondEOF(t *testing.T) {
	bc := newTestCache(t, 0)
	fid, err := bc.OpenFile(filepath.Join(t.TempDir(), "f"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bc.Pin(fid, 3); err == nil {
		t.Fatal("expected error pinning beyond EOF")
	}
}
