package storage

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"pregelix/internal/tuple"
)

// RunFile is a sequential, append-only tuple file. Pregelix uses run files
// for external-sort runs, sender-side materialized connector channels, and
// the per-partition Msg relation between supersteps (Section 5.2: message
// partitions are stored in temporary local files sorted by vid).
//
// On-disk format: a stream of packed frame images (tuple.WriteFrame), so
// a whole frame of tuples is written and read back with bulk copies
// instead of one syscall-sized write per field.
//
// A file may also hold several runs back to back: EndRun closes the run
// written since the previous EndRun and returns its section, which
// OpenSection reads back while the file stays open for appending. An
// external sort uses this to keep all of a task's runs in one file.
type RunFile struct {
	path string
	f    *os.File
	w    *bufio.Writer
	n    int64
	sz   int64
	// off is the file size once everything appended so far is flushed;
	// runStart is where the current run began.
	off, runStart int64

	fr  *tuple.Frame
	app tuple.FrameAppender
}

// RunSection locates one run inside a run file: the byte range of its
// frame images.
type RunSection struct {
	Off, Len int64
}

// CreateRunFile opens a new run file for writing (and, through
// OpenSection, reading) at path.
func CreateRunFile(path string) (*RunFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runfile: create %s: %w", path, err)
	}
	r := &RunFile{path: path, f: f, w: bufio.NewWriterSize(f, 1<<16)}
	r.fr = tuple.GetFrame()
	r.app.Reset(r.fr)
	return r, nil
}

// Append writes one boxed tuple.
func (r *RunFile) Append(t tuple.Tuple) error { return r.AppendFields(t...) }

// AppendFields writes one tuple given as raw fields (copied on append).
func (r *RunFile) AppendFields(fields ...[]byte) error {
	if !r.app.Append(fields...) {
		if err := r.flushFrame(); err != nil {
			return err
		}
		if !r.app.Append(fields...) {
			return fmt.Errorf("runfile: tuple does not fit an empty frame")
		}
	}
	r.n++
	for _, f := range fields {
		r.sz += int64(len(f))
	}
	return nil
}

// AppendRef copies one packed record from a frame in a single memmove.
func (r *RunFile) AppendRef(ref tuple.TupleRef) error {
	if !r.app.AppendRef(ref) {
		if err := r.flushFrame(); err != nil {
			return err
		}
		if !r.app.AppendRef(ref) {
			return fmt.Errorf("runfile: tuple does not fit an empty frame")
		}
	}
	r.n++
	r.sz += int64(ref.Size())
	return nil
}

// AppendFrame writes every tuple of the frame.
func (r *RunFile) AppendFrame(f *tuple.Frame) error {
	for i := 0; i < f.Len(); i++ {
		if err := r.AppendRef(f.Tuple(i)); err != nil {
			return err
		}
	}
	return nil
}

// flushFrame writes the current frame image and resets it for refilling.
func (r *RunFile) flushFrame() error {
	if r.fr.Len() == 0 {
		return nil
	}
	if err := tuple.WriteFrame(r.w, r.fr); err != nil {
		return err
	}
	r.off += int64(r.fr.FrameImageSize())
	r.fr.Reset()
	return nil
}

// EndRun ends the run appended since the previous EndRun (or since
// creation), makes it readable and returns its section. Appending may
// go on; the next run starts where this one ends.
func (r *RunFile) EndRun() (RunSection, error) {
	if err := r.flushFrame(); err != nil {
		return RunSection{}, err
	}
	if err := r.w.Flush(); err != nil {
		return RunSection{}, err
	}
	s := RunSection{Off: r.runStart, Len: r.off - r.runStart}
	r.runStart = r.off
	return s, nil
}

// OpenSection returns a reader over one run the file's EndRun returned.
// It reads through the run file's own descriptor with positioned reads,
// so it opens no file and needs no buffer beyond its frame; it is valid
// until the run file is closed.
func (r *RunFile) OpenSection(s RunSection) *RunReader {
	return &RunReader{r: io.NewSectionReader(r.f, s.Off, s.Len), fr: tuple.GetFrame()}
}

// Count returns the number of tuples written.
func (r *RunFile) Count() int64 { return r.n }

// PayloadBytes returns the total tuple payload bytes written.
func (r *RunFile) PayloadBytes() int64 { return r.sz }

// Path returns the file's path.
func (r *RunFile) Path() string { return r.path }

// CloseWrite flushes and closes the write handle. The file remains on
// disk for reading. The pooled frame and the file descriptor are
// released even when a flush fails (the first error is reported), so a
// failed spill cannot strand a frame lease or leak an fd.
func (r *RunFile) CloseWrite() error {
	var firstErr error
	if r.fr != nil {
		if r.w != nil {
			if err := r.flushFrame(); err != nil {
				firstErr = err
			}
		}
		tuple.PutFrame(r.fr)
		r.fr = nil
	}
	if r.w != nil {
		if err := r.w.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
		r.w = nil
	}
	if r.f != nil {
		err := r.f.Close()
		r.f = nil
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Delete removes the file from disk.
func (r *RunFile) Delete() error {
	_ = r.CloseWrite()
	return os.Remove(r.path)
}

// RunReader streams tuples back from a run file, loading one pooled
// frame at a time. It is a tuple.RefSource.
type RunReader struct {
	f     *os.File // nil for a section reader, which borrows its file
	r     io.Reader
	fr    *tuple.Frame
	idx   int
	begun bool
}

// OpenRunReader opens path for sequential reading.
func OpenRunReader(path string) (*RunReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("runfile: open %s: %w", path, err)
	}
	return &RunReader{f: f, r: bufio.NewReaderSize(f, 1<<16), fr: tuple.GetFrame()}, nil
}

// NextRef returns a zero-copy ref to the next tuple, or io.EOF at end of
// file. The ref is valid until the next NextRef call crosses a frame
// boundary; callers that hold tuples across reads must copy them.
func (rr *RunReader) NextRef() (tuple.TupleRef, error) {
	for !rr.begun || rr.idx >= rr.fr.Len() {
		if err := tuple.ReadFrameInto(rr.r, rr.fr); err != nil {
			return tuple.TupleRef{}, err
		}
		rr.begun = true
		rr.idx = 0
	}
	r := rr.fr.Tuple(rr.idx)
	rr.idx++
	return r, nil
}

// Close releases the read handle and its frame buffer.
func (rr *RunReader) Close() error {
	if rr.fr != nil {
		tuple.PutFrame(rr.fr)
		rr.fr = nil
	}
	if rr.f == nil {
		return nil
	}
	return rr.f.Close()
}
