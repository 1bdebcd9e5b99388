// Package dfs implements a small replicated distributed file system in
// the role HDFS plays for Pregelix: it stores the input graph, the
// dumped results, the single-tuple global state (GS) relation, and
// checkpoints (Sections 5.2, 5.5).
//
// A FileSystem has a master namespace (in memory) and a set of datanodes
// (local directories, co-located with cluster node controllers). Files
// are split into fixed-size blocks, each replicated on `replication`
// datanodes; reads fall over to surviving replicas when a datanode is
// down, which is what lets checkpoint recovery proceed after a machine
// failure.
package dfs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// DefaultBlockSize is the block size used unless configured otherwise.
const DefaultBlockSize = 4 << 20

// Datanode is one storage host for the file system.
type Datanode struct {
	Name string
	Dir  string
	down bool
}

// FileSystem is the master: namespace plus block placement.
type FileSystem struct {
	mu          sync.RWMutex
	nodes       []*Datanode
	blockSize   int64
	replication int
	files       map[string]*fileMeta
	nextBlock   int64
	rr          int
	metaPath    string // when non-empty, namespace persisted here
}

type fileMeta struct {
	blocks []*blockMeta
	size   int64
}

type blockMeta struct {
	id       int64
	size     int64
	replicas []int // datanode indices
}

// Options configures a FileSystem.
type Options struct {
	BlockSize   int64
	Replication int
	// MetaDir, when set, makes the master namespace durable: every
	// namespace mutation (create, rename, remove, block append) is
	// written to <MetaDir>/namespace.json via a staged write + rename,
	// and New reloads it, re-adopting the block files already sitting
	// in the datanode directories. Without it the namespace dies with
	// the process (the pre-durability behavior).
	MetaDir string
}

// New creates a file system over the given datanode directories.
func New(nodes []*Datanode, opts Options) (*FileSystem, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("dfs: no datanodes")
	}
	if opts.BlockSize <= 0 {
		opts.BlockSize = DefaultBlockSize
	}
	if opts.Replication <= 0 {
		opts.Replication = 1
	}
	if opts.Replication > len(nodes) {
		opts.Replication = len(nodes)
	}
	for _, n := range nodes {
		if err := os.MkdirAll(filepath.Join(n.Dir, "blocks"), 0o755); err != nil {
			return nil, err
		}
	}
	fs := &FileSystem{
		nodes:       nodes,
		blockSize:   opts.BlockSize,
		replication: opts.Replication,
		files:       make(map[string]*fileMeta),
	}
	if opts.MetaDir != "" {
		if err := os.MkdirAll(opts.MetaDir, 0o755); err != nil {
			return nil, err
		}
		fs.metaPath = filepath.Join(opts.MetaDir, "namespace.json")
		if err := fs.loadNamespace(); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// persistedNamespace is the on-disk form of the master's metadata.
// Block contents live in the datanode directories and are immutable
// once written, so the namespace file plus the block files reconstruct
// the whole file system after a master restart.
type persistedNamespace struct {
	NextBlock int64                    `json:"nextBlock"`
	Files     map[string]persistedFile `json:"files"`
}

type persistedFile struct {
	Size   int64            `json:"size"`
	Blocks []persistedBlock `json:"blocks"`
}

type persistedBlock struct {
	ID       int64 `json:"id"`
	Size     int64 `json:"size"`
	Replicas []int `json:"replicas"`
}

// loadNamespace restores the namespace from metaPath, if present.
func (fs *FileSystem) loadNamespace() error {
	data, err := os.ReadFile(fs.metaPath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var ns persistedNamespace
	if err := json.Unmarshal(data, &ns); err != nil {
		return fmt.Errorf("dfs: namespace corrupt: %w", err)
	}
	fs.nextBlock = ns.NextBlock
	for path, pf := range ns.Files {
		fm := &fileMeta{size: pf.Size}
		for _, pb := range pf.Blocks {
			b := &blockMeta{id: pb.ID, size: pb.Size}
			for _, r := range pb.Replicas {
				if r >= 0 && r < len(fs.nodes) {
					b.replicas = append(b.replicas, r)
				}
			}
			fm.blocks = append(fm.blocks, b)
		}
		fs.files[path] = fm
	}
	return nil
}

// persistLocked writes the namespace to metaPath (staged + renamed so a
// crash mid-write leaves the previous snapshot intact). Callers hold
// fs.mu for writing. No-op when the file system is not durable.
func (fs *FileSystem) persistLocked() error {
	if fs.metaPath == "" {
		return nil
	}
	ns := persistedNamespace{NextBlock: fs.nextBlock, Files: make(map[string]persistedFile, len(fs.files))}
	for path, fm := range fs.files {
		pf := persistedFile{Size: fm.size, Blocks: make([]persistedBlock, 0, len(fm.blocks))}
		for _, b := range fm.blocks {
			pf.Blocks = append(pf.Blocks, persistedBlock{ID: b.id, Size: b.size, Replicas: b.replicas})
		}
		ns.Files[path] = pf
	}
	data, err := json.Marshal(&ns)
	if err != nil {
		return err
	}
	tmp := fs.metaPath + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("dfs: persist namespace: %w", err)
	}
	if err := os.Rename(tmp, fs.metaPath); err != nil {
		return fmt.Errorf("dfs: persist namespace: %w", err)
	}
	return nil
}

// SetNodeDown marks a datanode as unavailable (failure injection).
func (fs *FileSystem) SetNodeDown(name string, down bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, n := range fs.nodes {
		if n.Name == name {
			n.down = down
		}
	}
}

func (fs *FileSystem) blockPath(nodeIdx int, id int64) string {
	return filepath.Join(fs.nodes[nodeIdx].Dir, "blocks", fmt.Sprintf("blk_%d", id))
}

// Create opens a new file for writing, replacing any existing file.
func (fs *FileSystem) Create(path string) (*Writer, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if old, ok := fs.files[path]; ok {
		fs.removeBlocksLocked(old)
	}
	fs.files[path] = &fileMeta{}
	if err := fs.persistLocked(); err != nil {
		return nil, err
	}
	return &Writer{fs: fs, path: path}, nil
}

// Exists reports whether the file is in the namespace.
func (fs *FileSystem) Exists(path string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.files[path]
	return ok
}

// Size returns the file's length in bytes.
func (fs *FileSystem) Size(path string) (int64, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	fm, ok := fs.files[path]
	if !ok {
		return 0, fmt.Errorf("dfs: %s: no such file", path)
	}
	return fm.size, nil
}

// List returns the paths under the given prefix, sorted.
func (fs *FileSystem) List(prefix string) []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var out []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Rename atomically moves a file to a new path in the namespace,
// replacing any existing file there. Blocks are untouched — only the
// master's metadata changes — so the swap is a single atomic step.
// Checkpoint commits rely on this: the manifest is staged under a
// temporary name and renamed into place only once every partition image
// is durably written, so a crash mid-checkpoint can never leave a
// manifest that points at missing data, and the previous committed
// manifest stays intact until the instant the new one replaces it.
func (fs *FileSystem) Rename(oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fm, ok := fs.files[oldPath]
	if !ok {
		return fmt.Errorf("dfs: %s: no such file", oldPath)
	}
	if victim, ok := fs.files[newPath]; ok && victim != fm {
		fs.removeBlocksLocked(victim)
	}
	delete(fs.files, oldPath)
	fs.files[newPath] = fm
	return fs.persistLocked()
}

// Remove deletes a file and its blocks.
func (fs *FileSystem) Remove(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fm, ok := fs.files[path]
	if !ok {
		return nil
	}
	fs.removeBlocksLocked(fm)
	delete(fs.files, path)
	return fs.persistLocked()
}

func (fs *FileSystem) removeBlocksLocked(fm *fileMeta) {
	for _, b := range fm.blocks {
		for _, r := range b.replicas {
			os.Remove(fs.blockPath(r, b.id))
		}
	}
}

// BlockLocations returns, per block, the datanode names holding live
// replicas — the locality information Pregelix's scheduler exploits when
// placing graph-loading scan tasks.
func (fs *FileSystem) BlockLocations(path string) ([][]string, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	fm, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("dfs: %s: no such file", path)
	}
	out := make([][]string, len(fm.blocks))
	for i, b := range fm.blocks {
		for _, r := range b.replicas {
			if !fs.nodes[r].down {
				out[i] = append(out[i], fs.nodes[r].Name)
			}
		}
	}
	return out, nil
}

// Writer streams a file into replicated blocks.
type Writer struct {
	fs   *FileSystem
	path string
	buf  bytes.Buffer
	err  error
}

// Write appends to the file, cutting blocks at the block size.
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	w.buf.Write(p)
	for int64(w.buf.Len()) >= w.fs.blockSize {
		if err := w.flushBlock(w.fs.blockSize); err != nil {
			w.err = err
			return 0, err
		}
	}
	return len(p), nil
}

func (w *Writer) flushBlock(n int64) error {
	data := w.buf.Next(int(n))
	fs := w.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fm, ok := fs.files[w.path]
	if !ok {
		return fmt.Errorf("dfs: %s removed while writing", w.path)
	}
	fs.nextBlock++
	b := &blockMeta{id: fs.nextBlock, size: int64(len(data))}
	// Choose replica nodes round-robin among live datanodes.
	var live []int
	for i, nd := range fs.nodes {
		if !nd.down {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return fmt.Errorf("dfs: no live datanodes")
	}
	reps := fs.replication
	if reps > len(live) {
		reps = len(live)
	}
	for i := 0; i < reps; i++ {
		idx := live[(fs.rr+i)%len(live)]
		if err := os.WriteFile(fs.blockPath(idx, b.id), data, 0o644); err != nil {
			return fmt.Errorf("dfs: write block: %w", err)
		}
		b.replicas = append(b.replicas, idx)
	}
	fs.rr++
	fm.blocks = append(fm.blocks, b)
	fm.size += b.size
	return fs.persistLocked()
}

// Close flushes the final partial block.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	for w.buf.Len() > 0 {
		n := int64(w.buf.Len())
		if n > w.fs.blockSize {
			n = w.fs.blockSize
		}
		if err := w.flushBlock(n); err != nil {
			w.err = err
			return err
		}
	}
	return nil
}

// Open returns a reader over the whole file, transparently failing over
// to surviving replicas.
func (fs *FileSystem) Open(path string) (*Reader, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	fm, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("dfs: %s: no such file", path)
	}
	// Snapshot block list; block contents are immutable once written.
	blocks := append([]*blockMeta(nil), fm.blocks...)
	return &Reader{fs: fs, blocks: blocks}, nil
}

// Reader streams a file's blocks in order.
type Reader struct {
	fs     *FileSystem
	blocks []*blockMeta
	idx    int
	cur    *bytes.Reader
}

// Read implements io.Reader with replica failover per block.
func (r *Reader) Read(p []byte) (int, error) {
	for {
		if r.cur != nil && r.cur.Len() > 0 {
			return r.cur.Read(p)
		}
		if r.idx >= len(r.blocks) {
			return 0, io.EOF
		}
		b := r.blocks[r.idx]
		r.idx++
		data, err := r.fs.readBlock(b)
		if err != nil {
			return 0, err
		}
		r.cur = bytes.NewReader(data)
	}
}

func (fs *FileSystem) readBlock(b *blockMeta) ([]byte, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var lastErr error
	for _, rIdx := range b.replicas {
		if fs.nodes[rIdx].down {
			lastErr = fmt.Errorf("dfs: replica node %s down", fs.nodes[rIdx].Name)
			continue
		}
		data, err := os.ReadFile(fs.blockPath(rIdx, b.id))
		if err == nil {
			return data, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("dfs: block %d has no replicas", b.id)
	}
	return nil, lastErr
}

// WriteFile is a convenience that writes data as a whole file.
func (fs *FileSystem) WriteFile(path string, data []byte) error {
	w, err := fs.Create(path)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	return w.Close()
}

// ReadFile is a convenience that reads a whole file.
func (fs *FileSystem) ReadFile(path string) ([]byte, error) {
	r, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	return io.ReadAll(r)
}
