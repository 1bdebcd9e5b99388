package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pregelix/internal/core"
	"pregelix/internal/delta"
	"pregelix/internal/graphgen"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

// The serve workload: a coordinator and two RunWorker goroutines in
// this process, talking over loopback TCP. A residual-PageRank base job
// is sealed for queries; then one writer streams edge-addition batches
// through DeltaRefresh while one closed-loop reader issues
// Zipf-distributed point-read batches, and a top-k on each new version,
// against whatever LatestVersion reports at that moment.
//
// The traffic mix comes from figures with a stated source, not from
// tuning: README.md lists them.
const (
	serveVertices   = 1000
	serveDegree     = 5
	serveRAMPerNode = 256 << 10
	serveEpsilon    = 0 // the job's default convergence threshold (1e-9)
	// serveOracleEpsilon is the oracle's threshold, far below the job's.
	serveOracleEpsilon = 1e-14
	serveRefreshes     = 6 // DeltaRefresh calls per repetition
	// serveChurn is the share of |E| each refresh adds: the 1% edge
	// churn of the repository's delta experiment (internal/bench/delta.go).
	serveChurn = 0.01
	// serveReadBatch is the point-read batch of the repository's query
	// experiment (internal/bench/query.go), and serveTopK its k.
	serveReadBatch = 64
	serveTopK      = 10
	// serveReadsPerRefresh is YCSB workload B's mix, 95% reads to 5%
	// updates (Cooper et al., SoCC 2010), with one read batch or one
	// refresh as the operation: 19 read batches per refresh.
	serveReadsPerRefresh = 19
	// serveZipfTheta is YCSB's default Zipfian request constant.
	serveZipfTheta   = 0.99
	serveJobName     = "dpr"
	serveBaseVersion = serveJobName + "@j1"
)

type serveSpec struct {
	Input string `json:"input"`
}

func buildServeJob(raw json.RawMessage) (*pregel.Job, error) {
	var s serveSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, err
	}
	return algorithms.NewDeltaPageRankJob(serveJobName, s.Input, "", serveEpsilon), nil
}

type serve struct {
	dir     string
	input   inputInfo
	text    []byte
	spec    json.RawMessage
	batches [][]delta.Mutation
	ids     []uint64 // all vertex ids, ascending
	hot     []uint64 // ids in Zipf rank order
	zipf    *zipfSampler
	want    map[uint64]string
	seed    int64
	seq     int
}

func prepareServe(seed int64, sz scale, dir string) (instance, error) {
	g := graphgen.BTC(sz.n(serveVertices), serveDegree, seed)
	// The delta-PageRank codec owns the edge-value slot, so the input
	// carries no weights.
	g.Weights = nil
	pairs := int(serveChurn * float64(g.NumEdges()) / 2)
	if pairs < 1 {
		pairs = 1
	}
	mg, batches := addEdgeBatches(g, serveRefreshes, pairs, seed+1)
	// The oracle runs the same job to serveOracleEpsilon with no
	// superstep backstop: close enough to exact PageRank that the gate
	// measures the refresh's own error, not the oracle's.
	oracle := algorithms.NewDeltaPageRankJob("reference", "", "", serveOracleEpsilon)
	oracle.MaxSupersteps = 0
	want, err := referenceValues(oracle, mg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	n, err := graphgen.WriteText(&buf, g)
	if err != nil {
		return nil, err
	}
	spec, err := json.Marshal(serveSpec{Input: "/in/" + serveJobName})
	if err != nil {
		return nil, err
	}
	ids := g.VertexIDs()
	hot := append([]uint64(nil), ids...)
	rand.New(rand.NewSource(seed+2)).Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
	ram := int64(2) * serveRAMPerNode
	return &serve{
		dir: dir,
		input: inputInfo{
			Vertices: g.NumVertices(), Edges: g.NumEdges(), InputBytes: n,
			RAMBytes: ram, RAMRatio: float64(n) / float64(ram),
		},
		text: buf.Bytes(), spec: spec, batches: batches, ids: ids, hot: hot,
		zipf: newZipfSampler(len(hot), serveZipfTheta), want: want, seed: seed,
	}, nil
}

// zipfSampler draws ranks 0..n-1 with P(rank i) proportional to
// 1/(i+1)^theta. math/rand's Zipf needs an exponent above 1; YCSB's
// constant is below it.
type zipfSampler struct{ cdf []float64 }

func newZipfSampler(n int, theta float64) *zipfSampler {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipfSampler{cdf: cdf}
}

func (z *zipfSampler) draw(rng *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cdf, rng.Float64()), len(z.cdf)-1)
}

// addEdgeBatches draws rounds batches of pairs new undirected edges
// each (both directions as mutations) and returns the graph with all
// of them applied.
func addEdgeBatches(g *graphgen.Graph, rounds, pairs int, seed int64) (*graphgen.Graph, [][]delta.Mutation) {
	rng := rand.New(rand.NewSource(seed))
	ids := g.VertexIDs()
	adj := make(map[uint64]map[uint64]bool, len(ids))
	for id, edges := range g.Adj {
		adj[id] = make(map[uint64]bool, len(edges))
		for _, d := range edges {
			adj[id][d] = true
		}
	}
	batches := make([][]delta.Mutation, rounds)
	for r := range batches {
		for n := 0; n < pairs; {
			a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if a == b || adj[a][b] {
				continue
			}
			adj[a][b], adj[b][a] = true, true
			batches[r] = append(batches[r],
				delta.Mutation{Op: delta.OpAddEdge, ID: a, Dst: b},
				delta.Mutation{Op: delta.OpAddEdge, ID: b, Dst: a})
			n++
		}
	}
	out := &graphgen.Graph{Adj: make(map[uint64][]uint64, len(adj))}
	for id, set := range adj {
		edges := make([]uint64, 0, len(set))
		for d := range set {
			edges = append(edges, d)
		}
		sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
		out.Adj[id] = edges
	}
	return out, batches
}

func (s *serve) info() inputInfo { return s.input }

func (s *serve) rep(ctx context.Context, t *tracer) (*repResult, error) {
	s.seq++
	base := filepath.Join(s.dir, fmt.Sprintf("rep%d", s.seq))
	defer os.RemoveAll(base)
	if err := t.startProfile(); err != nil {
		return nil, err
	}
	defer t.stopProfile()

	r := &repResult{}
	var c *cluster
	defer func() {
		if c != nil {
			c.close()
		}
	}()
	for k := 0; k < setupRepeats; k++ {
		if c != nil {
			c.close()
			c = nil
		}
		start := time.Now()
		err := t.do(ctx, "setup", func(ctx context.Context) error {
			var err error
			c, err = startCluster(ctx, filepath.Join(base, fmt.Sprintf("setup%d", k)), s.text)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		r.setups = append(r.setups, time.Since(start))
		t.span("setup", "setup", start, time.Since(start), nil)
	}
	coord := c.coord

	job, err := buildServeJob(s.spec)
	if err != nil {
		return nil, err
	}
	// The measured job is the base job plus the refresh phase: job_s,
	// cpu_s and the superstep samples cover both, so a slower refresh or
	// query path shows in the end-to-end metrics.
	r.attempted++
	var stats *core.JobStats
	cpu0, jobStart := cpuSeconds(), time.Now()
	err = t.do(ctx, "job", func(ctx context.Context) error {
		var err error
		stats, _, err = coord.RunJob(ctx, core.DistSubmission{
			Name: serveBaseVersion, Spec: s.spec, Job: job, InputPath: "/in/" + serveJobName,
		})
		return err
	})
	if err != nil {
		// Nothing was sealed to refresh or read back: every vertex
		// counts as a mismatch.
		r.failed++
		r.mismatches += len(s.want)
		fmt.Fprintf(os.Stderr, "perfbench: base job: %v\n", err)
		return r, nil
	}
	t.jobSpans(serveBaseVersion, jobStart, time.Since(jobStart), stats)

	final, refreshed := s.refreshUnderReads(ctx, coord, r, t)
	wall, cpu := time.Since(jobStart), cpuSeconds()-cpu0
	r.addJob(wall, cpu, append([]*core.JobStats{stats}, refreshed...)...)
	t.span("base job + refreshes", "job", jobStart, wall, nil)
	r.queryHits, r.queryMisses = coord.QueryCacheStats()
	t.stopProfile()

	// Gate: the final version must be the last refresh, and reading it
	// back must reproduce the reference on the fully mutated graph.
	r.attempted++
	got, err := coord.QueryVertices(ctx, final, s.ids)
	if err != nil {
		r.failed++
		r.mismatches += len(s.want)
		fmt.Fprintf(os.Stderr, "perfbench: reading back %s: %v\n", final, err)
		return r, nil
	}
	values := make(map[uint64]string, len(got))
	for _, v := range got {
		if v.Found {
			values[v.Vid] = v.Value
		}
	}
	r.mismatches += countMismatches(values, s.want, convergedClose)
	r.readbackErr = maxAbsDiff(values, s.want)
	if want := fmt.Sprintf("%s@d%d", serveBaseVersion, len(s.batches)); final != want {
		fmt.Fprintf(os.Stderr, "perfbench: latest version %s, want %s\n", final, want)
		r.mismatches++
	}
	return r, nil
}

// cluster is a coordinator plus its two in-process workers.
type cluster struct {
	coord       *core.Coordinator
	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
}

// startCluster brings up a coordinator and two RunWorker goroutines of
// one simulated node each, and puts the input on the cluster's DFS.
// On error the partial cluster is already torn down.
func startCluster(ctx context.Context, dir string, input []byte) (*cluster, error) {
	coord, err := core.NewCoordinator(core.CoordinatorConfig{
		ListenAddr: "127.0.0.1:0",
		Workers:    2,
		RAMBytes:   serveRAMPerNode,
		PageSize:   4096,
		BaseDir:    filepath.Join(dir, "cc"),
	})
	if err != nil {
		return nil, err
	}
	wctx, stop := context.WithCancel(ctx)
	c := &cluster{coord: coord, stopWorkers: stop}
	for i := 0; i < 2; i++ {
		c.workers.Add(1)
		go func(i int) {
			defer c.workers.Done()
			// A worker returns an error once close cancels it; a worker
			// that dies early fails WaitReady or the job instead.
			_ = core.RunWorker(wctx, core.WorkerConfig{
				CCAddr:   coord.Addr(),
				BaseDir:  filepath.Join(dir, fmt.Sprintf("w%d", i)),
				Nodes:    1,
				BuildJob: buildServeJob,
			})
		}(i)
	}
	if err := coord.WaitReady(ctx); err != nil {
		c.close()
		return nil, err
	}
	if err := coord.PutFile(ctx, "/in/"+serveJobName, input); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// close stops the workers and the coordinator and waits for the worker
// goroutines to return.
func (c *cluster) close() {
	c.stopWorkers()
	c.coord.Close()
	c.workers.Wait()
}

// refreshUnderReads runs the writer and the reader side by side. The
// writer applies every batch in sequence; before each refresh it grants
// the reader serveReadsPerRefresh read batches, so reads run beside
// every refresh and the amount of read work is fixed. It returns once
// both are done, with the version the last successful refresh sealed
// and the statistics of each successful refresh.
func (s *serve) refreshUnderReads(ctx context.Context, coord *core.Coordinator, r *repResult, t *tracer) (string, []*core.JobStats) {
	var mu sync.Mutex // guards r between the two goroutines
	latest := serveBaseVersion
	var refreshed []*core.JobStats
	grants := make(chan struct{}, serveReadsPerRefresh*len(s.batches))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(grants)
		// The writer counts and reports its own failures in r.
		_ = t.do(ctx, "refresh", func(ctx context.Context) error {
			for i, muts := range s.batches {
				job, err := buildServeJob(s.spec)
				if err != nil {
					return err
				}
				for k := 0; k < serveReadsPerRefresh; k++ {
					grants <- struct{}{}
				}
				name := fmt.Sprintf("%s@d%d", serveBaseVersion, i+1)
				start := time.Now()
				stats, err := coord.DeltaRefresh(ctx, core.DeltaSubmission{
					Version: latest, Name: name, Spec: s.spec, Job: job, Muts: muts,
				})
				dur := time.Since(start)
				mu.Lock()
				r.attempted++
				if err != nil {
					r.failed++
					mu.Unlock()
					// Later batches would build on a version that does
					// not exist; the read-back gate reports the loss.
					fmt.Fprintf(os.Stderr, "perfbench: refresh %s: %v\n", name, err)
					return err
				}
				r.refreshes = append(r.refreshes, dur)
				r.refreshSteps += stats.Supersteps
				r.refreshMsgs += stats.TotalMessages
				mu.Unlock()
				refreshed = append(refreshed, stats)
				t.spanOn(tidWriter, name, "refresh", start, dur, map[string]any{"supersteps": stats.Supersteps})
				latest = name
			}
			return nil
		})
	}()
	go func() {
		defer wg.Done()
		// The reader counts its failures in r and never returns one.
		_ = t.do(ctx, "read", func(ctx context.Context) error {
			s.readLoop(ctx, coord, r, &mu, grants, t)
			return nil
		})
	}()
	wg.Wait()
	return latest, refreshed
}

// readLoop is the closed-loop reader: for each grant it resolves the
// current version and reads a batch of it, after a top-k if the version
// is one it has not read yet. A read that fails — including one whose
// version a refresh superseded between the two calls — counts as a
// failed attempt and is not retried; the next batch resolves the
// version afresh.
func (s *serve) readLoop(ctx context.Context, coord *core.Coordinator, r *repResult, mu *sync.Mutex, grants <-chan struct{}, t *tracer) {
	rng := rand.New(rand.NewSource(s.seed*1000 + int64(s.seq)))
	batch := make([]uint64, serveReadBatch)
	var firstErr error
	record := func(err error, dur time.Duration, asked, found int) {
		mu.Lock()
		defer mu.Unlock()
		r.attempted++
		switch {
		case err != nil:
			r.failed++
			if firstErr == nil || !errors.Is(err, core.ErrNoResult) {
				firstErr = err
			}
		case asked > 0:
			r.reads = append(r.reads, dur)
			r.readVertices += asked
			r.readWall += dur
			// Every vertex exists in every version: edges are only added.
			r.mismatches += asked - found
		}
	}
	seen := ""
	for range grants {
		version, ok := coord.LatestVersion(serveJobName)
		if !ok {
			version = serveBaseVersion // reported as a failed read below
		}
		if version != seen {
			seen = version
			top, err := coord.QueryTopK(ctx, version, serveTopK)
			if err == nil && len(top) != serveTopK {
				err = fmt.Errorf("top-%d returned %d rows", serveTopK, len(top))
			}
			record(err, 0, 0, 0)
		}
		for i := range batch {
			batch[i] = s.hot[s.zipf.draw(rng)]
		}
		start := time.Now()
		res, err := coord.QueryVertices(ctx, version, batch)
		dur := time.Since(start)
		found := 0
		for _, v := range res {
			if v.Found {
				found++
			}
		}
		record(err, dur, len(batch), found)
		t.spanOn(tidReader, "read", "read", start, dur, map[string]any{"version": version})
	}
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: first failed read: %v\n", firstErr)
	}
}
