package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"pregelix/internal/core"
	"pregelix/internal/graphgen"
	"pregelix/internal/hyracks"
	"pregelix/internal/reference"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

// repResult is what one repetition measured and counted.
type repResult struct {
	setups []time.Duration
	jobs   []time.Duration // load + supersteps, dump excluded
	jobCPU []float64       // process user+sys CPU seconds per job
	loads  []time.Duration
	iters  []time.Duration
	// spanGaps is, per job, the share of its wall time that the load
	// and superstep durations the program reports leave uncovered.
	spanGaps []float64

	// Serve workload only.
	reads        []time.Duration // point-read batch latencies
	readVertices int
	readWall     time.Duration // time spent in successful point reads
	refreshes    []time.Duration
	refreshSteps int64
	refreshMsgs  int64
	queryHits    int64
	queryMisses  int64
	// readbackErr is the largest absolute difference between a value
	// read back after the last refresh and the oracle's.
	readbackErr float64

	attempted, failed, mismatches int

	// Counters the program exports, summed over the repetition's jobs.
	supersteps, messages                             int64
	cacheHits, cacheMisses, evictions, writebacks    int64
	ioBytes, netTuples, netBytes, wireBytes, wireRaw int64
}

// addJob folds one measured job into the repetition: its wall time and
// CPU, and the statistics of every program job it ran. On the serve
// workload the measured job is the base job plus the refresh phase, so
// its statistics are the base job's followed by each refresh's.
func (r *repResult) addJob(wall time.Duration, cpu float64, stats ...*core.JobStats) {
	r.jobs = append(r.jobs, wall)
	r.jobCPU = append(r.jobCPU, cpu)
	var covered time.Duration
	for _, s := range stats {
		r.loads = append(r.loads, s.LoadDuration)
		covered += s.LoadDuration
		for _, ss := range s.SuperstepStats {
			r.iters = append(r.iters, ss.Duration)
			covered += ss.Duration
		}
		r.addCounters(s)
	}
	r.spanGaps = append(r.spanGaps, 1-covered.Seconds()/wall.Seconds())
}

func (r *repResult) addCounters(stats *core.JobStats) {
	r.supersteps += stats.Supersteps
	r.messages += stats.TotalMessages
	for _, ss := range stats.SuperstepStats {
		r.ioBytes += ss.IOBytes
		r.netTuples += ss.NetworkTuples
		r.netBytes += ss.NetworkBytes
		r.wireBytes += ss.NetworkWireBytes
		r.wireRaw += ss.NetworkWireRawBytes
	}
}

// inproc is a workload that runs one job per repetition through the
// single-process Runtime.Run on a simulated cluster of simNodes nodes.
type inproc struct {
	dir    string
	input  inputInfo
	text   []byte
	cfg    hyracks.NodeConfig
	newJob func(name string) *pregel.Job
	want   map[uint64]string
	equal  func(got, want string) bool
	seq    int
}

// simNodes matches the two CPUs the benchmark is sized for.
const simNodes = 2

// setupRepeats is how many times each repetition sets up its runtime
// or cluster; setup_s is the median over all of them.
const setupRepeats = 4

func newInproc(dir string, g *graphgen.Graph, cfg hyracks.NodeConfig, newJob func(string) *pregel.Job, equal func(got, want string) bool) (*inproc, error) {
	var buf bytes.Buffer
	n, err := graphgen.WriteText(&buf, g)
	if err != nil {
		return nil, err
	}
	want, err := referenceValues(newJob("reference"), g)
	if err != nil {
		return nil, err
	}
	ram := int64(simNodes) * cfg.RAMBytes
	return &inproc{
		dir: dir,
		input: inputInfo{
			Vertices: g.NumVertices(), Edges: g.NumEdges(), InputBytes: n,
			RAMBytes: ram, RAMRatio: float64(n) / float64(ram),
		},
		text: buf.Bytes(), cfg: cfg, newJob: newJob, want: want, equal: equal,
	}, nil
}

func (w *inproc) info() inputInfo { return w.input }

func (w *inproc) rep(ctx context.Context, t *tracer) (*repResult, error) {
	w.seq++
	base := filepath.Join(w.dir, fmt.Sprintf("rep%d", w.seq))
	defer os.RemoveAll(base)
	if err := t.startProfile(); err != nil {
		return nil, err
	}
	defer t.stopProfile()

	r := &repResult{}
	job := w.newJob(fmt.Sprintf("job%d", w.seq))
	// Set up setupRepeats times and keep the last runtime: one set-up
	// takes about a millisecond, too short for one sample to be steady.
	var rt *core.Runtime
	for k := 0; k < setupRepeats; k++ {
		if rt != nil {
			if err := rt.Close(); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(base, fmt.Sprintf("setup%d", k))
		start := time.Now()
		err := t.do(ctx, "setup", func(context.Context) error {
			var err error
			rt, err = core.NewRuntime(core.Options{BaseDir: dir, Nodes: simNodes, NodeConfig: w.cfg})
			if err != nil {
				return err
			}
			return rt.DFS.WriteFile(job.InputPath, w.text)
		})
		if err != nil {
			if rt != nil {
				rt.Close()
			}
			return nil, fmt.Errorf("setup: %w", err)
		}
		r.setups = append(r.setups, time.Since(start))
		t.span("setup", "setup", start, time.Since(start), nil)
	}
	defer rt.Close()

	r.attempted++
	var stats *core.JobStats
	cpu0, jobStart := cpuSeconds(), time.Now()
	err := t.do(ctx, "job", func(ctx context.Context) error {
		var err error
		stats, err = rt.Run(ctx, job)
		return err
	})
	wall, cpu := time.Since(jobStart), cpuSeconds()-cpu0
	t.stopProfile()
	if err != nil {
		// A failed job has no result to check: every vertex counts as a
		// mismatch, so the run is incorrect rather than just faster.
		r.failed++
		r.mismatches += len(w.want)
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", job.Name, err)
		return r, nil
	}
	// The paper's job time excludes the dump; Run reports its length.
	jobTime := wall - stats.DumpDuration
	r.addJob(jobTime, cpu, stats)
	t.jobSpans(job.Name, jobStart, jobTime, stats)
	for _, n := range rt.CollectStats().Nodes {
		r.cacheHits += n.CacheHits
		r.cacheMisses += n.CacheMisses
		r.evictions += n.Evictions
		r.writebacks += n.Writebacks
	}

	out, err := rt.DFS.ReadFile(job.OutputPath)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", job.OutputPath, err)
	}
	r.mismatches += countMismatches(parseDump(out), w.want, w.equal)
	return r, nil
}

// The PageRank workload: a power-law webmap whose input text is larger
// than the simulated cluster's aggregated RAM, so the combining sort
// group-by spills and merges on every superstep.
const (
	prVertices   = 5000
	prDegree     = 8
	prIterations = 8
	prRAMPerNode = 80 << 10
)

func preparePageRank(seed int64, sz scale, dir string) (instance, error) {
	g := graphgen.Webmap(sz.n(prVertices), prDegree, seed)
	cfg := hyracks.NodeConfig{RAMBytes: prRAMPerNode, PageSize: 4096}
	return newInproc(dir, g, cfg, func(name string) *pregel.Job {
		return algorithms.NewPageRankJob(name, "/in/"+name, "/out/"+name, prIterations)
	}, floatsClose)
}

// The SSSP workload: a weighted 2-D grid, road-network-like, whose
// diameter (about twice the side) sets hundreds of supersteps with a
// thin frontier each, so the left-outer-join plan probes the vertex
// B-tree through the buffer cache and per-superstep fixed costs
// dominate.
const (
	gridSide       = 70
	ssspRAMPerNode = 64 << 10
)

func prepareSSSP(seed int64, sz scale, dir string) (instance, error) {
	side := sz.n(gridSide)
	g := gridGraph(side, seed)
	cfg := hyracks.NodeConfig{RAMBytes: ssspRAMPerNode, PageSize: 4096}
	return newInproc(dir, g, cfg, func(name string) *pregel.Job {
		// NewSSSPJob's default plan is the left outer join.
		return algorithms.NewSSSPJob(name, "/in/"+name, "/out/"+name, 1)
	}, exactEqual)
}

// gridGraph builds a side x side grid with edges both ways between
// neighbours and integer weights 1..4, which the text format carries
// exactly, so distances are exact sums. Vertex 1 is a corner.
func gridGraph(side int, seed int64) *graphgen.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := &graphgen.Graph{
		Adj:     make(map[uint64][]uint64, side*side),
		Weights: make(map[uint64][]float32, side*side),
	}
	id := func(row, col int) uint64 { return uint64(row*side + col + 1) }
	for row := 0; row < side; row++ {
		for col := 0; col < side; col++ {
			v := id(row, col)
			// Appended in ascending id order: up, left, right, down.
			for _, nb := range [][2]int{{row - 1, col}, {row, col - 1}, {row, col + 1}, {row + 1, col}} {
				if nb[0] < 0 || nb[0] >= side || nb[1] < 0 || nb[1] >= side {
					continue
				}
				g.Adj[v] = append(g.Adj[v], id(nb[0], nb[1]))
				g.Weights[v] = append(g.Weights[v], float32(1+rng.Intn(4)))
			}
		}
	}
	return g
}

// referenceValues runs the oracle interpreter and renders each vertex
// value the way the dump does.
func referenceValues(job *pregel.Job, g *graphgen.Graph) (map[uint64]string, error) {
	eng := reference.NewFromGraph(job, g)
	if _, err := eng.Run(0); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	out := make(map[uint64]string, len(eng.Vertices()))
	for id, v := range eng.Vertices() {
		out[id] = pregel.ValueString(v.Value)
	}
	return out, nil
}
