// Command perfbench is the repository's benchmark: one command that runs
// a seeded workload against the Pregelix runtime, checks every result
// against internal/reference, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics) as the last line of standard
// output. BENCHMARK.json at the repository root defines the workloads
// and metrics; README.md in this directory maps each per-layer metric to
// the end-to-end metric it should move.
//
// Everything is measured from outside the program: the benchmark times
// its own calls into public functions of internal/core and reads the
// counters the program already exports, plus Go runtime and /proc
// counters of this process.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// A workload generates its inputs and reference results from a seed
// (prepare) and then runs measured repetitions (rep). Each repetition
// builds a fresh runtime or cluster, so no state — and no buffer-cache
// warmth — carries from one repetition into the next.
type workload struct {
	name    string
	prepare func(seed int64, sz scale, dir string) (instance, error)
}

type instance interface {
	info() inputInfo
	rep(ctx context.Context, t *tracer) (*repResult, error)
}

// inputInfo states the input size every throughput is measured at.
type inputInfo struct {
	Vertices   int     `json:"vertices"`
	Edges      int     `json:"edges"`
	InputBytes int64   `json:"input_bytes"`
	RAMBytes   int64   `json:"aggregated_ram_bytes"`
	RAMRatio   float64 `json:"dataset_ram_ratio"`
}

// scale shrinks a workload for the smoke test; 1 is the benchmark size.
type scale float64

func (s scale) n(full int) int {
	v := int(float64(full) * float64(s))
	if v < 2 {
		v = 2
	}
	return v
}

var workloads = []workload{
	{name: "pr-webmap-ooc", prepare: preparePageRank},
	{name: "sssp-grid-loj", prepare: prepareSSSP},
	{name: "dpr-tcp-serve", prepare: prepareServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for scratch state, traces and profiles")
	flag.Parse()
	runtime.GOMAXPROCS(procs)

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := runWorkload(w, *seed, scale(1), time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	detail, err := json.Marshal(res.detail)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.summary)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(detail))
	fmt.Println(string(line))
}

// procs is the number of OS threads running Go code. The program runs
// on one: on a virtual machine that cannot sustain both of its CPUs
// (the hypervisor steals 5-25% of their time, varying from minute to
// minute), two threads made wall times track the steal rather than the
// program; one thread stays below that ceiling.
const procs = 1

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is the line before it: the stated input size, sample counts
// and the correctness counters.
type detail struct {
	Workload         string         `json:"workload"`
	Seed             int64          `json:"seed"`
	Traced           bool           `json:"traced"`
	Input            inputInfo      `json:"input"`
	Reps             int            `json:"reps"`
	Samples          map[string]int `json:"samples"`
	ResultMismatches int            `json:"result_mismatches"`
	FailedFrac       float64        `json:"failed_frac"`
	// ReadbackMaxAbsErr is, on the serve workload, the largest absolute
	// difference between a read-back value and the oracle's, over all
	// repetitions: how close the refreshed fixed point really gets.
	ReadbackMaxAbsErr float64 `json:"readback_max_abs_err,omitempty"`
	// StealFrac is the share of the machine's CPU time the hypervisor
	// stole during the measured window (0 on bare metal).
	StealFrac float64 `json:"steal_frac"`
	Checks    []check `json:"checks,omitempty"`
	TraceFile string  `json:"trace_file,omitempty"`
}

type runResult struct {
	summary summary
	detail  detail
}

// minReps is the fewest measured repetitions a run makes, however long
// they take; the window only adds repetitions beyond it.
const minReps = 3

// minIterSamples is the fewest superstep samples the untraced
// repetitions pool, so that at least 10 lie beyond iter_ms_p90.
const minIterSamples = 100

// runWorkload prepares the seeded inputs in a scratch directory under
// out and measures them.
func runWorkload(w workload, seed int64, sz scale, window time.Duration, traced bool, out string) (*runResult, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(out, "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	inst, err := w.prepare(seed, sz, dir)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	return measure(w.name, seed, inst, window, traced, out)
}

// measure runs one unmeasured warm-up repetition, then measured
// repetitions until the window closes.
func measure(name string, seed int64, inst instance, window time.Duration, traced bool, out string) (*runResult, error) {
	// A hang surfaces as a cancelled context and a failed run, well
	// before a run's three-minute limit.
	ctx, cancel := context.WithTimeout(context.Background(), window+90*time.Second)
	defer cancel()

	if _, err := inst.rep(ctx, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	proc := startProcessWindow()
	var untraced, tracedReps []*repResult
	tr := newTracer()
	start := time.Now()
	// Repetitions continue until the window closes, minReps have run and
	// the superstep samples reach their floor; a repetition whose job
	// failed ends the floor's claim, since more would not add samples.
	iterSamples, jobFailed := 0, false
	for i := 0; i < minReps || time.Since(start) < window || (iterSamples < minIterSamples && !jobFailed); i++ {
		// In a traced run, alternate traced and untraced repetitions so
		// the tracing overhead is measured on interleaved samples.
		var t *tracer
		if traced && i%2 == 1 {
			t = tr
		}
		// Start every repetition from a collected heap and flushed file
		// systems, so neither garbage nor dirty pages and journal commits
		// left by the one before land in this one's set-up or job.
		runtime.GC()
		syscall.Sync()
		r, err := inst.rep(ctx, t)
		if err != nil {
			return nil, err
		}
		if t != nil {
			tracedReps = append(tracedReps, r)
		} else {
			untraced = append(untraced, r)
			iterSamples += len(r.iters)
		}
		if len(r.jobs) == 0 {
			jobFailed = true
		}
	}
	all := append(append([]*repResult{}, untraced...), tracedReps...)
	procDelta := proc.end()

	res := &runResult{}
	res.detail = detail{
		Workload:  name,
		Seed:      seed,
		Traced:    traced,
		Input:     inst.info(),
		Reps:      len(all),
		StealFrac: procDelta.stealFrac,
	}
	for _, r := range all {
		res.summary.Attempted += r.attempted
		res.summary.Failed += r.failed
		res.detail.ResultMismatches += r.mismatches
		res.detail.ReadbackMaxAbsErr = math.Max(res.detail.ReadbackMaxAbsErr, r.readbackErr)
	}
	if res.summary.Attempted > 0 {
		res.detail.FailedFrac = float64(res.summary.Failed) / float64(res.summary.Attempted)
	}
	res.summary.Correct = res.detail.ResultMismatches == 0

	if !traced {
		var err error
		res.summary.Metrics, res.detail.Samples, err = endToEnd(untraced, procDelta)
		if err != nil {
			return nil, err
		}
		return res, nil
	}
	metrics, checks, err := perLayer(untraced, tracedReps, tr, procDelta)
	if err != nil {
		return nil, err
	}
	res.summary.Metrics = metrics
	res.detail.Checks = checks
	for _, c := range checks {
		if !c.OK {
			res.summary.Correct = false
		}
	}
	traceDir := filepath.Join(out, "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	res.detail.TraceFile = filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", name, seed))
	if err := tr.writeChrome(res.detail.TraceFile); err != nil {
		return nil, err
	}
	if err := tr.writeProfile(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.pprof", name, seed))); err != nil {
		return nil, err
	}
	return res, nil
}

// endToEnd reduces the untraced repetitions to the end-to-end metrics.
// A metric with no samples — every job failed — is an error, not a 0
// that would read as a speed-up.
func endToEnd(reps []*repResult, proc processDelta) (map[string]metric, map[string]int, error) {
	var setups, jobs, iters, cpus []float64
	for _, r := range reps {
		for _, d := range r.setups {
			setups = append(setups, d.Seconds())
		}
		for i, j := range r.jobs {
			jobs = append(jobs, j.Seconds())
			cpus = append(cpus, r.jobCPU[i])
		}
		for _, it := range r.iters {
			iters = append(iters, float64(it)/float64(time.Millisecond))
		}
	}
	samples := map[string]int{"setup_s": len(setups), "job_s": len(jobs), "iter_ms": len(iters), "cpu_s": len(cpus)}
	for name, n := range samples {
		if n == 0 {
			return nil, nil, fmt.Errorf("no %s samples: every measured job failed", name)
		}
	}
	m := map[string]metric{
		"setup_s":     {median(setups), "s"},
		"job_s":       {median(jobs), "s"},
		"iter_ms_p50": {quantile(iters, 0.50), "ms"},
		"iter_ms_p90": {quantile(iters, 0.90), "ms"},
		"cpu_s":       {median(cpus), "s"},
		"peak_rss_mb": {proc.peakRSSMB, "MB"},
	}
	return m, samples, nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolation quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
