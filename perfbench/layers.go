package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// layerMetric is one per-layer metric; README.md maps each to the
// end-to-end metric it should move, on which workload.
type layerMetric struct {
	name, unit string
}

// cpuLayers are the layers sampled CPU is charged to: the repository's
// packages that run during a repetition, the benchmark itself, and "go"
// for samples with no repository frame. Their cpu_s sum to the sampled
// total, which the traced run checks.
var cpuLayers = []string{
	"core", "delta", "dfs", "hyracks", "memory", "operators", "pregel",
	"algorithms", "storage", "tuple", "wire", "bench", "go",
}

var perLayerMetrics = []layerMetric{
	{"operators.cpu_s", "s"},
	{"operators.groupby.cpu_s", "s"},
	{"operators.join.cpu_s", "s"},
	{"storage.cpu_s", "s"},
	{"storage.runfile.cpu_s", "s"},
	{"storage.cache_hits", "count"},
	{"storage.cache_misses", "count"},
	{"storage.cache_hit_ratio", "ratio"},
	{"storage.evictions", "count"},
	{"storage.writebacks", "count"},
	{"storage.io_mb", "MB"},
	{"hyracks.cpu_s", "s"},
	{"hyracks.net_tuples", "count"},
	{"hyracks.net_mb", "MB"},
	{"wire.cpu_s", "s"},
	{"wire.bytes_mb", "MB"},
	{"wire.raw_mb", "MB"},
	{"wire.compression_ratio", "ratio"},
	{"tuple.cpu_s", "s"},
	{"algorithms.cpu_s", "s"},
	{"pregel.cpu_s", "s"},
	{"dfs.cpu_s", "s"},
	{"memory.cpu_s", "s"},
	{"core.cpu_s", "s"},
	{"core.supersteps", "count"},
	{"core.messages", "count"},
	{"core.load_s", "s"},
	{"core.query.cache_hit_ratio", "ratio"},
	{"delta.cpu_s", "s"},
	{"delta.refresh_supersteps", "count"},
	{"delta.refresh_messages", "count"},
	{"bench.cpu_s", "s"},
	{"go.cpu_s", "s"},
	{"go.gc_cpu_s", "s"},
	{"go.alloc_mb", "MB"},
	{"go.mutex_wait_s", "s"},
	{"go.sched_latency_p99_us", "us"},
	{"os.read_syscalls", "count"},
	{"os.write_syscalls", "count"},
	{"os.write_mb", "MB"},
	{"serve.read_ms_p50", "ms"},
	{"serve.read_ms_p99", "ms"},
	{"serve.reads_per_s", "1/s"},
	{"serve.refresh_s_p50", "s"},
	{"trace.cpu_s", "s"},
	{"trace.overhead_frac", "ratio"},
	{"trace.reconcile_gap_frac", "ratio"},
}

// reconcileTolerance bounds the share of a job's wall time that its
// load and superstep spans may leave uncovered: the rest is job launch
// before the load, bookkeeping between supersteps and teardown.
const reconcileTolerance = 0.15

// check is one self-check of a traced run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// perLayer reduces a traced run to the per-layer metrics: counters are
// averaged per repetition over all repetitions, sampled CPU per traced
// repetition.
func perLayer(untraced, traced []*repResult, tr *tracer, proc processDelta) (map[string]metric, []check, error) {
	if tr.profErr != nil {
		return nil, nil, tr.profErr
	}
	if len(traced) == 0 {
		return nil, nil, fmt.Errorf("no traced repetitions")
	}
	all := append(append([]*repResult{}, untraced...), traced...)
	reps := float64(len(all))
	v := map[string]float64{}
	var reads, refreshes []float64
	var readVertices int
	var readWall time.Duration
	var qHits, qMisses, refreshSteps, refreshMsgs int64
	for _, r := range all {
		v["storage.cache_hits"] += float64(r.cacheHits) / reps
		v["storage.cache_misses"] += float64(r.cacheMisses) / reps
		v["storage.evictions"] += float64(r.evictions) / reps
		v["storage.writebacks"] += float64(r.writebacks) / reps
		v["storage.io_mb"] += float64(r.ioBytes) / (1 << 20) / reps
		v["hyracks.net_tuples"] += float64(r.netTuples) / reps
		v["hyracks.net_mb"] += float64(r.netBytes) / (1 << 20) / reps
		v["wire.bytes_mb"] += float64(r.wireBytes) / (1 << 20) / reps
		v["wire.raw_mb"] += float64(r.wireRaw) / (1 << 20) / reps
		v["core.supersteps"] += float64(r.supersteps) / reps
		v["core.messages"] += float64(r.messages) / reps
		for _, l := range r.loads {
			v["core.load_s"] += l.Seconds() / reps
		}
		for _, d := range r.reads {
			reads = append(reads, float64(d)/float64(time.Millisecond))
		}
		readVertices += r.readVertices
		readWall += r.readWall
		for _, d := range r.refreshes {
			refreshes = append(refreshes, d.Seconds())
		}
		refreshSteps += r.refreshSteps
		refreshMsgs += r.refreshMsgs
		qHits += r.queryHits
		qMisses += r.queryMisses
	}
	v["storage.cache_hit_ratio"] = ratio(v["storage.cache_hits"], v["storage.cache_hits"]+v["storage.cache_misses"])
	v["wire.compression_ratio"] = ratio(v["wire.raw_mb"], v["wire.bytes_mb"])
	v["core.query.cache_hit_ratio"] = ratio(float64(qHits), float64(qHits+qMisses))
	v["delta.refresh_supersteps"] = ratio(float64(refreshSteps), float64(len(refreshes)))
	v["delta.refresh_messages"] = ratio(float64(refreshMsgs), float64(len(refreshes)))
	v["serve.read_ms_p50"] = quantile(reads, 0.50)
	v["serve.read_ms_p99"] = quantile(reads, 0.99)
	v["serve.reads_per_s"] = ratio(float64(readVertices), readWall.Seconds())
	v["serve.refresh_s_p50"] = median(refreshes)

	v["go.gc_cpu_s"] = proc.gcCPU / reps
	v["go.alloc_mb"] = proc.allocMB / reps
	v["go.mutex_wait_s"] = proc.mutexWait / reps
	v["go.sched_latency_p99_us"] = proc.schedP99us
	v["os.read_syscalls"] = proc.readSyscalls / reps
	v["os.write_syscalls"] = proc.writeSyscalls / reps
	v["os.write_mb"] = proc.writeMB / reps

	nt := float64(len(traced))
	var charged int64
	for layer, ns := range tr.cpuNs {
		if !strings.Contains(layer, ".") {
			charged += ns
		}
		v[layer+".cpu_s"] = float64(ns) / 1e9 / nt
	}
	var listed int64
	for _, l := range cpuLayers {
		listed += tr.cpuNs[l]
	}
	v["trace.cpu_s"] = float64(tr.totalNs) / 1e9 / nt

	var checks []check
	checks = append(checks, check{
		Name: "layer cpu_s sum to sampled CPU",
		OK:   charged == tr.totalNs && listed == tr.totalNs && tr.totalNs > 0,
		Detail: fmt.Sprintf("sampled %.3fs, charged %.3fs, charged to listed layers %.3fs (unlisted: %s)",
			float64(tr.totalNs)/1e9, float64(charged)/1e9, float64(listed)/1e9, unlisted(tr.cpuNs)),
	})

	var gaps []float64
	for _, r := range traced {
		gaps = append(gaps, r.spanGaps...)
	}
	worst := 0.0
	for _, g := range gaps {
		worst = math.Max(worst, math.Abs(g))
	}
	v["trace.reconcile_gap_frac"] = median(gaps)
	checks = append(checks, check{
		Name: "load + superstep spans reconcile with job_s",
		OK:   len(gaps) > 0 && worst <= reconcileTolerance,
		Detail: fmt.Sprintf("median uncovered share %.4f, worst %.4f over %d jobs, tolerance %.2f",
			median(gaps), worst, len(gaps), reconcileTolerance),
	})

	jobsOf := func(rs []*repResult) []float64 {
		var out []float64
		for _, r := range rs {
			for _, j := range r.jobs {
				out = append(out, j.Seconds())
			}
		}
		return out
	}
	plain, withTrace := median(jobsOf(untraced)), median(jobsOf(traced))
	v["trace.overhead_frac"] = ratio(withTrace, plain) - 1
	checks = append(checks, check{
		Name: "tracing overhead",
		OK:   true,
		Detail: fmt.Sprintf("job_s median %.4fs untraced (%d jobs) vs %.4fs traced (%d jobs)",
			plain, len(jobsOf(untraced)), withTrace, len(jobsOf(traced))),
	})

	out := make(map[string]metric, len(perLayerMetrics))
	for _, m := range perLayerMetrics {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out, checks, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func unlisted(cpu map[string]int64) string {
	known := map[string]bool{}
	for _, l := range cpuLayers {
		known[l] = true
	}
	var names []string
	for l := range cpu {
		if !strings.Contains(l, ".") && !known[l] {
			names = append(names, l)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, ",")
}
