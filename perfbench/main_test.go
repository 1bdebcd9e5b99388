package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pregelix/pregel"
)

// smallScale shrinks every workload so the smoke test runs in seconds.
const smallScale = scale(0.25)

type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkDef(t *testing.T) benchmarkDef {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// TestWorkloadsEmitEveryMetric runs every workload of BENCHMARK.json at
// a reduced size, untraced and traced, and checks that each emits every
// metric the definition names, with its unit, and passes its gates.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	def := loadBenchmarkDef(t)
	out := t.TempDir()
	for _, wd := range def.Workloads {
		w, ok := findWorkload(wd.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", wd.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := runWorkload(w, 7, smallScale, 0, traced, out)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.summary.Correct || res.detail.ResultMismatches != 0 {
					t.Errorf("traced=%v: correct=%v mismatches=%d checks=%+v",
						traced, res.summary.Correct, res.detail.ResultMismatches, res.detail.Checks)
				}
				if res.summary.Attempted < 1 {
					t.Errorf("traced=%v: attempted=%d", traced, res.summary.Attempted)
				}
				want := def.EndToEnd
				if traced {
					want = def.PerLayer
				}
				if len(res.summary.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, BENCHMARK.json names %d", traced, len(res.summary.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.summary.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("traced=%v: metric %s missing", traced, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("traced=%v: metric %s unit %q, want %q", traced, m.Name, got.Unit, m.Unit)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if traced {
					if _, err := os.Stat(res.detail.TraceFile); err != nil {
						t.Errorf("trace file: %v", err)
					}
				}
			}
		})
	}
}

// TestCorruptedResultTripsGate perturbs one reference value of each
// workload: the run must report exactly that vertex as a mismatch and
// an incorrect result.
func TestCorruptedResultTripsGate(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			inst, err := w.prepare(7, smallScale, filepath.Join(out, w.name))
			if err != nil {
				t.Fatal(err)
			}
			var want map[uint64]string
			switch x := inst.(type) {
			case *inproc:
				want = x.want
			case *serve:
				want = x.want
			default:
				t.Fatalf("unknown instance type %T", inst)
			}
			for id := range want {
				want[id] = "12345"
				break
			}
			res, err := measure(w.name, 7, inst, 0, false, out)
			if err != nil {
				t.Fatal(err)
			}
			if res.summary.Correct {
				t.Fatal("corrupted reference passed the correctness gate")
			}
			// One corrupted vertex per repetition, warm-up excluded.
			if got := res.detail.ResultMismatches; got != res.detail.Reps {
				t.Errorf("result_mismatches = %d, want %d (one per repetition)", got, res.detail.Reps)
			}
		})
	}
}

// failingProgram fails every vertex compute.
type failingProgram struct{}

func (failingProgram) Compute(pregel.Context, *pregel.Vertex, []pregel.Value) error {
	return errors.New("injected failure")
}

// TestFailedJobTripsGate makes every job fail: the repetition must count
// every vertex as a mismatch, and a run in which no job finished must
// refuse to report end-to-end metrics instead of reporting 0.
func TestFailedJobTripsGate(t *testing.T) {
	out := t.TempDir()
	for _, name := range []string{"pr-webmap-ooc", "sssp-grid-loj"} {
		t.Run(name, func(t *testing.T) {
			w, _ := findWorkload(name)
			inst, err := w.prepare(7, smallScale, filepath.Join(out, name))
			if err != nil {
				t.Fatal(err)
			}
			ip := inst.(*inproc)
			newJob := ip.newJob
			ip.newJob = func(n string) *pregel.Job {
				j := newJob(n)
				j.Program = failingProgram{}
				return j
			}
			r, err := ip.rep(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 1 || len(r.jobs) != 0 || r.mismatches != len(ip.want) {
				t.Errorf("failed=%d jobs=%d mismatches=%d, want 1, 0, %d", r.failed, len(r.jobs), r.mismatches, len(ip.want))
			}
			if _, err := measure(name, 7, inst, 0, false, out); err == nil {
				t.Error("a run whose every job failed reported end-to-end metrics")
			}
		})
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples should be 0")
	}
}
