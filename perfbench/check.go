package main

import (
	"math"
	"strconv"
	"strings"
)

// parseDump maps dumped "vid<TAB>value<TAB>edges" rows to vid → value.
func parseDump(data []byte) map[uint64]string {
	out := map[uint64]string{}
	for _, line := range strings.Split(string(data), "\n") {
		vid, rest, ok := strings.Cut(line, "\t")
		if !ok {
			continue
		}
		id, err := strconv.ParseUint(vid, 10, 64)
		if err != nil {
			continue
		}
		value, _, _ := strings.Cut(rest, "\t")
		out[id] = value
	}
	return out
}

// countMismatches counts vertices whose value differs from the
// reference, plus vertices missing from either side.
func countMismatches(got, want map[uint64]string, equal func(got, want string) bool) int {
	n := 0
	for id, w := range want {
		g, ok := got[id]
		if !ok || !equal(g, w) {
			n++
		}
	}
	for id := range got {
		if _, ok := want[id]; !ok {
			n++
		}
	}
	return n
}

// exactEqual is the SSSP gate: integer edge weights make every
// distance an exact sum, so the rendered values must be identical.
func exactEqual(got, want string) bool { return got == want }

// prRelEpsilon is the per-vertex relative tolerance for PageRank
// values: the dataflow and the oracle combine messages in different
// orders, so sums may differ in the last bits.
const prRelEpsilon = 1e-6

func floatsClose(got, want string) bool {
	if got == want {
		return true
	}
	g, err1 := strconv.ParseFloat(got, 64)
	w, err2 := strconv.ParseFloat(want, 64)
	if err1 != nil || err2 != nil {
		return false
	}
	return math.Abs(g-w) <= prRelEpsilon*math.Max(math.Abs(g), math.Abs(w))
}

// convergedClose is the gate for residual PageRank read back after
// the refreshes. The job stops propagating increments below its
// ε = 1e-9, so its values sit near, not at, the fixed point; the oracle
// runs to a far smaller threshold and is exact for this purpose. Over
// seeds 1-30 the largest difference was 1.24e-8 (about 12ε, relative
// 9e-6); serveTolerance leaves eight times that. Ranks are at least
// 4.5e-4, so it is a relative tolerance of at most 2.2e-4.
func convergedClose(got, want string) bool {
	g, err1 := strconv.ParseFloat(got, 64)
	w, err2 := strconv.ParseFloat(want, 64)
	if err1 != nil || err2 != nil {
		return false
	}
	return math.Abs(g-w) <= serveTolerance
}

const serveTolerance = 1e-7

// maxAbsDiff is the largest absolute difference between numeric values
// present on both sides.
func maxAbsDiff(got, want map[uint64]string) float64 {
	worst := 0.0
	for id, ws := range want {
		g, err1 := strconv.ParseFloat(got[id], 64)
		w, err2 := strconv.ParseFloat(ws, 64)
		if err1 == nil && err2 == nil {
			worst = math.Max(worst, math.Abs(g-w))
		}
	}
	return worst
}
