package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// cpuSeconds is this process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// procIO is the subset of /proc/self/io the benchmark reports.
type procIO struct {
	readSyscalls, writeSyscalls, writeBytes int64
}

func readProcIO() procIO {
	var p procIO
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return p
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		switch k {
		case "syscr":
			p.readSyscalls = n
		case "syscw":
			p.writeSyscalls = n
		case "wchar":
			// Bytes handed to write(2): the node-local files live in the
			// page cache, so write_bytes (device writes) would read 0.
			p.writeBytes = n
		}
	}
	return p
}

// peakRSSBytes reads VmHWM, the resident-set high-water mark.
func peakRSSBytes() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10
		}
	}
	return 0
}

// resetPeakRSS returns freed heap to the OS and restarts the VmHWM
// high-water mark, so the peak measured afterwards belongs to the
// measured window alone and not to input generation or the reference
// run. Writing 5 to clear_refs is the kernel's reset for VmHWM.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: without it the peak includes set-up
}

var goMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
}

type goSnapshot struct {
	gcCPU, allocBytes, mutexWait float64
	sched                        *metrics.Float64Histogram
}

func readGoMetrics() goSnapshot {
	samples := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var s goSnapshot
	for _, m := range samples {
		switch m.Name {
		case "/cpu/classes/gc/total:cpu-seconds":
			if m.Value.Kind() == metrics.KindFloat64 {
				s.gcCPU = m.Value.Float64()
			}
		case "/gc/heap/allocs:bytes":
			if m.Value.Kind() == metrics.KindUint64 {
				s.allocBytes = float64(m.Value.Uint64())
			}
		case "/sync/mutex/wait/total:seconds":
			if m.Value.Kind() == metrics.KindFloat64 {
				s.mutexWait = m.Value.Float64()
			}
		case "/sched/latencies:seconds":
			if m.Value.Kind() == metrics.KindFloat64Histogram {
				h := m.Value.Float64Histogram()
				s.sched = &metrics.Float64Histogram{
					Counts:  append([]uint64(nil), h.Counts...),
					Buckets: append([]float64(nil), h.Buckets...),
				}
			}
		}
	}
	return s
}

// histQuantile is the q-quantile of the difference of two cumulative
// histograms, reported as the upper edge of the bucket it falls in.
func histQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	if before == nil || after == nil || len(before.Counts) != len(after.Counts) {
		return 0
	}
	var total uint64
	diff := make([]uint64, len(after.Counts))
	for i := range diff {
		diff[i] = after.Counts[i] - before.Counts[i]
		total += diff[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	var seen uint64
	for i, c := range diff {
		seen += c
		if seen > target {
			edge := after.Buckets[i+1]
			if edge > 1e300 { // +Inf upper bucket: report its lower edge
				edge = after.Buckets[i]
			}
			return edge
		}
	}
	return after.Buckets[len(after.Buckets)-1]
}

// cpuTicks reads the machine-wide steal and total CPU ticks from
// /proc/stat. On a virtual machine, steal is time the host ran someone
// else on this machine's CPUs: it stretches every wall-clock metric.
func cpuTicks() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		n, _ := strconv.ParseInt(f, 10, 64)
		// Fields: user nice system idle iowait irq softirq steal guest guest_nice;
		// guest time is already counted in user.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// processWindow brackets the measured repetitions.
type processWindow struct {
	io                procIO
	gm                goSnapshot
	steal, totalTicks int64
}

type processDelta struct {
	peakRSSMB                   float64
	readSyscalls, writeSyscalls float64
	writeMB                     float64
	gcCPU, allocMB, mutexWait   float64
	schedP99us                  float64
	stealFrac                   float64
}

func startProcessWindow() processWindow {
	runtime.GC()
	resetPeakRSS()
	steal, total := cpuTicks()
	return processWindow{io: readProcIO(), gm: readGoMetrics(), steal: steal, totalTicks: total}
}

func (w processWindow) end() processDelta {
	io, gm := readProcIO(), readGoMetrics()
	steal, total := cpuTicks()
	return processDelta{
		stealFrac:     ratio(float64(steal-w.steal), float64(total-w.totalTicks)),
		peakRSSMB:     float64(peakRSSBytes()) / (1 << 20),
		readSyscalls:  float64(io.readSyscalls - w.io.readSyscalls),
		writeSyscalls: float64(io.writeSyscalls - w.io.writeSyscalls),
		writeMB:       float64(io.writeBytes-w.io.writeBytes) / (1 << 20),
		gcCPU:         gm.gcCPU - w.gm.gcCPU,
		allocMB:       (gm.allocBytes - w.gm.allocBytes) / (1 << 20),
		mutexWait:     gm.mutexWait - w.gm.mutexWait,
		schedP99us:    histQuantile(w.gm.sched, gm.sched, 0.99) * 1e6,
	}
}
