package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSMB is the process's peak resident set in MB (getrusage
// ru_maxrss, which Linux reports in KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// allocBytes reads the cumulative heap allocation counter without
// stopping the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcSnapshot is the part of the runtime's memory statistics the traced
// round reports.
type gcSnapshot struct {
	cycles  uint32
	pauseNs uint64
}

func readGC() gcSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSnapshot{cycles: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// heapSampler polls the live heap size every few milliseconds so the
// traced round can report its peak; stop returns the peak in bytes.
type heapSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	peak   uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stopCh:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.stopCh)
	h.wg.Wait()
	return h.peak
}

// e2e assembles the end-to-end metrics every untraced run reports.
type e2e struct {
	setup     []float64 // set-up samples, seconds
	completed int       // requests completed in the measured rounds
	busyS     float64   // wall seconds the rounds' runs took
	cpuS      float64   // process CPU seconds the rounds' runs took
	p50, p99  []float64 // per-round latency percentiles, ms
	samples   int       // latency samples behind them
	allocB    uint64    // heap bytes allocated in the measured phase
	served    int       // requests served in the measured phase
}

// metrics are the figures of the result line. Throughput is counted per
// CPU second of the process: on a shared host, wall time also counts the
// time other tenants hold the CPU, which moved the wall-time rate by 30–40 %
// between runs of the same code where the CPU-time rate moved by 10–13 %.
func (e *e2e) metrics() map[string]metric {
	return map[string]metric{
		"setup_s":          {median(e.setup), "s"},
		"req_per_cpu_s":    {float64(e.completed) / e.cpuS, "1/s"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
		"alloc_kb_per_req": {float64(e.allocB) / float64(e.served) / 1024, "KB"},
	}
}

// rounds is the number of measured rounds.
func (e *e2e) rounds() int { return len(e.p50) }

// addLatencies records one round's latency percentiles. A run reports
// the median over its rounds, so a host stall that hits one round does
// not set the run's figure; every round has at least 1000 samples, so
// its p99 has ten beyond it.
func (e *e2e) addLatencies(ms []float64) {
	e.p50 = append(e.p50, quantile(ms, 0.50))
	e.p99 = append(e.p99, quantile(ms, 0.99))
	e.samples += len(ms)
}

// print writes each end-to-end metric with the number of samples behind
// it, plus the wall-time rate and the p50 and p99 latencies. Those three
// are printed but kept out of the result line: on a shared host they move
// with the other tenants more than with the program.
func (e *e2e) print(m map[string]metric) {
	rows := []struct {
		name string
		m    metric
		n    int
	}{
		{"setup_s", m["setup_s"], len(e.setup)},
		{"req_per_cpu_s", m["req_per_cpu_s"], e.rounds()},
		{"req_per_s", metric{float64(e.completed) / e.busyS, "1/s"}, e.rounds()},
		{"p50_ms", metric{median(e.p50), "ms"}, e.samples},
		{"p99_ms", metric{median(e.p99), "ms"}, e.samples},
		{"peak_rss_mb", m["peak_rss_mb"], 1},
		{"alloc_kb_per_req", m["alloc_kb_per_req"], e.served},
	}
	for _, r := range rows {
		fmt.Printf("  %-18s %14.4f %-5s (n=%d)\n", r.name, r.m.Value, r.m.Unit, r.n)
	}
}
