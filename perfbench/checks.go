package main

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/metrics"
	"repro/internal/pace"
	"repro/internal/scheduler"
)

// The output checks recompute what a run must satisfy from its records
// and lifecycle events alone, with their own code: they never call the
// program's audit or metrics code to decide a verdict.

// table1 is the paper's Table 1: predicted execution times in seconds on
// the SGIOrigin2000 for 1..16 processors.
var table1 = map[string][16]float64{
	"sweep3d": {50, 40, 30, 25, 23, 20, 17, 15, 13, 11, 9, 7, 6, 5, 4, 4},
	"fft":     {25, 24, 23, 22, 21, 20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10},
	"improc":  {48, 41, 35, 30, 26, 23, 21, 20, 20, 21, 23, 26, 30, 35, 41, 48},
	"closure": {9, 9, 8, 8, 7, 7, 6, 6, 5, 5, 4, 4, 3, 3, 2, 2},
	"jacobi":  {40, 35, 30, 25, 23, 20, 17, 15, 13, 11, 10, 9, 8, 7, 6, 6},
	"memsort": {17, 16, 15, 14, 13, 12, 11, 10, 10, 11, 12, 13, 14, 15, 16, 17},
	"cpi":     {32, 26, 21, 17, 14, 11, 9, 7, 5, 4, 3, 2, 4, 7, 12, 20},
}

// output is what the checks see of one simulator run.
type output struct {
	label      string
	arrived    []uint64 // every request identity that arrived
	records    []scheduler.Record
	fails      map[uint64]string // requests that ended in a fail event
	placements []placement       // events that queued a request on a resource, in record order
	nodes      map[string]int
	hardware   map[string]pace.Hardware
	degraded   []degradeWindow
	fifo       bool               // the policy may not backfill
	windows    map[uint64]float64 // confirmed reservation part -> booked start
	reported   metrics.Report     // the program's grid total
	minWindow  float64
}

// degradeWindow is a span of task start times during which a resource
// runs slower than its predictions.
type degradeWindow struct {
	resource string
	from, to float64
}

// checkTable1 verifies the PACE predictions for the SGIOrigin2000 against
// the paper's table.
func checkTable1() error {
	lib := pace.CaseStudyLibrary()
	eng := pace.NewEngineWithoutCache()
	for app, row := range table1 {
		m, ok := lib.Lookup(app)
		if !ok {
			return fmt.Errorf("table 1: model %q missing", app)
		}
		for n := 1; n <= 16; n++ {
			got, err := eng.Predict(m, pace.SGIOrigin2000, n)
			if err != nil {
				return fmt.Errorf("table 1: %s n=%d: %w", app, n, err)
			}
			if got != row[n-1] {
				return fmt.Errorf("table 1: %s n=%d predicted %v, want %v", app, n, got, row[n-1])
			}
		}
	}
	return nil
}

// checkOutput runs every record-level check and returns the first
// failure.
func checkOutput(o output) error {
	for _, check := range []func(output) error{
		checkConservation, checkExclusive, checkDurations, checkFIFO, checkWindows, checkReport,
	} {
		if err := check(o); err != nil {
			return fmt.Errorf("%s: %w", o.label, err)
		}
	}
	return nil
}

// checkConservation: every request that arrived has exactly one execution
// record, or none and a fail event; no record belongs to an unknown
// request.
func checkConservation(o output) error {
	count := make(map[uint64]int, len(o.records))
	for _, r := range o.records {
		count[r.ReqID]++
	}
	arrived := make(map[uint64]bool, len(o.arrived))
	for _, id := range o.arrived {
		arrived[id] = true
		switch n := count[id]; {
		case n > 1:
			return fmt.Errorf("request %d has %d execution records", id, n)
		case n == 0:
			if _, failed := o.fails[id]; !failed {
				return fmt.Errorf("request %d has no execution record and no fail event", id)
			}
		}
	}
	for id := range count {
		if !arrived[id] {
			return fmt.Errorf("record for request %d that never arrived", id)
		}
	}
	return nil
}

// checkExclusive: no two records overlap on any node of a resource.
func checkExclusive(o output) error {
	type span struct{ start, end float64 }
	byNode := map[string][][]span{}
	for _, r := range o.records {
		n, ok := o.nodes[r.Resource]
		if !ok {
			return fmt.Errorf("record on unknown resource %q", r.Resource)
		}
		if r.Mask == 0 || bits.Len64(r.Mask) > n {
			return fmt.Errorf("request %d on %s uses mask %x of a %d-node resource", r.ReqID, r.Resource, r.Mask, n)
		}
		nodes := byNode[r.Resource]
		if nodes == nil {
			nodes = make([][]span, n)
			byNode[r.Resource] = nodes
		}
		for m := r.Mask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			nodes[i] = append(nodes[i], span{r.Start, r.End})
		}
	}
	for res, nodes := range byNode {
		for i, spans := range nodes {
			sort.Slice(spans, func(a, b int) bool { return spans[a].start < spans[b].start })
			for k := 1; k < len(spans); k++ {
				if spans[k].start < spans[k-1].end-1e-9 {
					return fmt.Errorf("node %d of %s runs [%g,%g) and [%g,%g) at once",
						i, res, spans[k-1].start, spans[k-1].end, spans[k].start, spans[k].end)
				}
			}
		}
	}
	return nil
}

// checkDurations: each record lasts exactly its PACE prediction for its
// node count, evaluated by a fresh engine without a cache, except tasks
// starting inside a degrade window and reserved tasks, which run for
// their booked window.
func checkDurations(o output) error {
	eng := pace.NewEngineWithoutCache()
	for _, r := range o.records {
		if _, reserved := o.windows[r.ReqID]; reserved || o.inDegrade(r) {
			continue
		}
		hw, ok := o.hardware[r.Resource]
		if !ok {
			return fmt.Errorf("record on %q: hardware unknown", r.Resource)
		}
		want, err := eng.Predict(r.App, hw, bits.OnesCount64(r.Mask))
		if err != nil {
			return fmt.Errorf("request %d: predict: %w", r.ReqID, err)
		}
		if !near(r.End-r.Start, want) {
			return fmt.Errorf("request %d on %s ran %g s on %d nodes, predicted %g s",
				r.ReqID, r.Resource, r.End-r.Start, bits.OnesCount64(r.Mask), want)
		}
	}
	return nil
}

func (o output) inDegrade(r scheduler.Record) bool {
	for _, w := range o.degraded {
		if w.resource == r.Resource && r.Start >= w.from && r.Start < w.to {
			return true
		}
	}
	return false
}

// checkFIFO: under a FIFO policy no task on a resource starts before one
// that was queued there earlier (no backfill). Queue order is the order
// of the placement events naming the resource.
func checkFIFO(o output) error {
	if !o.fifo {
		return nil
	}
	rec := make(map[uint64]scheduler.Record, len(o.records))
	for _, r := range o.records {
		rec[r.ReqID] = r
	}
	// The placement that counts is the last one onto the resource the
	// task finally ran on.
	last := map[uint64]placement{}
	for _, p := range o.placements {
		if r, ok := rec[p.reqID]; ok && r.Resource == p.resource {
			last[p.reqID] = p
		}
	}
	queued := map[string][]placement{}
	for id, p := range last {
		if _, reserved := o.windows[id]; reserved {
			continue
		}
		queued[p.resource] = append(queued[p.resource], p)
	}
	for res, ps := range queued {
		sort.Slice(ps, func(a, b int) bool { return ps[a].seq < ps[b].seq })
		for k := 1; k < len(ps); k++ {
			prev, cur := rec[ps[k-1].reqID], rec[ps[k].reqID]
			if cur.Start < prev.Start-1e-9 {
				return fmt.Errorf("FIFO on %s: request %d queued after %d starts earlier (%g < %g)",
					res, cur.ReqID, prev.ReqID, cur.Start, prev.Start)
			}
		}
	}
	return nil
}

// checkWindows: every confirmed reservation part starts at its window.
func checkWindows(o output) error {
	for _, r := range o.records {
		if start, ok := o.windows[r.ReqID]; ok && !near(r.Start, start) {
			return fmt.Errorf("reservation part %d starts at %g, window starts at %g", r.ReqID, r.Start, start)
		}
	}
	return nil
}

// gridTotals recomputes the §3.3 grid totals from the records: ε is the
// mean advance δ − end (eq. 11), υ the mean per-node utilisation over
// the window [0, max(minWindow, last end)] (eqs. 12–13), and β = (1 −
// d/υ)·100 with d the root-mean-square deviation of the utilisations,
// floored at 0 (eqs. 14–15).
func gridTotals(recs []scheduler.Record, nodes map[string]int, minWindow float64) (eps, ups, beta float64) {
	end := minWindow
	for _, r := range recs {
		end = math.Max(end, r.End)
	}
	if end <= 0 {
		end = 1
	}
	busy := map[string][]float64{}
	for name, n := range nodes {
		busy[name] = make([]float64, n)
	}
	for _, r := range recs {
		eps += r.Deadline - r.End
		span := math.Min(r.End, end) - math.Max(r.Start, 0)
		if span <= 0 {
			continue
		}
		for m := r.Mask; m != 0; m &= m - 1 {
			busy[r.Resource][bits.TrailingZeros64(m)] += span
		}
	}
	if len(recs) > 0 {
		eps /= float64(len(recs))
	}
	var util []float64
	for _, b := range busy {
		for _, s := range b {
			util = append(util, s/end*100)
		}
	}
	for _, u := range util {
		ups += u
	}
	ups /= float64(len(util))
	var ss float64
	for _, u := range util {
		ss += (u - ups) * (u - ups)
	}
	if ups > 0 {
		beta = math.Max(0, (1-math.Sqrt(ss/float64(len(util)))/ups)*100)
	}
	return eps, ups, beta
}

// checkReport: the program's reported ε, υ and β match the recomputed
// ones.
func checkReport(o output) error {
	eps, ups, beta := gridTotals(o.records, o.nodes, o.minWindow)
	if !near(eps, o.reported.Epsilon) || !near(ups, o.reported.Upsilon) || !near(beta, o.reported.Beta) {
		return fmt.Errorf("report ε=%g υ=%g β=%g, recomputed ε=%g υ=%g β=%g",
			o.reported.Epsilon, o.reported.Upsilon, o.reported.Beta, eps, ups, beta)
	}
	return nil
}

// checkTrend: over Table 2's experiments 1–3 the paper's trend holds:
// ε, υ and β all rise from experiment to experiment, and ε₃ > 0.
func checkTrend(outs []output) error {
	if len(outs) != 3 {
		return fmt.Errorf("trend needs experiments 1-3, have %d", len(outs))
	}
	var eps, ups, beta [3]float64
	for i, o := range outs {
		eps[i], ups[i], beta[i] = gridTotals(o.records, o.nodes, o.minWindow)
	}
	if !(eps[0] < eps[1] && eps[1] < eps[2] && eps[2] > 0) ||
		!(ups[0] < ups[1] && ups[1] < ups[2]) || !(beta[0] < beta[1] && beta[1] < beta[2]) {
		return fmt.Errorf("table 3 trend broken: ε %.1f/%.1f/%.1f υ %.1f/%.1f/%.1f β %.1f/%.1f/%.1f",
			eps[0], eps[1], eps[2], ups[0], ups[1], ups[2], beta[0], beta[1], beta[2])
	}
	return nil
}

// near compares two floats to a relative tolerance of 1e-9.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
