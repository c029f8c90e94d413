package main

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/pace"
	"repro/internal/scheduler"
	"repro/internal/xmlmsg"
)

// validOutput is a small run that passes every check: two fft tasks side
// by side on S1, then a closure task queued behind them.
func validOutput(t *testing.T) output {
	t.Helper()
	lib := pace.CaseStudyLibrary()
	fft, _ := lib.Lookup("fft")
	closure, _ := lib.Lookup("closure")
	recs := []scheduler.Record{
		{ReqID: 1, App: fft, Arrival: 0, Deadline: 100, Mask: 0b01, Start: 0, End: 25, Resource: "S1"},
		{ReqID: 2, App: fft, Arrival: 0, Deadline: 100, Mask: 0b10, Start: 0, End: 25, Resource: "S1"},
		{ReqID: 3, App: closure, Arrival: 1, Deadline: 20, Mask: 0b01, Start: 25, End: 34, Resource: "S1"},
	}
	return withReport(t, output{
		label:    "synthetic",
		arrived:  []uint64{1, 2, 3},
		records:  recs,
		fails:    map[uint64]string{},
		nodes:    map[string]int{"S1": 2},
		hardware: map[string]pace.Hardware{"S1": pace.SGIOrigin2000},
		fifo:     true,
		windows:  map[uint64]float64{},
		placements: []placement{
			{reqID: 1, resource: "S1", seq: 1}, {reqID: 2, resource: "S1", seq: 2}, {reqID: 3, resource: "S1", seq: 3},
		},
		minWindow: 3,
	})
}

// withReport fills in the program's own §3.3 report for the records.
func withReport(t *testing.T, o output) output {
	t.Helper()
	rep, err := metrics.Compute(o.records, o.nodes, metrics.WindowOver(o.records, o.minWindow))
	if err != nil {
		t.Fatal(err)
	}
	o.reported = rep.Total
	return o
}

func TestValidOutputPasses(t *testing.T) {
	if err := checkOutput(validOutput(t)); err != nil {
		t.Fatal(err)
	}
	if err := checkTable1(); err != nil {
		t.Fatal(err)
	}
}

func TestChecksRejectCorruptOutputs(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(o *output)
		want    string
	}{
		{"duplicated record", func(o *output) {
			o.records = append(o.records, o.records[0])
			o.records[3].Mask = 0b10 // on another node, so only conservation breaks
			o.records[3].Start, o.records[3].End = 40, 65
		}, "2 execution records"},
		{"missing record", func(o *output) { o.records = o.records[:2] }, "no execution record"},
		{"overlapping node interval", func(o *output) {
			o.records[2].Start, o.records[2].End = 20, 29
		}, "at once"},
		{"FIFO start out of order", func(o *output) {
			o.records[1].Start, o.records[1].End = 30, 55
		}, "FIFO on S1"},
		{"wrong duration", func(o *output) { o.records[1].End = 26 }, "predicted 25"},
		{"wrong report", func(o *output) { o.reported.Beta += 1 }, "recomputed"},
		{"reservation off its window", func(o *output) { o.windows[3] = 24 }, "window starts at 24"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := validOutput(t)
			o.records = append([]scheduler.Record(nil), o.records...)
			c.corrupt(&o)
			if c.name != "wrong report" {
				o = withReport(t, o)
			}
			err := checkOutput(o)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got %v, want an error containing %q", err, c.want)
			}
		})
	}
}

func TestTrendCheck(t *testing.T) {
	o := validOutput(t)
	if err := checkTrend([]output{o, o, o}); err == nil {
		t.Fatal("equal experiments passed the trend check")
	}
}

func TestFarmCheck(t *testing.T) {
	nodes := map[string]int{"S1": 4}
	acks := []farmAck{{reqID: 1, resource: "S1", taskID: 1}, {reqID: 2, resource: "S1", taskID: 2}}
	task := func(id, nproc int, start, end float64) xmlmsg.TaskResult {
		return xmlmsg.TaskResult{TaskID: id, Resource: "S1", NProc: nproc,
			Start: xmlmsg.FormatVirtual(start), End: xmlmsg.FormatVirtual(end)}
	}
	ok := map[string][]xmlmsg.TaskResult{"S1": {task(1, 2, 0, 10), task(2, 2, 5, 15)}}
	if err := checkFarm(acks, ok, nodes); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		acks    []farmAck
		results map[string][]xmlmsg.TaskResult
		want    string
	}{
		{"over capacity", acks, map[string][]xmlmsg.TaskResult{"S1": {task(1, 3, 0, 10), task(2, 2, 5, 15)}}, "5 of 4"},
		{"unacked task", acks[:1], ok, "no ack named"},
		{"lost task", acks, map[string][]xmlmsg.TaskResult{"S1": {task(1, 2, 0, 10)}}, "report 1 tasks"},
		{"unknown resource", []farmAck{{reqID: 1, resource: "S99", taskID: 1}}, ok, "unknown resource"},
	}
	for _, c := range cases {
		if err := checkFarm(c.acks, c.results, nodes); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q := quartiles(xs); q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", q)
	}
}

func TestCompareVerdicts(t *testing.T) {
	m := boundedMetric{Name: "p50_ms", Better: "lower", Bound: 0.1}
	base := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	faster := []float64{8, 8.1, 7.9, 8, 8.2, 7.8, 8, 8.1, 7.9, 8}
	slower := []float64{12, 12.1, 11.9, 12, 12.2, 11.8, 12, 12.1, 11.9, 12}
	noisy := []float64{5, 15, 6, 14, 7, 13, 8, 12, 9, 11}
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{base, faster, "better"},
		{base, slower, "worse"},
		{base, base, "no worse"},
		{noisy, base, "unresolved"},
	} {
		if got := compareMetric(m, c.a, c.b).verdict; !strings.HasPrefix(got, c.want) {
			t.Errorf("verdict %q, want %q", got, c.want)
		}
	}
}
