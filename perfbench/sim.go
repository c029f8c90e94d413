package main

import (
	"fmt"
	"io"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pace"
	"repro/internal/scenario"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// reservationPickSalt is the salt scenario runs use to pick which
// requests of a mixed workload become reservations; the benchmark
// submits the same mix.
const reservationPickSalt = 0x9e3779b97f4a7c15

// simCase is one simulator run inside a workload's round.
type simCase struct {
	label  string
	spec   scenario.Spec
	stream bool // stream the lifecycle through trace.CSVSink
}

// simOpts selects what a run records beyond what every run records.
type simOpts struct {
	telemetry bool // instrument the grid on a fresh registry
	retain    bool // keep every lifecycle event for the layer replays
}

// simRun is one prepared or finished simulator run.
type simRun struct {
	c         simCase
	grid      *core.Grid
	resources []core.ResourceSpec // including runtime joiners
	reqs      []workload.Request
	obs       *audit.Observer
	life      *lifecycle
	rec       *trace.Recorder
	csv       *trace.CSVSink
	minWindow float64

	setupS, newS, genS float64 // host seconds
	coreRunS, reportS  float64
	runS               float64 // grid.Run through the audit verdict
	setupCPU, runCPU   float64 // process CPU seconds of set-up and run
	allocB             uint64

	recs   []scheduler.Record
	report metrics.GridReport
	audit  audit.Result
}

// prepare builds the grid and submits the workload: everything a run's
// set-up time covers (PACE library, topology, core.New, workload
// generation and submission).
func prepare(c simCase, o simOpts) (*simRun, error) {
	a0 := allocBytes()
	c0 := cpuSeconds()
	start := time.Now()
	spec := c.spec
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	lib := pace.CaseStudyLibrary()
	resources, err := spec.Topology.Build()
	if err != nil {
		return nil, err
	}
	names := make([]string, len(resources))
	nodes := make(map[string]int, len(resources))
	for i, r := range resources {
		names[i] = r.Name
		nodes[r.Name] = r.Nodes
	}
	all := append([]core.ResourceSpec(nil), resources...)
	if spec.Churn != nil {
		for _, j := range spec.Churn.Joins {
			nodes[j.Name] = j.Nodes
			all = append(all, core.ResourceSpec{Name: j.Name, Hardware: j.Hardware, Nodes: j.Nodes, Parent: j.Parent})
		}
	}
	policy, err := core.ParsePolicy(spec.Policy)
	if err != nil {
		return nil, err
	}
	r := &simRun{c: c, resources: all, life: newLifecycle(o.retain)}
	r.obs = audit.NewObserver(nodes)
	r.rec = trace.NewRecorder(1)
	r.rec.SetRetention(false)
	r.rec.AddSink(r.life)
	if c.stream {
		// Streamed as gridexp -tracefile does, into a discarding writer:
		// the rows are formatted but no disk is touched.
		r.csv = trace.NewCSVSink(io.Discard)
		r.rec.AddSink(r.csv)
	}
	copts := core.Options{
		Policy:      policy,
		GA:          spec.GAConfig(),
		UseAgents:   spec.AgentsEnabled(),
		Seed:        spec.Seed,
		Library:     lib,
		Trace:       r.rec,
		Audit:       r.obs,
		FaultPlan:   spec.FaultPlan(),
		Migration:   spec.MigrationPolicy(),
		Reservation: spec.ReservationPolicy(),
		Churn:       spec.ChurnPlan(),
		Rebalance:   spec.RebalancePolicy(),
	}
	if o.telemetry {
		copts.Telemetry = telemetry.NewRegistry()
	}
	t := time.Now()
	r.grid, err = core.New(resources, copts)
	r.newS = time.Since(t).Seconds()
	if err != nil {
		return nil, err
	}
	proc, err := spec.Arrivals.BuildProcess()
	if err != nil {
		return nil, err
	}
	t = time.Now()
	r.reqs, err = workload.Generate(workload.Spec{
		Seed:          spec.Seed,
		Count:         spec.Arrivals.Count,
		AgentNames:    names,
		Library:       lib,
		Arrivals:      proc,
		AppWeights:    spec.AppWeights,
		DeadlineScale: spec.DeadlineScale,
	})
	r.genS = time.Since(t).Seconds()
	if err != nil {
		return nil, err
	}
	if rs := spec.Reservations; rs != nil && rs.Share > 0 {
		pick := sim.NewRNG(spec.Seed ^ reservationPickSalt)
		for _, q := range r.reqs {
			if pick.Bool(rs.Share) {
				err = r.grid.SubmitReservationAt(q.At, q.AgentName, q.AppName, rs.Lead, rs.Duration, rs.Nodes, rs.Parts)
			} else {
				err = r.grid.SubmitAt(q.At, q.AgentName, q.AppName, q.DeadlineRel)
			}
			if err != nil {
				return nil, err
			}
		}
	} else if err := r.grid.SubmitWorkload(r.reqs); err != nil {
		return nil, err
	}
	r.minWindow = workload.Summarise(r.reqs).Span
	if f, ok := proc.(workload.FixedInterval); ok {
		r.minWindow = float64(len(r.reqs)) * f.Interval
	}
	r.setupS = time.Since(start).Seconds()
	r.setupCPU = cpuSeconds() - c0
	r.allocB = allocBytes() - a0
	return r, nil
}

// run executes the prepared grid from its first event through the final
// metrics report and audit verdict: the span req_per_cpu_s is measured over.
func (r *simRun) run() error {
	a0 := allocBytes()
	c0 := cpuSeconds()
	start := time.Now()
	if err := r.grid.Run(); err != nil {
		return fmt.Errorf("%s: %w", r.c.label, err)
	}
	r.coreRunS = time.Since(start).Seconds()
	r.recs = r.grid.Records()
	t := time.Now()
	report, err := r.grid.MetricsOver(r.recs, r.minWindow)
	if err != nil {
		return fmt.Errorf("%s: metrics: %w", r.c.label, err)
	}
	r.reportS = time.Since(t).Seconds()
	r.report = report
	r.audit = r.obs.Finish(report, 0)
	r.runS = time.Since(start).Seconds()
	r.runCPU = cpuSeconds() - c0
	r.allocB += allocBytes() - a0
	if r.csv != nil {
		if err := r.csv.Close(r.rec.Dropped()); err != nil {
			return fmt.Errorf("%s: trace csv: %w", r.c.label, err)
		}
	}
	return nil
}

// submitted is the number of request identities the run minted:
// best-effort requests plus one per reservation part.
func (r *simRun) submitted() int { return len(r.life.arrivedIDs()) }

// runCase prepares and runs one case. A panic inside the program is
// returned as a fault (with the frames that raised it) rather than
// ending the benchmark, so a known-broken composition can be counted.
func runCase(c simCase, o simOpts) (r *simRun, fault string, err error) {
	defer func() {
		if p := recover(); p != nil {
			fault = fmt.Sprintf("panic: %v at %s", p, panicFrames(debug.Stack()))
			r, err = nil, nil
		}
	}()
	r, err = prepare(c, o)
	if err != nil {
		return nil, "", err
	}
	if err := r.run(); err != nil {
		return nil, "", err
	}
	return r, "", nil
}

// panicFrames condenses a panic stack to the program's own frames,
// innermost first.
func panicFrames(stack []byte) string {
	var frames []string
	for _, line := range strings.Split(string(stack), "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "repro/internal/") {
			continue
		}
		if i := strings.LastIndex(line, "("); i > 0 {
			line = line[:i]
		}
		frames = append(frames, strings.TrimPrefix(line, "repro/internal/"))
		if len(frames) == 4 {
			break
		}
	}
	return strings.Join(frames, " <- ")
}

// placement is one event that put a request on a resource's queue.
type placement struct {
	reqID    uint64
	resource string
	seq      uint64
	at       float64 // virtual time of the placement
}

// lifecycle is a trace.Sink attached to the run's recorder. It times each
// request in host time from its arrival event to its placement (dispatch
// or fail), and keeps what the output checks need: arrivals, placements,
// fails and reservation windows.
type lifecycle struct {
	mu         sync.Mutex
	retain     bool
	events     []trace.Event // every event, only when retaining
	arrivedAt  []int64       // host ns at arrival, indexed by ReqID; 0 = not arrived
	placed     []bool
	latencies  []float64 // ms, arrival to placement
	placements []placement
	fails      map[uint64]string
	windows    map[uint64]float64 // reservation part ReqID -> booked window start
}

func newLifecycle(retain bool) *lifecycle {
	return &lifecycle{retain: retain, fails: map[uint64]string{}, windows: map[uint64]float64{}}
}

// Record implements trace.Sink.
func (l *lifecycle) Record(ev trace.Event) {
	now := time.Now().UnixNano()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.retain {
		l.events = append(l.events, ev)
	}
	id := ev.ReqID
	switch ev.Kind {
	case trace.KindArrive:
		for uint64(len(l.arrivedAt)) <= id {
			l.arrivedAt = append(l.arrivedAt, 0)
			l.placed = append(l.placed, false)
		}
		l.arrivedAt[id] = now
	case trace.KindDispatch, trace.KindRedispatch, trace.KindMigrateRedispatch:
		l.placements = append(l.placements, placement{reqID: id, resource: ev.Resource, seq: ev.Seq, at: ev.Time})
		l.settle(id, now)
	case trace.KindFail:
		l.fails[id] = ev.Detail
		l.settle(id, now)
	case trace.KindReserveHold:
		var resv uint64
		var mask uint64
		var start, end, exp float64
		if _, err := fmt.Sscanf(ev.Detail, "resv=%d mask=%x win=[%g,%g) exp=%g", &resv, &mask, &start, &end, &exp); err == nil {
			l.windows[id] = start
		}
	}
}

// settle records the first placement latency of a request.
func (l *lifecycle) settle(id uint64, now int64) {
	if id >= uint64(len(l.arrivedAt)) || l.arrivedAt[id] == 0 || l.placed[id] {
		return
	}
	l.placed[id] = true
	l.latencies = append(l.latencies, float64(now-l.arrivedAt[id])/1e6)
}

// arrivedIDs lists every request identity that arrived.
func (l *lifecycle) arrivedIDs() []uint64 {
	var ids []uint64
	for id, at := range l.arrivedAt {
		if at != 0 {
			ids = append(ids, uint64(id))
		}
	}
	return ids
}
