package main

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/agent"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/pace"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/workload"
	"repro/internal/xmlmsg"
)

// layerMetrics lists every per-layer metric a traced run reports, in
// print order. A layer a workload does not exercise reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"core.run_s", "s"},
	{"sim.events", "count"},
	{"core.event_us", "us"},
	{"workload.generate_ms", "ms"},
	{"core.new_ms", "ms"},
	{"pace.predict_ns", "ns"},
	{"pace.evaluations", "count"},
	{"pace.cache_hits", "count"},
	{"scheduler.submit_us.fifo", "us"},
	{"scheduler.submit_us.fifo-fast", "us"},
	{"scheduler.submit_us.ga", "us"},
	{"scheduler.advance_us", "us"},
	{"scheduler.plans", "count"},
	{"scheduler.queue_depth_max", "count"},
	{"ga.cost_evals", "count"},
	{"ga.generations", "count"},
	{"agent.decide_us", "us"},
	{"agent.pull_round_ms", "ms"},
	{"agent.pulls", "count"},
	{"agent.mean_hops", "hops"},
	{"agent.forwards", "count"},
	{"audit.observe_ns", "ns"},
	{"audit.peak_inflight", "count"},
	{"trace.csv_ns", "ns"},
	{"trace.events", "count"},
	{"metrics.report_ms", "ms"},
	{"xmlmsg.encode_us.xml", "us"},
	{"xmlmsg.decode_us.xml", "us"},
	{"xmlmsg.encode_us.binary", "us"},
	{"xmlmsg.decode_us.binary", "us"},
	{"xmlmsg.bytes.xml", "bytes"},
	{"xmlmsg.bytes.binary", "bytes"},
	{"transport.exchange_us", "us"},
	{"transport.hop_p50_ms", "ms"},
	{"transport.exchanges_per_req", "count"},
	{"reserve.quote_us", "us"},
	{"reserve.confirmed", "count"},
	{"reserve.rejected", "count"},
	{"membership.moves", "count"},
	{"membership.drained", "count"},
	{"migration.offers", "count"},
	{"migration.accepts", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.heap_peak_mb", "MB"},
	{"tracing.overhead_pct", "%"},
}

// replayCap bounds how many messages, decisions and predictions a
// micro-replay times, so replays stay short on the largest workload.
const replayCap = 2000

// replayResources bounds how many resources' arrival streams the
// scheduler replay submits.
const replayResources = 100

// layers accumulates per-layer figures.
type layers map[string]float64

func (l layers) result(res result) result {
	res.Metrics = map[string]metric{}
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metric{l[m.name], m.unit}
		fmt.Printf("  %-30s %16.4f %s\n", m.name, l[m.name], m.unit)
	}
	return res
}

// sumSnapshot adds every counter (or collector gauge) whose name starts
// with the given metric name, across its label sets.
func sumSnapshot(s telemetry.Snapshot, name string) float64 {
	var sum float64
	for k, v := range s.Counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += float64(v)
		}
	}
	for k, v := range s.Gauges {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// traceSim runs one plain round and one traced round of a simulator
// workload and reports the traced round's per-layer figures; the traced
// round's extra host time over the plain one is the tracing overhead.
func traceSim(cfg config, w simWorkload) (result, error) {
	plain, bad, err := runRound(w, 0, roundSeed(cfg.seed, 0), simOpts{})
	if err != nil {
		return result{}, err
	}
	g0 := readGC()
	hs := startHeapSampler()
	rr, bad2, err := runRound(w, 0, roundSeed(cfg.seed, 0), simOpts{telemetry: true, retain: true})
	heapPeak := hs.stop()
	g1 := readGC()
	if err != nil {
		return result{}, err
	}
	res := result{Correct: true, Attempted: rr.attempted, Failed: rr.failed}
	for _, b := range []error{bad, bad2, checkTable1()} {
		if b != nil {
			fmt.Println("CHECK FAILED:", b)
			res.Correct = false
		}
	}
	for _, f := range rr.faults {
		fmt.Println("FAILED (canary, every round):", f)
	}
	l := layers{}
	l["runtime.gc_cycles"] = float64(g1.cycles - g0.cycles)
	l["runtime.gc_pause_ms"] = float64(g1.pauseNs-g0.pauseNs) / 1e6
	l["runtime.heap_peak_mb"] = float64(heapPeak) / (1 << 20)
	l["tracing.overhead_pct"] = ((rr.setupS+rr.runS)/(plain.setupS+plain.runS) - 1) * 100

	var hops, dispatches float64
	for _, r := range rr.runs {
		l["core.run_s"] += r.coreRunS
		l["sim.events"] += float64(r.grid.SimEvents())
		l["workload.generate_ms"] += r.genS * 1e3
		l["core.new_ms"] += r.newS * 1e3
		l["metrics.report_ms"] += r.reportS * 1e3
		es := r.grid.Engine().Stats()
		l["pace.evaluations"] += float64(es.Evaluations)
		l["pace.cache_hits"] += float64(es.CacheHits)
		snap := r.grid.Telemetry().Snapshot()
		l["scheduler.plans"] += sumSnapshot(snap, "sched_plans_total")
		l["ga.cost_evals"] += sumSnapshot(snap, "ga_cost_evals_total")
		l["ga.generations"] += sumSnapshot(snap, "ga_generations_total")
		l["agent.pulls"] += sumSnapshot(snap, "agent_pulls_total")
		l["agent.forwards"] += sumSnapshot(snap, "agent_forwards_total")
		if r.c.spec.AgentsEnabled() {
			for _, d := range r.grid.Dispatches() {
				hops += float64(d.Hops)
				dispatches++
			}
		}
		if p := float64(r.obs.PeakInFlight()); p > l["audit.peak_inflight"] {
			l["audit.peak_inflight"] = p
		}
		if r.c.stream {
			l["trace.events"] += float64(len(r.life.events))
		}
		rs := r.grid.ReservationStats()
		l["reserve.confirmed"] += float64(rs.Confirmed)
		l["reserve.rejected"] += float64(rs.Rejected)
		ms := r.grid.MembershipStats()
		l["membership.moves"] += float64(ms.Moves)
		l["membership.drained"] += float64(ms.Drained)
		mg := r.grid.MigrationStats()
		l["migration.offers"] += float64(mg.Offers)
		l["migration.accepts"] += float64(mg.Accepts)
		if d := queueDepthMax(r); d > l["scheduler.queue_depth_max"] {
			l["scheduler.queue_depth_max"] = d
		}
	}
	if l["sim.events"] > 0 {
		l["core.event_us"] = l["core.run_s"] / l["sim.events"] * 1e6
	}
	if dispatches > 0 {
		l["agent.mean_hops"] = hops / dispatches
	}

	replaySchedulers(l, rr.runs)
	replayPredict(l, rr.runs)
	replayAgents(l, rr.runs)
	replayAuditAndTrace(l, rr.runs)
	replayQuotes(l, rr.runs)
	var reqs []*xmlmsg.Request
	var acks []*xmlmsg.DispatchAck
	for _, r := range rr.runs {
		for i, d := range r.grid.Dispatches() {
			if len(acks) == replayCap || i >= len(r.reqs) {
				break
			}
			q := r.reqs[i]
			m := xmlmsg.NewWireRequest(d.ReqID, q.AppName, "test", q.At+q.DeadlineRel, farmEmail, xmlmsg.ModeDiscover, nil)
			a := xmlmsg.NewDispatchAck(d.Resource, d.TaskID, d.ReqID, d.Eta, d.Hops, d.Fallback)
			reqs, acks = append(reqs, &m), append(acks, &a)
		}
	}
	if err := replayCodec(l, reqs, acks); err != nil {
		return result{}, err
	}
	if err := replayExchange(l); err != nil {
		return result{}, err
	}
	return l.result(res), nil
}

// queueDepthMax is the most tasks ever waiting on one resource:
// recomputed from each task's final placement time and its start.
func queueDepthMax(r *simRun) float64 {
	final := map[uint64]placement{}
	start := map[uint64]float64{}
	for _, rec := range r.recs {
		start[rec.ReqID] = rec.Start
	}
	resOf := map[uint64]string{}
	for _, rec := range r.recs {
		resOf[rec.ReqID] = rec.Resource
	}
	for _, p := range r.life.placements {
		if resOf[p.reqID] == p.resource {
			final[p.reqID] = p
		}
	}
	type edge struct {
		t     float64
		delta int
	}
	edges := map[string][]edge{}
	for id, p := range final {
		edges[p.resource] = append(edges[p.resource], edge{p.at, 1}, edge{start[id], -1})
	}
	best := 0
	for _, es := range edges {
		sort.Slice(es, func(i, j int) bool {
			if es[i].t != es[j].t {
				return es[i].t < es[j].t
			}
			return es[i].delta < es[j].delta
		})
		depth := 0
		for _, e := range es {
			depth += e.delta
			if depth > best {
				best = depth
			}
		}
	}
	return float64(best)
}

// arrival is one task as it reached a resource's scheduler.
type arrival struct {
	app      *pace.AppModel
	at       float64
	deadline float64
}

// replayStream submits one resource's arrival stream to a fresh
// scheduler.Local and returns the host time spent in AdvanceTo and in
// Submit, and the number of calls.
func replayStream(name string, hw pace.Hardware, nodes int, pol scheduler.Policy, stream []arrival) (adv, sub time.Duration, n int) {
	l, err := scheduler.NewLocal(scheduler.Config{Name: name, HW: hw, NumNodes: nodes, Policy: pol, Engine: pace.NewEngine()})
	if err != nil {
		return 0, 0, 0
	}
	for _, a := range stream {
		t := time.Now()
		l.AdvanceTo(a.at)
		adv += time.Since(t)
		t = time.Now()
		if _, err := l.Submit(a.app, a.deadline, a.at); err != nil {
			continue
		}
		sub += time.Since(t)
		n++
	}
	return adv, sub, n
}

func newPolicy(kind core.PolicyKind, r *simRun) scheduler.Policy {
	switch kind {
	case core.PolicyFIFO:
		return scheduler.NewFIFOPolicy()
	case core.PolicyFIFOFast:
		return scheduler.NewFastFIFOPolicy()
	default:
		return scheduler.NewGAPolicy(r.c.spec.GAConfig(), sim.NewRNG(r.c.spec.Seed))
	}
}

// replaySchedulers replays each resource's arrival stream (its tasks in
// the order they were queued there, reservations left out) into a fresh
// scheduler.Local with the run's policy.
func replaySchedulers(l layers, runs []*simRun) {
	type acc struct {
		d time.Duration
		n int
	}
	sub := map[core.PolicyKind]*acc{}
	var adv acc
	for _, r := range runs {
		kind := core.PolicyKind(r.c.spec.Policy)
		streams := map[string][]arrival{}
		byID := map[uint64]scheduler.Record{}
		for _, rec := range r.recs {
			byID[rec.ReqID] = rec
		}
		reserved := r.grid.ReservedRequests()
		final := map[uint64]placement{}
		for _, p := range r.life.placements {
			if rec, ok := byID[p.reqID]; ok && rec.Resource == p.resource && !reserved[p.reqID] {
				final[p.reqID] = p
			}
		}
		ps := make([]placement, 0, len(final))
		for _, p := range final {
			ps = append(ps, p)
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i].seq < ps[j].seq })
		for _, p := range ps {
			rec := byID[p.reqID]
			streams[p.resource] = append(streams[p.resource], arrival{rec.App, p.at, rec.Deadline})
		}
		// At most replayResources streams, evenly spaced, so the largest
		// grid's replay stays a fraction of its run.
		step := (len(r.resources) + replayResources - 1) / replayResources
		for i, res := range r.resources {
			hw, ok := pace.LookupHardware(res.Hardware)
			if !ok || i%step != 0 || len(streams[res.Name]) == 0 {
				continue
			}
			a, s, n := replayStream(res.Name, hw, res.Nodes, newPolicy(kind, r), streams[res.Name])
			if sub[kind] == nil {
				sub[kind] = &acc{}
			}
			sub[kind].d += s
			sub[kind].n += n
			adv.d += a
			adv.n += n
		}
	}
	for kind, a := range sub {
		if a.n > 0 {
			l["scheduler.submit_us."+string(kind)] = float64(a.d.Microseconds()) / float64(a.n)
		}
	}
	if adv.n > 0 {
		l["scheduler.advance_us"] = float64(adv.d.Nanoseconds()) / 1e3 / float64(adv.n)
	}
}

// replayPredict times pace.Engine.Predict over the run's app × hardware ×
// node-count keys on a warm engine: the cached lookups scheduling makes.
func replayPredict(l layers, runs []*simRun) {
	type key struct {
		app *pace.AppModel
		hw  pace.Hardware
		k   int
	}
	var keys []key
	for _, r := range runs {
		hw := map[string]pace.Hardware{}
		for _, res := range r.resources {
			hw[res.Name], _ = pace.LookupHardware(res.Hardware)
		}
		for _, rec := range r.recs {
			if len(keys) == 10*replayCap {
				break
			}
			keys = append(keys, key{rec.App, hw[rec.Resource], bits.OnesCount64(rec.Mask)})
		}
	}
	l["pace.predict_ns"] = timePredict(len(keys), func(e *pace.Engine, i int) { _, _ = e.Predict(keys[i].app, keys[i].hw, keys[i].k) })
}

// timePredict warms a fresh engine with every call, then times them.
func timePredict(n int, call func(e *pace.Engine, i int)) float64 {
	if n == 0 {
		return 0
	}
	e := pace.NewEngine()
	for i := 0; i < n; i++ {
		call(e, i)
	}
	const reps = 5
	t := time.Now()
	for r := 0; r < reps; r++ {
		for i := 0; i < n; i++ {
			call(e, i)
		}
	}
	return float64(time.Since(t).Nanoseconds()) / float64(reps*n)
}

// replayAgents times Agent.Decide on each agent run's final hierarchy for
// the run's requests at their arrival agents, and one Agent.Pull round
// over every agent.
func replayAgents(l layers, runs []*simRun) {
	var decide, pull time.Duration
	var decisions, rounds int
	for _, r := range runs {
		if !r.c.spec.AgentsEnabled() {
			continue
		}
		h := r.grid.Hierarchy()
		end := 0.0
		for _, rec := range r.recs {
			if rec.End > end {
				end = rec.End
			}
		}
		for i, q := range r.reqs {
			if i == replayCap {
				break
			}
			a, ok := h.Lookup(q.AgentName)
			app, ok2 := r.grid.Library().Lookup(q.AppName)
			if !ok || !ok2 {
				continue
			}
			t := time.Now()
			a.Decide(agent.Request{ReqID: uint64(i + 1), App: app, Env: "test", Deadline: end + q.DeadlineRel}, end)
			decide += time.Since(t)
			decisions++
		}
		t := time.Now()
		for _, a := range h.Agents() {
			a.Pull(end)
		}
		pull += time.Since(t)
		rounds++
	}
	if decisions > 0 {
		l["agent.decide_us"] = float64(decide.Nanoseconds()) / 1e3 / float64(decisions)
	}
	if rounds > 0 {
		l["agent.pull_round_ms"] = float64(pull.Nanoseconds()) / 1e6 / float64(rounds)
	}
}

// replayAuditAndTrace replays each run's lifecycle stream into a fresh
// audit (audit.Check drives an audit.Observer) and into a fresh
// trace.CSVSink, timing both per item.
func replayAuditAndTrace(l layers, runs []*simRun) {
	var auditD, csvD time.Duration
	var items, events int
	for _, r := range runs {
		nodes := map[string]int{}
		for _, res := range r.resources {
			nodes[res.Name] = res.Nodes
		}
		disp := r.grid.Dispatches()
		t := time.Now()
		audit.Check(audit.Run{Events: r.life.events, Records: r.recs, Dispatches: disp, Nodes: nodes, Report: r.report})
		auditD += time.Since(t)
		items += len(r.life.events) + len(r.recs) + len(disp)

		sink := trace.NewCSVSink(io.Discard)
		t = time.Now()
		for _, ev := range r.life.events {
			if ev.Kind == trace.KindArrive {
				sink.Advance(ev.Time)
			}
			sink.Record(ev)
		}
		_ = sink.Close(0)
		csvD += time.Since(t)
		events += len(r.life.events)
	}
	if items > 0 {
		l["audit.observe_ns"] = float64(auditD.Nanoseconds()) / float64(items)
	}
	if events > 0 {
		l["trace.csv_ns"] = float64(csvD.Nanoseconds()) / float64(events)
	}
}

// replayQuotes times Local.QuoteReservation for reserved.json's shape
// (2 nodes for 120 s, 300 s ahead) on every resource's final scheduler.
func replayQuotes(l layers, runs []*simRun) {
	var d time.Duration
	var n int
	for _, r := range runs {
		end := 0.0
		for _, rec := range r.recs {
			if rec.End > end {
				end = rec.End
			}
		}
		for _, res := range r.resources {
			loc, ok := r.grid.Local(res.Name)
			if !ok {
				continue
			}
			dd, nn := timeQuotes(loc, end)
			d += dd
			n += nn
		}
	}
	if n > 0 {
		l["reserve.quote_us"] = float64(d.Nanoseconds()) / 1e3 / float64(n)
	}
}

func timeQuotes(loc *scheduler.Local, now float64) (time.Duration, int) {
	const quotes = 10
	t := time.Now()
	for k := 0; k < quotes; k++ {
		_, _ = loc.QuoteReservation(2, now+300+float64(k)*60, 120, now)
	}
	return time.Since(t), quotes
}

// replayCodec encodes and decodes the workload's Request and DispatchAck
// messages with the XML and the binary codec.
func replayCodec(l layers, reqs []*xmlmsg.Request, acks []*xmlmsg.DispatchAck) error {
	msgs := make([]interface{}, 0, len(reqs)+len(acks))
	for i := range reqs {
		msgs = append(msgs, reqs[i], acks[i])
	}
	if len(msgs) == 0 {
		return nil
	}
	codecs := []struct {
		name   string
		encode func(interface{}) ([]byte, error)
		decode func([]byte) (interface{}, xmlmsg.Kind, error)
	}{
		{"xml", xmlmsg.Marshal, xmlmsg.Decode},
		{"binary", xmlmsg.MarshalBinary, xmlmsg.UnmarshalBinary},
	}
	for _, c := range codecs {
		enc := make([][]byte, len(msgs))
		var size int
		t := time.Now()
		for i, m := range msgs {
			b, err := c.encode(m)
			if err != nil {
				return fmt.Errorf("%s encode: %w", c.name, err)
			}
			enc[i] = b
			size += len(b)
		}
		encD := time.Since(t)
		t = time.Now()
		for _, b := range enc {
			if _, _, err := c.decode(b); err != nil {
				return fmt.Errorf("%s decode: %w", c.name, err)
			}
		}
		decD := time.Since(t)
		n := float64(len(msgs))
		l["xmlmsg.encode_us."+c.name] = float64(encD.Nanoseconds()) / 1e3 / n
		l["xmlmsg.decode_us."+c.name] = float64(decD.Nanoseconds()) / 1e3 / n
		l["xmlmsg.bytes."+c.name] = float64(size) / n
	}
	return nil
}

// replayExchange times pooled Client.Call round trips against a
// transport.Serve handler that echoes a DispatchAck.
func replayExchange(l layers) error {
	ack := xmlmsg.NewDispatchAck("S1", 1, 1, 42, 1, false)
	srv, err := transport.Serve("127.0.0.1:0", func(msg interface{}, kind xmlmsg.Kind) (interface{}, error) {
		return ack, nil
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	c := transport.NewPooledClient(transport.PoolConfig{Size: 1})
	defer c.Pool.Close()
	const warm, calls = 50, 1000
	var t time.Time
	for i := 0; i < warm+calls; i++ {
		if i == warm {
			t = time.Now()
		}
		if _, _, err := c.Call(srv.Addr(), &ack); err != nil {
			return fmt.Errorf("echo exchange: %w", err)
		}
	}
	l["transport.exchange_us"] = float64(time.Since(t).Nanoseconds()) / 1e3 / calls
	return nil
}

// traceFarm runs one plain and one traced farm round. The farm runs on a
// fixed open-loop schedule, so its tracing overhead is the extra process
// CPU time of the traced round rather than wall time.
func traceFarm(cfg config, reqs []workload.Request) (result, error) {
	c0 := cpuSeconds()
	_, bad, err := farmRound(cfg.seed, reqs, nil, false)
	if err != nil {
		return result{}, err
	}
	c1 := cpuSeconds()
	g0 := readGC()
	hs := startHeapSampler()
	reg := telemetry.NewRegistry()
	f, bad2, err := farmRound(cfg.seed, reqs, reg, true)
	if err != nil {
		hs.stop()
		return result{}, err
	}
	heapPeak := hs.stop()
	g1 := readGC()
	c2 := cpuSeconds()
	res := result{Correct: true, Attempted: len(reqs), Failed: len(f.failures)}
	for _, msg := range f.failures {
		fmt.Println("FAILED:", msg)
	}
	for _, b := range []error{bad, bad2} {
		if b != nil {
			fmt.Println("CHECK FAILED:", b)
			res.Correct = false
		}
	}
	l := layers{}
	l["runtime.gc_cycles"] = float64(g1.cycles - g0.cycles)
	l["runtime.gc_pause_ms"] = float64(g1.pauseNs-g0.pauseNs) / 1e6
	l["runtime.heap_peak_mb"] = float64(heapPeak) / (1 << 20)
	l["tracing.overhead_pct"] = ((c2-c1)/(c1-c0) - 1) * 100

	// One pull round over the wire: a service query to every node.
	t := time.Now()
	for _, name := range f.farm.Names() {
		addr, _ := f.farm.Addr(name)
		if _, _, err := f.client.Call(addr, xmlmsg.NewServiceQuery()); err != nil {
			f.close()
			return result{}, fmt.Errorf("service query %s: %w", name, err)
		}
	}
	l["agent.pull_round_ms"] = float64(time.Since(t).Nanoseconds()) / 1e6
	results, err := f.results()
	f.close()
	if err != nil {
		return result{}, err
	}

	snap := reg.Snapshot()
	l["scheduler.plans"] = sumSnapshot(snap, "sched_plans_total")
	l["agent.pulls"] = sumSnapshot(snap, "agent_pulls_total")
	l["agent.forwards"] = sumSnapshot(snap, "agent_forwards_total")
	l["pace.evaluations"] = sumSnapshot(snap, "pace_evaluations")
	l["pace.cache_hits"] = sumSnapshot(snap, "pace_cache_hits")
	var hop telemetry.HistogramSnapshot
	for k, h := range snap.Histograms {
		if strings.HasPrefix(k, "transport_exchange_latency_s") {
			hop = hop.Merge(h)
		}
	}
	l["transport.hop_p50_ms"] = hop.Quantile(0.5) * 1e3
	if len(f.acks) > 0 {
		l["transport.exchanges_per_req"] = float64(hop.Count) / float64(len(f.acks))
	}

	lib := pace.CaseStudyLibrary()
	hw := map[string]pace.Hardware{}
	nodes := map[string]int{}
	for _, r := range f.resources {
		hw[r.Name], _ = pace.LookupHardware(r.Hardware)
		nodes[r.Name] = r.Nodes
	}
	// Scheduler replay and queue depth: each node's tasks in ack order,
	// arriving when acked.
	sort.Slice(f.acks, func(i, j int) bool { return f.acks[i].at < f.acks[j].at })
	streams := map[string][]arrival{}
	var hops float64
	for _, a := range f.acks {
		app, _ := lib.Lookup(a.app)
		streams[a.resource] = append(streams[a.resource], arrival{app, a.at, a.deadline})
		hops += float64(a.hops)
	}
	var adv, sub time.Duration
	var n int
	for name, s := range streams {
		a, sb, k := replayStream(name, hw[name], nodes[name], scheduler.NewFIFOPolicy(), s)
		adv, sub, n = adv+a, sub+sb, n+k
	}
	if n > 0 {
		l["scheduler.submit_us.fifo"] = float64(sub.Nanoseconds()) / 1e3 / float64(n)
		l["scheduler.advance_us"] = float64(adv.Nanoseconds()) / 1e3 / float64(n)
		l["agent.mean_hops"] = hops / float64(len(f.acks))
	}
	l["scheduler.queue_depth_max"] = farmQueueDepthMax(f.acks, results)

	type key struct {
		app *pace.AppModel
		hw  pace.Hardware
		k   int
	}
	var keys []key
	for node, tasks := range results {
		for _, t := range tasks {
			if app, ok := lib.Lookup(t.App); ok && t.NProc > 0 {
				keys = append(keys, key{app, hw[node], t.NProc})
			}
		}
	}
	l["pace.predict_ns"] = timePredict(len(keys), func(e *pace.Engine, i int) { _, _ = e.Predict(keys[i].app, keys[i].hw, keys[i].k) })

	// Decide and quote on the stopped farm's agents and schedulers.
	var decide, quote time.Duration
	var decisions, quotes int
	for i, a := range f.acks {
		if i == replayCap {
			break
		}
		node, ok := f.farm.Node(a.agent)
		app, _ := lib.Lookup(a.app)
		if !ok || app == nil {
			continue
		}
		now := node.Now()
		t := time.Now()
		node.Agent().Decide(agent.Request{ReqID: a.reqID, App: app, Env: "test", Deadline: now + a.deadline - a.at}, now)
		decide += time.Since(t)
		decisions++
	}
	for _, name := range f.farm.Names() {
		node, _ := f.farm.Node(name)
		d, k := timeQuotes(node.Agent().Local(), node.Now())
		quote, quotes = quote+d, quotes+k
	}
	if decisions > 0 {
		l["agent.decide_us"] = float64(decide.Nanoseconds()) / 1e3 / float64(decisions)
	}
	l["reserve.quote_us"] = float64(quote.Nanoseconds()) / 1e3 / float64(quotes)

	var wreqs []*xmlmsg.Request
	var wacks []*xmlmsg.DispatchAck
	for i, a := range f.acks {
		if i == replayCap {
			break
		}
		m := xmlmsg.NewWireRequest(a.reqID, a.app, "test", a.deadline, farmEmail, xmlmsg.ModeDiscover, nil)
		k := xmlmsg.NewDispatchAck(a.resource, a.taskID, a.reqID, a.at, a.hops, false)
		wreqs, wacks = append(wreqs, &m), append(wacks, &k)
	}
	if err := replayCodec(l, wreqs, wacks); err != nil {
		return result{}, err
	}
	if err := replayExchange(l); err != nil {
		return result{}, err
	}
	return l.result(res), nil
}

// farmQueueDepthMax is the most tasks ever waiting on one farm node, from
// ack times and the reported start times (one-second resolution).
func farmQueueDepthMax(acks []farmAck, results map[string][]xmlmsg.TaskResult) float64 {
	type key struct {
		resource string
		task     int
	}
	start := map[key]float64{}
	for node, tasks := range results {
		for _, t := range tasks {
			if s, err := xmlmsg.ParseVirtual(t.Start); err == nil {
				start[key{node, t.TaskID}] = s
			}
		}
	}
	type edge struct {
		t     float64
		delta int
	}
	edges := map[string][]edge{}
	for _, a := range acks {
		edges[a.resource] = append(edges[a.resource], edge{a.at, 1}, edge{start[key{a.resource, a.taskID}], -1})
	}
	best := 0
	for _, es := range edges {
		sort.Slice(es, func(i, j int) bool {
			if es[i].t != es[j].t {
				return es[i].t < es[j].t
			}
			return es[i].delta < es[j].delta
		})
		depth := 0
		for _, e := range es {
			depth += e.delta
			if depth > best {
				best = depth
			}
		}
	}
	return float64(best)
}
