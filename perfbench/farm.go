package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/pace"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/workload"
	"repro/internal/xmlmsg"
)

const (
	// farmRate is the open-loop arrival rate, well under what the farm
	// sustains on a 2-CPU host.
	farmRate = 200.0
	// farmRequests is one round's request count: five seconds of load,
	// and enough samples that the round's p99 has ten beyond it.
	farmRequests = 1000
	farmEmail    = "perfbench@localhost"
)

// farmRun is one round against a freshly started farm.
type farmRun struct {
	farm      *transport.Farm
	client    *transport.Client
	resources []core.ResourceSpec
	start     time.Time // the farm's clock origin, near enough

	setupS    float64
	elapsedS  float64   // first due time to last ack
	cpuS      float64   // process CPU seconds over the drive
	latencies []float64 // ms, due time to DispatchAck
	lateness  []float64 // ms, due time to send
	acks      []farmAck
	failures  []string
	allocB    uint64
}

type farmAck struct {
	reqID    uint64
	app      string
	agent    string
	resource string
	taskID   int
	hops     int
	at       float64 // farm clock seconds when acked
	deadline float64
}

// startFarm brings up the Fig. 7 farm and waits until every node has
// answered a service query: the farm's set-up time.
func startFarm(seed uint64, reg *telemetry.Registry) (*farmRun, error) {
	f := &farmRun{resources: experiment.CaseStudyResources(), start: time.Now()}
	farm, err := transport.StartFarm(transport.FarmConfig{
		Specs: f.resources, Policy: "fifo", Seed: seed, Telemetry: reg,
	})
	if err != nil {
		return nil, err
	}
	f.farm = farm
	f.client = transport.NewPooledClient(transport.PoolConfig{Size: 1})
	for _, name := range farm.Names() {
		addr, _ := farm.Addr(name)
		reply, _, err := f.client.Call(addr, xmlmsg.NewServiceQuery())
		if err == nil {
			_, ok := reply.(*xmlmsg.ServiceInfo)
			if !ok {
				err = fmt.Errorf("service query answered with %T", reply)
			}
		}
		if err != nil {
			f.close()
			return nil, fmt.Errorf("farm node %s: %w", name, err)
		}
	}
	f.setupS = time.Since(f.start).Seconds()
	return f, nil
}

func (f *farmRun) close() {
	if f.client.Pool != nil {
		f.client.Pool.Close()
	}
	_ = f.farm.Close()
}

// farmRequestsFor generates one round's requests from the seed: Table 1
// applications and deadlines, arriving at uniformly drawn Fig. 7 agents.
func farmRequestsFor(seed uint64) ([]workload.Request, error) {
	spec := workload.CaseStudySpec(seed, experiment.AgentNames())
	spec.Count = farmRequests
	spec.Library = pace.CaseStudyLibrary()
	return workload.Generate(spec)
}

// drive sends reqs open-loop at farmRate from one generator: each request
// is sent at its due time on a goroutine of its own, whatever is still
// outstanding, and timed from when it was due. The goroutines multiplex
// over one pooled connection per node and run on GOMAXPROCS (nproc)
// threads.
func (f *farmRun) drive(reqs []workload.Request) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var lastAck time.Time
	f.acks = make([]farmAck, 0, len(reqs))
	send := func(i int, due time.Time) {
		defer wg.Done()
		q := reqs[i]
		sent := time.Now()
		deadline := sent.Sub(f.start).Seconds() + q.DeadlineRel
		id := uint64(i + 1)
		msg := xmlmsg.NewWireRequest(id, q.AppName, "test", deadline, farmEmail, xmlmsg.ModeDiscover, nil)
		addr, _ := f.farm.Addr(q.AgentName)
		reply, _, err := f.client.Call(addr, msg)
		done := time.Now()
		ack, ok := reply.(*xmlmsg.DispatchAck)
		mu.Lock()
		defer mu.Unlock()
		f.lateness = append(f.lateness, float64(sent.Sub(due))/1e6)
		switch {
		case err != nil:
			f.failures = append(f.failures, fmt.Sprintf("request %d: %v", id, err))
		case !ok:
			f.failures = append(f.failures, fmt.Sprintf("request %d: answered with %T", id, reply))
		default:
			f.latencies = append(f.latencies, float64(done.Sub(due))/1e6)
			f.acks = append(f.acks, farmAck{reqID: ack.ReqID, app: q.AppName, agent: q.AgentName,
				resource: ack.Resource, taskID: ack.TaskID, hops: ack.Hops,
				at: done.Sub(f.start).Seconds(), deadline: deadline})
			if id != ack.ReqID {
				f.failures = append(f.failures, fmt.Sprintf("request %d acked as %d", id, ack.ReqID))
			}
		}
		if done.After(lastAck) {
			lastAck = done
		}
	}
	a0 := allocBytes()
	c0 := cpuSeconds()
	begin := time.Now()
	period := time.Duration(float64(time.Second) / farmRate)
	for i := range reqs {
		due := begin.Add(time.Duration(i) * period)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go send(i, due)
	}
	wg.Wait()
	f.allocB = allocBytes() - a0
	f.cpuS = cpuSeconds() - c0
	f.elapsedS = lastAck.Sub(begin).Seconds()
}

// results queries every node for the tasks it holds.
func (f *farmRun) results() (map[string][]xmlmsg.TaskResult, error) {
	out := map[string][]xmlmsg.TaskResult{}
	for _, name := range f.farm.Names() {
		addr, _ := f.farm.Addr(name)
		reply, _, err := f.client.Call(addr, xmlmsg.NewResultsQuery(""))
		if err != nil {
			return nil, fmt.Errorf("results from %s: %w", name, err)
		}
		rs, ok := reply.(*xmlmsg.ResultSet)
		if !ok {
			return nil, fmt.Errorf("results from %s: answered with %T", name, reply)
		}
		out[name] = rs.Tasks
	}
	return out, nil
}

// checkFarm: every ack names a farm resource; the (resource, task) pairs
// the acks report equal, once each, those the nodes' results report; and
// at no instant do a resource's tasks use more nodes than it has.
func checkFarm(acks []farmAck, results map[string][]xmlmsg.TaskResult, nodes map[string]int) error {
	type key struct {
		resource string
		task     int
	}
	acked := map[key]int{}
	for _, a := range acks {
		if _, ok := nodes[a.resource]; !ok {
			return fmt.Errorf("request %d acked by unknown resource %q", a.reqID, a.resource)
		}
		acked[key{a.resource, a.taskID}]++
	}
	for k, n := range acked {
		if n != 1 {
			return fmt.Errorf("task %d on %s acked %d times", k.task, k.resource, n)
		}
	}
	seen := 0
	for node, tasks := range results {
		type edge struct {
			t     float64
			delta int
		}
		var edges []edge
		for _, t := range tasks {
			if t.Resource != node {
				return fmt.Errorf("node %s reports task %d on %s", node, t.TaskID, t.Resource)
			}
			if acked[key{t.Resource, t.TaskID}] != 1 {
				return fmt.Errorf("node %s reports task %d that no ack named", node, t.TaskID)
			}
			seen++
			start, err1 := xmlmsg.ParseVirtual(t.Start)
			end, err2 := xmlmsg.ParseVirtual(t.End)
			if err1 != nil || err2 != nil {
				return fmt.Errorf("node %s task %d: bad times %q..%q", node, t.TaskID, t.Start, t.End)
			}
			edges = append(edges, edge{start, t.NProc}, edge{end, -t.NProc})
		}
		// Times have one-second resolution; truncation keeps half-open
		// intervals that were disjoint disjoint, so ends sort first.
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].t != edges[j].t {
				return edges[i].t < edges[j].t
			}
			return edges[i].delta < edges[j].delta
		})
		busy := 0
		for _, e := range edges {
			busy += e.delta
			if busy > nodes[node] {
				return fmt.Errorf("node %s runs tasks on %d of %d nodes at %s", node, busy, nodes[node], xmlmsg.FormatVirtual(e.t))
			}
		}
	}
	if seen != len(acked) {
		return fmt.Errorf("results report %d tasks, acks name %d", seen, len(acked))
	}
	return nil
}

// farmRound runs one round: set-up, open-loop drive, results and checks.
// keep leaves the farm running for the traced round's layer replays.
func farmRound(seed uint64, reqs []workload.Request, reg *telemetry.Registry, keep bool) (f *farmRun, bad, err error) {
	f, err = startFarm(seed, reg)
	if err != nil {
		return nil, nil, err
	}
	f.drive(reqs)
	results, err := f.results()
	if err != nil {
		f.close()
		return nil, nil, err
	}
	nodes := map[string]int{}
	for _, r := range f.resources {
		nodes[r.Name] = r.Nodes
	}
	bad = checkFarm(f.acks, results, nodes)
	if !keep {
		f.close()
	}
	return f, bad, nil
}

func runFarm(cfg config) (result, error) {
	if cfg.trace {
		reqs, err := farmRequestsFor(roundSeed(cfg.seed, 0))
		if err != nil {
			return result{}, err
		}
		return traceFarm(cfg, reqs)
	}
	var e e2e
	for i := 0; i < setupSamples; i++ {
		f, err := startFarm(cfg.seed, nil)
		if err != nil {
			return result{}, err
		}
		e.setup = append(e.setup, f.setupS)
		f.close()
	}
	res := result{Correct: true}
	var lateness []float64
	start := time.Now()
	for rounds := 0; rounds == 0 || !budgetUsed(start, cfg.seconds); rounds++ {
		reqs, err := farmRequestsFor(roundSeed(cfg.seed, rounds))
		if err != nil {
			return result{}, err
		}
		f, bad, err := farmRound(cfg.seed, reqs, nil, false)
		if err != nil {
			return result{}, err
		}
		res.Attempted += len(reqs)
		res.Failed += len(f.failures)
		for _, msg := range f.failures {
			fmt.Println("FAILED:", msg)
		}
		if bad != nil {
			fmt.Println("CHECK FAILED:", bad)
			res.Correct = false
		}
		e.completed += len(f.acks)
		e.busyS += f.elapsedS
		e.cpuS += f.cpuS
		e.addLatencies(f.latencies)
		e.allocB += f.allocB
		e.served += len(f.acks)
		lateness = append(lateness, f.lateness...)
		if bad != nil {
			break
		}
	}
	fmt.Printf("rounds %d, attempted %d, failed %d, checks %s\n", e.rounds(), res.Attempted, res.Failed, verdict(res.Correct))
	fmt.Printf("generator lateness: p50 %.3f ms, p99 %.3f ms, max %.3f ms over %d sends\n",
		quantile(lateness, 0.5), quantile(lateness, 0.99), quantile(lateness, 1), len(lateness))
	res.Metrics = e.metrics()
	e.print(res.Metrics)
	return res, nil
}
