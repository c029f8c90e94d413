// Command perfbench is the repository's benchmark: it drives the
// simulator and the live farm through their public packages, checks every
// output against rules computed apart from the program, and prints one
// JSON result line.
//
//	perfbench --workload table3 --seed 1 --seconds 20 --trace 0
//	perfbench --workload all --seed 1 --seconds 20       # each workload in its own process
//	perfbench compare -base DIR -new DIR                 # two sets of runs, see README.md
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a separate traced round.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadFunc runs one workload for the given wall budget and returns
// its result; human-readable lines go to stdout before the result.
type workloadFunc func(cfg config) (result, error)

type config struct {
	seed    uint64
	seconds float64
	trace   bool
}

var workloads = map[string]workloadFunc{
	"table3":        runTable3,
	"mega-smoke":    runMegaSmoke,
	"subsystems":    runSubsystems,
	"farm-loopback": runFarm,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	var (
		name       = flag.String("workload", "", "workload to run: table3, mega-smoke, subsystems, farm-loopback, or all")
		seed       = flag.Uint64("seed", 1, "seed the inputs are generated from")
		seconds    = flag.Int("seconds", 20, "measured wall time; whole rounds run until it is used")
		traceFlag  = flag.Int("trace", 0, "1 reports per-layer metrics from a separate traced round")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	)
	flag.Parse()
	if *name == "all" {
		if err := runAll(*seed, *seconds, *traceFlag); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %v, --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
			os.Exit(1)
		}
	}
	res, err := fn(config{seed: *seed, seconds: float64(*seconds), trace: *traceFlag == 1})
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if err == nil && *memprofile != "" {
		err = writeHeapProfile(*memprofile)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("heap profile: %w", err)
	}
	return f.Close()
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runAll runs every workload in its own process, one after another, and
// prints each one's output prefixed by its name.
func runAll(seed uint64, seconds, traceFlag int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, name := range workloadNames() {
		fmt.Printf("== %s\n", name)
		cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traceFlag))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", name, err)
		}
	}
	return nil
}

// budgetUsed reports whether a run that started at start has used its
// wall budget; rounds always complete, so a run ends at the first round
// boundary past the budget.
func budgetUsed(start time.Time, seconds float64) bool {
	return time.Since(start).Seconds() >= seconds
}
