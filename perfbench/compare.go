package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchFile is the part of BENCHMARK.json the compare command reads.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareMain compares two sets of runs. Each set is a directory holding
// <workload>.jsonl files of result lines, the runs of the two sets made
// in alternation, so line i of one file pairs with line i of the other.
func compareMain(args []string) error {
	fl := flag.NewFlagSet("compare", flag.ContinueOnError)
	base := fl.String("base", "", "directory of the parent's runs")
	next := fl.String("new", "", "directory of the change's runs")
	bench := fl.String("bench", "BENCHMARK.json", "benchmark definition with the metrics' bounds")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *base == "" || *next == "" {
		return errors.New("need -base DIR and -new DIR")
	}
	data, err := os.ReadFile(*bench)
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("%s: %w", *bench, err)
	}
	fmt.Printf("%-14s %-17s %-31s %-31s %6s  %s\n", "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "won", "verdict")
	for _, w := range bf.Workloads {
		a, errA := readRuns(filepath.Join(*base, w.Name+".jsonl"))
		b, errB := readRuns(filepath.Join(*next, w.Name+".jsonl"))
		if errors.Is(errA, fs.ErrNotExist) || errors.Is(errB, fs.ErrNotExist) {
			continue
		}
		if errA != nil {
			return errA
		}
		if errB != nil {
			return errB
		}
		for _, m := range bf.EndToEnd {
			row := compareMetric(m, values(a, m.Name), values(b, m.Name))
			fmt.Printf("%-14s %-17s %-31s %-31s %5.0f%%  %s\n", w.Name, m.Name,
				fmtQuartiles(row.base), fmtQuartiles(row.next), row.won*100, row.verdict)
		}
		fmt.Printf("%-14s %-17s %-31s %-31s\n", w.Name, "failed share", failedShare(a), failedShare(b))
	}
	return nil
}

func readRuns(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no result lines", path)
	}
	return runs, nil
}

func values(runs []result, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

func failedShare(runs []result) string {
	var att, failed int
	for _, r := range runs {
		att += r.Attempted
		failed += r.Failed
	}
	return fmt.Sprintf("%d/%d", failed, att)
}

// quartiles returns q1, median and q3 the way Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	switch len(s) {
	case 0:
		return q
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	n, m := 4, len(s)+1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	q[1] = median(s)
	return q
}

func fmtQuartiles(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}

// spread is the interquartile distance as a share of the median.
func spread(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / abs(q[1])
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

type comparison struct {
	base, next [3]float64
	won        float64 // share of pairs the new side won
	verdict    string
}

// compareMetric applies the comparison rules: a gain needs nine tenths of
// the pairs and a median difference beyond the parent's own interquartile
// distance; a loss is a median worse by more than the bound; a parent
// spread wider than the bound leaves the metric unresolved unless every
// new run beats every parent run.
func compareMetric(m boundedMetric, a, b []float64) comparison {
	c := comparison{base: quartiles(a), next: quartiles(b)}
	better := func(x, y float64) bool { // x better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	pairs, wins := 0, 0
	for i := 0; i < len(a) && i < len(b); i++ {
		pairs++
		if better(b[i], a[i]) {
			wins++
		}
	}
	if pairs > 0 {
		c.won = float64(wins) / float64(pairs)
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	medA, medB := c.base[1], c.next[1]
	worseBy := 0.0
	if medA != 0 {
		worseBy = (medB - medA) / abs(medA)
	}
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case spread(c.base) > m.Bound && !allBetter:
		c.verdict = fmt.Sprintf("unresolved (spread %.0f%% > bound %.0f%%)", spread(c.base)*100, m.Bound*100)
	case allBetter || (c.won >= 0.9 && better(medB, medA) && abs(medB-medA) > c.base[2]-c.base[0]):
		c.verdict = "better"
	case worseBy > m.Bound:
		c.verdict = fmt.Sprintf("worse (%.1f%% > bound %.0f%%)", worseBy*100, m.Bound*100)
	default:
		c.verdict = "no worse"
	}
	return c
}
