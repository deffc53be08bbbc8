package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is BENCHMARK.json: the one place metric names, units and
// regression bounds are written down. The program reads them from there
// rather than repeating them.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 || s.RunSeconds <= 0 {
		return nil, fmt.Errorf("%s: needs end_to_end, per_layer and run_seconds", path)
	}
	return &s, nil
}

// fmtSamples renders a sample set the way every timing is reported:
// median, quartiles, and the highest percentile that still has at least
// ten samples beyond it (omitted when n is too small for one).
func fmtSamples(xs []float64) string {
	q1, q3 := quartiles(xs)
	s := fmt.Sprintf("median=%.6g q1=%.6g q3=%.6g", median(xs), q1, q3)
	if p, ok := highestPercentile(len(xs)); ok {
		s += fmt.Sprintf(" p%g=%.6g", p, percentile(xs, p))
	}
	return s
}

func printSamples(w io.Writer, label, unit string, xs []float64) {
	fmt.Fprintf(w, "  %-28s n=%-5d %s [%s]\n", label, len(xs), fmtSamples(xs), unit)
}

func printMetrics(w io.Writer, specs []metricSpec, vals map[string]metricValue, layers bool) {
	for _, m := range specs {
		v := vals[m.Name]
		if layers {
			fmt.Fprintf(w, "layer %-34s %14.6g %s\n", m.Name, v.Value, m.Unit)
		} else {
			fmt.Fprintf(w, "metric %-12s %14.6g %-4s (%s is better; regression bound %.0f%%)\n", m.Name, v.Value, m.Unit, m.Better, 100*m.Bound)
		}
	}
}

// printSelf lists self time per op: a span's duration minus what its
// children cover.
func printSelf(w io.Writer, spans []span) {
	self := selfByOp(spans)
	ops := make([]string, 0, len(self))
	for op := range self {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return self[ops[i]] > self[ops[j]] })
	for _, op := range ops {
		fmt.Fprintf(w, "  self %-24s %10.4f s\n", op, self[op])
	}
}
