package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Prometheus text-format exposition of the metrics registry, for the
// analysis service's /metrics endpoint (and anything else that wants to
// scrape a Recorder).
//
// The mapping follows the repo's metric conventions:
//
//   - counters and gauges export as-is under their sanitized name;
//   - histograms export as Prometheus summaries: p50/p95/p99 quantile
//     samples plus the cumulative <name>_sum and <name>_count series;
//   - every name is prefixed "pinpoint_" and dots become underscores, so
//     "smt.query_ns" scrapes as pinpoint_smt_query_ns;
//   - labeled registry entries (see Labeled) expose as one family: series
//     sharing a base name emit a single HELP/TYPE pair followed by every
//     label combination, and for summaries the quantile label merges into
//     the series' own label block;
//   - a # HELP line carries the original registry name (escaped per the
//     exposition format), keeping the dotted name greppable from scrape
//     output.
//
// Families are emitted counters-first, then gauges, then histograms, each
// block sorted by (base name, label block) — the output of a deterministic
// metric state is byte-stable, which the golden test pins down.

// WritePrometheus renders a lock-consistent snapshot of the recorder's
// metrics in the Prometheus text exposition format (version 0.0.4). A nil
// Recorder writes nothing and reports no error.
func (r *Recorder) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	_, err := r.Snapshot().WriteTo(w)
	return err
}

// WriteTo renders the snapshot in the Prometheus text exposition format,
// implementing io.WriterTo.
func (s Snapshot) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	write := func(format string, args ...any) error {
		_, err := fmt.Fprintf(cw, format, args...)
		return err
	}

	// Sort by (base, labels) so every series of a labeled family is
	// adjacent, then emit HELP/TYPE once per base.
	family := func(names []string, typ string, emit func(name string) error) error {
		sort.Slice(names, func(i, j int) bool {
			bi, li := SplitLabels(names[i])
			bj, lj := SplitLabels(names[j])
			if bi != bj {
				return bi < bj
			}
			return li < lj
		})
		prevBase := ""
		for _, name := range names {
			base, _ := SplitLabels(name)
			if base != prevBase {
				pn := PromName(base)
				if err := write("# HELP %s %s\n# TYPE %s %s\n", pn, escapeHelp(base), pn, typ); err != nil {
					return err
				}
				prevBase = base
			}
			if err := emit(name); err != nil {
				return err
			}
		}
		return nil
	}

	counterNames := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		counterNames = append(counterNames, name)
	}
	err := family(counterNames, "counter", func(name string) error {
		return write("%s %d\n", promSeries(name), s.Counters[name])
	})
	if err != nil {
		return cw.n, err
	}

	gaugeNames := make([]string, 0, len(s.Gauges))
	for name := range s.Gauges {
		gaugeNames = append(gaugeNames, name)
	}
	err = family(gaugeNames, "gauge", func(name string) error {
		return write("%s %d\n", promSeries(name), s.Gauges[name])
	})
	if err != nil {
		return cw.n, err
	}

	histNames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		histNames = append(histNames, name)
	}
	err = family(histNames, "summary", func(name string) error {
		base, labels := SplitLabels(name)
		pn := PromName(base)
		h := s.Histograms[name]
		for _, q := range [...]struct {
			label string
			v     int64
		}{{"0.5", h.P50}, {"0.95", h.P95}, {"0.99", h.P99}} {
			var err error
			if labels == "" {
				err = write("%s{quantile=\"%s\"} %d\n", pn, q.label, q.v)
			} else {
				// Merge quantile into the series' own label block:
				// {phase="x"} → {phase="x",quantile="0.5"}.
				err = write("%s%s,quantile=\"%s\"} %d\n", pn, labels[:len(labels)-1], q.label, q.v)
			}
			if err != nil {
				return err
			}
		}
		if err := write("%s_sum%s %d\n", pn, labels, h.Sum); err != nil {
			return err
		}
		return write("%s_count%s %d\n", pn, labels, h.Count)
	})
	return cw.n, err
}

// promSeries renders a registry name as a full Prometheus series name:
// sanitized base plus the label block verbatim.
func promSeries(name string) string {
	base, labels := SplitLabels(name)
	if labels == "" {
		return PromName(base)
	}
	return PromName(base) + labels
}

// PromName sanitizes a registry metric name into a legal Prometheus metric
// name: the "pinpoint_" namespace prefix, with every character outside
// [a-zA-Z0-9_:] replaced by an underscore ("smt.query_ns" →
// "pinpoint_smt_query_ns").
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len("pinpoint_") + len(name))
	b.WriteString("pinpoint_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':',
			c >= '0' && c <= '9':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP text per the exposition format: backslash and
// newline only.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
