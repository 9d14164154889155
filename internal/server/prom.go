package server

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"socflow/internal/metrics"
)

// jobRegistry is one job's registry with the labels /metrics exports it
// under.
type jobRegistry struct {
	id, tenant string
	reg        *metrics.Registry
}

// jobMetrics returns every job that has a registry, in submission
// order.
func (s *Server) jobMetrics() []jobRegistry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []jobRegistry
	for _, id := range s.order {
		if j := s.jobs[id]; j.spec.Metrics != nil {
			out = append(out, jobRegistry{id: j.id, tenant: j.spec.Tenant, reg: j.spec.Metrics})
		}
	}
	return out
}

// family is one Prometheus metric family: its type and its samples,
// one entry per job in submission order.
type family struct {
	typ   string
	lines []string
}

// writeMetrics renders each job's registry snapshot as Prometheus text
// (format 0.0.4), labeled job and tenant. A registry name becomes
// socflow_ plus the name with every character outside [A-Za-z0-9_]
// replaced by _. Counters, gauges and histograms are exported;
// histograms as cumulative le buckets, +Inf, _sum and _count. Families
// are written in name order, each under one # TYPE line; a sample whose
// name another type already claimed is dropped.
func writeMetrics(w io.Writer, jobs []jobRegistry) error {
	fams := map[string]*family{}
	add := func(name, typ, line string) {
		f := fams[name]
		if f == nil {
			f = &family{typ: typ}
			fams[name] = f
		}
		if f.typ == typ {
			f.lines = append(f.lines, line)
		}
	}
	for _, j := range jobs {
		snap := j.reg.Snapshot()
		labels := fmt.Sprintf(`job="%s",tenant="%s"`, escapeLabel(j.id), escapeLabel(j.tenant))
		for name, v := range snap.Counters {
			n := metricName(name)
			add(n, "counter", fmt.Sprintf("%s{%s} %d", n, labels, v))
		}
		for name, v := range snap.Gauges {
			n := metricName(name)
			add(n, "gauge", fmt.Sprintf("%s{%s} %s", n, labels, formatFloat(v)))
		}
		for name, h := range snap.Histograms {
			n := metricName(name)
			var b strings.Builder
			var cum int64
			for i, bound := range h.Bounds {
				cum += h.Counts[i]
				fmt.Fprintf(&b, "%s_bucket{%s,le=\"%s\"} %d\n", n, labels, formatFloat(bound), cum)
			}
			fmt.Fprintf(&b, "%s_bucket{%s,le=\"+Inf\"} %d\n", n, labels, h.Count)
			fmt.Fprintf(&b, "%s_sum{%s} %s\n", n, labels, formatFloat(h.Sum))
			fmt.Fprintf(&b, "%s_count{%s} %d", n, labels, h.Count)
			add(n, "histogram", b.String())
		}
	}
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, name := range names {
		f := fams[name]
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, f.typ)
		for _, line := range f.lines {
			bw.WriteString(line)
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// metricName maps a registry name to a Prometheus metric name.
func metricName(name string) string {
	b := []byte("socflow_" + name)
	for i, c := range b {
		if !(c == '_' || '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z') {
			b[i] = '_'
		}
	}
	return string(b)
}

// escapeLabel escapes a label value for the text format.
func escapeLabel(v string) string {
	return strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(v)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
