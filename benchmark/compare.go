package main

import (
	"fmt"
	"io"
)

// compareFiles checks that two results.json files of the same commit,
// host and settings agree within every end-to-end metric's bound. It is
// the benchmark's noise test — neither file is the baseline, so a
// metric disagrees when either side is worse than the other by more
// than the bound — and exits non-zero listing (workload, metric, Δ,
// bound) for each disagreement.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark: --compare:", err)
		return 2
	}
	a, err := readDoc(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readDoc(pathB)
	if err != nil {
		return fail(err)
	}
	if err := comparable(a, b); err != nil {
		return fail(err)
	}
	return report(compareDocs(a, b), stdout)
}

func comparable(a, b *resultDoc) error {
	if a.Traced || b.Traced {
		return fmt.Errorf("layer files have no bounds; compare results.json files")
	}
	if a.Fingerprint != b.Fingerprint {
		return fmt.Errorf("fingerprints differ, refusing to compare:\n  %+v\n  %+v", a.Fingerprint, b.Fingerprint)
	}
	return nil
}

type disagreement struct {
	workload, metric string
	a, b, delta      float64
	m                endToEnd
}

func compareDocs(a, b *resultDoc) []disagreement {
	inB := map[string]workloadResult{}
	for _, w := range b.Workloads {
		inB[w.Name] = w
	}
	var out []disagreement
	for _, wa := range a.Workloads {
		wb, ok := inB[wa.Name]
		for _, m := range endToEndMetrics {
			if m.aliasOf != "" || !m.reportedBy(wa.Name) {
				continue
			}
			sa, okA := wa.Metrics[m.name]
			sb, okB := wb.Metrics[m.name]
			if !ok || !okA || !okB {
				out = append(out, disagreement{workload: wa.Name, metric: m.name + " (missing)", m: m})
				continue
			}
			delta := max(m.worse(sa.Median, sb.Median), m.worse(sb.Median, sa.Median))
			if delta > m.bound {
				out = append(out, disagreement{wa.Name, m.name, sa.Median, sb.Median, delta, m})
			}
		}
	}
	return out
}

func report(ds []disagreement, stdout io.Writer) int {
	if len(ds) == 0 {
		fmt.Fprintln(stdout, "compare: the two runs agree within every bound")
		return 0
	}
	for _, d := range ds {
		kind := "relative"
		if d.m.abs {
			kind = "absolute"
		}
		fmt.Fprintf(stdout, "compare: %-14s %-24s A=%-12.6g B=%-12.6g Δ=%.4g > bound %.4g (%s)\n",
			d.workload, d.metric, d.a, d.b, d.delta, d.m.bound, kind)
	}
	return 1
}
