package socflow

// The paper's evaluation as benchmarks: BenchmarkExperiments has one
// sub-benchmark per entry of exp.Catalog, the same list `socflow bench`
// reads, each regenerating its tables at benchOpts and reporting their
// row count, so
//
//	go test -run '^$' -bench Experiments -benchmem .
//
// reproduces the entire evaluation, and -bench 'Experiments/fig8$' one
// figure. The same tables are available interactively via `go run
// ./cmd/socflow bench --exp <id>`; the full eight-scenario grid
// (instead of the three-scenario benchmark subset) via `--full`.

import (
	"context"
	"testing"

	"socflow/internal/exp"
)

// benchOpts keeps the functional side small enough for iterated
// benchmark runs while staying in the regime where convergence
// behaviour is faithful (see DESIGN.md §6).
func benchOpts() exp.Options {
	return exp.Options{TrainSamples: 640, ValSamples: 120, Epochs: 8, NumSoCs: 32, Groups: 8, Seed: 1}
}

func BenchmarkExperiments(b *testing.B) {
	for _, e := range exp.Catalog() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tables, err := e.Run(benchOpts(), false)
				if err != nil {
					b.Fatal(err)
				}
				rows := 0
				for _, t := range tables {
					if testing.Verbose() {
						b.Log("\n" + t.String())
					}
					rows += len(t.Rows)
				}
				b.ReportMetric(float64(rows), "rows")
			}
		})
	}
}

// BenchmarkQuickstartRun times one end-to-end facade run, the unit of
// work a library user pays for.
func BenchmarkQuickstartRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), Config{
			JobSpec: JobSpec{
				Model:        "lenet5",
				Dataset:      "fmnist",
				GlobalBatch:  16,
				Epochs:       3,
				TrainSamples: 240,
				ValSamples:   60,
			},
			NumSoCs: 16,
			Groups:  4,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
