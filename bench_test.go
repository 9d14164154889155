package socflow

// One benchmark per table and figure of the paper's evaluation. Each
// bench regenerates its experiment through internal/exp and reports
// the simulated-cluster metrics as benchmark outputs, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. The same tables are available
// interactively via `go run ./cmd/socflow-bench --exp <id>`; the full
// eight-scenario grid (instead of the three-scenario benchmark subset)
// via `--full`.

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

func report(b *testing.B, t *exp.Table) {
	b.Helper()
	if testing.Verbose() {
		b.Log("\n" + t.String())
	}
	b.ReportMetric(float64(len(t.Rows)), "rows")
}

func BenchmarkFig3Trace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, exp.ExpFig3())
	}
}

func BenchmarkFig4aSingleSoC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, exp.ExpFig4a())
	}
}

func BenchmarkFig4bCommLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, exp.ExpFig4b())
	}
}

func BenchmarkFig4cAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.ExpFig4c(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		report(b, t)
	}
}

func BenchmarkFig6GroupSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.ExpFig6("vgg11", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		report(b, t)
	}
}

func BenchmarkTable3Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.ExpTable3(exp.CoreScenarios(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		report(b, t)
	}
}

func BenchmarkFig8TrainTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.ExpFig8(exp.CoreScenarios(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		report(b, t)
	}
}

func BenchmarkFig9Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.ExpFig9(exp.CoreScenarios(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		report(b, t)
	}
}

func BenchmarkFig10Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.ExpFig10(exp.CoreScenarios()[0], benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		report(b, t)
	}
}

func BenchmarkFig11GPUComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.ExpFig11(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		report(b, t)
	}
}

func BenchmarkFig12Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.ExpFig12("vgg11", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		report(b, t)
	}
}

func BenchmarkFig13Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.ExpFig13("vgg11", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		report(b, t)
	}
}

func BenchmarkFig14MixedPrecision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.ExpFig14("vgg11", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		report(b, t)
	}
}

func BenchmarkExtNonIID(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.ExpNonIID(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		report(b, t)
	}
}

func BenchmarkExtGroupHeuristic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.ExpHeuristic("vgg11", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		report(b, t)
	}
}

func BenchmarkExtUnderclocking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.ExpUnderclocking(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		report(b, t)
	}
}

func BenchmarkExtPreemption(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.ExpPreemption(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		report(b, t)
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
