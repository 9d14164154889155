package serve

import (
	"math"

	"socflow/internal/cluster"
	"socflow/internal/tensor"
)

// LoadGen converts the cluster's tidal occupancy trace into an
// open-loop request arrival process: a non-homogeneous Poisson stream
// whose rate follows the diurnal busy fraction — the same curve that
// derates training capacity describes the users generating the
// requests. Seeded and deterministic.
type LoadGen struct {
	// Trace is the diurnal curve; its BusyFraction at a given hour,
	// normalized by PeakBusy, scales the arrival rate.
	Trace cluster.TidalTrace
	// PeakRPS is the arrival rate (requests/second) at the trace's
	// daytime peak.
	PeakRPS float64
	// SLO is each request's latency budget: Deadline = Arrival + SLO.
	SLO float64
	// Samples is the serving dataset's size; each request draws its
	// Sample index uniformly.
	Samples int
	// Seed drives the stream; equal seeds give equal streams.
	Seed uint64
}

// Arrivals generates the request stream for the window starting at
// startHour (hour of day) and lasting `hours`. Timestamps are simulated
// seconds from the window start. Generation uses Poisson thinning: the
// stream is drawn at the peak rate and arrivals are kept with
// probability rate(t)/peakRate, which is exact for a non-homogeneous
// Poisson process and keeps one seeded RNG stream per window.
func (g LoadGen) Arrivals(startHour, hours float64) []Request {
	if g.PeakRPS <= 0 || hours <= 0 {
		return nil
	}
	// Thinning normalizes by the trace's peak busy fraction. A zero-value
	// TidalTrace would make keep = 0/0 = NaN, and `rng.Float64() >= NaN`
	// is always false — every envelope arrival silently kept at full peak
	// rate. Derive the peak from the curve itself when it isn't set; a
	// trace that never goes busy generates no load at all.
	peak := g.Trace.PeakBusy
	if peak <= 0 {
		for _, busy := range g.Trace.HourlyProfile() {
			if busy > peak {
				peak = busy
			}
		}
	}
	if peak <= 0 {
		return nil
	}
	rng := tensor.NewRNG(g.Seed)
	horizon := hours * 3600
	// The kept arrivals are Poisson with mean at most λ, the envelope's:
	// sized at λ plus five standard deviations, the slice is allocated
	// once (append still grows past it on a one-in-millions draw).
	lambda := g.PeakRPS * horizon
	out := make([]Request, 0, int(math.Ceil(lambda+5*math.Sqrt(lambda)))+16)
	t := 0.0
	id := 0
	for {
		// Exponential inter-arrival at the envelope (peak) rate.
		t += -math.Log(1-rng.Float64()) / g.PeakRPS
		if t >= horizon {
			return out
		}
		hour := math.Mod(startHour+t/3600, 24)
		keep := g.Trace.BusyFraction(hour) / peak
		if rng.Float64() >= keep {
			continue
		}
		sample := 0
		if g.Samples > 0 {
			sample = rng.Intn(g.Samples)
		}
		out = append(out, Request{
			ID:       id,
			Arrival:  t,
			Deadline: t + g.SLO,
			Sample:   sample,
		})
		id++
	}
}
