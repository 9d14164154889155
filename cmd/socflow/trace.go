package main

import (
	"fmt"
	"strings"

	"socflow"
	"socflow/internal/cluster"
	"socflow/internal/metrics"
)

// trace prints the deployed-fleet tidal utilization model (Fig. 3): the
// hourly busy-SoC fraction as an ASCII bar chart, the nightly idle
// window, and — with --socs — a sampled per-SoC busy schedule summary.
func trace(args []string) int {
	fs := newFlags("trace")
	socs := fs.Int("socs", 0, "also sample a busy schedule for this many SoCs")
	threshold := fs.Float64("threshold", 0.2, "idle-window busy-fraction threshold")
	seed := fs.Uint64("seed", 1, "schedule sampling seed")
	metricsOut := fs.String("metrics-out", "", "write the tidal-model gauges as a metrics JSON snapshot to this file")
	fs.Parse(args)

	profile := socflow.TidalProfile()
	fmt.Println("Busy SoCs by hour of day (Fig. 3):")
	for h, v := range profile {
		bar := strings.Repeat("#", int(v*50+0.5))
		fmt.Printf("  %02d:00 %5.1f%% %s\n", h, 100*v, bar)
	}
	start, hours := socflow.IdleWindow(*threshold)
	fmt.Printf("\nidle window below %.0f%% busy: starts %02.0f:00, lasts %.1f h\n", 100**threshold, start, hours)
	fmt.Println("(the paper schedules nightly training jobs into this ~4h+ window)")

	if *socs > 0 {
		sched := cluster.DefaultTidalTrace().BusySchedule(*socs, *seed)
		fmt.Printf("\nsampled schedule for %d SoCs — free SoCs per hour:\n", *socs)
		for h := 0; h < 24; h++ {
			free := 0
			for _, s := range sched {
				if !s[h] {
					free++
				}
			}
			fmt.Printf("  %02d:00 %3d free\n", h, free)
		}
	}

	reg := metrics.New()
	for h, v := range profile {
		reg.Gauge(fmt.Sprintf("tidal.busy.fraction.h%02d", h)).Set(v)
	}
	reg.Gauge("tidal.idle.window.start.hour").Set(start)
	reg.Gauge("tidal.idle.window.hours").Set(hours)
	if err := writeOut(*metricsOut, reg.Snapshot().WriteJSON); err != nil {
		return fail("trace", err)
	}
	return 0
}
