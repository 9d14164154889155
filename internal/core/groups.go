package core

import (
	"context"
	"fmt"

	"socflow/internal/cluster"
)

// GroupSizeProbe reports the first-epoch training accuracy when the
// job is run with the given number of logical groups. The engine
// provides an implementation; tests stub it.
type GroupSizeProbe func(numGroups int) (firstEpochAccuracy float64, err error)

// SelectGroupCount implements the paper's warm-up heuristic for the
// group count N: first-epoch accuracy tracks convergence accuracy
// (Fig. 6), so profile N = 1, 2, 4, ... up to maxGroups and stop just
// before the first N whose first-epoch accuracy collapses by more than
// dropThreshold (the paper uses "significantly, typically to around
// 15%") relative to N = 1. Larger N means faster epochs (Eq. 1), so
// the largest safe N wins.
func SelectGroupCount(maxGroups int, dropThreshold float64, probe GroupSizeProbe) (int, error) {
	if maxGroups < 1 {
		return 0, fmt.Errorf("core: maxGroups %d < 1", maxGroups)
	}
	if dropThreshold <= 0 || dropThreshold >= 1 {
		return 0, fmt.Errorf("core: dropThreshold %v out of (0,1)", dropThreshold)
	}
	base, err := probe(1)
	if err != nil {
		return 0, err
	}
	best := 1
	for n := 2; n <= maxGroups; n *= 2 {
		acc, err := probe(n)
		if err != nil {
			return 0, err
		}
		if base-acc > dropThreshold*base {
			break
		}
		best = n
	}
	return best, nil
}

// AutoGroupCount runs the full warm-up heuristic end to end: it trains
// one functional epoch of the job at each candidate group count
// (1, 2, 4, ... up to maxGroups and the SoC count) and applies
// SelectGroupCount's knee rule. This is the "optional heuristic
// approach" §3.1 describes; production deployments may instead fix N
// empirically.
func AutoGroupCount(ctx context.Context, job *Job, clu *cluster.Cluster, maxGroups int, dropThreshold float64) (int, error) {
	if maxGroups > clu.Config.NumSoCs {
		maxGroups = clu.Config.NumSoCs
	}
	probe := func(n int) (float64, error) {
		probeJob := *job
		probeJob.Epochs = 1
		probeJob.TargetAccuracy = 0
		res, err := (&SoCFlow{NumGroups: n, Mixed: MixedOff}).Run(ctx, &probeJob, clu)
		if err != nil {
			return 0, err
		}
		return res.EpochAccuracies[0], nil
	}
	return SelectGroupCount(maxGroups, dropThreshold, probe)
}
