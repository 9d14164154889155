package plan

import (
	"fmt"
	"math"
	"sort"

	"socflow/internal/cluster"
	"socflow/internal/nn"
	"socflow/internal/serve"
)

// Options parameterizes a planner search.
type Options struct {
	// Spec is the paper-scale model card the candidates are priced
	// against. Required.
	Spec *nn.Spec
	// Model is the micro model used for the layer-cost shape walk. When
	// nil, Spec's geometry is built for the micro input with no weights
	// drawn (BuildMicro with a nil RNG: the walk reads shapes only).
	Model *nn.Sequential
	// InC and ImgSize are the micro input shape for the cost walk
	// (defaults 3 and 8 — the CIFAR micro profile).
	InC, ImgSize int
	// Cluster is the target topology; built from NumSoCs with defaults
	// when nil.
	Cluster *cluster.Cluster
	// NumSoCs is the cluster size. Required when Cluster is nil.
	NumSoCs int
	// Nodes restricts the search to a subset of the cluster's SoCs —
	// the surviving fleet after a crash or tidal reclaim. Placements
	// only use these IDs; the returned Plan still carries the full
	// NumSoCs so it remains executable on the original mesh. Nil means
	// all of [0, NumSoCs). IDs must be unique and in range; order is
	// normalized (sorted ascending) so equal sets search identically.
	Nodes []int
	// MaxGroups caps the data-parallel group count — the statistical-
	// efficiency (convergence) budget the caller is willing to spend on
	// more groups, in the spirit of core.SelectGroupCount. 0 means no
	// cap.
	MaxGroups int
	// GlobalBatch is the per-group mini-batch at paper scale. Required.
	GlobalBatch int
	// Samples is the paper-scale samples per epoch. Required.
	Samples int
	// ActivationScale overrides the micro→paper activation scaling
	// (default DefaultActivationScale).
	ActivationScale float64
	// MinMicroBatch floors the GPipe micro-batch size (default 2:
	// batch-norm layers degenerate on single-sample micro-batches — a
	// one-sample batch normalizes every activation to its shift β).
	MinMicroBatch int
	// Only restricts which modes may win: "" considers both, ModeData
	// or ModePipeline forces that mode. Data candidates are still
	// priced under ModePipeline so DataEpochSeconds keeps reporting the
	// baseline the pipeline is beating.
	Only Mode
}

func (o Options) withDefaults() Options {
	if o.InC == 0 {
		o.InC = 3
	}
	if o.ImgSize == 0 {
		o.ImgSize = 8
	}
	if o.Cluster != nil && o.NumSoCs == 0 {
		o.NumSoCs = o.Cluster.Config.NumSoCs
	}
	if o.ActivationScale <= 0 {
		o.ActivationScale = DefaultActivationScale
	}
	if o.MinMicroBatch <= 0 {
		o.MinMicroBatch = 2
	}
	return o
}

// Search enumerates the parallelization space and returns the plan
// with the smallest predicted epoch makespan. Per group count n —
// every divisor of the node count within MaxGroups, so groups are
// symmetric — it prices
//
//   - one data-parallel SSGD candidate, placed by IntegrityGreedyMap:
//     the mapping core.SoCFlow executes, so the price is the executed
//     epoch (the strided mapping is the Fig. 13 ablation's deliberately
//     worst case and never a data candidate);
//   - pipelines of depth min(k, L) with GPipe micro-batch counts M
//     dividing the batch subject to the MinMicroBatch floor, on two
//     placements — stage order is placement there: contiguous (groups
//     packed onto consecutive SoCs, minimal PCB crossings) and strided
//     (round-robin across PCBs).
//
// Enumeration order is fixed and improvement is strict, so equal
// inputs always return the identical plan (the determinism test gates
// tier-1 on this).
func Search(o Options) (*Plan, error) { return search(o, nil) }

// search is Search; each, when non-nil, sees every candidate and its
// price as the search prices it.
func search(o Options, each func(p *Plan, epochSeconds float64)) (*Plan, error) {
	o = o.withDefaults()
	if o.Spec == nil {
		return nil, fmt.Errorf("plan: Options.Spec is required")
	}
	if o.NumSoCs < 1 {
		return nil, fmt.Errorf("plan: NumSoCs %d, want >= 1 (or pass a Cluster)", o.NumSoCs)
	}
	if o.GlobalBatch < 1 {
		return nil, fmt.Errorf("plan: GlobalBatch %d, want >= 1", o.GlobalBatch)
	}
	if o.Samples < 1 {
		return nil, fmt.Errorf("plan: Samples %d, want >= 1", o.Samples)
	}
	if o.Only != "" && o.Only != ModeData && o.Only != ModePipeline {
		return nil, fmt.Errorf("plan: Only %q, want %q or %q", o.Only, ModeData, ModePipeline)
	}
	nodes, err := normalizeNodes(o.Nodes, o.NumSoCs)
	if err != nil {
		return nil, err
	}
	clu := o.Cluster
	if clu == nil {
		clu = cluster.New(cluster.Config{NumSoCs: o.NumSoCs})
	}
	model := o.Model
	if model == nil {
		model = o.Spec.BuildMicro(nil, o.InC, o.ImgSize, 10)
	}
	costs := serve.LayerCosts(model, o.InC, o.ImgSize)

	pr := NewPricer(clu, o.Spec)
	pr.ActScale = o.ActivationScale
	m := len(nodes)

	var (
		best      *Plan
		bestT     = math.Inf(1)
		bestDataT = math.Inf(1)
		cands     int
	)
	consider := func(p *Plan) {
		t := pr.EpochSeconds(p, o.Samples)
		cands++
		if each != nil {
			each(p, t)
		}
		if p.Mode == ModeData && t < bestDataT {
			bestDataT = t
		}
		if o.Only != "" && p.Mode != o.Only {
			return
		}
		if t < bestT {
			bestT = t
			p.EpochSeconds = t
			best = p
		}
	}

	for n := 1; n <= m; n++ {
		if m%n != 0 {
			continue
		}
		if o.MaxGroups > 0 && n > o.MaxGroups {
			continue
		}
		k := m / n
		consider(&Plan{
			NumSoCs:   o.NumSoCs,
			Mode:      ModeData,
			Placement: IntegrityGreedyMap(nodes, n, clu.Config.SoCsPerPCB).Groups,
			Batch:     o.GlobalBatch,
		})
		if k < 2 || len(costs) < 2 || o.Only == ModeData {
			continue
		}
		d := k
		if d > len(costs) {
			d = len(costs)
		}
		stages, err := serve.PartitionBy(costs, d, serve.TrainingWeight)
		if err != nil {
			return nil, err
		}
		placements := [][][]int{contiguousPlacement(nodes, n)}
		if n > 1 {
			placements = append(placements, StridedMap(nodes, n, clu.Config.SoCsPerPCB).Groups)
		}
		for _, placement := range placements {
			for mcount := 1; mcount <= o.GlobalBatch; mcount++ {
				if o.GlobalBatch%mcount != 0 {
					continue
				}
				if o.GlobalBatch/mcount < o.MinMicroBatch {
					break
				}
				consider(&Plan{
					NumSoCs:      o.NumSoCs,
					Mode:         ModePipeline,
					Placement:    placement,
					Stages:       stages,
					MicroBatches: mcount,
					Batch:        o.GlobalBatch,
				})
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("plan: no feasible candidate for %d SoCs", m)
	}
	best.DataEpochSeconds = bestDataT
	best.Candidates = cands
	return best, nil
}

// normalizeNodes validates a Nodes subset against the cluster size and
// returns it sorted ascending (a copy — the caller's slice is never
// mutated). Nil means the whole cluster.
func normalizeNodes(in []int, numSoCs int) ([]int, error) {
	if in == nil {
		return AllNodes(numSoCs), nil
	}
	if len(in) == 0 {
		return nil, fmt.Errorf("plan: Nodes is empty (nil means all %d SoCs)", numSoCs)
	}
	nodes := append([]int(nil), in...)
	sort.Ints(nodes)
	for i, soc := range nodes {
		if soc < 0 || soc >= numSoCs {
			return nil, fmt.Errorf("plan: Nodes contains SoC %d outside the %d-SoC cluster", soc, numSoCs)
		}
		if i > 0 && nodes[i-1] == soc {
			return nil, fmt.Errorf("plan: Nodes lists SoC %d twice", soc)
		}
	}
	return nodes, nil
}

// PricerFor builds the exact Pricer Search would use for these
// Options — same cluster fallback, same activation scale — so a
// re-pricing of an executed plan (the PR 9 predicted==executed
// invariant) and the search share one formula.
func PricerFor(o Options) *Pricer {
	o = o.withDefaults()
	clu := o.Cluster
	if clu == nil {
		clu = cluster.New(cluster.Config{NumSoCs: o.NumSoCs})
	}
	pr := NewPricer(clu, o.Spec)
	pr.ActScale = o.ActivationScale
	return pr
}

// contiguousPlacement packs group g onto the sorted node set's slots
// [g·k, (g+1)·k): consecutive pipeline stages on consecutive SoCs.
func contiguousPlacement(nodes []int, n int) [][]int {
	k := len(nodes) / n
	placement := make([][]int, n)
	for g := 0; g < n; g++ {
		members := make([]int, k)
		for i := range members {
			members[i] = nodes[g*k+i]
		}
		placement[g] = members
	}
	return placement
}
