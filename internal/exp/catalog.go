package exp

// Experiment is one entry of the evaluation catalog: a table or figure
// of the paper, or an extension beyond it. Run regenerates its tables;
// full asks the Table 3 / Fig. 8 / Fig. 9 grids for all eight
// scenarios instead of the three core ones.
type Experiment struct {
	ID, Desc string
	Run      func(o Options, full bool) ([]*Table, error)
}

// aliases names experiments better known by what they show.
var aliases = map[string]string{"scalability": "fig10"}

// Catalog returns every experiment, in the order the bench command
// lists them.
func Catalog() []Experiment {
	return []Experiment{
		{"fig3", "busy-SoC fraction over a day (tidal trace)", fixed(ExpFig3)},
		{"fig4a", "single-SoC training hours, CPU vs NPU", fixed(ExpFig4a)},
		{"fig4b", "communication latency vs SoC count", fixed(ExpFig4b)},
		{"fig4c", "FP32 vs INT8 convergence accuracy at 32 SoCs", one(ExpFig4c)},
		{"fig6", "accuracy vs logical-group count", perModel(ExpFig6)},
		{"table3", "convergence accuracy grid", grid(ExpTable3)},
		{"fig8", "end-to-end training time grid", grid(ExpFig8)},
		{"fig9", "training energy grid", grid(ExpFig9)},
		{"fig10", "time-to-accuracy vs SoC count", one(func(o Options) (*Table, error) { return ExpFig10(CoreScenarios()[0], o) })},
		{"fig11", "SoCFlow (60 SoCs) vs datacenter GPUs", one(ExpFig11)},
		{"fig12", "training-time breakdown", perModel(ExpFig12)},
		{"fig13", "ablation ladder", perModel(ExpFig13)},
		{"fig14", "mixed-precision accuracy-vs-time curves", one(func(o Options) (*Table, error) { return ExpFig14("vgg11", o) })},
		{"ext1", "extension: non-IID placement vs reshuffling", one(ExpNonIID)},
		{"ext2", "extension: group-size heuristic validation", one(func(o Options) (*Table, error) { return ExpHeuristic("vgg11", o) })},
		{"ext3", "extension: underclocking-aware rebalancing", one(ExpUnderclocking)},
		{"ext4", "extension: co-location via group-level preemption", one(ExpPreemption)},
		{"faults", "extension: accuracy under injected SoC crashes (0/1/2 + tidal leave/return), each detected by heartbeat and retried on the survivors", one(ExpFaults)},
		{"elastic", "extension: elastic recovery under the tidal trace (heartbeat detection, epoch retry, rejoin + state transfer)", one(ExpElastic)},
		{"colocation", "extension: SLO-batched serving resizes with the tide while co-located training parks and resumes", one(ExpColocation)},
		{"autopar", "extension: auto-parallelization planner vs data parallelism (ResNet-34, 8-32 SoCs)", one(ExpAutopar)},
		{"replan", "extension: elastic pipeline re-planning under stage crashes and tidal shrinks (fault-free bit-identity, predicted==executed)", one(ExpReplan)},
	}
}

// Lookup returns the experiment an id or alias names.
func Lookup(id string) (Experiment, bool) {
	if a, ok := aliases[id]; ok {
		id = a
	}
	for _, e := range Catalog() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// fixed runs an experiment that takes no options.
func fixed(f func() *Table) func(Options, bool) ([]*Table, error) {
	return func(Options, bool) ([]*Table, error) { return []*Table{f()}, nil }
}

// one runs an experiment that yields one table.
func one(f func(Options) (*Table, error)) func(Options, bool) ([]*Table, error) {
	return func(o Options, _ bool) ([]*Table, error) {
		t, err := f(o)
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	}
}

// perModel runs an experiment once for VGG-11 and once for ResNet-18.
func perModel(f func(string, Options) (*Table, error)) func(Options, bool) ([]*Table, error) {
	return func(o Options, _ bool) ([]*Table, error) {
		var out []*Table
		for _, m := range []string{"vgg11", "resnet18"} {
			t, err := f(m, o)
			if err != nil {
				return nil, err
			}
			out = append(out, t)
		}
		return out, nil
	}
}

// grid runs a grid experiment over the core scenarios, or all eight
// with full.
func grid(f func([]Scenario, Options) (*Table, error)) func(Options, bool) ([]*Table, error) {
	return func(o Options, full bool) ([]*Table, error) {
		scs := CoreScenarios()
		if full {
			scs = Scenarios()
		}
		return one(func(o Options) (*Table, error) { return f(scs, o) })(o, false)
	}
}
