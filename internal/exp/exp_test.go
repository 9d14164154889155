package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"
	"testing"

	"socflow/internal/dataset"
)

// dsFor generates a catalog dataset for direct sharding tests.
func dsFor(t *testing.T, name string, n int) *dataset.Dataset {
	t.Helper()
	return dataset.MustProfile(name).Generate(dataset.GenOptions{Samples: n, Seed: 1})
}

// fastOpts keeps functional runs small so the full experiment suite
// stays test-friendly.
func fastOpts() Options {
	return Options{TrainSamples: 640, ValSamples: 120, Epochs: 8, NumSoCs: 32, Groups: 8, Seed: 1}
}

func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimPrefix(s, ">")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"a", "bb"}}
	tb.AddRow("x", 1.5)
	tb.AddRow("yy", 12345.0)
	out := tb.String()
	if !strings.Contains(out, "== T ==") || !strings.Contains(out, "12345") {
		t.Fatalf("rendering broken:\n%s", out)
	}
	if tb.Cell(0, 1) != "1.500" {
		t.Fatalf("cell format: %q", tb.Cell(0, 1))
	}
	if tb.FindRow("yy") == nil || tb.FindRow("zz") != nil {
		t.Fatal("FindRow broken")
	}
}

func TestExpFig3Shape(t *testing.T) {
	tb := ExpFig3()
	if len(tb.Rows) != 24 {
		t.Fatalf("fig3 rows: %d", len(tb.Rows))
	}
	peak := cellFloat(t, tb.Rows[14][1])
	trough := cellFloat(t, tb.Rows[3][1])
	if peak/trough < 10 {
		t.Fatalf("tidal ratio %v, want >= 10", peak/trough)
	}
}

func TestExpFig4aShape(t *testing.T) {
	tb := ExpFig4a()
	vgg := tb.FindRow("vgg11")
	r18 := tb.FindRow("resnet18")
	if vgg == nil || r18 == nil {
		t.Fatal("missing rows")
	}
	vggCPU, vggNPU := cellFloat(t, vgg[1]), cellFloat(t, vgg[2])
	if vggCPU < 25 || vggCPU > 34 {
		t.Fatalf("VGG CPU hours %v, paper 29.1", vggCPU)
	}
	if vggNPU > vggCPU/3 {
		t.Fatalf("NPU should be >3x faster: %v vs %v", vggNPU, vggCPU)
	}
	if r18CPU := cellFloat(t, r18[1]); r18CPU < 180 || r18CPU > 280 {
		t.Fatalf("ResNet CPU hours %v, paper 233", r18CPU)
	}
}

func TestExpFig4bShape(t *testing.T) {
	tb := ExpFig4b()
	if len(tb.Rows) != 8 {
		t.Fatalf("fig4b rows: %d", len(tb.Rows))
	}
	// PS at 32 SoCs collapses (paper: 20.6 s for VGG-11).
	last := tb.Rows[len(tb.Rows)-1]
	ps32 := cellFloat(t, last[3])
	ring32 := cellFloat(t, last[1])
	if ps32 < 15000 || ps32 > 30000 {
		t.Fatalf("32-SoC PS latency %v ms, paper ~20593", ps32)
	}
	if ps32 < 5*ring32 {
		t.Fatalf("PS (%v) must dwarf ring (%v) at 32 SoCs", ps32, ring32)
	}
	// Ring latency grows once the fleet leaves one PCB.
	ring4 := cellFloat(t, tb.Rows[0][1])
	if ring32 <= ring4 {
		t.Fatalf("ring should slow down at scale: %v -> %v", ring4, ring32)
	}
}

func TestExpFig4cINT8Degrades(t *testing.T) {
	tb, err := ExpFig4c(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		gap := cellFloat(t, row[3])
		if gap <= 0 {
			t.Fatalf("%s: INT8 should lose accuracy at 32 SoCs, gap %v", row[0], gap)
		}
	}
}

func TestExpFig6FirstEpochTracksFinal(t *testing.T) {
	o := fastOpts()
	tb, err := ExpFig6("vgg11", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 4 {
		t.Fatalf("fig6 rows: %d", len(tb.Rows))
	}
	// The key observation: group counts that keep final accuracy high
	// also keep first-epoch accuracy high — rank correlation, checked
	// loosely as: the best final-accuracy group count is not the worst
	// first-epoch one.
	bestFinal, worstFirst := 0, 0
	for i := range tb.Rows {
		if cellFloat(t, tb.Rows[i][1]) > cellFloat(t, tb.Rows[bestFinal][1]) {
			bestFinal = i
		}
		if cellFloat(t, tb.Rows[i][2]) < cellFloat(t, tb.Rows[worstFirst][2]) {
			worstFirst = i
		}
	}
	if bestFinal == worstFirst {
		t.Fatalf("first-epoch accuracy does not track final accuracy: best final at row %d is worst first-epoch", bestFinal)
	}
}

func TestRunGridProducesAllCells(t *testing.T) {
	o := fastOpts()
	o.Epochs = 4
	rows, err := runGrid(CoreScenarios()[:1], o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0].Cells) != 7 {
		t.Fatalf("grid shape: %d rows, %d cells", len(rows), len(rows[0].Cells))
	}
	if rows[0].LocalAcc <= 0.2 {
		t.Fatalf("local reference failed to learn: %v", rows[0].LocalAcc)
	}
	for _, c := range rows[0].Cells {
		if c.Skipped {
			t.Fatalf("%s unexpectedly skipped", c.Strategy)
		}
		if c.Hours <= 0 || c.EnergyKJ <= 0 {
			t.Fatalf("%s missing extrapolations: %+v", c.Strategy, c)
		}
	}
}

func TestGridSkipsFLOnTransfer(t *testing.T) {
	o := fastOpts()
	o.Epochs = 3
	all := Scenarios()
	rows, err := runGrid([]Scenario{all[7]}, o) // ResNet50-Finetune
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for _, c := range rows[0].Cells {
		if c.Skipped {
			if !isFL(c.Strategy) {
				t.Fatalf("non-FL strategy %s skipped", c.Strategy)
			}
			skipped++
		}
	}
	if skipped != 2 {
		t.Fatalf("skipped %d cells, want the 2 FL baselines", skipped)
	}
}

func TestExpFig8SoCFlowWinsOnSyncBaselines(t *testing.T) {
	o := fastOpts()
	o.Epochs = 4
	tb, err := ExpFig8(CoreScenarios()[:1], o)
	if err != nil {
		t.Fatal(err)
	}
	row := tb.Rows[0]
	// Columns: scenario, SoCFlow, PS, RING, HiPress, 2D-Paral, FedAvg, T-FedAvg.
	ours := cellFloat(t, row[1])
	for i, name := range []string{"PS", "RING", "HiPress", "2D-Paral"} {
		if v := cellFloat(t, row[2+i]); v <= ours {
			t.Fatalf("%s hours %v should exceed SoCFlow %v", name, v, ours)
		}
	}
}

// The repo benchmark's exp-grid workload hashes the rendered Fig. 8
// table and the Fig. 4(a)/(b) tables into its result_digest. Pinning
// the same hash here, at the benchmark's --smoke size (the LeNet5-FMNIST
// scenario alone) and seed 1, makes a moved cell a tier-1 failure.
func TestExpGridIsPinned(t *testing.T) {
	tb, err := ExpFig8(CoreScenarios()[2:], Options{TrainSamples: 160, Epochs: 1, NumSoCs: 32, Groups: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	text := tb.String() + ExpFig4a().String() + ExpFig4b().String()
	sum := sha256.Sum256([]byte(text))
	if got, want := hex.EncodeToString(sum[:])[:16], "762ba19020b5ce65"; got != want {
		t.Errorf("Fig. 8 LeNet + Fig. 4(a)/(b) tables hash to %s, want %s:\n%s", got, want, text)
	}
}

// TestExpGridTablesArePinned pins the whole evaluation grid — Table 3,
// Fig. 8 and Fig. 9 over the three core scenarios at the exp-grid
// workload's options — the way TestExpGridIsPinned pins LeNet's Fig. 8.
// Fig. 9's energy is where a wrong per-strategy charge would show.
func TestExpGridTablesArePinned(t *testing.T) {
	o := Options{TrainSamples: 160, Epochs: 2, NumSoCs: 32, Groups: 8, Seed: 1}
	for _, c := range []struct {
		name string
		run  func([]Scenario, Options) (*Table, error)
		want string
	}{
		{"Table 3", ExpTable3, "03c9a7c01a99323e"},
		{"Fig. 8", ExpFig8, "ba21cc3a6760a975"},
		{"Fig. 9", ExpFig9, "850c5c656e1d47d7"},
	} {
		tb, err := c.run(CoreScenarios(), o)
		if err != nil {
			t.Fatal(err)
		}
		text := tb.String()
		sum := sha256.Sum256([]byte(text))
		if got := hex.EncodeToString(sum[:])[:16]; got != c.want {
			t.Errorf("%s hashes to %s, want %s:\n%s", c.name, got, c.want, text)
		}
	}
}

func TestExpFig9EnergyShape(t *testing.T) {
	o := fastOpts()
	o.Epochs = 4
	tb, err := ExpFig9(CoreScenarios()[:1], o)
	if err != nil {
		t.Fatal(err)
	}
	row := tb.Rows[0]
	ours := cellFloat(t, row[1])
	ps := cellFloat(t, row[2])
	if ps <= ours {
		t.Fatalf("PS energy %v should exceed SoCFlow %v", ps, ours)
	}
}

func TestExpFig10ScalingShape(t *testing.T) {
	o := fastOpts()
	o.Epochs = 4
	tb, err := ExpFig10(CoreScenarios()[0], o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("fig10 rows: %d", len(tb.Rows))
	}
	// SoCFlow (col 1) gets faster with more SoCs; RING (col 3) does not
	// improve at the same rate: the win ratio grows.
	ours8, ring8 := cellFloat(t, tb.Rows[0][1]), cellFloat(t, tb.Rows[0][3])
	ours32, ring32 := cellFloat(t, tb.Rows[2][1]), cellFloat(t, tb.Rows[2][3])
	if ring32/ours32 <= ring8/ours8 {
		t.Fatalf("SoCFlow advantage should grow with scale: 8-SoC %vx, 32-SoC %vx",
			ring8/ours8, ring32/ours32)
	}
}

func TestExpFig11GPUShape(t *testing.T) {
	o := fastOpts()
	o.Epochs = 3
	tb, err := ExpFig11(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 8 {
		t.Fatalf("fig11 rows: %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		speedup := cellFloat(t, row[4])
		ratio := cellFloat(t, row[7])
		if speedup < 0.3 || speedup > 8 {
			t.Fatalf("%s/%s: speedup %v outside the paper's band shape", row[0], row[1], speedup)
		}
		if ratio <= 1 {
			t.Fatalf("%s/%s: SoCFlow must be more energy-efficient than the GPU, ratio %v", row[0], row[1], ratio)
		}
	}
}

func TestExpFig12BreakdownShape(t *testing.T) {
	o := fastOpts()
	o.Epochs = 3
	tb, err := ExpFig12("vgg11", o)
	if err != nil {
		t.Fatal(err)
	}
	ring := tb.FindRow("RING")
	ours := tb.FindRow("SoCFlow")
	fed := tb.FindRow("FedAvg")
	if ring == nil || ours == nil || fed == nil {
		t.Fatal("missing breakdown rows")
	}
	ringSync := cellFloat(t, ring[2])
	oursSync := cellFloat(t, ours[2])
	fedSync := cellFloat(t, fed[2])
	if ringSync < 60 {
		t.Fatalf("RING sync share %v%%, paper ~81%%", ringSync)
	}
	if !(fedSync < oursSync && oursSync < ringSync) {
		t.Fatalf("sync shares must order FedAvg (%v) < SoCFlow (%v) < RING (%v)", fedSync, oursSync, ringSync)
	}
	for _, row := range tb.Rows {
		sum := cellFloat(t, row[1]) + cellFloat(t, row[2]) + cellFloat(t, row[3])
		if sum < 99 || sum > 101 {
			t.Fatalf("%s breakdown sums to %v%%", row[0], sum)
		}
	}
}

func TestExpFig13LadderMonotone(t *testing.T) {
	o := fastOpts()
	o.Epochs = 3
	tb, err := ExpFig13("vgg11", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("fig13 rows: %d", len(tb.Rows))
	}
	prev := cellFloat(t, tb.Rows[0][1])
	for _, row := range tb.Rows[1:] {
		h := cellFloat(t, row[1])
		if h > prev*1.02 {
			t.Fatalf("ablation step %s regressed: %v -> %v", row[0], prev, h)
		}
		prev = h
	}
	first := cellFloat(t, tb.Rows[0][1])
	last := cellFloat(t, tb.Rows[4][1])
	if first/last < 3 {
		t.Fatalf("full ladder speedup %vx too small", first/last)
	}
}

func TestExpFig14CurveShape(t *testing.T) {
	o := fastOpts()
	o.Epochs = 4
	tb, err := ExpFig14("vgg11", o)
	if err != nil {
		t.Fatal(err)
	}
	last := map[string][]string{}
	for _, row := range tb.Rows {
		last[row[0]] = row
	}
	for _, mode := range []string{"Ours-FP32", "Ours-Mixed", "Ours-Half", "Ours-INT8"} {
		if last[mode] == nil {
			t.Fatalf("missing series %s", mode)
		}
	}
	// Mixed must be faster than FP32 in simulated time for the same
	// epoch count.
	if cellFloat(t, last["Ours-Mixed"][2]) >= cellFloat(t, last["Ours-FP32"][2]) {
		t.Fatalf("mixed (%v h) should finish epochs faster than FP32 (%v h)",
			cellFloat(t, last["Ours-Mixed"][2]), cellFloat(t, last["Ours-FP32"][2]))
	}
}

func TestExpTable3AccuracyShape(t *testing.T) {
	o := fastOpts()
	o.Epochs = 6
	// VGG11 and LeNet5-FMNIST: the scenarios whose micro builds reach
	// near-local accuracy within the fast test budget (the BN-heavy
	// ResNet/MobileNet micro builds need the full default scale; see
	// EXPERIMENTS.md).
	all := Scenarios()
	tb, err := ExpTable3([]Scenario{all[1], all[6]}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("table3 rows: %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		local := cellFloat(t, row[1])
		if local < 30 {
			t.Fatalf("%s local accuracy %v%% too low to compare against", row[0], local)
		}
		// SoCFlow (col 2) stays within a few points of Local.
		ours := cellFloat(t, row[2])
		if local-ours > 15 {
			t.Fatalf("%s: SoCFlow degradation %v pts too large", row[0], local-ours)
		}
	}
}

func TestScenarioCatalog(t *testing.T) {
	scs := Scenarios()
	if len(scs) != 8 {
		t.Fatalf("%d scenarios, want the paper's 8", len(scs))
	}
	if !scs[7].SkipFL {
		t.Fatal("transfer scenario must skip FL")
	}
	if scs[0].GlobalBatch != 256 {
		t.Fatal("MobileNet must use global batch 256")
	}
	if len(CoreScenarios()) != 3 {
		t.Fatal("core subset should have 3 scenarios")
	}
}

func TestShardDirichletSkewAndCoverage(t *testing.T) {
	d := dsFor(t, "cifar10", 400)
	shards := d.ShardDirichlet(8, 0.1, 3)
	total := 0
	for _, s := range shards {
		if s.Len() == 0 {
			t.Fatal("empty shard")
		}
		total += s.Len()
	}
	if total != 400 {
		t.Fatalf("Dirichlet shards cover %d samples, want 400", total)
	}
	// Heavy skew: shards should see far fewer classes than IID would.
	maxSeen := 0
	for _, s := range shards {
		seen := 0
		for _, n := range s.ClassHistogram() {
			if n > 0 {
				seen++
			}
		}
		if seen > maxSeen {
			maxSeen = seen
		}
	}
	iid := d.ShardIID(8, 3)
	iidSeen := 0
	for _, n := range iid[0].ClassHistogram() {
		if n > 0 {
			iidSeen++
		}
	}
	if maxSeen >= iidSeen+1 {
		t.Logf("skew weaker than expected: dirichlet max %d classes vs IID %d", maxSeen, iidSeen)
	}
}

func TestExpNonIIDReshuffleProtects(t *testing.T) {
	o := fastOpts()
	o.Epochs = 6
	tb, err := ExpNonIID(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	// Under heavy skew, reshuffling SoCFlow must beat FedAvg clearly.
	heavy := tb.FindRow("alpha=0.1")
	ours := cellFloat(t, heavy[1])
	fed := cellFloat(t, heavy[3])
	if ours <= fed {
		t.Fatalf("under heavy skew SoCFlow (%v%%) must beat FedAvg (%v%%): reshuffling is the mechanism", ours, fed)
	}
	// And SoCFlow must be robust: heavy-skew accuracy close to IID.
	iid := cellFloat(t, tb.FindRow("IID")[1])
	if iid-ours > 15 {
		t.Fatalf("SoCFlow lost %v pts to skew despite reshuffling", iid-ours)
	}
}

func TestExpHeuristicSelectsReasonably(t *testing.T) {
	o := fastOpts()
	o.Epochs = 4
	tb, err := ExpHeuristic("vgg11", o)
	if err != nil {
		t.Fatal(err)
	}
	picked := ""
	for _, row := range tb.Rows {
		if row[4] != "" {
			picked = row[0]
		}
	}
	if picked == "" {
		t.Fatal("heuristic picked no group count in the sweep")
	}
}

func TestExpUnderclockingRebalancingHelps(t *testing.T) {
	o := fastOpts()
	o.Epochs = 2
	tb, err := ExpUnderclocking(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	// No throttling: rebalancing is a no-op.
	if s := cellFloat(t, tb.Rows[0][3]); s < 0.99 || s > 1.01 {
		t.Fatalf("speedup without throttling = %v, want ~1", s)
	}
	// Heavy throttling: rebalancing must help.
	if s := cellFloat(t, tb.Rows[2][3]); s <= 1.02 {
		t.Fatalf("speedup at 50%% throttling = %v, want > 1", s)
	}
}

func TestExpPreemptionGroupLevelWins(t *testing.T) {
	o := fastOpts()
	o.Epochs = 6
	tb, err := ExpPreemption(o)
	if err != nil {
		t.Fatal(err)
	}
	group := tb.FindRow("group-level")
	whole := tb.FindRow("whole-job pause")
	if group == nil || whole == nil {
		t.Fatal("missing rows")
	}
	// Group-level preemption retains at least as many epochs and at
	// least comparable accuracy with strictly more flexibility.
	if cellFloat(t, group[1]) < cellFloat(t, whole[1]) {
		t.Fatalf("group-level ran fewer epochs (%v) than whole-job pausing (%v)",
			cellFloat(t, group[1]), cellFloat(t, whole[1]))
	}
}

func TestExpElasticRecoversWithinBounds(t *testing.T) {
	o := fastOpts()
	o.Epochs = 6
	o.TrainSamples = 320
	o.ValSamples = 80
	tb, err := ExpElastic(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	// The membership column must dip during the preemption window and
	// recover to full strength by the final epoch.
	dipped := false
	for _, row := range tb.Rows {
		if cellFloat(t, row[1]) < 6 {
			dipped = true
		}
	}
	if !dipped {
		t.Fatal("no epoch ran degraded; the preemption window never fired")
	}
	last := tb.Rows[len(tb.Rows)-1]
	if m := cellFloat(t, last[1]); m != 6 {
		t.Fatalf("final epoch ran with %v members, want full membership restored", m)
	}
	// Acceptance bound: final accuracy within 2 points of fault-free.
	delta := cellFloat(t, last[3]) - cellFloat(t, last[2])
	if delta < -2 || delta > 2 {
		t.Fatalf("final accuracy delta %v points, want within 2", delta)
	}
	for _, n := range tb.Notes {
		if strings.Contains(n, "WARNING") {
			t.Fatalf("acceptance warning in notes: %q", n)
		}
	}
}

func TestExpFaultsDegradesGracefully(t *testing.T) {
	o := fastOpts()
	o.Epochs = 4
	o.TrainSamples = 320
	o.ValSamples = 80
	tb, err := ExpFaults(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	clean := tb.FindRow("none")
	two := tb.FindRow("2 crashes")
	if clean == nil || two == nil || tb.FindRow("tidal") == nil {
		t.Fatal("missing rows")
	}
	if c := cellFloat(t, clean[1]); c != 0 {
		t.Fatalf("fault-free row reports %v crashes", c)
	}
	if c := cellFloat(t, two[1]); c != 2 {
		t.Fatalf("2-crash row reports %v crashes", c)
	}
	// Recovery keeps the runs alive and close to the clean accuracy.
	for _, label := range []string{"1 crash", "2 crashes"} {
		row := tb.FindRow(label)
		if row == nil {
			t.Fatalf("missing row %q", label)
		}
		delta := cellFloat(t, row[7])
		if delta < -2 || delta > 2 {
			t.Fatalf("%s: best-accuracy delta %v points, want within 2", label, delta)
		}
	}
	// Every crash was survived because the heartbeat detector saw it,
	// not because a worker read the plan.
	for _, label := range []string{"1 crash", "2 crashes", "tidal"} {
		row := tb.FindRow(label)
		if crashes, seen := cellFloat(t, row[1]), cellFloat(t, row[3]); seen < crashes {
			t.Fatalf("%s: %v crashes but %v detections", label, crashes, seen)
		}
	}
}

func TestExpColocationParksAndStaysBitIdentical(t *testing.T) {
	o := fastOpts()
	o.Epochs = 4
	o.TrainSamples = 320
	o.ValSamples = 80
	tb, err := ExpColocation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 24 {
		t.Fatalf("rows: %d, want the full diurnal sweep", len(tb.Rows))
	}
	// The sweep opens near the evening tide: serving still holds too
	// many SoCs, so the very first row must show training parked.
	parked, identical := false, false
	for _, row := range tb.Rows {
		if row[7] == "parked" {
			parked = true
		}
	}
	if !parked {
		t.Fatal("no row shows training parked; the tide never displaced it")
	}
	for _, n := range tb.Notes {
		if strings.Contains(n, "WARNING") {
			t.Fatalf("acceptance warning in notes: %q", n)
		}
		if strings.Contains(n, "bit-identically") {
			identical = true
		}
	}
	if !identical {
		t.Fatal("missing bit-identity note")
	}
	// Every serving hour must hold the SLO at this low load.
	for _, row := range tb.Rows {
		if slo := cellFloat(t, row[5]); slo < 99 {
			t.Fatalf("hour %s: SLO attainment %v%%, want >= 99", row[0], slo)
		}
	}
}

func TestExpAutoparHybridBeatsDataParallel(t *testing.T) {
	o := fastOpts()
	o.Epochs = 2
	o.TrainSamples = 240
	o.ValSamples = 60
	tb, err := ExpAutopar(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows: %d, want the 8/16/32-SoC sweep", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if !strings.Contains(row[1], "pipeline") {
			t.Fatalf("%s SoCs: planner chose %q, want a pipeline hybrid", row[0], row[1])
		}
		// The hybrid must beat both pure and grouped data parallelism
		// on simulated epoch makespan (the acceptance bar), and the
		// executed epoch must equal the planner's prediction.
		if v := cellFloat(t, row[5]); v <= 1 {
			t.Fatalf("%s SoCs: hybrid does not beat the all-fleet ring (%.3fx)", row[0], v)
		}
		if v := cellFloat(t, row[6]); v <= 1 {
			t.Fatalf("%s SoCs: hybrid does not beat grouped DP (%.3fx)", row[0], v)
		}
		if row[4] != row[7] {
			t.Fatalf("%s SoCs: executed epoch %s != predicted %s", row[0], row[4], row[7])
		}
	}
}

// ExpReplan asserts its own invariants and fails on a violation: the
// fault-free elastic pipeline bit-identical to the plain one, and every
// adopted re-plan's predicted epoch seconds equal to the executed ones.
func TestExpReplanHoldsItsInvariants(t *testing.T) {
	o := fastOpts()
	o.Epochs = 5
	o.TrainSamples = 300
	o.ValSamples = 60
	tb, err := ExpReplan(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows: %d, want fault-free, stage crash, tidal shrink", len(tb.Rows))
	}
	if n := cellFloat(t, tb.Rows[0][5]); n != 0 {
		t.Fatalf("fault-free campaign recorded %v replan episodes", n)
	}
	for _, row := range tb.Rows[1:] {
		if n := cellFloat(t, row[5]); n < 1 {
			t.Fatalf("%s: %v replan episodes, want at least one", row[0], n)
		}
	}
}
