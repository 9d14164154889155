package simnet

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSingleFlowBandwidth(t *testing.T) {
	l := NewLink("l", 100, 0) // 100 B/s
	got := TransferTime(500, l)
	if !approx(got, 5, 1e-9) {
		t.Fatalf("500 B over 100 B/s = %v, want 5", got)
	}
}

func TestLatencyAdded(t *testing.T) {
	l := NewLink("l", 100, 0.25)
	got := TransferTime(100, l)
	if !approx(got, 1.25, 1e-9) {
		t.Fatalf("with latency = %v, want 1.25", got)
	}
}

func TestTwoFlowsShareLink(t *testing.T) {
	l := NewLink("l", 100, 0)
	f1 := &Flow{Name: "a", Path: []*Link{l}, Bytes: 100}
	f2 := &Flow{Name: "b", Path: []*Link{l}, Bytes: 100}
	ms := Simulate([]*Flow{f1, f2})
	// Fair share 50 B/s each -> both finish at t=2.
	if !approx(ms, 2, 1e-9) || !approx(f1.FinishAt, 2, 1e-9) || !approx(f2.FinishAt, 2, 1e-9) {
		t.Fatalf("shared link: ms=%v f1=%v f2=%v", ms, f1.FinishAt, f2.FinishAt)
	}
}

func TestShortFlowReleasesBandwidth(t *testing.T) {
	l := NewLink("l", 100, 0)
	short := &Flow{Name: "s", Path: []*Link{l}, Bytes: 50}
	long := &Flow{Name: "l", Path: []*Link{l}, Bytes: 150}
	Simulate([]*Flow{short, long})
	// Both at 50 B/s until t=1 (short done, 100 B left on long), then
	// long gets full 100 B/s: finishes at t=2.
	if !approx(short.FinishAt, 1, 1e-9) {
		t.Fatalf("short finish = %v, want 1", short.FinishAt)
	}
	if !approx(long.FinishAt, 2, 1e-9) {
		t.Fatalf("long finish = %v, want 2", long.FinishAt)
	}
}

func TestStaggeredStart(t *testing.T) {
	l := NewLink("l", 100, 0)
	early := &Flow{Name: "e", Path: []*Link{l}, Bytes: 100}
	late := &Flow{Name: "t", Path: []*Link{l}, Bytes: 100, StartAt: 0.5}
	Simulate([]*Flow{early, late})
	// Early runs alone [0,0.5): 50 B done. Then both share 50 B/s:
	// early's 50 B remaining takes 1s -> finish 1.5. Late then has
	// 50 B left at t=1.5, full rate -> finish 2.0.
	if !approx(early.FinishAt, 1.5, 1e-9) {
		t.Fatalf("early = %v, want 1.5", early.FinishAt)
	}
	if !approx(late.FinishAt, 2.0, 1e-9) {
		t.Fatalf("late = %v, want 2.0", late.FinishAt)
	}
}

func TestMultiHopBottleneck(t *testing.T) {
	fast := NewLink("fast", 1000, 0)
	slow := NewLink("slow", 10, 0)
	got := TransferTime(100, fast, slow)
	if !approx(got, 10, 1e-9) {
		t.Fatalf("bottleneck transfer = %v, want 10", got)
	}
}

func TestMaxMinFairnessCrossTraffic(t *testing.T) {
	// Classic max-min example: flow A crosses links 1 and 2; flow B only
	// link 1; flow C only link 2. Link 1 cap 100, link 2 cap 10.
	// A is bottlenecked to 5 on link 2 (shared with C), so B gets 95.
	l1 := NewLink("l1", 100, 0)
	l2 := NewLink("l2", 10, 0)
	a := &Flow{Name: "a", Path: []*Link{l1, l2}, Bytes: 5}
	b := &Flow{Name: "b", Path: []*Link{l1}, Bytes: 95}
	c := &Flow{Name: "c", Path: []*Link{l2}, Bytes: 5}
	Simulate([]*Flow{a, b, c})
	if !approx(a.FinishAt, 1, 1e-6) || !approx(b.FinishAt, 1, 1e-6) || !approx(c.FinishAt, 1, 1e-6) {
		t.Fatalf("max-min rates wrong: a=%v b=%v c=%v", a.FinishAt, b.FinishAt, c.FinishAt)
	}
}

func TestZeroByteFlow(t *testing.T) {
	l := NewLink("l", 100, 0.1)
	f := &Flow{Name: "z", Path: []*Link{l}, Bytes: 0, StartAt: 3}
	ms := Simulate([]*Flow{f})
	if !approx(ms, 3.1, 1e-9) {
		t.Fatalf("zero-byte flow ms = %v, want 3.1", ms)
	}
}

func TestLoopbackFlow(t *testing.T) {
	f := &Flow{Name: "loop", Bytes: 1e9}
	ms := Simulate([]*Flow{f})
	if ms != 0 {
		t.Fatalf("loopback should be instantaneous, got %v", ms)
	}
}

func TestEmptySimulation(t *testing.T) {
	if ms := Simulate(nil); ms != 0 {
		t.Fatalf("empty simulation ms = %v", ms)
	}
}

// A link must have a positive, finite bandwidth: NewLink refuses any
// other, and so does Simulate for a link whose Bandwidth was changed
// after it was made, naming the link rather than ending in a zero-rate
// deadlock.
func TestLinkValidation(t *testing.T) {
	panics := func(what string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", what)
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, `"bad"`) || strings.Contains(msg, "deadlock") {
				t.Errorf("%s: panic %q, want one naming link \"bad\"", what, msg)
			}
		}()
		f()
	}
	for _, bw := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		panics(fmt.Sprintf("NewLink(%v)", bw), func() { NewLink("bad", bw, 0) })
		l := NewLink("bad", 100, 0)
		l.Bandwidth = bw
		panics(fmt.Sprintf("Simulate over a link set to %v", bw), func() {
			NewSimulator().Simulate([]*Flow{{Path: []*Link{l}, Bytes: 100}})
		})
	}
}

func TestSimulateIsRepeatable(t *testing.T) {
	l := NewLink("l", 50, 0.01)
	mk := func() []*Flow {
		return []*Flow{
			{Name: "a", Path: []*Link{l}, Bytes: 100},
			{Name: "b", Path: []*Link{l}, Bytes: 200, StartAt: 1},
		}
	}
	m1 := Simulate(mk())
	m2 := Simulate(mk())
	if m1 != m2 {
		t.Fatalf("simulation not deterministic: %v vs %v", m1, m2)
	}
	// Flows are reusable: simulating the same slice twice resets state.
	fs := mk()
	a := Simulate(fs)
	b := Simulate(fs)
	if a != b {
		t.Fatalf("re-simulating same flows differs: %v vs %v", a, b)
	}
}

func TestMakespanSortsTimes(t *testing.T) {
	l := NewLink("l", 100, 0)
	flows := []*Flow{
		{Name: "big", Path: []*Link{l}, Bytes: 300},
		{Name: "small", Path: []*Link{l}, Bytes: 100},
	}
	ms, times := Makespan(flows)
	if len(times) != 2 || times[0] > times[1] || ms != times[1] {
		t.Fatalf("Makespan = %v, times = %v", ms, times)
	}
}

// Property: work conservation — the makespan of N equal flows over one
// link equals total bytes / bandwidth, regardless of N.
func TestWorkConservationProperty(t *testing.T) {
	f := func(nRaw uint8, sizeRaw uint16) bool {
		n := int(nRaw%16) + 1
		size := float64(sizeRaw%1000) + 1
		l := NewLink("l", 500, 0)
		flows := make([]*Flow, n)
		for i := range flows {
			flows[i] = &Flow{Path: []*Link{l}, Bytes: size}
		}
		ms := Simulate(flows)
		want := float64(n) * size / 500
		return approx(ms, want, 1e-6*want+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: makespan never decreases when a flow's bytes increase.
func TestMonotonicityProperty(t *testing.T) {
	f := func(aRaw, bRaw uint16) bool {
		a := float64(aRaw%5000) + 1
		b := float64(bRaw%5000) + 1
		l := NewLink("l", 300, 0)
		mk := func(extra float64) float64 {
			return Simulate([]*Flow{
				{Path: []*Link{l}, Bytes: a + extra},
				{Path: []*Link{l}, Bytes: b},
			})
		}
		return mk(100) >= mk(0)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: no link is ever oversubscribed — with K flows pinned to a
// link of capacity C, the fastest possible makespan is totalBytes/C.
func TestNoOversubscriptionProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 20 {
			return true
		}
		l := NewLink("l", 123, 0)
		var total float64
		flows := make([]*Flow, len(sizes))
		for i, s := range sizes {
			b := float64(s%2000) + 1
			total += b
			flows[i] = &Flow{Path: []*Link{l}, Bytes: b}
		}
		ms := Simulate(flows)
		return ms >= total/123-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
