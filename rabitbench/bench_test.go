package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// The baseline seed the README quotes and a held-out seed no tuning used.
const (
	baselineSeed = 1
	heldOutSeed  = 7
)

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	take := func(next func() labelled, n int) []labelled {
		out := make([]labelled, n)
		for i := range out {
			out[i] = next()
		}
		return out
	}
	if a, b := take(newFleetStream(3, 1).next, 200), take(newFleetStream(3, 1).next, 200); !reflect.DeepEqual(a, b) {
		t.Error("fleet stream differs for one seed")
	}
	if a, b := take(newFleetStream(3, 1).next, 200), take(newFleetStream(4, 1).next, 200); reflect.DeepEqual(a, b) {
		t.Error("fleet stream ignores the seed")
	}
	if a, b := take(newMotionStream(3).next, 500), take(newMotionStream(3).next, 500); !reflect.DeepEqual(a, b) {
		t.Error("motion stream differs for one seed")
	}
	if a, b := take(newMotionStream(3).next, 500), take(newMotionStream(4).next, 500); reflect.DeepEqual(a, b) {
		t.Error("motion stream ignores the seed")
	}
	sessions := []gatewaySession{{device: "hp00"}, {device: "hp00"}, {device: "hp01"}, {device: "hp01"}}
	a, err := gatewaySchedule(3, 1, 600, 300, sessions)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gatewaySchedule(3, 1, 600, 300, sessions)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("gateway schedule differs for one seed")
	}
	if campaignSeed(3, 0) != campaignSeed(3, 0) || campaignSeed(3, 0) == campaignSeed(4, 0) || campaignSeed(3, 0) == campaignSeed(3, 1) {
		t.Error("campaign seeds are not a function of (seed, index)")
	}
}

func TestPoissonScheduleRate(t *testing.T) {
	due := poissonSchedule(newRNG(1, 0), 1000, 20000)
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] {
			t.Fatalf("due times go backwards at %d", i)
		}
	}
	if got := float64(len(due)) / due[len(due)-1].Seconds(); got < 970 || got > 1030 {
		t.Errorf("realized rate %.1f/s, want about 1000/s", got)
	}
}

// TestMotionLabels replays the motion stream through the real testbed
// system, exactly as the workload does, and requires every verdict to
// equal its label — on the baseline seed and on a held-out seed.
func TestMotionLabels(t *testing.T) {
	for _, seed := range []uint64{baselineSeed, heldOutSeed} {
		p := newProbe(time.Now(), false)
		sys, _, ic, err := newMotionSystem(seed, p)
		if err != nil {
			t.Fatal(err)
		}
		s := &script{ic: ic, p: p}
		stream := newMotionStream(seed)
		var totals engineTotals
		blocks := 0
		for range 600 {
			if motionStep(sys, s, stream, true, &totals) {
				blocks++
			}
		}
		sys.Close()
		if s.failed != 0 {
			t.Errorf("seed %d: %d of %d verdicts differ from labels; first: %s", seed, s.failed, s.ops, s.firstBad)
		}
		if blocks == 0 || len(s.block) != blocks {
			t.Errorf("seed %d: %d restarts for %d must-block commands", seed, blocks, len(s.block))
		}
	}
}

func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := samples{5, 1, 4, 2, 3}
	if got := s.quantile(0.5); got != 3 {
		t.Errorf("median = %d, want 3", got)
	}
	if got := s.quantile(1); got != 5 {
		t.Errorf("max = %d, want 5", got)
	}
	if !reflect.DeepEqual(s, samples{5, 1, 4, 2, 3}) {
		t.Error("quantile reordered its input")
	}
}

func TestP99IsMedianOfWindows(t *testing.T) {
	// 1999 samples: too few for two windows, so the plain p99.
	s := make(samples, 1999)
	for i := range s {
		s[i] = int64(i + 1)
	}
	if got, want := s.p99(), s.quantile(0.99); got != want {
		t.Errorf("p99 of one window = %d, want plain %d", got, want)
	}
	// Ten windows of 1000 at 1..1000; one window carries a burst of 50
	// slow samples. The burst moves that window's p99 only.
	s = make(samples, 10000)
	for i := range s {
		s[i] = int64(i%1000 + 1)
	}
	for i := 3000; i < 3050; i++ {
		s[i] = 1e6
	}
	if got := s.p99(); got != 990 {
		t.Errorf("p99 = %d, want 990 (the windows without the burst)", got)
	}
	if s.quantile(0.99) == 990 {
		t.Error("test data does not distinguish the windowed p99 from the plain one")
	}
}

func TestSelfTimes(t *testing.T) {
	// op ├ trace.do ├ core.before ─ env.fetch
	//    │         ├ env.execute
	//    │         └ core.after ─ env.fetch, sim.validate (overlapping)
	spans := []span{
		{layer: layerOp, start: 0, end: 100},
		{layer: layerDo, start: 10, end: 90},
		{layer: layerBefore, start: 10, end: 30},
		{layer: layerFetch, start: 15, end: 20},
		{layer: layerExecute, start: 30, end: 60},
		{layer: layerAfter, start: 60, end: 90},
		{layer: layerFetch, start: 65, end: 80},
		{layer: layerSim, start: 70, end: 95}, // overlaps the fetch, overruns its parent
	}
	want := []int64{20, 0, 15, 5, 30, 5, 15, 25}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	var a layerAgg
	a.addOp(spans)
	if got := a.coreSelf; !reflect.DeepEqual(got, samples{20}) {
		t.Errorf("core self %v, want [20]", got)
	}
	if got := a.dur[layerFetch]; !reflect.DeepEqual(got, samples{20}) {
		t.Errorf("fetch per op %v, want [20]", got)
	}
	if got := a.unattributed(); got != 0.2 {
		t.Errorf("unattributed %v, want 0.2", got)
	}
}

func TestSpansGroupByOperation(t *testing.T) {
	var a layerAgg
	a.addAll([]span{
		{op: 2, layer: layerWait, start: 100, end: 110},
		{op: 1, layer: layerOp, start: 0, end: 50},
		{op: 2, layer: layerOp, start: 100, end: 200},
		{op: 1, layer: layerClient, start: 0, end: 40},
		{op: 2, layer: layerClient, start: 110, end: 200},
		{op: 2, layer: layerHandler, start: 120, end: 180},
	})
	if a.ops != 2 {
		t.Fatalf("%d ops, want 2", a.ops)
	}
	if got := a.self[layerClient]; !reflect.DeepEqual(got, samples{40, 30}) {
		t.Errorf("client self %v, want [40 30]", got)
	}
	if got := a.unattributed(); got != 10.0/150 {
		t.Errorf("unattributed %v, want %v", got, 10.0/150)
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the program's metric sets and
// workloads in step with BENCHMARK.json at the repository root.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(set string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", set, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", set, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
}
