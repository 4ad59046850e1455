package campaign

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/geom"
	"repro/internal/labs"
)

// DefaultDecksPerLab is how many deck variants each lab contributes
// (variant 0 is always the pristine paper deck).
const DefaultDecksPerLab = 3

// Generator produces scenarios as pure functions of (master seed,
// index). Construction precompiles every deck variant — the shared
// immutables both runner modes draw from.
type Generator struct {
	master uint64
	labs   [3][]*Deck // testbed, hein-production, berlinguette
}

// NewGenerator builds the deck-variant pool for the three lab configs.
func NewGenerator(master uint64, decksPerLab int) (*Generator, error) {
	if decksPerLab <= 0 {
		decksPerLab = DefaultDecksPerLab
	}
	specs := []*config.LabSpec{labs.TestbedSpec(), labs.HeinProductionSpec(), labs.BerlinguetteSpec()}
	g := &Generator{master: master}
	for li, spec := range specs {
		for v := 0; v < decksPerLab; v++ {
			d, err := buildDeck(spec, master, v)
			if err != nil {
				return nil, err
			}
			g.labs[li] = append(g.labs[li], d)
		}
	}
	return g, nil
}

// Decks returns every variant, testbed first.
func (g *Generator) Decks() []*Deck {
	var out []*Deck
	for _, l := range g.labs {
		out = append(out, l...)
	}
	return out
}

// faultRate is the fraction of scenarios that carry an injection; the
// rest are the clean control population the false-alarm rate is measured
// on.
const faultRate = 0.45

// Scenario generates scenario i. Every random draw flows through one
// splitmix64 stream seeded from ScenarioSeed(master, i), so the result
// is identical no matter which worker — or which process — asks.
func (g *Generator) Scenario(i int) *Scenario {
	r := newRNG(ScenarioSeed(g.master, i))
	sc := &Scenario{Index: i, Seed: ScenarioSeed(g.master, i)}

	// Lab mix: the testbed's parameterized grammar gets half the budget,
	// the two production decks' canonical workflows split the rest.
	var li int
	switch r.intn(4) {
	case 0, 1:
		li = 0
	case 2:
		li = 1
	default:
		li = 2
	}
	variants := g.labs[li]
	sc.Deck = variants[r.intn(len(variants))]

	switch li {
	case 0:
		sc.Tasks = testbedTasks(r)
	case 1:
		sc.Tasks = []Task{{Kind: TaskScreening}}
	default:
		sc.Tasks = []Task{{Kind: TaskSpray}}
	}

	if r.float() < faultRate {
		g.injectFault(sc, r)
	}
	return sc
}

// testbedTasks draws 1–2 distinct parameterized tasks, optionally
// followed by a Ned2 patrol (always last: the patrol puts ViperX to
// sleep, honoring the one-arm-awake discipline for the rest of the run).
func testbedTasks(r *rng) []Task {
	pool := []TaskKind{TaskFerry, TaskHotplate, TaskPump}
	for i := len(pool) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		pool[i], pool[j] = pool[j], pool[i]
	}
	n := 1 + r.intn(2)
	// Ferry and hotplate both need a grid vial; one bit splits the two
	// vials between them so the tasks never contend for the same object.
	ferryVial := r.intn(2)
	vials := [2][2]string{{"vial_1", "grid_NW"}, {"vial_2", "grid_SW"}}
	var tasks []Task
	for _, kind := range pool[:n] {
		switch kind {
		case TaskFerry:
			v := vials[ferryVial]
			tasks = append(tasks, Task{Kind: TaskFerry, Vial: v[0], Slot: v[1], QtyMg: 2 + 0.5*float64(r.intn(9))})
		case TaskHotplate:
			v := vials[1-ferryVial]
			tasks = append(tasks, Task{Kind: TaskHotplate, Vial: v[0], Slot: v[1], TempC: 60 + 10*float64(r.intn(9))})
		case TaskPump:
			tasks = append(tasks, Task{Kind: TaskPump, VolML: 2 + 0.5*float64(r.intn(9))})
		}
	}
	if r.float() < 0.25 {
		// Patrol waypoints live in an envelope swept offline for
		// transit safety (every pose pair, every deck variant): the
		// sector right of the Ned2 base, clear of the centrifuge, and
		// near enough that IK keeps one wrist configuration — large
		// yaw or reach jumps make joint-space interpolation swing the
		// elbow through the centrifuge.
		m := 2 + r.intn(2)
		t := Task{Kind: TaskPatrol}
		for p := 0; p < m; p++ {
			// Poses are in the Ned2's own frame (base at deck (0.8, 0, 0)).
			t.Poses = append(t.Poses, geom.V(
				-0.02+0.02*float64(r.intn(8)),
				0.01+0.02*float64(r.intn(10)),
				0.32+0.01*float64(r.intn(3))))
		}
		tasks = append(tasks, t)
	}
	return tasks
}

// mutPoint is one argument-change site the grammar exposes.
type mutPoint struct {
	arm, loc string // location-table edit (Bug D idiom)
	param    string // or a task-parameter scale
	task     int
}

// mutationPoints lists the scenario's argument-change sites in
// deterministic order.
func mutationPoints(sc *Scenario) []mutPoint {
	switch sc.Deck.LabName {
	case "hein-production":
		return []mutPoint{
			{arm: "ur3e", loc: "dd_pickup"},
			{arm: "ur3e", loc: "ts_place"},
			{arm: "ur3e", loc: "cf_slot"},
		}
	case "berlinguette":
		return []mutPoint{
			{arm: "ur5e", loc: "coater_chuck"},
			{arm: "ur5e", loc: "rack_B"},
		}
	}
	var pts []mutPoint
	for ti, t := range sc.Tasks {
		switch t.Kind {
		case TaskFerry:
			pts = append(pts,
				mutPoint{arm: "viperx", loc: "dd_pickup"},
				mutPoint{param: "qty", task: ti})
		case TaskHotplate:
			pts = append(pts,
				mutPoint{arm: "viperx", loc: "hp_place"},
				mutPoint{param: "temp", task: ti})
		case TaskPump:
			pts = append(pts, mutPoint{param: "vol", task: ti})
		case TaskPatrol:
			pts = append(pts, mutPoint{param: "pose", task: ti})
		}
	}
	return pts
}

// injectFault draws one fault. Delete targets guard steps (doors, caps,
// sleeps, stops) with high probability — the mutations the paper's bug
// suite shows matter — but every step is reachable, so the oracle earns
// its keep classifying benign deletions too.
func (g *Generator) injectFault(sc *Scenario, r *rng) {
	kind := FaultKind(1 + r.intn(3))
	switch kind {
	case FaultDelete:
		names := stepNames(sc)
		i := pickDeleteIdx(names, r)
		sc.Fault = Fault{Kind: FaultDelete, Step: i, StepName: names[i]}
	case FaultReorder:
		names := stepNames(sc)
		i := r.intn(len(names))
		j := r.intn(len(names))
		if j == i {
			j = (j + 1) % len(names)
		}
		sc.Fault = Fault{Kind: FaultReorder, Step: i, To: j, StepName: names[i], ToName: names[j]}
	case FaultMutate:
		pts := mutationPoints(sc)
		p := pts[r.intn(len(pts))]
		f := Fault{Kind: FaultMutate}
		switch {
		case p.loc != "":
			dz := -(0.03 + 0.01*float64(r.intn(8)))
			if r.float() < 0.25 {
				dz = -dz
			}
			f.Mut = Mutation{Arm: p.arm, Loc: p.loc, DZ: dz}
		case p.param == "pose":
			dz := -(0.14 + 0.04*float64(r.intn(5)))
			f.Mut = Mutation{Param: "pose", Task: p.task, Scale: dz}
			for pi := range sc.Tasks[p.task].Poses {
				sc.Tasks[p.task].Poses[pi].Z += dz
			}
		case p.param == "temp":
			scale := 1.5 + 0.5*float64(r.intn(5))
			f.Mut = Mutation{Param: "temp", Task: p.task, Scale: scale}
			sc.Tasks[p.task].TempC *= scale
		case p.param == "qty":
			scale := float64(2 + r.intn(3))
			f.Mut = Mutation{Param: "qty", Task: p.task, Scale: scale}
			sc.Tasks[p.task].QtyMg *= scale
		case p.param == "vol":
			scale := float64(2 + r.intn(3))
			f.Mut = Mutation{Param: "vol", Task: p.task, Scale: scale}
			sc.Tasks[p.task].VolML *= scale
		}
		sc.Fault = f
	}
}

func stepNames(sc *Scenario) []string {
	steps := sc.baseSteps()
	names := make([]string, len(steps))
	for i, st := range steps {
		names[i] = st.Name
	}
	return names
}

var guardSubstrings = []string{"door", "cap", "sleep", "stop", "clear", "close", "open"}

func isGuardStep(name string) bool {
	for _, s := range guardSubstrings {
		if strings.Contains(name, s) {
			return true
		}
	}
	return false
}

func pickDeleteIdx(names []string, r *rng) int {
	var guards []int
	for i, n := range names {
		if isGuardStep(n) {
			guards = append(guards, i)
		}
	}
	if len(guards) > 0 && r.float() < 0.7 {
		return guards[r.intn(len(guards))]
	}
	return r.intn(len(names))
}

// Fingerprints renders scenarios [0, n) one per line — the byte stream
// the determinism contract is stated over.
func (g *Generator) Fingerprints(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintln(&b, g.Scenario(i).Fingerprint())
	}
	return b.String()
}
