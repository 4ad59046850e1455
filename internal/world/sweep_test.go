package world

import (
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/kin"
)

// holdingDeck is the test deck with the ViperX holding vial_1 above the
// grid.
func holdingDeck(t testing.TB) (*World, *Arm) {
	t.Helper()
	w := testDeck(t)
	for _, step := range []struct {
		target geom.Vec3
		ignore []string
	}{
		{geom.V(0.32, 0.22, 0.23), nil},
		{geom.V(0.32, 0.22, 0.16), []string{"vial_1"}},
	} {
		if err := w.MoveArmTo("viperx", step.target, MoveOptions{IgnoreObjects: step.ignore}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.CloseGripper("viperx"); err != nil {
		t.Fatal(err)
	}
	a := w.arms["viperx"]
	if a.Holding != "vial_1" {
		t.Fatalf("grasp failed: holding %q", a.Holding)
	}
	return w, a
}

// twoPassLabeled is the labelled volume built with a second forward pass
// for the TCP and the held label built per call — the form the sweep's
// scratch path must reproduce exactly.
func twoPassLabeled(t *testing.T, w *World, a *Arm, joints []float64, roll float64) []labeledCapsule {
	t.Helper()
	linkCaps, err := a.Profile.Chain.LinkCapsules(joints)
	if err != nil {
		t.Fatal(err)
	}
	var out []labeledCapsule
	for _, c := range linkCaps {
		out = append(out, labeledCapsule{cap: c, part: "link"})
	}
	tcp, err := a.Profile.Chain.EndEffector(joints)
	if err != nil {
		t.Fatal(err)
	}
	tip := tcp.Add(fingerDirection(roll).Scale(a.FingerDrop))
	out = append(out, labeledCapsule{cap: geom.NewCapsule(tcp, tip, a.FingerRadius), part: "fingers"})
	if o, ok := w.objects[a.Holding]; ok && !o.Broken {
		hang := o.CarriedHang() - o.RadiusM
		if hang < 0 {
			hang = 0
		}
		out = append(out, labeledCapsule{
			cap:  geom.NewCapsule(tcp, tcp.Add(geom.V(0, 0, -hang)), o.RadiusM),
			part: "held:" + o.ID,
		})
	}
	return out
}

// TestSweepCapsulesMatchTwoPassForm checks every sample of a carried-vial
// move: the sweep workspace's labelled capsules (TCP read off the link
// stub, held load resolved once) equal the two-pass form exactly, as do
// labeledCapsulesAt's.
func TestSweepCapsulesMatchTwoPassForm(t *testing.T) {
	w, a := holdingDeck(t)
	tr, err := a.Profile.Chain.PlanJointMove(a.Joints, geom.V(0.38, 0.22, 0.23), kin.DefaultIKOptions())
	if err != nil {
		t.Fatal(err)
	}
	held := w.heldLoadLocked(a)
	if held.part != "held:vial_1" {
		t.Fatalf("held load %+v, want vial_1", held)
	}
	var sw kin.Sweep
	var caps []labeledCapsule
	n := tr.SampleCount(sweepStep)
	for i := 0; i <= n; i++ {
		tt := float64(i) / float64(n)
		roll := 0.3 * tt
		want := twoPassLabeled(t, w, a, tr.At(tt), roll)
		linkCaps, err := sw.CapsulesAt(tr, tt)
		if err != nil {
			t.Fatal(err)
		}
		caps = appendLabeled(caps[:0], a, linkCaps, roll, held)
		at, err := w.labeledCapsulesAt(a, tr.At(tt), roll)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range [][]labeledCapsule{caps, at} {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("sample %d: labelled capsules\n%+v\nwant\n%+v", i, got, want)
			}
		}
	}
}

// BenchmarkSweepAllocs sweeps one carried-vial move against the test
// deck: every sample builds the arm's labelled capsules (links, fingers
// and the held vial) and runs the obstacle and parked-arm checks.
// allocs/op is per sweep; samples/op says how many samples that is.
func BenchmarkSweepAllocs(b *testing.B) {
	w, a := holdingDeck(b)
	w.mu.Lock()
	defer w.mu.Unlock()
	tr, err := a.Profile.Chain.PlanJointMove(a.Joints, geom.V(0.38, 0.22, 0.23), kin.DefaultIKOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.sweepLocked(a, tr, MoveOptions{}, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.SampleCount(sweepStep)+1), "samples/op")
}
