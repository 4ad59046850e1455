// Command labsim drives the Extended Simulator standalone (Fig. 3 of the
// paper): it validates a robot-arm move against the deck's cuboid model
// and, with -gui, renders an ASCII view of the scene.
//
// Usage:
//
//	labsim -deck testbed -arm viperx -x 0.32 -y 0.22 -z 0.25 [-gui]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/action"
	"repro/internal/config"
	"repro/internal/geom"
	"repro/internal/labs"
	otrace "repro/internal/obs/trace"
	"repro/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "labsim:", err)
		os.Exit(1)
	}
}

func run() error {
	deck := flag.String("deck", "testbed", "testbed | hein | berlinguette")
	armID := flag.String("arm", "", "arm to move (default: the deck's first arm)")
	x := flag.Float64("x", 0.32, "target x (arm frame)")
	y := flag.Float64("y", 0.22, "target y (arm frame)")
	z := flag.Float64("z", 0.25, "target z (arm frame)")
	gui := flag.Bool("gui", false, "render the scene as ASCII art")
	flag.Parse()

	var spec *config.LabSpec
	switch *deck {
	case "testbed":
		spec = labs.TestbedSpec()
	case "hein":
		spec = labs.HeinProductionSpec()
	case "berlinguette":
		spec = labs.BerlinguetteSpec()
	default:
		return fmt.Errorf("unknown deck %q", *deck)
	}
	lab, err := config.Compile(spec)
	if err != nil {
		return err
	}
	if *armID == "" {
		*armID = lab.ArmIDs()[0]
	}

	opts := []sim.Option{}
	if *gui {
		opts = append(opts, sim.WithGUI(640, 480))
	}
	s, err := sim.New(lab, opts...)
	if err != nil {
		return err
	}

	cmd := action.Command{
		Device: *armID,
		Action: action.MoveRobot,
		Target: geom.V(*x, *y, *z),
	}
	model := lab.InitialModelState()
	if _, err := s.ValidTrajectory(cmd, model, otrace.SpanContext{}); err != nil {
		fmt.Println("INVALID TRAJECTORY:", err)
	} else {
		fmt.Printf("trajectory of %s to (%.3f, %.3f, %.3f) is valid\n", *armID, *x, *y, *z)
		s.Observe(cmd, model)
	}
	if *gui {
		fmt.Println(s.RenderASCII(100, 30))
		fmt.Printf("(%d GUI frames rendered for this check)\n", s.GUIFrames())
	}
	return nil
}
