package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/action"
	"repro/internal/config"
	"repro/internal/geom"
)

// rng is a splitmix64 stream: every generated input is a pure function
// of the workload seed and a stream index.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	r := &rng{s: seed ^ (stream+1)*0x9e3779b97f4a7c15}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// uniform returns a uniform value in [lo, hi).
func (r *rng) uniform(lo, hi float64) float64 { return lo + (hi-lo)*r.float() }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// labelled is a generated command with the verdict it must receive.
type labelled struct {
	cmd   action.Command
	label string
}

// Hotplate limits of the fleet decks and the testbed: rule general-11
// blocks action values above the threshold, and MaxSafeValue is where
// physical damage starts.
const (
	hotplateThreshold = 150
	hotplateMaxSafe   = 340
)

// fleetSpec is an arm-free deck of n independent hotplates, so every
// command's rules read only its own device and scripts run on the
// engine's sharded pipeline.
func fleetSpec(lab string, n int) *config.LabSpec {
	spec := &config.LabSpec{Lab: lab, FloorZ: 0}
	for i := range n {
		x := float64(i) * 0.3
		spec.Devices = append(spec.Devices, config.DeviceSpec{
			ID:   fleetDevice(i),
			Type: "action_device", Kind: "hotplate", ClassName: "IKAHotplate",
			Cuboid: config.BoxSpec{
				Min: config.Vec{X: x, Y: 0, Z: 0},
				Max: config.Vec{X: x + 0.2, Y: 0.2, Z: 0.15},
			},
			ActionThreshold: hotplateThreshold,
			MaxSafeValue:    hotplateMaxSafe,
		})
	}
	return spec
}

func fleetDevice(i int) string { return fmt.Sprintf("hp%02d", i) }

// fleetCycle is one set/start/read/stop cycle on a hotplate with a
// seeded safe setpoint and run time; every command must pass.
func fleetCycle(r *rng, device string) []labelled {
	set := math.Round(r.uniform(30, hotplateThreshold-5)*10) / 10
	run := time.Duration(1+r.intn(10)) * time.Second
	return []labelled{
		{action.Command{Device: device, Action: action.SetActionValue, Value: set}, verdictOK},
		{action.Command{Device: device, Action: action.StartAction, Duration: run}, verdictOK},
		{action.Command{Device: device, Action: action.ReadStatus}, verdictOK},
		{action.Command{Device: device, Action: action.StopAction}, verdictOK},
	}
}

// fleetStream is one fleet script's endless command stream.
type fleetStream struct {
	r      *rng
	device string
	buf    []labelled
}

func newFleetStream(seed uint64, script int) *fleetStream {
	return &fleetStream{r: newRNG(seed, uint64(script)), device: fleetDevice(script)}
}

func (s *fleetStream) next() labelled {
	if len(s.buf) == 0 {
		s.buf = fleetCycle(s.r, s.device)
	}
	c := s.buf[0]
	s.buf = s.buf[1:]
	return c
}

// motionStations are free-space ViperX waypoints on the testbed whose
// verdicts do not depend on the dosing-device door.
var motionStations = []geom.Vec3{
	geom.V(0.32, 0.22, 0.25),
	geom.V(0.15, 0.30, 0.25),
	geom.V(0.63, -0.38, 0.30),
	geom.V(0.45, 0.10, 0.30),
}

// motionJitter bounds the per-axis offset of a fresh target around a
// station: small enough that every jittered target stays reachable and
// clear (2 cm made targets near (0.63, −0.38, 0.30) unreachable).
const motionJitter = 0.005

// The must-block trajectory: park low beside the centrifuge, then ask
// for a leg across it, starting from the home pose so the descent's
// joint path is always the same. Every endpoint satisfies the rules; only the
// Extended Simulator's sweep sees the mid-path collision, so the leg is
// blocked as invalid_trajectory. The arm then climbs back to the
// station, so the next step starts from free space.
var (
	blockVia  = geom.V(0.63, -0.38, 0.30)
	blockDown = geom.V(0.63, -0.38, 0.12)
	blockLeg  = geom.V(0.63, -0.02, 0.12)
)

// Motion mix, in percent of generated steps. A step is one command,
// except door (open + close), hotplate (set + read) and the blocked
// trajectory (five commands, see blockLeg).
const (
	mixRevisit  = 34 // exact station revisit: plan and verdict cache hits
	mixFresh    = 22 // jittered station: cold IK and sweep
	mixHome     = 5  // home pose
	mixDoor     = 6  // open/close the dosing-device door: deck-epoch bumps
	mixHotplate = 17 // hotplate: set a safe setpoint, read status
	mixLeg      = 12 // leg across the centrifuge: invalid_trajectory
	// the rest (4%) set the hotplate above MaxSafeValue: invalid_command.
)

// motionStream is the motion script's endless labelled command stream.
type motionStream struct {
	r   *rng
	buf []labelled
}

func newMotionStream(seed uint64) *motionStream {
	// Time multiplexing lets the ViperX move only while the Ned2 sleeps,
	// so the stream parks it first.
	return &motionStream{
		r:   newRNG(seed, 100),
		buf: []labelled{{action.Command{Device: "ned2", Action: action.MoveSleep}, verdictOK}},
	}
}

func (s *motionStream) next() labelled {
	if len(s.buf) == 0 {
		s.buf = s.step()
	}
	c := s.buf[0]
	s.buf = s.buf[1:]
	return c
}

// peek returns the command after the next one is taken (for lookahead).
func (s *motionStream) peek() labelled {
	if len(s.buf) == 0 {
		s.buf = s.step()
	}
	return s.buf[0]
}

func move(t geom.Vec3) action.Command {
	return action.Command{Device: "viperx", Action: action.MoveRobot, Target: t}
}

func (s *motionStream) step() []labelled {
	r := s.r
	station := motionStations[r.intn(len(motionStations))]
	switch k := r.intn(100); {
	case k < mixRevisit:
		return []labelled{{move(station), verdictOK}}
	case k < mixRevisit+mixFresh:
		j := func() float64 { return r.uniform(-motionJitter, motionJitter) }
		return []labelled{{move(station.Add(geom.V(j(), j(), j()))), verdictOK}}
	case k < mixRevisit+mixFresh+mixHome:
		return []labelled{{action.Command{Device: "viperx", Action: action.MoveHome}, verdictOK}}
	case k < mixRevisit+mixFresh+mixHome+mixDoor:
		return []labelled{
			{action.Command{Device: "dosing_device", Action: action.OpenDoor}, verdictOK},
			{action.Command{Device: "dosing_device", Action: action.CloseDoor}, verdictOK},
		}
	case k < mixRevisit+mixFresh+mixHome+mixDoor+mixHotplate:
		// No container sits on the testbed hotplate, so starting it is a
		// rule violation (general-5); the step sets and reads it instead.
		set := math.Round(r.uniform(30, hotplateThreshold-5)*10) / 10
		return []labelled{
			{action.Command{Device: "hotplate", Action: action.SetActionValue, Value: set}, verdictOK},
			{action.Command{Device: "hotplate", Action: action.ReadStatus}, verdictOK},
		}
	case k < mixRevisit+mixFresh+mixHome+mixDoor+mixHotplate+mixLeg:
		leg := blockLeg.Add(geom.V(r.uniform(-motionJitter, motionJitter), r.uniform(-motionJitter, motionJitter), 0))
		return []labelled{
			{action.Command{Device: "viperx", Action: action.MoveHome}, verdictOK},
			{move(blockVia), verdictOK},
			{move(blockDown), verdictOK},
			{move(leg), verdictInvalidTrajectory},
			{move(blockVia), verdictOK},
		}
	default:
		v := math.Round(r.uniform(hotplateMaxSafe+5, 450)*10) / 10
		return []labelled{{action.Command{Device: "hotplate", Action: action.SetActionValue, Value: v}, verdictInvalidCommand}}
	}
}

// poissonSchedule returns n due offsets of a Poisson arrival process at
// rate per second.
func poissonSchedule(r *rng, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += -math.Log(1-r.float()) / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}
