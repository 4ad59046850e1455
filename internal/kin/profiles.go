package kin

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Model identifies a supported robot-arm model.
type Model int

// Supported arm models. The UR3e is the Hein Lab production arm, the
// ViperX 300 and Niryo Ned2 are the testbed arms (Fig. 4), and the UR5e
// and N9 appear in the Berlinguette Lab (Section V-B).
const (
	ModelUR3e Model = iota + 1
	ModelUR5e
	ModelViperX300
	ModelNed2
	ModelN9
)

// String returns the vendor model name.
func (m Model) String() string {
	switch m {
	case ModelUR3e:
		return "UR3e"
	case ModelUR5e:
		return "UR5e"
	case ModelViperX300:
		return "ViperX 300"
	case ModelNed2:
		return "Ned2"
	case ModelN9:
		return "N9"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// ParseModel maps a configuration string (as used in the JSON device
// configs) to a Model.
func ParseModel(s string) (Model, error) {
	switch s {
	case "ur3e", "UR3e":
		return ModelUR3e, nil
	case "ur5e", "UR5e":
		return ModelUR5e, nil
	case "viperx", "viperx300", "ViperX 300", "ViperX":
		return ModelViperX300, nil
	case "ned2", "Ned2":
		return ModelNed2, nil
	case "n9", "N9":
		return ModelN9, nil
	default:
		return 0, fmt.Errorf("kin: unknown arm model %q", s)
	}
}

// Profile bundles a chain with its canonical configurations.
type Profile struct {
	Model Model
	Chain *Chain
	// Home is the parked-above-deck configuration wrappers return to
	// between steps (go_to_home_pose in Fig. 5).
	Home []float64
	// Sleep is the folded-down configuration (go_to_sleep_pose); when an
	// arm sleeps, the time-multiplexing policy models it as a cuboid.
	Sleep []float64
	// SleepDims is the cuboid (full extents) that encloses the arm when
	// folded in its sleep pose, used by the multiplexing preconditions.
	SleepDims geom.Vec3
}

const twoPi = 2 * math.Pi

// NewProfile builds the named arm mounted with the given base pose. The
// canonical Home (parked above the deck) and Sleep (folded low) joint
// configurations are solved deterministically from base-relative anchor
// points, so every mounting pose gets sensible poses.
func NewProfile(m Model, base geom.Pose) (*Profile, error) {
	var p *Profile
	switch m {
	case ModelUR3e:
		p = newURProfile(m, base,
			0.15185, -0.24355, -0.2132, 0.13105, 0.08535, 0.0921,
			0.045, math.Pi, 0.00003)
	case ModelUR5e:
		p = newURProfile(m, base,
			0.1625, -0.425, -0.3922, 0.1333, 0.0997, 0.0996,
			0.055, math.Pi, 0.00003)
	case ModelViperX300:
		p = newEduProfile(m, base, 0.127, 0.306, 0.300, 0.170,
			0.035, math.Pi*0.8, 0.001)
	case ModelNed2:
		p = newEduProfile(m, base, 0.170, 0.221, 0.235, 0.120,
			0.030, math.Pi*0.7, 0.0005)
	case ModelN9:
		p = newEduProfile(m, base, 0.140, 0.250, 0.250, 0.110,
			0.030, math.Pi*0.8, 0.0002)
	default:
		return nil, fmt.Errorf("kin: unknown model %v", m)
	}
	if err := p.solveCanonicalPoses(); err != nil {
		return nil, fmt.Errorf("kin: %v profile: %w", m, err)
	}
	return p, nil
}

// homeAnchor and sleepAnchor are the base-relative TCP anchor points the
// canonical poses are solved for: Home holds the tool ~35 cm above the
// mounting platform, Sleep folds it low near the base.
var (
	homeAnchor  = geom.V(0.25, 0, 0.35)
	sleepAnchor = geom.V(0.12, 0, 0.15)
)

// solveCanonicalPoses fills in Home and Sleep with IK solutions.
func (p *Profile) solveCanonicalPoses() error {
	seed := p.Home
	if len(seed) != p.Chain.DOF() {
		seed = make([]float64, p.Chain.DOF())
	}
	home, err := p.Chain.Solve(p.Chain.Base.Apply(homeAnchor), seed, DefaultIKOptions())
	if err != nil {
		return fmt.Errorf("solve home pose: %w", err)
	}
	sleep, err := p.Chain.Solve(p.Chain.Base.Apply(sleepAnchor), home, DefaultIKOptions())
	if err != nil {
		return fmt.Errorf("solve sleep pose: %w", err)
	}
	p.Home, p.Sleep = home, sleep
	return nil
}

// newURProfile builds a Universal Robots e-series chain from its published
// standard DH parameters.
func newURProfile(m Model, base geom.Pose, d1, a2, a3, d4, d5, d6, radius, speed, repeat float64) *Profile {
	ch := &Chain{
		Name: m.String(),
		Base: base,
		Links: []DHLink{
			{D: d1, Alpha: math.Pi / 2, Radius: radius, MinAngle: -twoPi, MaxAngle: twoPi},
			{A: a2, Radius: radius, MinAngle: -twoPi, MaxAngle: twoPi},
			{A: a3, Radius: radius * 0.8, MinAngle: -twoPi, MaxAngle: twoPi},
			{D: d4, Alpha: math.Pi / 2, Radius: radius * 0.7, MinAngle: -twoPi, MaxAngle: twoPi},
			{D: d5, Alpha: -math.Pi / 2, Radius: radius * 0.7, MinAngle: -twoPi, MaxAngle: twoPi},
			{D: d6, Radius: radius * 0.6, MinAngle: -twoPi, MaxAngle: twoPi},
		},
		MaxJointSpeed: speed,
		Repeatability: repeat,
	}
	ch.cacheTwists()
	return &Profile{
		Model: m,
		Chain: ch,
		// Elbow-up pose holding the tool above the deck.
		Home:      []float64{0, -math.Pi / 2, -math.Pi / 2, -math.Pi / 2, math.Pi / 2, 0},
		Sleep:     []float64{0, -math.Pi * 0.75, -2.2, -math.Pi / 2, math.Pi / 2, 0},
		SleepDims: geom.V(0.30, 0.30, 0.35),
	}
}

// newEduProfile builds a generic educational six-axis arm (ViperX / Ned2 /
// N9 class): a vertical shoulder column, two main links, and a wrist.
func newEduProfile(m Model, base geom.Pose, d1, a2, a3, d6, radius, speed, repeat float64) *Profile {
	lim := math.Pi * 0.97
	ch := &Chain{
		Name: m.String(),
		Base: base,
		Links: []DHLink{
			{D: d1, Alpha: math.Pi / 2, Radius: radius, MinAngle: -lim, MaxAngle: lim},
			{A: a2, Radius: radius, Offset: -math.Pi / 2, MinAngle: -lim, MaxAngle: lim},
			{A: a3, Radius: radius * 0.8, MinAngle: -lim, MaxAngle: lim},
			{D: 0, Alpha: math.Pi / 2, Radius: radius * 0.7, MinAngle: -lim, MaxAngle: lim},
			{D: 0, Alpha: -math.Pi / 2, Radius: radius * 0.7, MinAngle: -lim, MaxAngle: lim},
			{D: d6, Radius: radius * 0.6, MinAngle: -lim, MaxAngle: lim},
		},
		MaxJointSpeed: speed,
		Repeatability: repeat,
	}
	ch.cacheTwists()
	return &Profile{
		Model: m,
		Chain: ch,
		// Elbow-up, tool forward and above the deck.
		Home:      []float64{0, 0.4, -0.8, 0, 0.4, 0},
		Sleep:     []float64{0, 1.2, -2.4, 0, 1.1, 0},
		SleepDims: geom.V(0.25, 0.25, 0.25),
	}
}

// SleepBox returns the cuboid occupied by the arm folded at its base,
// used when a sleeping arm is modelled as a stationary 3D object for
// time multiplexing (Section IV, category 2).
func (p *Profile) SleepBox() geom.AABB {
	c := p.Chain.Base.T.Add(geom.V(0, 0, p.SleepDims.Z/2))
	return geom.BoxAt(c, p.SleepDims)
}
