package config

import (
	"fmt"

	"repro/internal/action"
	"repro/internal/geom"
	"repro/internal/rules"
	"repro/internal/state"
)

// Lab is a compiled lab configuration: it implements rules.LabModel (the
// rulebase's view of the lab) and exposes the deck description the
// environment builders consume.
type Lab struct {
	Spec *LabSpec

	arms       map[string]ArmSpec
	devices    map[string]DeviceSpec
	containers map[string]ContainerSpec
	locations  map[string]LocationSpec
	armOrder   []string
}

var _ rules.LabModel = (*Lab)(nil)

// Compile validates and indexes a parsed spec. It refuses specs with lint
// errors (warnings pass).
func Compile(spec *LabSpec) (*Lab, error) {
	if spec == nil {
		return nil, fmt.Errorf("config: nil spec")
	}
	ds := Lint(spec)
	if HasErrors(ds) {
		return nil, fmt.Errorf("config: spec has %d lint error(s); first: %s", countErrors(ds), firstError(ds))
	}
	l := &Lab{
		Spec:       spec,
		arms:       make(map[string]ArmSpec, len(spec.Arms)),
		devices:    make(map[string]DeviceSpec, len(spec.Devices)),
		containers: make(map[string]ContainerSpec, len(spec.Containers)),
		locations:  make(map[string]LocationSpec, len(spec.Locations)),
	}
	for _, a := range spec.Arms {
		l.arms[a.ID] = a
		l.armOrder = append(l.armOrder, a.ID)
	}
	for _, d := range spec.Devices {
		l.devices[d.ID] = d
	}
	for _, c := range spec.Containers {
		l.containers[c.ID] = c
	}
	for _, loc := range spec.Locations {
		l.locations[loc.Name] = loc
	}
	return l, nil
}

func countErrors(ds []Diagnostic) int {
	n := 0
	for _, d := range ds {
		if d.Severity == SevError {
			n++
		}
	}
	return n
}

func firstError(ds []Diagnostic) string {
	for _, d := range ds {
		if d.Severity == SevError {
			return d.String()
		}
	}
	return ""
}

// LoadFile parses, lints, and compiles a config file.
func LoadFile(path string) (*Lab, error) {
	spec, diags, err := ParseFile(path)
	if err != nil {
		return nil, err
	}
	if len(diags) > 0 {
		return nil, fmt.Errorf("config: %s: %s", path, diags[0])
	}
	return Compile(spec)
}

// DeviceType implements rules.LabModel.
func (l *Lab) DeviceType(id string) (rules.DeviceType, bool) {
	if _, ok := l.arms[id]; ok {
		return rules.TypeRobotArm, true
	}
	if d, ok := l.devices[id]; ok {
		switch d.Type {
		case "dosing_system":
			return rules.TypeDosingSystem, true
		case "action_device":
			return rules.TypeActionDevice, true
		case "sensor":
			return rules.TypeSensor, true
		default:
			return 0, false
		}
	}
	if _, ok := l.containers[id]; ok {
		return rules.TypeContainer, true
	}
	return 0, false
}

// DeviceHasDoor implements rules.LabModel.
func (l *Lab) DeviceHasDoor(id string) bool {
	d, ok := l.devices[id]
	return ok && (d.Door.Present || len(d.Doors) > 0)
}

// DeviceDoors implements rules.LabModel.
func (l *Lab) DeviceDoors(id string) []string {
	d, ok := l.devices[id]
	if !ok {
		return nil
	}
	if len(d.Doors) > 0 {
		names := make([]string, len(d.Doors))
		for i, nd := range d.Doors {
			names[i] = nd.Name
		}
		return names
	}
	if d.Door.Present {
		return []string{""}
	}
	return nil
}

// LocationDoor implements rules.LabModel.
func (l *Lab) LocationDoor(name string) string {
	loc, ok := l.locations[name]
	if !ok {
		return ""
	}
	return loc.Door
}

// ArmIDs implements rules.LabModel.
func (l *Lab) ArmIDs() []string {
	out := make([]string, len(l.armOrder))
	copy(out, l.armOrder)
	return out
}

// LocationOwner implements rules.LabModel.
func (l *Lab) LocationOwner(name string) (string, bool) {
	loc, ok := l.locations[name]
	if !ok || loc.Owner == "" {
		return "", false
	}
	return loc.Owner, true
}

// LocationIsInside implements rules.LabModel.
func (l *Lab) LocationIsInside(name string) bool {
	loc, ok := l.locations[name]
	return ok && loc.Inside
}

// LocationPos implements rules.LabModel: explicit per-arm coordinates win
// (the Fig. 6 convention); otherwise the deck position is translated into
// the arm's frame.
func (l *Lab) LocationPos(armID, name string) (geom.Vec3, bool) {
	loc, ok := l.locations[name]
	if !ok {
		return geom.Vec3{}, false
	}
	if p, ok := loc.PerArm[armID]; ok {
		return p.V3(), true
	}
	arm, ok := l.arms[armID]
	if !ok {
		return geom.Vec3{}, false
	}
	return loc.DeckPos.V3().Sub(arm.Base.V3()), true
}

// MatchLocation implements rules.LabModel: the configured location whose
// arm-frame coordinates coincide with p (within the 5 mm matching
// tolerance), if any.
func (l *Lab) MatchLocation(armID string, p geom.Vec3) (string, bool) {
	const tol = 0.005
	bestName, bestDist := "", tol
	for name := range l.locations {
		lp, ok := l.LocationPos(armID, name)
		if !ok {
			continue
		}
		if d := lp.Dist(p); d <= bestDist {
			bestName, bestDist = name, d
		}
	}
	return bestName, bestName != ""
}

// DeviceBoxes implements rules.LabModel: every device cuboid translated
// into the arm's frame.
func (l *Lab) DeviceBoxes(armID string) []rules.NamedBox {
	arm, ok := l.arms[armID]
	if !ok {
		return nil
	}
	offset := arm.Base.V3().Neg()
	out := make([]rules.NamedBox, 0, len(l.Spec.Devices))
	for _, d := range l.Spec.Devices {
		if d.Type == "sensor" {
			// A sensor's cuboid is a monitored zone, not a solid body.
			continue
		}
		nb := rules.NamedBox{
			Name: d.ID,
			Box:  d.Cuboid.AABB().Translate(offset),
		}
		if d.Shape == "cylinder" || d.Shape == "dome" {
			cap := geom.InscribedVerticalCapsule(nb.Box)
			nb.Rounded = &cap
		}
		out = append(out, nb)
	}
	return out
}

// SleepBox implements rules.LabModel: the other arm's sleep cuboid mapped
// into armID's frame via the deck frame.
func (l *Lab) SleepBox(armID, otherID string) (geom.AABB, bool) {
	arm, ok := l.arms[armID]
	if !ok {
		return geom.AABB{}, false
	}
	other, ok := l.arms[otherID]
	if !ok || other.SleepBox == nil {
		return geom.AABB{}, false
	}
	deckBox := other.SleepBox.AABB().Translate(other.Base.V3())
	return deckBox.Translate(arm.Base.V3().Neg()), true
}

// ArmGeometry implements rules.LabModel.
func (l *Lab) ArmGeometry(armID string) rules.ArmGeom {
	arm, ok := l.arms[armID]
	if !ok {
		return rules.ArmGeom{}
	}
	return rules.ArmGeom{
		FingerReach:  arm.Gripper.FingerDrop + arm.Gripper.FingerRadius,
		FingerRadius: arm.Gripper.FingerRadius,
	}
}

// ObjectGeometry implements rules.LabModel.
func (l *Lab) ObjectGeometry(objectID string) (rules.ObjectGeom, bool) {
	c, ok := l.containers[objectID]
	if !ok {
		return rules.ObjectGeom{}, false
	}
	return rules.ObjectGeom{
		// Mirror the world's carried-hang model: height + grip clearance
		// (0.01) − lift epsilon (0.005).
		CarriedHang: c.Height + 0.01 - 0.005,
		Radius:      c.Radius,
		CapacityMg:  c.CapacityMg,
		CapacityML:  c.CapacityML,
	}, true
}

// HostsContainers implements rules.LabModel.
func (l *Lab) HostsContainers(deviceID string) bool {
	for _, loc := range l.Spec.Locations {
		if loc.Owner == deviceID {
			return true
		}
	}
	return false
}

// ActionThreshold implements rules.LabModel.
func (l *Lab) ActionThreshold(deviceID string) (float64, bool) {
	d, ok := l.devices[deviceID]
	if !ok || d.ActionThreshold <= 0 {
		return 0, false
	}
	return d.ActionThreshold, true
}

// FloorZ implements rules.LabModel: the platform height in the arm's
// frame.
func (l *Lab) FloorZ(armID string) float64 {
	arm, ok := l.arms[armID]
	if !ok {
		return l.Spec.FloorZ
	}
	return l.Spec.FloorZ - arm.Base.Z
}

// Walls implements rules.LabModel: the configured wall planes translated
// into the arm's frame.
func (l *Lab) Walls(armID string) []geom.Plane {
	arm, ok := l.arms[armID]
	if !ok {
		return nil
	}
	out := make([]geom.Plane, 0, len(l.Spec.Walls))
	for _, w := range l.Spec.Walls {
		// Normalise the configured normal and offset together (a non-unit
		// normal would otherwise shift the plane), then translate the
		// offset into the arm's frame.
		p := geom.PlaneFromNormalOffset(w.Normal.V3(), w.Offset)
		out = append(out, geom.Plane{N: p.N, D: p.D - p.N.Dot(arm.Base.V3())})
	}
	return out
}

// Zone implements rules.LabModel.
func (l *Lab) Zone(armID string) (geom.Plane, bool) {
	arm, ok := l.arms[armID]
	if !ok || arm.ZoneWall == nil {
		return geom.Plane{}, false
	}
	return geom.PlaneFromNormalOffset(arm.ZoneWall.Normal.V3(), arm.ZoneWall.Offset), true
}

// CustomRules builds the configured custom rules.
func (l *Lab) CustomRules() ([]*rules.Rule, error) {
	var out []*rules.Rule
	for i, spec := range l.Spec.Rules {
		switch {
		case spec.Builtin == "hein":
			out = append(out, rules.HeinCustomRules(spec.Centrifuge)...)
		case spec.Builtin != "":
			return nil, fmt.Errorf("config: custom_rules[%d]: unknown builtin %q", i, spec.Builtin)
		default:
			labels := make([]action.Label, 0, len(spec.AppliesTo))
			for _, s := range spec.AppliesTo {
				labels = append(labels, action.Label(s))
			}
			reqs := make([]rules.VarRequirement, 0, len(spec.Requires))
			for _, r := range spec.Requires {
				v, err := toValue(r.Equals)
				if err != nil {
					return nil, fmt.Errorf("config: custom rule %q: %w", spec.ID, err)
				}
				reqs = append(reqs, rules.VarRequirement{
					Var: r.Var, Arg: r.Arg, Arg2: r.Arg2, Equals: v,
				})
			}
			out = append(out, rules.NewDeclarativeRule(spec.ID, spec.Description, spec.Number, labels, spec.Devices, reqs))
		}
	}
	return out, nil
}

// toValue maps a JSON scalar to a typed state value.
func toValue(v any) (state.Value, error) {
	switch x := v.(type) {
	case bool:
		return state.Bool(x), nil
	case float64:
		return state.Float(x), nil
	case string:
		return state.Str(x), nil
	default:
		return state.Value{}, fmt.Errorf("unsupported requirement value %v (%T)", v, v)
	}
}

// InitialModelState builds the model's initial beliefs from the
// configuration: container positions, stoppers, and per-device defaults.
// The engine merges this with the first observed snapshot (Fig. 2,
// line 3).
func (l *Lab) InitialModelState() state.Snapshot {
	s := state.Snapshot{}
	for _, d := range l.Spec.Devices {
		for _, door := range l.DeviceDoors(d.ID) {
			s.Set(state.DoorStatusOf(d.ID, door), state.Bool(false))
		}
	}
	for _, a := range l.Spec.Arms {
		s.Set(state.Holding(a.ID), state.Bool(false))
		s.Set(state.HeldObject(a.ID), state.Str(""))
		s.Set(state.ArmAsleep(a.ID), state.Bool(false))
		s.Set(state.ArmAt(a.ID), state.Str(""))
	}
	for _, c := range l.Spec.Containers {
		s.Set(state.Stopper(c.ID), state.Bool(c.Stopper))
		s.Set(state.HasSolid(c.ID), state.Bool(c.InitialSolidMg > 0))
		s.Set(state.HasLiquid(c.ID), state.Bool(c.InitialLiquidML > 0))
		s.Set(state.SolidAmount(c.ID), state.Float(c.InitialSolidMg))
		s.Set(state.LiquidAmount(c.ID), state.Float(c.InitialLiquidML))
		if c.Location != "" {
			s.Set(state.ObjectAt(c.Location), state.Str(c.ID))
			if loc, ok := l.locations[c.Location]; ok && loc.Owner != "" {
				s.Set(state.ContainerInside(loc.Owner), state.Str(c.ID))
			}
		}
	}
	return s
}
