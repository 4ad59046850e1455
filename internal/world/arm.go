package world

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/geom"
	"repro/internal/kin"
)

// Arm is the ground-truth state of a robot arm on the deck. Its kinematic
// chain is mounted at a global base pose; all world-level geometry is
// global, even though scripts command arms in per-arm frames (the drivers
// translate).
type Arm struct {
	ID      string
	Profile *kin.Profile
	// Joints is the current joint configuration.
	Joints []float64
	// Holding is the ID of the gripped object ("" when the gripper is
	// empty or closed on air).
	Holding string
	// GripperClosed tracks the physical gripper state; closing on air
	// still closes the gripper (relevant to the reordered-gripper bug).
	GripperClosed bool
	// Asleep reports whether the arm rests in its sleep pose.
	Asleep bool
	// Roll is the current wrist roll; 0 points the gripper fingers
	// straight down. The paper's "wrong gripper orientation" bug swings
	// the finger blade sideways, which RABIT's link-level model misses.
	Roll float64
	// FingerDrop is how far the fingers extend below the tool centre
	// point; FingerRadius is their collision radius.
	FingerDrop   float64
	FingerRadius float64

	// commandedTCP/actualTCP record the last move for precision
	// accounting (Table I "device precision" row).
	commandedTCP geom.Vec3
	actualTCP    geom.Vec3
}

// DefaultFingerDrop is the standard gripper finger extension below the TCP.
const DefaultFingerDrop = 0.05

// DefaultFingerRadius is the standard finger collision radius.
const DefaultFingerRadius = 0.012

// graspTolerance is how close the TCP must be to a location's grip point
// for a grasp or placement to succeed.
const graspTolerance = 0.02

// labeledCapsule tags a collision capsule with the arm part it models so
// collision consequences can be attributed (a held vial shattering is a
// different event than a link strike).
type labeledCapsule struct {
	cap  geom.Capsule
	part string // "link", "fingers", or "held:<objectID>"
}

// AddArm mounts an arm on the deck in its profile's home configuration.
func (w *World) AddArm(id string, p *kin.Profile) (*Arm, error) {
	if id == "" || p == nil {
		return nil, fmt.Errorf("world: arm needs an ID and a profile")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.arms[id]; dup {
		return nil, fmt.Errorf("world: duplicate arm %q", id)
	}
	a := &Arm{
		ID:           id,
		Profile:      p,
		Joints:       append([]float64(nil), p.Home...),
		FingerDrop:   DefaultFingerDrop,
		FingerRadius: DefaultFingerRadius,
	}
	w.arms[id] = a
	return a, nil
}

// Arm returns the arm by ID.
func (w *World) Arm(id string) (*Arm, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	a, ok := w.arms[id]
	return a, ok
}

// ArmAsleep reports whether the arm is folded in its sleep pose, read
// under the world lock (drivers must not retain *Arm across the lock —
// state fetches run concurrently with command execution).
func (w *World) ArmAsleep(id string) (bool, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	a, ok := w.arms[id]
	if !ok {
		return false, false
	}
	return a.Asleep, true
}

// ArmIDs returns all arm IDs, sorted.
func (w *World) ArmIDs() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	ids := make([]string, 0, len(w.arms))
	for id := range w.arms {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// TCP returns the arm's current tool-centre-point position (global frame).
func (a *Arm) TCP() (geom.Vec3, error) {
	return a.Profile.Chain.EndEffector(a.Joints)
}

// fingerDirection returns the unit direction the finger blade points in
// for a given wrist roll: straight down at roll 0, swinging toward +X as
// roll grows.
func fingerDirection(roll float64) geom.Vec3 {
	return geom.V(math.Sin(roll), 0, -math.Cos(roll))
}

// capsules returns the arm's own collision volume: chain links plus the
// finger blade (oriented by the current roll). It does not include a held
// object; see capsulesWithHeld.
func (a *Arm) capsules() ([]geom.Capsule, error) {
	caps, err := a.Profile.Chain.LinkCapsules(a.Joints)
	if err != nil {
		return nil, err
	}
	tcp, err := a.TCP()
	if err != nil {
		return nil, err
	}
	tip := tcp.Add(fingerDirection(a.Roll).Scale(a.FingerDrop))
	caps = append(caps, geom.NewCapsule(tcp, tip, a.FingerRadius))
	return caps, nil
}

// labeledCapsulesAt returns the labelled collision volume for an arbitrary
// joint configuration and roll, including the held object (if any) hanging
// below the TCP, from one forward pass.
func (w *World) labeledCapsulesAt(a *Arm, joints []float64, roll float64) ([]labeledCapsule, error) {
	linkCaps, err := a.Profile.Chain.LinkCapsules(joints)
	if err != nil {
		return nil, err
	}
	out := make([]labeledCapsule, 0, len(linkCaps)+2)
	return appendLabeled(out, a, linkCaps, roll, w.heldLoadLocked(a)), nil
}

// heldLoad is the collision volume of the object an arm carries: a
// capsule of the object's radius hanging hang metres straight down from
// the TCP. Held objects hang straight down regardless of roll — the
// gripper holds vials by the cap, so gravity keeps them vertical. A
// zero heldLoad (empty part) means nothing intact is held.
type heldLoad struct {
	part   string // "held:<objectID>"
	hang   float64
	radius float64
}

// heldLoadLocked resolves the arm's carried object. A sweep resolves it
// once: nothing a sample checks changes it before the sweep stops.
func (w *World) heldLoadLocked(a *Arm) heldLoad {
	if a.Holding == "" {
		return heldLoad{}
	}
	o, ok := w.objects[a.Holding]
	if !ok || o.Broken {
		return heldLoad{}
	}
	// The capsule's *surface* must end exactly at the object's bottom,
	// so the segment stops one radius short of it.
	hang := o.CarriedHang() - o.RadiusM
	if hang < 0 {
		hang = 0
	}
	return heldLoad{part: "held:" + o.ID, hang: hang, radius: o.RadiusM}
}

// appendLabeled appends the arm's labelled collision volume to dst: the
// chain's link capsules, the finger blade oriented by roll, and the held
// load. The TCP is read off the link capsules' end-effector stub, whose
// anchor carries the same bits as Chain.EndEffector, so no second
// forward pass runs.
func appendLabeled(dst []labeledCapsule, a *Arm, linkCaps []geom.Capsule, roll float64, held heldLoad) []labeledCapsule {
	for _, c := range linkCaps {
		dst = append(dst, labeledCapsule{cap: c, part: "link"})
	}
	tcp := linkCaps[len(linkCaps)-1].Seg.A
	tip := tcp.Add(fingerDirection(roll).Scale(a.FingerDrop))
	dst = append(dst, labeledCapsule{
		cap:  geom.NewCapsule(tcp, tip, a.FingerRadius),
		part: "fingers",
	})
	if held.part != "" {
		bottom := tcp.Add(geom.V(0, 0, -held.hang))
		dst = append(dst, labeledCapsule{
			cap:  geom.NewCapsule(tcp, bottom, held.radius),
			part: held.part,
		})
	}
	return dst
}

// CloseGripper closes the arm's gripper. If an intact object rests at a
// location whose grip point coincides with the current TCP, the object is
// grasped; otherwise the gripper simply closes on air (which is exactly
// what happens in the paper's Bug C family — no sensor reports the
// difference).
func (w *World) CloseGripper(armID string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	a, ok := w.arms[armID]
	if !ok {
		return fmt.Errorf("world: no arm %q", armID)
	}
	w.now += 500 * time.Millisecond
	if a.GripperClosed {
		return nil
	}
	a.GripperClosed = true
	if a.Holding != "" {
		return nil
	}
	tcp, err := a.Profile.Chain.EndEffector(a.Joints)
	if err != nil {
		return fmt.Errorf("world: close gripper on %q: %w", armID, err)
	}
	for _, o := range w.objects {
		if o.Broken || o.At == "" {
			continue
		}
		l, ok := w.locations[o.At]
		if !ok {
			continue
		}
		if l.Pos.Dist(tcp) <= graspTolerance {
			o.HeldBy = armID
			o.At = ""
			a.Holding = o.ID
			return nil
		}
	}
	return nil
}

// OpenGripper opens the arm's gripper. A held object is placed at a free
// location whose grip point coincides with the TCP; with no such location
// beneath it, the object is dropped — glass dropped from height shatters.
func (w *World) OpenGripper(armID string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	a, ok := w.arms[armID]
	if !ok {
		return fmt.Errorf("world: no arm %q", armID)
	}
	w.now += 500 * time.Millisecond
	a.GripperClosed = false
	if a.Holding == "" {
		return nil
	}
	o := w.objects[a.Holding]
	a.Holding = ""
	if o == nil {
		return nil
	}
	o.HeldBy = ""
	tcp, err := a.Profile.Chain.EndEffector(a.Joints)
	if err != nil {
		return fmt.Errorf("world: open gripper on %q: %w", armID, err)
	}
	for name, l := range w.locations {
		if l.Pos.Dist(tcp) > graspTolerance {
			continue
		}
		if _, occupied := w.objectAtLocked(name); occupied {
			continue
		}
		o.At = name
		return nil
	}
	// No location underneath: the object falls.
	dropHeight := tcp.Z - o.CarriedHang() - w.floorZ
	if dropHeight > 0.02 {
		o.Broken = true
		w.recordEvent(EventDrop, SeverityMediumLow,
			fmt.Sprintf("arm %s released %s mid-air; it fell %.2f m and shattered", armID, o.ID, dropHeight),
			armID, o.ID)
		return nil
	}
	// Released at deck level outside any slot: contents may spill but the
	// glass survives; treat as a spill of any contents.
	if !o.IsEmpty() && !o.Capped {
		w.recordEvent(EventSpill, SeverityLow,
			fmt.Sprintf("%s tipped over on the deck and spilled", o.ID), armID, o.ID)
		o.SolidMg, o.LiquidML = 0, 0
	}
	o.At = ""
	return nil
}

// Precision returns the Cartesian error of the arm's last completed move
// (commanded vs achieved TCP), the paper's "device precision" notion.
func (a *Arm) Precision() float64 {
	if a.commandedTCP == (geom.Vec3{}) && a.actualTCP == (geom.Vec3{}) {
		return 0
	}
	return a.commandedTCP.Dist(a.actualTCP)
}
