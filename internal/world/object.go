package world

import (
	"fmt"
	"sort"

	"repro/internal/geom"
)

// Object is a movable container on the deck — a vial, beaker, or test
// tube. Its position is one of: resting at a named location, held by an
// arm's gripper, or destroyed.
type Object struct {
	ID string
	// HeightM is the container height; when gripped at the cap, the
	// container hangs HeightM + gripClearance below the arm's tool
	// centre point — the dimension the paper's modified RABIT learned to
	// account for.
	HeightM float64
	// RadiusM is the container radius.
	RadiusM float64
	// CapacityMg / CapacityML bound the contents.
	CapacityMg float64
	CapacityML float64
	// SolidMg / LiquidML are the current contents.
	SolidMg  float64
	LiquidML float64
	// Capped reports whether the stopper is on.
	Capped bool
	// Broken is latched when the glassware shatters.
	Broken bool

	// At is the named location the object rests at ("" while held or
	// after breaking).
	At string
	// HeldBy is the arm holding the object ("" when resting).
	HeldBy string
}

// gripClearance is the extra hang between the tool centre point and the
// container top when gripped at the cap.
const gripClearance = 0.01

// liftEpsilon is how far the gripper raises a grasped container relative
// to its resting pose (grip compression): lifting a vial off a rack does
// not instantly scrape the rack it rested on.
const liftEpsilon = 0.005

// CarriedHang returns how far the object's bottom hangs below the TCP
// while gripped — the dimension the paper's modified RABIT learned to add
// to the arm's own geometry.
func (o *Object) CarriedHang() float64 { return o.HeightM + gripClearance - liftEpsilon }

// HasSolid reports whether the container holds any solid.
func (o *Object) HasSolid() bool { return o.SolidMg > 0 }

// HasLiquid reports whether the container holds any liquid.
func (o *Object) HasLiquid() bool { return o.LiquidML > 0 }

// IsEmpty reports whether the container is completely empty.
func (o *Object) IsEmpty() bool { return !o.HasSolid() && !o.HasLiquid() }

// AddObject registers a container resting at the named location.
func (w *World) AddObject(o *Object) error {
	if o == nil || o.ID == "" {
		return fmt.Errorf("world: object must have an ID")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.objects[o.ID]; dup {
		return fmt.Errorf("world: duplicate object %q", o.ID)
	}
	if o.At != "" {
		if _, ok := w.locations[o.At]; !ok {
			return fmt.Errorf("world: object %q placed at unknown location %q", o.ID, o.At)
		}
		for _, other := range w.objects {
			if other.At == o.At {
				return fmt.Errorf("world: location %q already occupied by %q", o.At, other.ID)
			}
		}
	}
	w.objects[o.ID] = o
	return nil
}

// Object returns the object by ID.
func (w *World) Object(id string) (*Object, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	o, ok := w.objects[id]
	return o, ok
}

// ObjectIDs returns all object IDs, sorted.
func (w *World) ObjectIDs() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	ids := make([]string, 0, len(w.objects))
	for id := range w.objects {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// ObjectAtLocation returns the object resting at the named location, if
// any.
func (w *World) ObjectAtLocation(loc string) (*Object, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.objectAtLocked(loc)
}

func (w *World) objectAtLocked(loc string) (*Object, bool) {
	for _, o := range w.objects {
		if o.At == loc && !o.Broken {
			return o, true
		}
	}
	return nil, false
}

// ObjectInsideFixture returns the (first) intact object resting at a
// location inside the given fixture.
func (w *World) ObjectInsideFixture(fixtureID string) (*Object, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.objectInsideLocked(fixtureID)
}

func (w *World) objectInsideLocked(fixtureID string) (*Object, bool) {
	for _, o := range w.objects {
		if o.Broken || o.At == "" {
			continue
		}
		if l, ok := w.locations[o.At]; ok && l.Owner == fixtureID && l.Inside {
			return o, true
		}
	}
	return nil, false
}

// objectBoxAtLocked returns the global AABB of an object resting at its
// location (callers hold w.mu).
func (w *World) objectBoxAtLocked(o *Object) (geom.AABB, bool) {
	if o.At == "" {
		return geom.AABB{}, false
	}
	l, ok := w.locations[o.At]
	if !ok {
		return geom.AABB{}, false
	}
	// The location's Pos is the TCP grip point: the object top sits just
	// below it.
	top := l.Pos.Z - gripClearance
	c := geom.V(l.Pos.X, l.Pos.Y, top-o.HeightM/2)
	return geom.BoxAt(c, geom.V(2*o.RadiusM, 2*o.RadiusM, o.HeightM)), true
}

// SetCap physically caps or uncaps a container (performed by a decapper
// device or by hand in the workflows).
func (w *World) SetCap(objectID string, capped bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	o, ok := w.objects[objectID]
	if !ok {
		return fmt.Errorf("world: no object %q", objectID)
	}
	if o.Broken {
		return fmt.Errorf("world: object %q is broken", objectID)
	}
	o.Capped = capped
	return nil
}
