package state

// View is the read side of a state assignment. Both the flat Snapshot
// and the layered Overlay satisfy it; rule preconditions and snapshot
// comparison are written against View so the engine can evaluate them
// over a copy-on-write expectation without materializing it.
type View interface {
	// Get returns the value and whether it is present.
	Get(k Key) (Value, bool)
	// GetBool returns the boolean coercion of a key, false when absent.
	GetBool(k Key) bool
	// GetString returns the string value of a key, "" when absent or
	// non-string.
	GetString(k Key) string
	// Range calls fn for every variable until fn returns false. A key is
	// visited at most once; iteration order is unspecified.
	Range(fn func(Key, Value) bool)
}

// Store is a mutable View. The transition table writes S_expected
// through this interface, so it can target either a cloned Snapshot or
// an Overlay layered over the live model.
type Store interface {
	View
	Set(k Key, v Value)
	Delete(k Key)
}

var (
	_ Store = Snapshot{}
	_ Store = (*Overlay)(nil)
)

// Overlay is a copy-on-write layer over a base view: reads fall through
// to the base, writes and deletes land in the layer. The engine builds
// S_expected as an Overlay over S_current, so computing and committing an
// expectation allocates proportionally to the command's effects instead
// of the whole deck's state.
//
// An Overlay is not safe for concurrent use, and reads are only as
// stable as its base: callers who share the base map across goroutines
// must hold their own lock around Overlay reads.
type Overlay struct {
	base View
	mods Snapshot
	dels map[Key]bool
}

// NewOverlay layers an empty copy-on-write overlay over base.
func NewOverlay(base View) *Overlay {
	return &Overlay{base: base, mods: Snapshot{}}
}

// Base returns the view the overlay is layered over.
func (o *Overlay) Base() View { return o.base }

// Get implements View.
func (o *Overlay) Get(k Key) (Value, bool) {
	if v, ok := o.mods[k]; ok {
		return v, true
	}
	if o.dels[k] {
		return Value{}, false
	}
	return o.base.Get(k)
}

// GetBool implements View.
func (o *Overlay) GetBool(k Key) bool {
	v, ok := o.Get(k)
	return ok && v.AsBool()
}

// GetString implements View.
func (o *Overlay) GetString(k Key) string {
	if v, ok := o.Get(k); ok && v.Kind == KindString {
		return v.S
	}
	return ""
}

// Set implements Store: the write lands in the overlay's own layer.
func (o *Overlay) Set(k Key, v Value) {
	delete(o.dels, k)
	o.mods[k] = v
}

// Delete implements Store: the base is untouched; the overlay merely
// stops reporting the key.
func (o *Overlay) Delete(k Key) {
	delete(o.mods, k)
	if o.dels == nil {
		o.dels = map[Key]bool{}
	}
	o.dels[k] = true
}

// Range implements View: base variables not shadowed by the layer, then
// the layer's own writes.
func (o *Overlay) Range(fn func(Key, Value) bool) {
	stopped := false
	o.base.Range(func(k Key, v Value) bool {
		if o.dels[k] {
			return true
		}
		if _, shadowed := o.mods[k]; shadowed {
			return true
		}
		if !fn(k, v) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	for k, v := range o.mods {
		if !fn(k, v) {
			return
		}
	}
}

// ApplyTo writes the overlay's accumulated edits — and those of any
// overlay layers beneath it, bottom-up — into dst. The Snapshot at the
// bottom of the chain is NOT copied: ApplyTo is the commit operation for
// an expectation layered over the live model, where dst is that very
// model and copying it into itself would be wasted work.
func (o *Overlay) ApplyTo(dst Snapshot) {
	if base, ok := o.base.(*Overlay); ok {
		base.ApplyTo(dst)
	}
	for k := range o.dels {
		delete(dst, k)
	}
	for k, v := range o.mods {
		dst[k] = v
	}
}

// RangeEdits visits the overlay's accumulated edits — and those of any
// overlay layers beneath it, bottom-up, the order ApplyTo commits them —
// without touching the base snapshot at the bottom. Sets are reported
// with present=true and the value; deletes with present=false. fn
// returning false stops the walk. Commit paths use this to inspect what
// an expectation is about to change (deck-epoch invalidation) while
// applying it.
func (o *Overlay) RangeEdits(fn func(k Key, v Value, present bool) bool) {
	if base, ok := o.base.(*Overlay); ok {
		stopped := false
		base.RangeEdits(func(k Key, v Value, present bool) bool {
			if !fn(k, v, present) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
	for k := range o.dels {
		if !fn(k, Value{}, false) {
			return
		}
	}
	for k, v := range o.mods {
		if !fn(k, v, true) {
			return
		}
	}
}

// HasDeletes reports whether the overlay, or any overlay layer beneath
// it, deletes a key — whether committing it can shrink the key set.
func (o *Overlay) HasDeletes() bool {
	for {
		if len(o.dels) > 0 {
			return true
		}
		base, ok := o.base.(*Overlay)
		if !ok {
			return false
		}
		o = base
	}
}

// Materialize flattens any view into a standalone Snapshot.
func Materialize(v View) Snapshot {
	if s, ok := v.(Snapshot); ok {
		return s.Clone()
	}
	out := Snapshot{}
	v.Range(func(k Key, val Value) bool {
		out[k] = val
		return true
	})
	return out
}
