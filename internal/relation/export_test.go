package relation

import "expdb/internal/xtime"

// Snapshot returns a new relation holding exactly expτ(R): a private copy
// of the store that shares r's immutable tuples.
func (r *Relation) Snapshot(tau xtime.Time) *Relation {
	out := &Relation{order: lockSeq.Add(1), schema: r.schema, slots: r.slots, free: r.free, floor: r.effTau(tau), shared: true}
	out.detach()
	out.floor = 0
	return out
}

// Keyed reports whether r has derived its key set.
func (r *Relation) Keyed() bool { return r.set.Made() }

// ShapeError describes how r's store breaks its invariants — a hole off the
// free list, a free slot that is not a hole, a key set that does not file
// every row under its own slot, more than 2×rows + slack slots — or is ""
// when it keeps them.
func (r *Relation) ShapeError() string {
	holes := 0
	for _, row := range r.slots {
		if row.Texp == hole {
			holes++
		}
	}
	for _, s := range r.free {
		if r.slots[s].Texp != hole {
			return "a free slot holds a row"
		}
	}
	switch {
	case holes != len(r.free):
		return "holes and free list differ"
	case len(r.slots) > 2*r.count()+slack:
		return "store past 2×rows + slack"
	case r.set.Made() && r.set.Len() != r.count():
		return "key set does not name every row"
	}
	for i, row := range r.slots {
		if row.Texp == hole || !r.set.Made() {
			continue
		}
		if s, _, ok := find(r, row.Tuple.AppendKey(nil)); !ok || s != slot(i) {
			return "key set names the wrong slot"
		}
	}
	return ""
}

// Dense reports whether s is a bitmap over its span.
func (s *IntSet) Dense() bool { return s.bits != nil }
