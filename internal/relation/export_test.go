package relation

// Keyed reports whether r has derived its key map.
func (r *Relation) Keyed() bool { return r.keys != nil }

// ShapeError describes how r's store breaks its invariants — a hole off the
// free list, a free slot that is not a hole, a key map that does not name
// every row, more than 2×rows + slack slots — or is "" when it keeps them.
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
	case r.keys != nil && len(r.keys) != r.count():
		return "key map does not name every row"
	}
	for k, s := range r.keys {
		if r.slots[s].Texp == hole || r.slots[s].Tuple.Key() != k {
			return "key map names the wrong slot"
		}
	}
	return ""
}
