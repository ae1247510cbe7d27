package engine

import "expdb/internal/relation"

// rlockRels read-locks rels, which must already be in LockOrder: a view's
// Bases, or algebra.LockPlan of a plan.
func rlockRels(rels []*relation.Relation) {
	for _, r := range rels {
		r.RLock()
	}
}

// runlockRels releases in reverse acquisition order.
func runlockRels(rels []*relation.Relation) {
	for i := len(rels) - 1; i >= 0; i-- {
		rels[i].RUnlock()
	}
}
