// Package index implements expiration-aware secondary indexes for base
// relations: a hash index for equality probes (also a hash join's build
// side) and an ordered B+tree index for range predicates. Every entry
// carries its tuple's texp, so a probe at tau skips expired entries
// without consulting the base table.
//
// Indexes share the owning relation's immutable tuples. Maintenance runs
// inside the relation's mutators under its write lock, probes under its
// read lock: the package itself is unsynchronised.
package index

import (
	"strings"

	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// Kind distinguishes index organisations.
type Kind uint8

// Index kinds.
const (
	// KindHash answers equality probes on the full column list in O(1).
	KindHash Kind = iota
	// KindOrdered answers range predicates on a prefix of the column
	// list via sorted leaf scans.
	KindOrdered
)

// String returns the SQL spelling (the USING clause argument).
func (k Kind) String() string {
	if k == KindOrdered {
		return "ordered"
	}
	return "hash"
}

// ParseKind parses a USING clause argument (case-insensitive). BTREE is
// accepted as a synonym for ORDERED.
func ParseKind(s string) (Kind, bool) {
	switch strings.ToUpper(s) {
	case "HASH":
		return KindHash, true
	case "ORDERED", "BTREE":
		return KindOrdered, true
	}
	return KindHash, false
}

// Entry is one index entry: the indexed tuple, its full set key (the
// relation's identity for the tuple — unique per index), and its current
// expiration time. A probe at tau emits the entry only while Texp > tau.
type Entry struct {
	Key   string // full set key (relation identity)
	Tuple tuple.Tuple
	Texp  xtime.Time
}

// Index is the maintenance interface relations drive. Probing is
// organisation-specific (Hash.Probe, Ordered.Ascend).
type Index interface {
	// Insert adds an entry for a tuple newly inserted into the relation.
	Insert(e Entry)
	// Update records a texp change for an already-indexed tuple (the
	// set-semantics duplicate-insert extension path).
	Update(key string, t tuple.Tuple, texp xtime.Time)
	// Remove drops the entry for a deleted or expired tuple.
	Remove(key string, t tuple.Tuple)
	// Len reports the number of entries (live and not-yet-removed).
	Len() int
	// Kind reports the organisation.
	Kind() Kind
	// Cols reports the indexed column positions.
	Cols() []int
}

// Hash is the one hash table: a base table's equality index, maintained
// through the Index methods, and the build side of a hash join, filled by
// Insert and read by Lookup. Entries equal on the indexed columns make a
// bucket, filed in a tuple.Set under those columns' set key
// (Tuple.AppendKeyCols), which a probe compares with the columns of the
// bucket's first entry, re-encoded on the stack.
type Hash struct {
	cols    []int
	set     tuple.Set // bucket positions, by the key of their indexed columns
	buckets [][]Entry
	free    []int // positions of the buckets Remove emptied, for new keys
	n       int
}

// NewHash creates an empty hash index over the given column positions.
func NewHash(cols []int) *Hash { return &Hash{cols: append([]int(nil), cols...)} }

// Kind implements Index.
func (h *Hash) Kind() Kind { return KindHash }

// Cols implements Index.
func (h *Hash) Cols() []int { return h.cols }

// Len implements Index.
func (h *Hash) Len() int { return h.n }

// bucket returns the bucket whose indexed columns encode to key, and its hash.
func bucket[K string | []byte](h *Hash, key K) (int, uint64, bool) {
	hk := tuple.Hash(key)
	b, ok := h.set.Find(hk, func(b int) bool {
		var buf [tuple.KeyBuf]byte
		return string(h.buckets[b][0].Tuple.AppendKeyCols(buf[:0], h.cols)) == string(key)
	})
	return b, hk, ok
}

// Insert implements Index. A join's table leaves Entry.Key empty: it is
// never updated or removed from.
func (h *Hash) Insert(e Entry) {
	var buf [tuple.KeyBuf]byte
	i, hk, ok := bucket(h, e.Tuple.AppendKeyCols(buf[:0], h.cols))
	if !ok {
		if n := len(h.free); n > 0 {
			i, h.free = h.free[n-1], h.free[:n-1]
		} else {
			i = len(h.buckets)
			h.buckets = append(h.buckets, nil)
		}
		h.set.Add(hk, i)
	}
	h.buckets[i] = append(h.buckets[i], e)
	h.n++
}

// find returns the hash of t's bucket key, the bucket and its entry of key.
func (h *Hash) find(key string, t tuple.Tuple) (hk uint64, b, i int, ok bool) {
	var buf [tuple.KeyBuf]byte
	if b, hk, ok = bucket(h, t.AppendKeyCols(buf[:0], h.cols)); ok {
		for i := range h.buckets[b] {
			if h.buckets[b][i].Key == key {
				return hk, b, i, true
			}
		}
	}
	return 0, 0, 0, false
}

// Update implements Index.
func (h *Hash) Update(key string, t tuple.Tuple, texp xtime.Time) {
	if _, b, i, ok := h.find(key, t); ok {
		h.buckets[b][i].Texp = texp
		return
	}
	h.Insert(Entry{Key: key, Tuple: t, Texp: texp}) // self-heal: it was never indexed
}

// Remove implements Index. A bucket left empty leaves the set, and the next
// new key takes its position and its array, so keys that come and go leave
// nothing behind and cost no allocation.
func (h *Hash) Remove(key string, t tuple.Tuple) {
	hk, b, i, ok := h.find(key, t)
	if !ok {
		return
	}
	h.n--
	ents := h.buckets[b]
	last := len(ents) - 1
	ents[i], ents[last] = ents[last], Entry{}
	if h.buckets[b] = ents[:last]; last == 0 {
		h.set.Delete(hk, b)
		h.free = append(h.free, b)
	}
}

// Probe emits every entry whose indexed columns encode to probeKey and
// which is alive at tau (Texp > tau). emit returning false stops the
// probe. The bucket walk allocates nothing.
func (h *Hash) Probe(probeKey string, tau xtime.Time, emit func(Entry) bool) {
	b, _, ok := bucket(h, probeKey)
	if !ok {
		return
	}
	for _, e := range h.buckets[b] {
		if e.Texp > tau {
			if !emit(e) {
				return
			}
		}
	}
}

// Lookup returns every entry, alive or not, whose indexed columns equal
// t's columns cols. The key is encoded on the stack, so a lookup allocates
// nothing, and lookups under a read lock share no scratch.
func (h *Hash) Lookup(t tuple.Tuple, cols []int) []Entry {
	var buf [tuple.KeyBuf]byte
	if b, _, ok := bucket(h, t.AppendKeyCols(buf[:0], cols)); ok {
		return h.buckets[b]
	}
	return nil
}

// Ordered is the range index: a B+tree over the indexed column values
// (value.Value.Compare column by column, ties broken by the set key).
// Deletion is relaxed — no merge or rebalance, separators stay valid
// bounds as subtrees only shrink — until empty leaves bloat the tree
// (bound). Range scans walk the leaf chain.
type Ordered struct {
	cols   []int
	root   *onode
	n      int
	leaves int
}

// maxEnts bounds entries per leaf and children per internal node; 64
// keeps nodes around one cache line of pointers while staying shallow.
const maxEnts = 64

type onode struct {
	leaf bool
	ents []Entry  // leaf payload, sorted
	seps []Entry  // internal: seps[i] = min entry of kids[i+1]'s subtree
	kids []*onode // internal children; len(kids) == len(seps)+1
	next *onode   // leaf chain
}

// NewOrdered creates an empty ordered index over the given column
// positions.
func NewOrdered(cols []int) *Ordered { return &Ordered{cols: append([]int(nil), cols...)} }

// Kind implements Index.
func (o *Ordered) Kind() Kind { return KindOrdered }

// Cols implements Index.
func (o *Ordered) Cols() []int { return o.cols }

// Len implements Index.
func (o *Ordered) Len() int { return o.n }

// cmp orders entries by the indexed columns, then by set key.
func (o *Ordered) cmp(a, b Entry) int {
	for _, c := range o.cols {
		if d := a.Tuple[c].Compare(b.Tuple[c]); d != 0 {
			return d
		}
	}
	return strings.Compare(a.Key, b.Key)
}

// cmpBound compares an entry against a prefix bound: only the first
// len(bound) indexed columns participate, so a bound on the leading
// column(s) matches every tiebreak suffix.
func (o *Ordered) cmpBound(e Entry, bound []value.Value) int {
	for i, bv := range bound {
		if d := e.Tuple[o.cols[i]].Compare(bv); d != 0 {
			return d
		}
	}
	return 0
}

// search returns the position of the first entry in ents that is >= e.
func (o *Ordered) search(ents []Entry, e Entry) int {
	lo, hi := 0, len(ents)
	for lo < hi {
		mid := (lo + hi) / 2
		if o.cmp(ents[mid], e) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert implements Index.
func (o *Ordered) Insert(e Entry) {
	if o.root == nil {
		o.root, o.leaves = &onode{leaf: true}, 1
	}
	right, sep := o.insert(o.root, e)
	if right != nil {
		o.root = &onode{seps: []Entry{sep}, kids: []*onode{o.root, right}}
	}
	o.n++
}

// insert descends to the leaf for e, inserts, and splits full nodes on
// the way back up, returning the new right sibling and its minimum entry
// (nil when no split happened).
func (o *Ordered) insert(n *onode, e Entry) (*onode, Entry) {
	if n.leaf {
		i := o.search(n.ents, e)
		n.ents = append(n.ents, Entry{})
		copy(n.ents[i+1:], n.ents[i:])
		n.ents[i] = e
		if len(n.ents) <= maxEnts {
			return nil, Entry{}
		}
		mid := len(n.ents) / 2
		right := &onode{leaf: true, ents: append([]Entry(nil), n.ents[mid:]...), next: n.next}
		n.ents = n.ents[:mid:mid]
		n.next = right
		o.leaves++
		return right, right.ents[0]
	}
	k := o.childFor(n, e)
	right, sep := o.insert(n.kids[k], e)
	if right == nil {
		return nil, Entry{}
	}
	n.seps = append(n.seps, Entry{})
	copy(n.seps[k+1:], n.seps[k:])
	n.seps[k] = sep
	n.kids = append(n.kids, nil)
	copy(n.kids[k+2:], n.kids[k+1:])
	n.kids[k+1] = right
	if len(n.kids) <= maxEnts {
		return nil, Entry{}
	}
	mid := len(n.kids) / 2
	up := n.seps[mid-1]
	r := &onode{
		seps: append([]Entry(nil), n.seps[mid:]...),
		kids: append([]*onode(nil), n.kids[mid:]...),
	}
	n.seps = n.seps[: mid-1 : mid-1]
	n.kids = n.kids[:mid:mid]
	return r, up
}

// childFor picks the subtree that may contain e: the last child whose
// separator is <= e.
func (o *Ordered) childFor(n *onode, e Entry) int {
	lo, hi := 0, len(n.seps)
	for lo < hi {
		mid := (lo + hi) / 2
		if o.cmp(n.seps[mid], e) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// locate returns the leaf that holds the entry of t stored under key, and
// its position there, if the tree has it.
func (o *Ordered) locate(key string, t tuple.Tuple) (*onode, int, bool) {
	e, n := Entry{Key: key, Tuple: t}, o.root
	for n != nil && !n.leaf {
		n = n.kids[o.childFor(n, e)]
	}
	if n == nil {
		return nil, 0, false
	}
	i := o.search(n.ents, e)
	return n, i, i < len(n.ents) && n.ents[i].Key == key
}

// Update implements Index.
func (o *Ordered) Update(key string, t tuple.Tuple, texp xtime.Time) {
	if n, i, ok := o.locate(key, t); ok {
		n.ents[i].Texp = texp
		return
	}
	o.Insert(Entry{Key: key, Tuple: t, Texp: texp}) // self-heal (see Hash.Update)
}

// Remove implements Index.
func (o *Ordered) Remove(key string, t tuple.Tuple) {
	if n, i, ok := o.locate(key, t); ok {
		n.ents = append(n.ents[:i], n.ents[i+1:]...)
		o.n--
		o.bound()
	}
}

// bound rebuilds the tree from its leaf chain, the size of its entries and
// not of its history, once its leaves, counted at the maxEnts/2 entries a
// split leaves, pass 2×entries + 1024 (the slot array's rule). Reinserted
// in order they fill leaves by half: the next rebuild is n/2 + 512 away.
func (o *Ordered) bound() {
	if o.leaves*maxEnts/2 <= 2*o.n+1024 {
		return
	}
	n := o.root
	for !n.leaf {
		n = n.kids[0]
	}
	fresh := Ordered{cols: o.cols}
	for ; n != nil; n = n.next {
		for _, e := range n.ents {
			fresh.Insert(e)
		}
	}
	*o = fresh
}

// Ascend emits, in index order, every entry within the prefix bounds that
// is alive at tau. lo/hi are bounds on the leading index columns (nil =
// unbounded on that side); loInc/hiInc select >=/> and <=/<. emit
// returning false stops the scan.
func (o *Ordered) Ascend(lo []value.Value, loInc bool, hi []value.Value, hiInc bool, tau xtime.Time, emit func(Entry) bool) {
	n := o.root
	if n == nil {
		return
	}
	for !n.leaf {
		n = n.kids[o.lowerChild(n, lo)]
	}
	// Skip entries below the lower bound, then stream until the upper
	// bound is crossed. Entries are sorted, so once the lower bound is
	// satisfied it stays satisfied.
	started := lo == nil
	for ; n != nil; n = n.next {
		for i := range n.ents {
			e := &n.ents[i]
			if !started {
				c := o.cmpBound(*e, lo)
				if c < 0 || (c == 0 && !loInc) {
					continue
				}
				started = true
			}
			if hi != nil {
				c := o.cmpBound(*e, hi)
				if c > 0 || (c == 0 && !hiInc) {
					return
				}
			}
			if e.Texp > tau {
				if !emit(*e) {
					return
				}
			}
		}
	}
}

// lowerChild picks the leftmost subtree that may contain entries at or
// above the prefix bound: the last child whose separator is strictly
// below lo (on separator/prefix ties we go left, which may start the leaf
// walk slightly early but never skips a qualifying entry).
func (o *Ordered) lowerChild(n *onode, lo []value.Value) int {
	if lo == nil {
		return 0
	}
	k := 0
	for k < len(n.seps) && o.cmpBound(n.seps[k], lo) < 0 {
		k++
	}
	return k
}
