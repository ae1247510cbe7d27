package tuple

import "math/bits"

// Set is the one set over tuple identity: an open-addressed table of
// positions into storage its owner keeps — a relation's slots, a hash
// index's buckets, a GROUP BY's partitions. An entry is the upper half of
// a set key's Hash, its tag, beside a position. No key is stored: the
// owner's eq decides equality by re-encoding what it keeps at a position
// whose tag matches. Probes start at the bucket a tag's top bits name, so
// growing and deleting need the tags alone. The zero Set is empty.
type Set struct {
	table []uint64 // tag<<32 | position+1; 0 is empty
	shift uint8    // a tag's bucket is tag >> shift
	n     int
}

// MakeSet returns an empty Set with room for n positions.
func MakeSet(n int) Set {
	size := 8
	for size*3 < n*4 { // at most three quarters full
		size <<= 1
	}
	return Set{table: make([]uint64, size), shift: uint8(32 - bits.TrailingZeros(uint(size)))}
}

// Made reports whether s has a table yet; Len, how many positions it holds.
func (s *Set) Made() bool { return s.table != nil }
func (s *Set) Len() int   { return s.n }

// Find returns the position filed under hash h that eq reports equal.
func (s *Set) Find(h uint64, eq func(pos int) bool) (int, bool) {
	if s.n == 0 {
		return 0, false
	}
	t, tag := s.table, h>>32
	for i := s.bucket(h); t[i] != 0; i = (i + 1) & (len(t) - 1) {
		if e := t[i]; e>>32 == tag && eq(int(uint32(e))-1) {
			return int(uint32(e)) - 1, true
		}
	}
	return 0, false
}

func (s *Set) bucket(h uint64) int { return int(h >> 32 >> s.shift) }

// Add files pos under hash h; s holds no equal key.
func (s *Set) Add(h uint64, pos int) {
	s.Grow(1)
	s.put(h>>32<<32 | (uint64(pos) + 1))
}

// Grow makes room for n more positions.
func (s *Set) Grow(n int) {
	if (s.n+n)*4 > len(s.table)*3 {
		old := s.table
		*s = MakeSet(s.n + n)
		for _, e := range old {
			if e != 0 {
				s.put(e)
			}
		}
	}
}

func (s *Set) put(e uint64) {
	i := s.bucket(e)
	for s.table[i] != 0 {
		i = (i + 1) & (len(s.table) - 1)
	}
	s.table[i], s.n = e, s.n+1
}

// Delete removes pos, filed under hash h, leaving no tombstone: each later
// entry of its run whose bucket is not between the gap and it moves back.
func (s *Set) Delete(h uint64, pos int) {
	if s.n == 0 {
		return
	}
	e, mask := h>>32<<32|(uint64(pos)+1), len(s.table)-1
	i := s.bucket(h)
	for ; s.table[i] != e; i = (i + 1) & mask {
		if s.table[i] == 0 {
			return
		}
	}
	for j := (i + 1) & mask; s.table[j] != 0; j = (j + 1) & mask {
		if (j-s.bucket(s.table[j]))&mask >= (j-i)&mask {
			s.table[i], i = s.table[j], j
		}
	}
	s.table[i], s.n = 0, s.n-1
}
