//go:build expdbcollide

package tuple

import "hash/maphash"

var seed = maphash.MakeSeed()

// Hash is hash.go's hash folded to one of four values, so that most keys
// collide: the twin tests build with -tags expdbcollide.
func Hash[K string | []byte](key K) uint64 { return maphash.String(seed, string(key)) & (3 << 62) }
