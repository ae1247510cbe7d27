//go:build !expdbcollide

package tuple

import "hash/maphash"

var seed = maphash.MakeSeed()

// Hash returns the hash a Set files a set key (AppendKey, Key) under.
func Hash[K string | []byte](key K) uint64 {
	if s, ok := any(key).(string); ok {
		return maphash.String(seed, s)
	}
	return maphash.Bytes(seed, any(key).([]byte))
}
