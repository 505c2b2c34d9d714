package core

import (
	"fmt"
	"sync/atomic"
)

// pairCache is a direct-mapped (u,v)→answer cache for the query engine's hot
// pairs. Each slot is one atomic 64-bit word:
//
//	slot = key<<2 | answer<<1 | 1
//
// with key = min(u,v)<<31 | max(u,v) (vertices are below 2^31, so the key is
// unique and fits 62 bits and the packed slot exactly 64). The low valid bit
// distinguishes the empty slot from key 0; because the full key is embedded,
// a lost race between two concurrent stores to the same slot can only leave
// one of the two correct entries — never a key answering for a different
// pair — so reads and writes need no locks and no versioning. Entries are
// evicted only by collision (direct-mapped), which is exactly the behavior
// wanted for Zipf-skewed traffic: the hot pairs pin their slots.
type pairCache struct {
	slots []atomic.Uint64
	mask  uint64
}

func newPairCache(bits int) *pairCache {
	return &pairCache{slots: make([]atomic.Uint64, 1<<bits), mask: 1<<bits - 1}
}

// pairCacheKey canonicalizes an unordered pair (adjacency is symmetric, so
// (u,v) and (v,u) share an entry). Callers guarantee 0 <= u,v < n <= 2^31.
func pairCacheKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<31 | uint64(v)
}

// index spreads the key with the splitmix64 finalizer; without it,
// direct-mapping on the low bits would collide every pair sharing a low
// vertex id — precisely the hub pairs the cache exists for.
func (c *pairCache) index(key uint64) uint64 {
	h := key
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h & c.mask
}

func (c *pairCache) get(key uint64) (ans, hit bool) {
	s := c.slots[c.index(key)].Load()
	if s&1 == 1 && s>>2 == key {
		return s&2 != 0, true
	}
	return false, false
}

func (c *pairCache) put(key uint64, ans bool) {
	s := key<<2 | 1
	if ans {
		s |= 2
	}
	c.slots[c.index(key)].Store(s)
}

// maxCacheBits caps the cache at 2^28 slots (2 GiB of slots is past any
// sensible configuration; the cap mostly guards against a mistyped flag).
const maxCacheBits = 28

// EnableResultCache attaches a direct-mapped result cache of 2^bits slots
// (8·2^bits bytes) probed before the slab on every query; bits <= 0
// detaches. Like AttachMetrics it must be called before the engine is shared
// across goroutines — afterwards the cache itself is safe under any number
// of concurrent readers and writers, including concurrent batches. Hits and
// misses are tallied into the attached EngineMetrics
// (engine_cache_{hits,misses}_total). The hot path stays allocation-free:
// the cache is allocated here, once.
//
// The cache serves read-only engines; answers are inserted after a
// successful probe and never invalidated, which is sound because a
// QueryEngine's labeling is immutable.
func (e *QueryEngine) EnableResultCache(bits int) error {
	if bits <= 0 {
		e.cache = nil
		return nil
	}
	if bits > maxCacheBits {
		return fmt.Errorf("core: result cache of 2^%d slots (max 2^%d)", bits, maxCacheBits)
	}
	if e.n > 1<<31 {
		return fmt.Errorf("core: result cache keys pack 31-bit vertex ids, engine has %d vertices", e.n)
	}
	e.cache = newPairCache(bits)
	return nil
}
