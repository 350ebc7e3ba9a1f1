package serve

import (
	"sync"

	"github.com/wanify/wanify/internal/predict"
)

// ModelCache is the serving layer's trained-model store: an LRU keyed
// by snapshot fingerprint (predict.Fingerprint). The paper's offline
// module trains ONE model and the batch drivers reuse it per run; a
// long-running control plane instead meets a stream of cluster regimes
// — diurnal swings, congestion episodes, topology changes — and pays a
// full Random-Forest training run whenever it treats one as new. The
// cache bounds that cost: regimes the cluster revisits hit (same
// quantized fingerprint → same model, byte-identical plans). Two
// triggers evict:
//
//   - Capacity: past Capacity resident models, the least recently used
//     one goes, so rarely-seen regimes age out.
//   - TTL: an entry older than TTLSeconds of SIMULATED time is stale
//     even when its key matches, and the regime retrains — wall time
//     means nothing on a simulated timeline, so age is measured through
//     the Now hook.
//
// Together with the plane's RefreshS fingerprint refresh this is the
// serving layer's one model-freshness path.
//
// All methods are safe for concurrent use: the simulated control plane
// is single-timeline, but the HTTP layer and tests (-race) reach the
// cache from other goroutines.
type ModelCache struct {
	mu      sync.Mutex
	cap     int
	ttl     float64
	now     func() float64
	entries map[uint64]*cacheEntry
	order   []uint64 // LRU order, oldest first
	stats   CacheStats
}

type cacheEntry struct {
	model    *predict.Model
	storedAt float64
}

// CacheConfig configures a ModelCache.
type CacheConfig struct {
	// Capacity bounds resident models (default 4).
	Capacity int
	// TTLSeconds expires entries older than this much simulated time;
	// 0 disables TTL eviction.
	TTLSeconds float64
	// Now reads the current simulated time. Required when TTLSeconds is
	// set; defaults to a zero clock otherwise.
	Now func() float64
}

// NewModelCache builds an empty cache.
func NewModelCache(cfg CacheConfig) *ModelCache {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4
	}
	if cfg.Now == nil {
		cfg.Now = func() float64 { return 0 }
	}
	return &ModelCache{
		cap:     cfg.Capacity,
		ttl:     cfg.TTLSeconds,
		now:     cfg.Now,
		entries: make(map[uint64]*cacheEntry),
	}
}

// CacheStats counts cache outcomes since construction.
type CacheStats struct {
	Hits      int `json:"hits"`
	Misses    int `json:"misses"`
	Evictions int `json:"evictions"`
}

// Get returns the model cached under fp, or (nil, false) on a miss. A
// TTL-expired entry is evicted and reported as a miss — the caller
// retrains exactly as if the regime were new.
func (c *ModelCache) Get(fp uint64) (*predict.Model, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[fp]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	if c.ttl > 0 && c.now()-e.storedAt > c.ttl {
		c.remove(fp)
		c.stats.Evictions++
		c.stats.Misses++
		return nil, false
	}
	c.touch(fp)
	c.stats.Hits++
	return e.model, true
}

// Put stores a model under fp, evicting the least-recently-used entry
// when the cache is full. Re-putting an existing key refreshes its
// model, its TTL clock, and its LRU position.
func (c *ModelCache) Put(fp uint64, m *predict.Model) {
	if m == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[fp]; ok {
		c.entries[fp] = &cacheEntry{model: m, storedAt: c.now()}
		c.touch(fp)
		return
	}
	if len(c.order) >= c.cap {
		c.remove(c.order[0])
		c.stats.Evictions++
	}
	c.entries[fp] = &cacheEntry{model: m, storedAt: c.now()}
	c.order = append(c.order, fp)
}

// Len reports resident entries.
func (c *ModelCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns the outcome counters.
func (c *ModelCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// touch moves fp to the most-recently-used end. Caller holds mu.
func (c *ModelCache) touch(fp uint64) {
	for i, k := range c.order {
		if k == fp {
			c.order = append(append(c.order[:i], c.order[i+1:]...), fp)
			return
		}
	}
}

// remove deletes fp from the map and the order list. Caller holds mu.
func (c *ModelCache) remove(fp uint64) {
	delete(c.entries, fp)
	for i, k := range c.order {
		if k == fp {
			c.order = append(c.order[:i], c.order[i+1:]...)
			return
		}
	}
}
