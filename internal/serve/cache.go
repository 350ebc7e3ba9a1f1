package serve

import (
	"sync"

	"github.com/wanify/wanify/internal/predict"
)

// ModelCache is the serving layer's trained-model store: an LRU keyed
// by snapshot fingerprint (predict.Fingerprint) with staleness
// eviction. The paper's offline module trains ONE model and the batch
// drivers reuse it per run; a long-running control plane instead meets
// a stream of cluster regimes — diurnal swings, congestion episodes,
// topology changes — and pays a full Random-Forest training run
// whenever it treats one as new. The cache bounds that cost: regimes
// the cluster revisits hit (same quantized fingerprint → same model,
// byte-identical plans), rarely-seen regimes age out of the LRU, and
// two staleness rules evict models that are no longer trustworthy even
// when their key matches:
//
//   - TTL: an entry older than TTLSeconds of SIMULATED time is stale —
//     wall time means nothing on a simulated timeline, so age is
//     measured through the Now hook.
//   - Accuracy: a model whose own §3.3.4 staleness detector trips
//     (predict.Model.NeedsRetrain — observed-error windows exceeding
//     the paper's significance threshold) is evicted on lookup
//     regardless of age. This is the cache's hook into predict's
//     staleness machinery, but nothing feeds it yet: no caller in the
//     tree hands observed rates to predict.Model.ObserveActual, so the
//     flag never trips and in practice only capacity and the TTL
//     evict. Wiring that loop (or deleting it) is ROADMAP item 11.
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
// TTL-expired or accuracy-stale entry is evicted and reported as a
// miss — the caller retrains exactly as if the regime were new.
func (c *ModelCache) Get(fp uint64) (*predict.Model, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[fp]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	if (c.ttl > 0 && c.now()-e.storedAt > c.ttl) || e.model.NeedsRetrain() {
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
