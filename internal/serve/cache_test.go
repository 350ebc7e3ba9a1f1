package serve

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/ml/dataset"
	"github.com/wanify/wanify/internal/ml/rf"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/optimize"
	"github.com/wanify/wanify/internal/predict"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/substrate"
)

// trainTestModel fits a small but real model, deterministic per seed.
func trainTestModel(t testing.TB, seed uint64) *predict.Model {
	t.Helper()
	ds, _ := dataset.Generate(dataset.GenConfig{Sizes: []int{3, 4}, DrawsPerSize: 2, Seed: seed})
	m, err := predict.Train(ds, predict.TrainConfig{Forest: rf.Config{NumTrees: 10, Seed: seed}})
	if err != nil {
		t.Fatalf("training test model: %v", err)
	}
	return m
}

func TestModelCacheLRUEvictionOrder(t *testing.T) {
	c := NewModelCache(CacheConfig{Capacity: 2})
	m := trainTestModel(t, 1)
	c.Put(1, m)
	c.Put(2, m)
	if _, ok := c.Get(1); !ok { // 1 becomes most recently used
		t.Fatalf("warm entry missing")
	}
	c.Put(3, m) // capacity 2: evicts 2, the least recently used
	if _, ok := c.Get(2); ok {
		t.Fatalf("LRU entry 2 survived eviction")
	}
	for _, fp := range []uint64{1, 3} {
		if _, ok := c.Get(fp); !ok {
			t.Fatalf("entry %d wrongly evicted", fp)
		}
	}
	if got := c.Stats().Evictions; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
}

func TestModelCacheTTLExpiry(t *testing.T) {
	now := 0.0
	c := NewModelCache(CacheConfig{Capacity: 4, TTLSeconds: 100, Now: func() float64 { return now }})
	c.Put(7, trainTestModel(t, 1))
	now = 50
	if _, ok := c.Get(7); !ok {
		t.Fatalf("entry expired before its TTL")
	}
	now = 151 // 151 - 0 > 100: stored-at clock, not touch time
	if _, ok := c.Get(7); ok {
		t.Fatalf("entry survived past its TTL")
	}
	if c.Len() != 0 {
		t.Fatalf("expired entry still resident")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 eviction and 1 miss from expiry", st)
	}
}

func TestModelCacheWithoutTTLOnlyCapacityEvicts(t *testing.T) {
	// Capacity and TTL are the cache's two triggers: with TTL off, an
	// entry stays however far the simulated clock runs, until capacity
	// pushes it out.
	now := 0.0
	c := NewModelCache(CacheConfig{Capacity: 2, Now: func() float64 { return now }})
	m := trainTestModel(t, 1)
	c.Put(1, m)
	for _, now = range []float64{1, 1e6, 1e12} {
		if got, ok := c.Get(1); !ok || got != m {
			t.Fatalf("at t=%v: entry lost without a TTL", now)
		}
	}
	c.Put(2, m)
	c.Get(1)
	c.Put(3, m) // capacity 2: evicts 2, since 1 was read more recently
	if _, ok := c.Get(2); ok {
		t.Fatalf("capacity did not evict the least recently used entry")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Hits != 4 {
		t.Fatalf("stats = %+v, want 4 hits and 1 eviction", st)
	}
}

func TestModelCachePutRefreshesEntry(t *testing.T) {
	// Re-putting a resident key replaces its model and restarts its TTL
	// clock and LRU position, without an eviction.
	now := 0.0
	c := NewModelCache(CacheConfig{Capacity: 2, TTLSeconds: 100, Now: func() float64 { return now }})
	old, fresh := trainTestModel(t, 1), trainTestModel(t, 2)
	c.Put(1, old)
	c.Put(2, old)
	now = 80
	c.Put(1, fresh) // 1 is now the most recently used, stored at t=80
	if c.Len() != 2 || c.Stats().Evictions != 0 {
		t.Fatalf("re-put changed residency: len %d, stats %+v", c.Len(), c.Stats())
	}
	now = 150 // past 2's TTL (stored at 0), inside 1's (stored at 80)
	if got, ok := c.Get(1); !ok || got != fresh {
		t.Fatalf("re-put entry: got %p (hit %v), want the fresh model %p", got, ok, fresh)
	}
	c.Put(3, old) // evicts 2, the least recently used
	if _, ok := c.Get(2); ok {
		t.Fatalf("entry 2 outlived both its LRU position and its TTL")
	}
	if _, ok := c.Get(1); !ok {
		t.Fatalf("refreshed entry evicted")
	}
	now = 181 // 181 - 80 > 100
	if _, ok := c.Get(1); ok {
		t.Fatalf("refreshed entry survived past its own TTL")
	}
}

func TestFingerprintStableAcrossIdenticalSnapshots(t *testing.T) {
	// Two separately built clusters with the same seed, advanced to the
	// same instant, snapshotted with the same derived noise stream,
	// must fingerprint identically — the property that makes the cache
	// key a regime identity rather than a per-snapshot serial number.
	fps := make([]uint64, 2)
	for k := range fps {
		sim := netsim.NewSim(netsim.UniformCluster(geo.TestbedSubset(4), substrate.T2Medium, 42))
		sim.RunUntil(300)
		feats, _ := dataset.SnapshotFeatures(sim, simrand.Derive(42, "fp-test"))
		fps[k] = predict.Fingerprint(feats, 0)
	}
	if fps[0] != fps[1] {
		t.Fatalf("identical snapshots fingerprinted %x vs %x", fps[0], fps[1])
	}
}

func TestModelCacheConcurrentAccess(t *testing.T) {
	// Hammer Get/Put from many goroutines; -race is the assertion.
	c := NewModelCache(CacheConfig{Capacity: 3})
	m := trainTestModel(t, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				fp := uint64(i % 5)
				if i%3 == 0 {
					c.Put(fp, m)
				} else {
					c.Get(fp)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 3 {
		t.Fatalf("cache overflowed its capacity: %d entries", c.Len())
	}
}

func TestCacheHitMatchesRetrainByteIdentical(t *testing.T) {
	// The contract the serving layer relies on: serving a cached model
	// and retraining from the same fingerprint must produce the same
	// plan, byte for byte. Train is deterministic per fingerprint, so
	// a hit (model A) and a miss-retrain (model B) predict identical
	// matrices and optimize to identical windows.
	train := func(fp uint64) *predict.Model { return trainTestModel(t, 77^fp) }
	const fp = 0xbeef

	sim := netsim.NewSim(netsim.UniformCluster(geo.TestbedSubset(4), substrate.T2Medium, 7))
	sim.RunUntil(200)
	feats, _ := dataset.SnapshotFeatures(sim, simrand.Derive(7, "plan-test"))

	planFor := func(m *predict.Model) (bwmatrix.Matrix, optimize.Plan) {
		pred := m.PredictMatrix(feats)
		return pred, optimize.GlobalOptimize(pred, optimize.Options{})
	}

	cached := train(fp) // what the cache would serve on a hit
	retrained := train(fp)
	if cached == retrained {
		t.Fatalf("test setup: want two independent model instances")
	}
	predA, planA := planFor(cached)
	predB, planB := planFor(retrained)
	if !reflect.DeepEqual(predA, predB) {
		t.Fatalf("cache-hit vs retrain predicted different matrices")
	}
	if !reflect.DeepEqual(planA, planB) {
		t.Fatalf("cache-hit vs retrain optimized different plans")
	}
}

func TestModelCacheStatsCount(t *testing.T) {
	c := NewModelCache(CacheConfig{Capacity: 2})
	m := trainTestModel(t, 1)
	if _, ok := c.Get(1); ok {
		t.Fatalf("empty cache hit")
	}
	c.Put(1, m)
	c.Get(1)
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit 1 miss", st)
	}
	if got := fmt.Sprintf("%d/%d/%d", st.Hits, st.Misses, st.Evictions); got != "1/1/0" {
		t.Fatalf("counter rendering drifted: %s", got)
	}
}
