package runtime

import (
	"math"
	"testing"

	"github.com/wanify/wanify/internal/bwmatrix"
)

func seededStore(n int, mbps, conf, at float64) *beliefStore {
	m := bwmatrix.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m[i][j] = mbps
			}
		}
	}
	b := newBeliefStore(n)
	b.seed(m, at, conf)
	return b
}

// TestBeliefWeightDecay: the belief's weight halves every half-life
// while its value holds.
func TestBeliefWeightDecay(t *testing.T) {
	b := seededStore(3, 800, 0.5, 0)
	if got := b.weight(0, 1, 0); got != 0.5 {
		t.Errorf("weight at age 0 = %v, want the seeded 0.5", got)
	}
	if got := b.weight(0, 1, 120); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("weight after one half-life = %v, want 0.25", got)
	}
	if got := b.weight(0, 1, 360); math.Abs(got-0.0625) > 1e-12 {
		t.Errorf("weight after three half-lives = %v, want 0.0625", got)
	}
	if got := b.value(0, 1); got != 800 {
		t.Errorf("value decayed to %v; staleness must decay weight, not value", got)
	}
}

// TestBeliefBlackoutFloor: an unseeded or zero-valued belief reads as
// the 1 Mbps blackout belief, never zero, and fusion cannot go below
// the floor either.
func TestBeliefBlackoutFloor(t *testing.T) {
	b := newBeliefStore(3)
	if got := b.value(0, 1); got != blackoutFloorMbps {
		t.Errorf("unseeded value = %v, want the %v Mbps floor", got, blackoutFloorMbps)
	}
	if got := b.fuse(0, 1, 0, 1, 0); got != blackoutFloorMbps {
		t.Errorf("fusing a zero reading = %v, want floored at %v", got, blackoutFloorMbps)
	}
}

// TestBeliefFusionBlend: fusing a fresh confident reading with a
// decayed prior lands at the confidence-weighted average, and the
// stored confidence is the probabilistic union of the weights.
func TestBeliefFusionBlend(t *testing.T) {
	b := seededStore(3, 1000, 0.5, 0)
	// One half-life later the prior weighs 0.25; a confidence-1 sample
	// of 400 Mbps fuses to (1*400 + 0.25*1000) / 1.25 = 520.
	got := b.fuse(0, 1, 400, 1, 120)
	if math.Abs(got-520) > 1e-9 {
		t.Errorf("fused = %v, want 520", got)
	}
	if c := b.conf[0][1]; c != 1 {
		t.Errorf("stored confidence = %v, want capped at 1", c)
	}
	if at := b.at[0][1]; at != 120 {
		t.Errorf("observation time = %v, want 120", at)
	}
	// A second low-confidence sample right away: prior weight is now 1.
	got = b.fuse(0, 1, 100, 0.2, 120)
	want := (0.2*100 + 1*520) / 1.2
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("low-confidence refuse = %v, want %v", got, want)
	}
}

// TestBeliefConfidenceConverges: repeated low-confidence samples drive
// the stored confidence up (probabilistic union), not down.
func TestBeliefConfidenceConverges(t *testing.T) {
	b := seededStore(3, 500, 0.1, 0)
	prev := b.conf[0][1]
	for k := 0; k < 5; k++ {
		b.fuse(0, 1, 500, 0.3, 0)
		if b.conf[0][1] < prev {
			t.Fatalf("confidence fell from %v to %v on a fresh sample", prev, b.conf[0][1])
		}
		prev = b.conf[0][1]
	}
	if prev <= 0.5 {
		t.Errorf("confidence after 5 samples = %v, want converging toward 1", prev)
	}
}
