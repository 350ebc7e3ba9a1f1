package geo

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// TestTestbedShape checks the canonical 8-region deployment.
func TestTestbedShape(t *testing.T) {
	tb := Testbed()
	if len(tb) != 8 {
		t.Fatalf("testbed has %d regions, want 8", len(tb))
	}
	if tb[0] != USEast || tb[3] != APSE || tb[7] != SAEast {
		t.Errorf("testbed order changed: %v", tb)
	}
	codes := map[string]bool{}
	for _, r := range tb {
		if codes[r.Code] {
			t.Errorf("duplicate region code %s", r.Code)
		}
		codes[r.Code] = true
		if r.Provider != "aws" {
			t.Errorf("region %s provider = %q, want aws", r.Name, r.Provider)
		}
	}
}

// TestKnownDistances checks a few well-known great-circle distances
// within tolerance.
func TestKnownDistances(t *testing.T) {
	cases := []struct {
		a, b   Region
		wantKm float64
		tolKm  float64
	}{
		{USEast, USWest, 3870, 200}, // Virginia - N. California
		{USEast, APSE, 15540, 500},  // Virginia - Singapore
		{USEast, EUWest, 5470, 300}, // Virginia - Dublin
		{APSE, APSE2, 6300, 400},    // Singapore - Sydney
		{SAEast, EUWest, 9400, 500}, // Sao Paulo - Dublin
	}
	for _, c := range cases {
		got := DistanceKm(c.a, c.b)
		if math.Abs(got-c.wantKm) > c.tolKm {
			t.Errorf("distance %s-%s = %.0f km, want %.0f±%.0f", c.a.Name, c.b.Name, got, c.wantKm, c.tolKm)
		}
	}
}

// TestDistanceProperties property-checks symmetry, non-negativity and
// the zero diagonal.
func TestDistanceProperties(t *testing.T) {
	tb := Testbed()
	f := func(ai, bi uint8) bool {
		a := tb[int(ai)%len(tb)]
		b := tb[int(bi)%len(tb)]
		dab := DistanceKm(a, b)
		dba := DistanceKm(b, a)
		if math.Abs(dab-dba) > 1e-9 {
			return false
		}
		if dab < 0 {
			return false
		}
		if a.Code == b.Code && dab != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTriangleInequality checks the haversine metric over the testbed.
func TestTriangleInequality(t *testing.T) {
	tb := Testbed()
	for _, a := range tb {
		for _, b := range tb {
			for _, c := range tb {
				if DistanceKm(a, c) > DistanceKm(a, b)+DistanceKm(b, c)+1e-6 {
					t.Fatalf("triangle inequality violated for %s-%s-%s", a.Name, b.Name, c.Name)
				}
			}
		}
	}
}

// TestMilesConversion checks the Table 3 D_ij unit.
func TestMilesConversion(t *testing.T) {
	km := DistanceKm(USEast, USWest)
	mi := DistanceMiles(USEast, USWest)
	if math.Abs(mi*1.60934-km) > 1e-6 {
		t.Errorf("miles conversion off: %.2f mi vs %.2f km", mi, km)
	}
}

// TestRTTMonotoneInDistance checks that farther pairs have higher RTT
// and that absolute values are plausible (US East - AP SE ~ 220 ms).
func TestRTTMonotoneInDistance(t *testing.T) {
	near := RTT(USEast, USWest)
	far := RTT(USEast, APSE)
	if near >= far {
		t.Errorf("RTT(USE-USW)=%v >= RTT(USE-APSE)=%v", near, far)
	}
	if far < 180*time.Millisecond || far > 260*time.Millisecond {
		t.Errorf("RTT(USE-APSE) = %v, want ~220ms", far)
	}
	if near < 40*time.Millisecond || near > 80*time.Millisecond {
		t.Errorf("RTT(USE-USW) = %v, want ~55ms", near)
	}
	if same := RTT(USEast, USEast); same > time.Millisecond {
		t.Errorf("intra-region RTT = %v, want sub-millisecond floor", same)
	}
}

// TestTestbedSubsetPanics checks range validation.
func TestTestbedSubsetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("TestbedSubset(9) did not panic")
		}
	}()
	TestbedSubset(9)
}
