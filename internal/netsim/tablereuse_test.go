package netsim

import (
	"math"
	"testing"

	"github.com/wanify/wanify/internal/substrate"
)

// TestFusedRoundAgainstReference pins the corners of the filling loop
// in which a flow's own cap — handled in the pass that raises the
// flow, not as a resource — decides the round.
func TestFusedRoundAgainstReference(t *testing.T) {
	// wide is a VM no flow below can saturate.
	wide := substrate.T2Medium
	wide.EgressMbps, wide.IngressMbps = 1e6, 1e6

	t.Run("cap-0-beside-live", func(t *testing.T) {
		s := NewSim(FleetCluster(3, 1, substrate.T2Medium, 7))
		cut := []*Flow{s.startProbe(0, 1, 2), s.startProbe(1, 2, 3)}
		through := s.startProbe(0, 2, 4) // shares VM 0's egress and VM 2's ingress with them
		s.PartitionDC(1, 0, 1e9)
		requireMatchesReference(t, s, "partitioned")
		for _, f := range cut {
			if f.capMbps != 0 || f.rate != 0 || f.capSlack {
				t.Fatalf("severed flow #%d: cap %v rate %v slack %v, want 0/0/false", f.id, f.capMbps, f.rate, f.capSlack)
			}
		}
		if through.rate <= 0 {
			t.Fatalf("the flow beside the severed ones got rate %v", through.rate)
		}
	})

	t.Run("own-cap-and-vm-same-round", func(t *testing.T) {
		// VM egress equal, to the bit, to flow a's first-level cap: a is
		// alone on VM 0's egress, so both quotients tie in every round and
		// the round that exhausts one exhausts the other; b shares VM 1's
		// ingress and stays live or freezes earlier.
		ref := NewSim(FleetCluster(3, 1, wide, 7))
		spec := wide
		spec.EgressMbps = ref.PerConnCapMbps(0, 1) * ref.rampMinFactor
		s := NewSim(FleetCluster(3, 1, spec, 7))
		a, b := s.startProbe(0, 1, 1), s.startProbe(2, 1, 1)
		requireMatchesReference(t, s, "tie")
		if a.rate != a.capMbps || a.rate != spec.EgressMbps || a.capSlack {
			t.Fatalf("a: rate %v cap %v egress %v slack %v: not a tie", a.rate, a.capMbps, spec.EgressMbps, a.capSlack)
		}
		if b.rate <= 0 {
			t.Fatalf("b: rate %v", b.rate)
		}
	})

	t.Run("equal-own-cap-quotients", func(t *testing.T) {
		s := NewSim(FleetCluster(2, 1, wide, 7))
		a, b := s.startProbe(0, 1, 3), s.startProbe(0, 1, 3)
		requireMatchesReference(t, s, "twins")
		if a.rate != a.capMbps || b.rate != a.rate || a.capSlack || b.capSlack {
			t.Fatalf("rates %v/%v caps %v/%v slack %v/%v, want both cap-bound in one round",
				a.rate, b.rate, a.capMbps, b.capMbps, a.capSlack, b.capSlack)
		}
	})

	t.Run("stall", func(t *testing.T) {
		// An RTT bias that puts one flow's weight at 1e308: two of them on
		// one VM sum to +Inf, every theta is avail/Inf = 0, no increment
		// ever exhausts anything, and only the stall fallback ends the fill.
		ref := NewSim(FleetCluster(2, 1, wide, 7))
		cfg := FleetCluster(2, 1, wide, 7)
		cfg.RTTBiasExp = math.Log(1e-307) / math.Log(ref.rttSeconds(0, 1))
		s := NewSim(cfg)
		a, b := s.startProbe(0, 1, 10), s.startProbe(0, 1, 10)
		if w := 10 / s.lookupPair(0, 1).biasPow; math.IsInf(w, 0) || !math.IsInf(w+w, 1) {
			t.Fatalf("weight %v: want finite with an infinite sum", w)
		}
		requireMatchesReference(t, s, "stall")
		if a.capMbps <= 0 || a.rate != 0 || b.rate != 0 || !a.capSlack {
			t.Fatalf("cap %v rates %v/%v slack %v, want the fill abandoned at rate 0", a.capMbps, a.rate, b.rate, a.capSlack)
		}
	})
}
