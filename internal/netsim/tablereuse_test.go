package netsim

import (
	"fmt"
	"math"
	"testing"

	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/substrate"
)

// TestTableReuseMatchesReferenceEveryEvent drives runs of value-only
// events (CPU load, per-connection cap overrides, fluctuation ticks,
// ramp boundaries, partitions beginning and healing) between structure
// events (start, finish, Stop, SetConns, pair limits set, changed and
// cleared, KillVM) and requires after every single event the state a
// from-scratch allocation would produce — which a grouping or a
// resource table kept one event too long cannot. A twin simulator
// receives the same events but has its structEpoch moved before every
// allocation, so it always rebuilds; the two must agree bit for bit,
// the twin must never have reused a table and the simulator under test
// must have, often. Each seed is a different fleet and a different
// event stream.
func TestTableReuseMatchesReferenceEveryEvent(t *testing.T) {
	for _, vmsPerDC := range []int{1, 2} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("vms%d/seed%d", vmsPerDC, seed), func(t *testing.T) {
				tableReuseChurn(t, vmsPerDC, seed)
			})
		}
	}
}

func tableReuseChurn(t *testing.T, vmsPerDC int, seed uint64) {
	const dcs = 6
	cfg := FleetCluster(dcs, vmsPerDC, substrate.T2Medium, 2025+seed)
	cfg.Frozen = false // fluctuation ticks are the commonest value-only event
	s, twin := NewSim(cfg), NewSim(cfg)
	sims := [2]*Sim{s, twin}
	rng := simrand.Derive(seed, "tablereuse-test")
	randVM := func() VMID { return VMID(rng.IntN(s.NumVMs())) }

	// live[i][k] is the same flow in sims[i].
	var live [2][]*Flow
	start := func(src, dst VMID, conns int, bytes float64) {
		for i, sim := range sims {
			if bytes > 0 {
				live[i] = append(live[i], sim.startFlow(src, dst, conns, bytes, nil))
			} else {
				live[i] = append(live[i], sim.startProbe(src, dst, conns))
			}
		}
	}
	startRandom := func() {
		src, dst := randVM(), randVM()
		for src == dst || !s.VMAlive(src) || !s.VMAlive(dst) {
			src, dst = randVM(), randVM()
		}
		bytes := 0.0
		if rng.IntN(2) == 0 {
			bytes = float64(rng.IntN(60)+1) * 1e6 // finishes by itself in a step
		}
		start(src, dst, rng.IntN(6)+1, bytes)
	}
	for _, sim := range sims {
		sim.KillVM(VMID(1), 2.5)
	}

	fills := 0
	for ev := 0; ev < 400; ev++ {
		for len(live[0]) < 2*dcs {
			startRandom()
		}
		// The pair of a random live flow: where a limit or a cap override
		// is certain to be read by the next fill.
		pick := live[0][rng.IntN(len(live[0]))]
		op := "step"
		switch r := rng.IntN(20); {
		case r == 0:
			op = "start"
			startRandom()
		case r == 1:
			op = "stop"
			k := rng.IntN(len(live[0]))
			for i := range sims {
				live[i][k].Stop()
			}
		case r == 2:
			op = "setconns"
			k, n := rng.IntN(len(live[0])), rng.IntN(6)+1
			for i := range sims {
				live[i][k].SetConns(n)
			}
		case r == 3:
			op = "pairlimit" // new, or a new value for an existing one
			limit := float64(rng.IntN(300) + 10)
			for _, sim := range sims {
				sim.SetPairLimit(pick.srcDC, pick.dstDC, limit)
			}
		case r == 4:
			op = "clearlimit"
			all := rng.IntN(4) == 0
			for _, sim := range sims {
				if !all {
					sim.ClearPairLimit(pick.srcDC, pick.dstDC)
					continue
				}
				for i := range sim.NumDCs() {
					for j := range sim.NumDCs() {
						sim.ClearPairLimit(i, j)
					}
				}
			}
		case r <= 7:
			op = "cpu"
			v, load := pick.src, rng.Float64()
			if rng.IntN(2) == 0 {
				v = pick.dst
			}
			for _, sim := range sims {
				sim.SetCPULoad(v, load)
			}
		case r <= 9:
			op = "perconncap"
			mbps := s.PerConnCapMbps(pick.srcDC, pick.dstDC) * (0.5 + rng.Float64())
			for _, sim := range sims {
				sim.SetPerConnCap(pick.srcDC, pick.dstDC, mbps)
			}
		case r == 10:
			op = "partition" // begins at once, heals in a later step
			dc, d := rng.IntN(dcs), 0.05+0.2*rng.Float64()
			for _, sim := range sims {
				sim.PartitionDC(dc, sim.now, sim.now+d)
			}
		default: // a ramp boundary, a fluctuation tick, a heal, a completion
			for _, sim := range sims {
				sim.stepOnce(sim.now + 0.05)
			}
		}
		for i := range sims {
			kept := live[i][:0]
			for _, f := range live[i] {
				if !f.Done() {
					kept = append(kept, f)
				}
			}
			live[i] = kept
		}

		when := fmt.Sprintf("event %d (%s) at t=%.6f", ev, op, s.now)
		if s.allocDirty {
			fills++
		}
		twin.structEpoch++
		requireMatchesReference(t, s, when)
		twin.ensureAllocated()
		if twin.now != s.now || len(twin.flows) != len(s.flows) {
			t.Fatalf("%s: twins diverged: t=%v/%v flows=%d/%d", when, s.now, twin.now, len(s.flows), len(twin.flows))
		}
		for i, f := range s.flows {
			g := twin.flows[i]
			if math.Float64bits(f.rate) != math.Float64bits(g.rate) ||
				math.Float64bits(f.capMbps) != math.Float64bits(g.capMbps) || f.capSlack != g.capSlack {
				t.Fatalf("%s: flow #%d rate/cap/slack %v/%v/%v, always-rebuilding twin %v/%v/%v",
					when, f.id, f.rate, f.capMbps, f.capSlack, g.rate, g.capMbps, g.capSlack)
			}
			// The stored fluctuation factor a fill reads is the current one.
			if p := s.flowPair(f).fluct; p != nil && p.factor() != math.Exp(p.x)*p.spikeDepth {
				t.Fatalf("%s: pair %d->%d carries flows but its stored factor %v is stale (%v)",
					when, f.srcDC, f.dstDC, p.factor(), math.Exp(p.x)*p.spikeDepth)
			}
		}
		for v := range s.vms {
			if math.Float64bits(s.vms[v].lastRetrans) != math.Float64bits(twin.vms[v].lastRetrans) {
				t.Fatalf("%s: vm %d retrans %v, always-rebuilding twin %v", when, v, s.vms[v].lastRetrans, twin.vms[v].lastRetrans)
			}
		}
	}
	if n := twin.scratch.reused; n != 0 {
		t.Fatalf("the twin reused tables %d times with structEpoch moved before every allocation", n)
	}
	reused := s.scratch.reused
	t.Logf("%d allocations, %d fills reused their tables", fills, reused)
	if reused < fills/4 {
		t.Fatalf("%d fills reused their tables over %d allocations: the equivalence above barely covers the reuse path", reused, fills)
	}
}

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
