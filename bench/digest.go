package main

import (
	"math"

	"github.com/wanify/wanify/internal/optimize"
	"github.com/wanify/wanify/internal/spark"
)

// digest is an FNV-1a over simulated outputs. Two runs of the same code
// and seed must produce the same digest, and so must the traced and the
// untraced run.
type digest struct {
	h    uint64
	init bool
}

func (d *digest) u64(v uint64) {
	if !d.init {
		d.h, d.init = 14695981039346656037, true
	}
	for i := 0; i < 8; i++ {
		d.h ^= v & 0xff
		d.h *= 1099511628211
		v >>= 8
	}
}

func (d *digest) int(v int)     { d.u64(uint64(v)) }
func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) str(s string) {
	d.int(len(s))
	for i := 0; i < len(s); i++ {
		d.u64(uint64(s[i]))
	}
}

func (d *digest) matrix(m [][]float64) {
	for _, row := range m {
		for _, v := range row {
			d.f64(v)
		}
	}
}

// plan hashes a plan's windows and targets.
func (d *digest) plan(p optimize.Plan) {
	for i := range p.MinConns {
		for j := range p.MinConns[i] {
			d.int(p.MinConns[i][j])
			d.int(p.MaxConns[i][j])
		}
	}
	d.matrix(p.MinBW)
	d.matrix(p.MaxBW)
}

// result hashes a job's simulated outcome.
func (d *digest) result(r spark.RunResult) {
	d.f64(r.JCTSeconds)
	d.f64(r.WANBytes)
	d.f64(r.Cost.Total())
	d.f64(r.OutputBytes)
	d.f64(r.LostBytes)
	d.f64(r.RecoveredBytes)
	d.int(r.Recoveries)
	for _, st := range r.Stages {
		d.f64(st.TransferS)
		d.f64(st.ComputeS)
		for _, p := range st.Placement {
			d.f64(p)
		}
	}
}
