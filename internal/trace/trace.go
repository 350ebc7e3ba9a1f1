// Package trace records per-DC-pair bandwidth time series from a
// running simulation and exports them as CSV — the raw material for
// regenerating the paper's time-series figures (Fig. 9's epoch series)
// or inspecting an experiment's network behaviour offline.
//
// A Recorder samples sim.PairRate for every ordered DC pair on a fixed
// cadence. Sampling runs inside the simulated timeline (an Every
// timer), so recordings are deterministic per seed and add no wall-time
// cost beyond the samples themselves.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"github.com/wanify/wanify/internal/substrate"
)

// Sample is one instant's pairwise rate snapshot.
type Sample struct {
	// Now is the simulated time of the sample in seconds.
	Now float64
	// RateMbps[i][j] is the aggregate rate from DC i to DC j.
	RateMbps [][]float64
}

// Recorder samples a simulation's pairwise rates.
type Recorder struct {
	sim     substrate.Cluster
	samples []Sample
	cancel  func()
	closed  bool
}

// NewRecorder starts recording every intervalS seconds.
func NewRecorder(sim substrate.Cluster, intervalS float64) *Recorder {
	if intervalS <= 0 {
		intervalS = 1
	}
	r := &Recorder{sim: sim}
	r.cancel = sim.Every(intervalS, func(now float64) {
		n := sim.NumDCs()
		rates := make([][]float64, n)
		for i := 0; i < n; i++ {
			rates[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				if i != j {
					rates[i][j] = sim.PairRate(i, j)
				}
			}
		}
		r.samples = append(r.samples, Sample{Now: now, RateMbps: rates})
	})
	return r
}

// Close stops sampling. The recorded samples remain readable.
func (r *Recorder) Close() {
	if !r.closed {
		r.closed = true
		r.cancel()
	}
}

// Samples returns the recorded series.
func (r *Recorder) Samples() []Sample { return r.samples }

// Len returns the number of samples taken.
func (r *Recorder) Len() int { return len(r.samples) }

// WriteCSV writes the recording in long form: one row per
// (time, src, dst) with the region names resolved. Idle pairs are
// skipped when skipZeros is true, which keeps shuffle recordings
// compact.
func (r *Recorder) WriteCSV(w io.Writer, skipZeros bool) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "src", "dst", "rate_mbps"}); err != nil {
		return err
	}
	regions := r.sim.Regions()
	for _, s := range r.samples {
		for i := range s.RateMbps {
			for j := range s.RateMbps[i] {
				if i == j {
					continue
				}
				v := s.RateMbps[i][j]
				if skipZeros && v == 0 {
					continue
				}
				rec := []string{
					strconv.FormatFloat(s.Now, 'f', 3, 64),
					regions[i].Name,
					regions[j].Name,
					strconv.FormatFloat(v, 'f', 1, 64),
				}
				if err := cw.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
