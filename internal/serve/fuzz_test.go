package serve

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzJobSpec drives the job-spec path an HTTP body takes: raw JSON
// into a JobSpec, then buildJob on a 4-DC cluster. Every spec must be
// refused, or become a job that passes Validate and holds exactly the
// requested input — finite, non-negative bytes per DC summing to
// input_gb·1e9. The seed corpus (testdata/fuzz/FuzzJobSpec) holds the
// hostile specs buildJob refuses and a hot set covering every DC.
func FuzzJobSpec(f *testing.F) {
	f.Add([]byte(`{"workload":"terasort","input_gb":50,"tenant":"ci"}`))
	f.Add([]byte(`{"workload":"tpcds:q78","input_gb":20,"hot_dcs":[1],"hot_share":0.6}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		const n = 4
		job, err := buildJob(spec, n)
		if err != nil {
			return
		}
		if err := job.Validate(n); err != nil {
			t.Fatalf("spec %+v built an invalid job: %v", spec, err)
		}
		total := spec.InputGB * 1e9
		sum := 0.0 // as fractions of the total, which cannot overflow
		for dc, b := range job.InputBytes {
			if !(b >= 0) || math.IsInf(b, 1) {
				t.Fatalf("spec %+v put %v bytes on DC %d", spec, b, dc)
			}
			sum += b / total
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("spec %+v: per-DC input %v sums to %v of input_gb·1e9 = %v", spec, job.InputBytes, sum, total)
		}
	})
}
