// Package stats provides the small statistical toolkit used across the
// WANify reproduction: means, standard deviations, RMSE/R² for the
// prediction model, and simple histogram bucketing for the table
// experiments.
package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice. The
// incremental form avoids intermediate-sum overflow for extreme inputs.
func Mean(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		m += (x - m) / float64(i+1)
	}
	return m
}

// variance returns the population variance of xs, or 0 when len(xs) < 2.
func variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(variance(xs)) }

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// RMSE returns the root-mean-square error between predictions and labels.
func RMSE(pred, label []float64) float64 {
	if len(pred) != len(label) || len(pred) == 0 {
		return 0
	}
	s := 0.0
	for i := range pred {
		d := pred[i] - label[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred)))
}

// MAE returns the mean absolute error between predictions and labels.
func MAE(pred, label []float64) float64 {
	if len(pred) != len(label) || len(pred) == 0 {
		return 0
	}
	s := 0.0
	for i := range pred {
		s += math.Abs(pred[i] - label[i])
	}
	return s / float64(len(pred))
}

// R2 returns the coefficient of determination of predictions against
// labels. A perfect model scores 1; predicting the label mean scores 0.
func R2(pred, label []float64) float64 {
	if len(pred) != len(label) || len(pred) < 2 {
		return 0
	}
	m := Mean(label)
	var ssRes, ssTot float64
	for i := range pred {
		d := label[i] - pred[i]
		ssRes += d * d
		t := label[i] - m
		ssTot += t * t
	}
	if ssTot == 0 {
		return 0
	}
	return 1 - ssRes/ssTot
}

// Bucket describes a half-open numeric interval (Lo, Hi]. A Hi of
// +Inf describes an unbounded "greater than Lo" bucket.
type Bucket struct {
	Lo, Hi float64
	Count  int
}

// BucketCounts counts how many values fall into each (lo, hi] interval
// defined by the given boundaries. boundaries must be ascending; the
// final bucket is (boundaries[len-1], +Inf). Values at or below
// boundaries[0] are not counted, matching the paper's Table 1 which only
// reports differences above the 100 Mbps significance threshold.
func BucketCounts(values []float64, boundaries []float64) []Bucket {
	n := len(boundaries)
	if n == 0 {
		return nil
	}
	buckets := make([]Bucket, n)
	for i := 0; i < n-1; i++ {
		buckets[i] = Bucket{Lo: boundaries[i], Hi: boundaries[i+1]}
	}
	buckets[n-1] = Bucket{Lo: boundaries[n-1], Hi: math.Inf(1)}
	for _, v := range values {
		for i := range buckets {
			if v > buckets[i].Lo && v <= buckets[i].Hi {
				buckets[i].Count++
				break
			}
		}
	}
	return buckets
}
