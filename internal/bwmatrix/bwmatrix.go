// Package bwmatrix defines the two matrix types the paper's §2.3 builds
// WANify around: pairwise bandwidth matrices (Mbps, float64) and
// pairwise connection-count matrices (int). Both are dense N×N with DC
// indices in cluster order; the diagonal represents intra-DC values.
package bwmatrix

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense N×N matrix of pairwise bandwidths in Mbps.
// Matrix[i][j] is the bandwidth from DC i to DC j. Matrices are not
// required to be symmetric: WAN paths are measured per direction.
type Matrix [][]float64

// New returns an n×n bandwidth matrix initialized to zero.
func New(n int) Matrix {
	m := make(Matrix, n)
	backing := make([]float64, n*n)
	for i := range m {
		m[i], backing = backing[:n:n], backing[n:]
	}
	return m
}

// NewFilled returns an n×n matrix with every cell set to v.
func NewFilled(n int, v float64) Matrix {
	m := New(n)
	for i := range m {
		for j := range m[i] {
			m[i][j] = v
		}
	}
	return m
}

// N returns the dimension of the matrix.
func (m Matrix) N() int { return len(m) }

// Clone returns a deep copy of the matrix.
func (m Matrix) Clone() Matrix {
	c := New(len(m))
	for i := range m {
		copy(c[i], m[i])
	}
	return c
}

// MinOffDiagonal returns the smallest off-diagonal entry — the paper's
// "minimum BW of the cluster", the quantity WANify tries to raise.
// It returns 0 for matrices smaller than 2×2.
func (m Matrix) MinOffDiagonal() float64 {
	if len(m) < 2 {
		return 0
	}
	best := math.Inf(1)
	for i := range m {
		for j := range m[i] {
			if i != j && m[i][j] < best {
				best = m[i][j]
			}
		}
	}
	return best
}

// MaxOffDiagonal returns the largest off-diagonal entry, or 0 for
// matrices smaller than 2×2.
func (m Matrix) MaxOffDiagonal() float64 {
	if len(m) < 2 {
		return 0
	}
	best := math.Inf(-1)
	for i := range m {
		for j := range m[i] {
			if i != j && m[i][j] > best {
				best = m[i][j]
			}
		}
	}
	return best
}

// Scale returns a new matrix with every entry multiplied by f.
func (m Matrix) Scale(f float64) Matrix {
	c := m.Clone()
	for i := range c {
		for j := range c[i] {
			c[i][j] *= f
		}
	}
	return c
}

// AbsDiff returns |m - o| entrywise. The matrices must have equal size.
func (m Matrix) AbsDiff(o Matrix) Matrix {
	if len(m) != len(o) {
		panic(fmt.Sprintf("bwmatrix: size mismatch %d vs %d", len(m), len(o)))
	}
	d := New(len(m))
	for i := range m {
		for j := range m[i] {
			d[i][j] = math.Abs(m[i][j] - o[i][j])
		}
	}
	return d
}

// CountOffDiagAbove counts off-diagonal entries strictly greater than
// threshold. Used for the paper's "significant difference" counts
// (> 100 Mbps, Figs. 9/11, Table 1).
func (m Matrix) CountOffDiagAbove(threshold float64) int {
	n := 0
	for i := range m {
		for j := range m[i] {
			if i != j && m[i][j] > threshold {
				n++
			}
		}
	}
	return n
}

// Symmetrize returns a new matrix where each (i,j)/(j,i) pair holds
// their average. Measurement experiments that treat links as
// bidirectional use this.
func (m Matrix) Symmetrize() Matrix {
	c := m.Clone()
	for i := range c {
		for j := i + 1; j < len(c); j++ {
			avg := (c[i][j] + c[j][i]) / 2
			c[i][j], c[j][i] = avg, avg
		}
	}
	return c
}

// String renders the matrix with one row per line, entries in Mbps.
func (m Matrix) String() string {
	var b strings.Builder
	for i := range m {
		for j := range m[i] {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%8.1f", m[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ConnMatrix is a dense N×N matrix of parallel-connection counts.
// ConnMatrix[i][j] is the number of TCP connections DC i opens toward
// DC j for data transfer.
type ConnMatrix [][]int

// NewConn returns an n×n connection matrix initialized to zero.
func NewConn(n int) ConnMatrix {
	m := make(ConnMatrix, n)
	backing := make([]int, n*n)
	for i := range m {
		m[i], backing = backing[:n:n], backing[n:]
	}
	return m
}

// NewConnFilled returns an n×n connection matrix with all cells set to v.
func NewConnFilled(n int, v int) ConnMatrix {
	m := NewConn(n)
	for i := range m {
		for j := range m[i] {
			m[i][j] = v
		}
	}
	return m
}

// N returns the dimension of the matrix.
func (m ConnMatrix) N() int { return len(m) }

// Clone returns a deep copy.
func (m ConnMatrix) Clone() ConnMatrix {
	c := NewConn(len(m))
	for i := range m {
		copy(c[i], m[i])
	}
	return c
}

// TotalOffDiagonal returns the total number of off-diagonal connections,
// the "total parallel connections" budget discussed with Fig. 2(c).
func (m ConnMatrix) TotalOffDiagonal() int {
	t := 0
	for i := range m {
		for j := range m[i] {
			if i != j {
				t += m[i][j]
			}
		}
	}
	return t
}

// String renders the connection matrix.
func (m ConnMatrix) String() string {
	var b strings.Builder
	for i := range m {
		for j := range m[i] {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%3d", m[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
