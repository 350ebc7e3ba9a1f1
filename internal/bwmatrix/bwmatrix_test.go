package bwmatrix

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// TestNewAndClone checks construction and deep copying.
func TestNewAndClone(t *testing.T) {
	m := New(3)
	if m.N() != 3 {
		t.Fatalf("N = %d", m.N())
	}
	m[0][1] = 42
	c := m.Clone()
	c[0][1] = 7
	if m[0][1] != 42 {
		t.Error("Clone aliases the original")
	}
	f := NewFilled(2, 5)
	if f[0][0] != 5 || f[1][0] != 5 {
		t.Error("NewFilled did not fill")
	}
}

// TestMinMaxOffDiagonal checks the cluster-min/max helpers ignore the
// diagonal.
func TestMinMaxOffDiagonal(t *testing.T) {
	m := New(3)
	m[0] = []float64{999, 400, 120}
	m[1] = []float64{380, 999, 130}
	m[2] = []float64{110, 120, 999}
	if got := m.MinOffDiagonal(); got != 110 {
		t.Errorf("min = %v, want 110", got)
	}
	if got := m.MaxOffDiagonal(); got != 400 {
		t.Errorf("max = %v, want 400", got)
	}
	if New(1).MinOffDiagonal() != 0 {
		t.Error("1x1 min should be 0")
	}
}

// TestAbsDiffAndCount checks the significance counting used by the
// accuracy experiments.
func TestAbsDiffAndCount(t *testing.T) {
	a := New(2)
	b := New(2)
	a[0][1], b[0][1] = 500, 350 // diff 150
	a[1][0], b[1][0] = 200, 180 // diff 20
	d := a.AbsDiff(b)
	if d[0][1] != 150 || d[1][0] != 20 {
		t.Errorf("absdiff = %v", d)
	}
	if got := d.CountOffDiagAbove(100); got != 1 {
		t.Errorf("significant count = %d, want 1", got)
	}
}

// TestAbsDiffPanicsOnMismatch checks the size guard.
func TestAbsDiffPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on size mismatch")
		}
	}()
	New(2).AbsDiff(New(3))
}

// TestSymmetrize checks direction folding.
func TestSymmetrize(t *testing.T) {
	m := New(2)
	m[0][1], m[1][0] = 100, 200
	s := m.Symmetrize()
	if s[0][1] != 150 || s[1][0] != 150 {
		t.Errorf("symmetrize = %v", s)
	}
	if m[0][1] != 100 {
		t.Error("Symmetrize mutated the receiver")
	}
}

// TestScale checks scalar multiplication.
func TestScale(t *testing.T) {
	m := New(2)
	m[0][1] = 10
	s := m.Scale(2.5)
	if s[0][1] != 25 || m[0][1] != 10 {
		t.Errorf("scale: got %v, orig %v", s[0][1], m[0][1])
	}
}

// TestConnMatrix checks construction and the budget helper.
func TestConnMatrix(t *testing.T) {
	c := NewConnFilled(3, 8)
	for i := range c {
		c[i][i] = 1
	}
	if got := c.TotalOffDiagonal(); got != 48 {
		t.Errorf("total = %d, want 48 (8 conns x 6 links)", got)
	}
	cl := c.Clone()
	cl[0][1] = 99
	if c[0][1] != 8 {
		t.Error("ConnMatrix clone aliases")
	}
}

// TestStringRendering checks both String methods produce grid output.
func TestStringRendering(t *testing.T) {
	m := NewFilled(2, 1.5)
	if s := m.String(); !strings.Contains(s, "1.5") || strings.Count(s, "\n") != 2 {
		t.Errorf("matrix string: %q", s)
	}
	c := NewConnFilled(2, 3)
	if s := c.String(); !strings.Contains(s, "3") {
		t.Errorf("conn string: %q", s)
	}
}

// TestMatrixProperties property-checks Clone/Scale/AbsDiff identities.
func TestMatrixProperties(t *testing.T) {
	f := func(vals [16]float64, scale float64) bool {
		if math.IsNaN(scale) || math.IsInf(scale, 0) {
			return true
		}
		m := New(4)
		k := 0
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				v := vals[k]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = 0
				}
				m[i][j] = v
				k++
			}
		}
		// AbsDiff with self is zero.
		d := m.AbsDiff(m)
		for i := range d {
			for j := range d[i] {
				if d[i][j] != 0 {
					return false
				}
			}
		}
		// Symmetrize is idempotent.
		s1 := m.Symmetrize()
		s2 := s1.Symmetrize()
		for i := range s1 {
			for j := range s1[i] {
				if s1[i][j] != s2[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
