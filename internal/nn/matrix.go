// Package nn implements the minimal deep-learning substrate the Metis
// reproduction needs: dense feed-forward networks with ReLU/tanh/sigmoid/
// softmax activations, reverse-mode gradients, SGD and Adam optimizers, and
// gob serialization. It is written against the standard library only and is
// deterministic given a seeded rand.Source.
//
// The package deliberately supports exactly the model family used by the
// teacher systems in the paper (Pensieve, AuTO, RouteNet*): small multilayer
// perceptrons, optionally with a skip connection that re-injects selected raw
// inputs just before the output layer (used by the §6.2 "modified structure"
// experiment).
//
// Network.Forward returns a slice owned by the network, overwritten by its
// next call; Forward and Backward allocate nothing: each layer keeps its own
// scratch. The dense kernels may work on several rows at once, but each
// output keeps the same float operations in the same order as a plain loop
// (no reassociation, no FMA), so a faster kernel never changes a trained
// network's bits.
//
// On amd64 the kernels are assembly (kernel_amd64.s): MulVec, and one axpy
// that MulVecT, AddOuter and Axpy share. They use AVX when CPUID reports it
// and XGETBV shows the OS saving the YMM registers, checked once at start-up
// the way golang.org/x/sys/cpu does; otherwise, and on other architectures,
// the Go loops run. The assembly fixes the operand order as well: the
// weight or scale is a product's first operand and the accumulator a sum's,
// which decides the payload a NaN result keeps. Go leaves that order to the
// compiler, so only NaN payloads can differ between the two paths.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("nn: invalid matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero resets every element to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MulVec computes y = M·x for a vector x of length Cols.
//
// Several rows share each pass over x, each with its own accumulator; every
// y[i] is still the sum of w·x[j] in ascending j, one rounding per term, so
// the result is bit-identical to a plain row-by-row loop. With AVX the
// assembly does the same in blocks of 8 and 4 rows.
func (m *Matrix) MulVec(x, y []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("nn: MulVec shape mismatch: %dx%d by %d into %d", m.Rows, m.Cols, len(x), len(y)))
	}
	n := len(x)
	if useAVX {
		mulVecAVX(m.Data[:len(y)*n], x, y)
		return
	}
	i := 0
	for ; i+4 <= len(y); i += 4 {
		r0 := m.Data[i*n : i*n+n]
		r1 := m.Data[(i+1)*n : (i+1)*n+n]
		r2 := m.Data[(i+2)*n : (i+2)*n+n]
		r3 := m.Data[(i+3)*n : (i+3)*n+n]
		r0, r1, r2, r3 = r0[:len(x)], r1[:len(x)], r2[:len(x)], r3[:len(x)]
		s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
		for j, xj := range x {
			s0 += r0[j] * xj
			s1 += r1[j] * xj
			s2 += r2[j] * xj
			s3 += r3[j] * xj
		}
		y[i], y[i+1], y[i+2], y[i+3] = s0, s1, s2, s3
	}
	for ; i < len(y); i++ {
		row := m.Data[i*n : i*n+n]
		s := 0.0
		for j, w := range row {
			s += w * x[j]
		}
		y[i] = s
	}
}

// MulVecT computes y = Mᵀ·x for a vector x of length Rows: y is zeroed,
// then each row with a non-zero x[i] adds x[i]·row through axpy, so every
// y[j] sums x[i]·w in ascending i.
func (m *Matrix) MulVecT(x, y []float64) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic(fmt.Sprintf("nn: MulVecT shape mismatch: %dx%d by %d into %d", m.Rows, m.Cols, len(x), len(y)))
	}
	for j := range y {
		y[j] = 0
	}
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		axpy(xi, m.Data[i*m.Cols:(i+1)*m.Cols], y)
	}
}

// AddOuter accumulates the outer product a·bᵀ scaled by s into the matrix:
// each row with a non-zero a[i] adds (a[i]·s)·b through axpy.
func (m *Matrix) AddOuter(a, b []float64, s float64) {
	if len(a) != m.Rows || len(b) != m.Cols {
		panic("nn: AddOuter shape mismatch")
	}
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		axpy(ai*s, b, m.Data[i*m.Cols:(i+1)*m.Cols])
	}
}

// axpy computes y[j] += a·x[j] for every j < len(x), the one update
// MulVecT, AddOuter and Axpy share; y may be longer than x. Each entry gets
// one product and one sum. Without AVX it updates four entries a pass: a
// one-entry loop is 32 bytes of code whose speed depends on where the
// linker puts it (shifted across a 64-byte line, it made cold distillation
// sweeps over 10% slower).
func axpy(a float64, x, y []float64) {
	y = y[:len(x)]
	if useAVX {
		axpyAVX(a, x, y)
		return
	}
	j := 0
	for ; j+4 <= len(x); j += 4 {
		xj, yj := x[j:j+4:j+4], y[j:j+4:j+4]
		yj[0] += a * xj[0]
		yj[1] += a * xj[1]
		yj[2] += a * xj[2]
		yj[3] += a * xj[3]
	}
	for ; j < len(x); j++ {
		y[j] += a * x[j]
	}
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("nn: Dot length mismatch")
	}
	s := 0.0
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// Axpy computes y += s·x in place.
func Axpy(s float64, x, y []float64) {
	if len(x) != len(y) {
		panic("nn: Axpy length mismatch")
	}
	axpy(s, x, y)
}

// Scale multiplies every element of x by s in place.
func Scale(s float64, x []float64) {
	for i := range x {
		x[i] *= s
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Argmax returns the index of the largest element of x (first on ties).
// It panics on an empty slice.
func Argmax(x []float64) int {
	if len(x) == 0 {
		panic("nn: Argmax of empty slice")
	}
	best := 0
	for i, v := range x {
		if v > x[best] {
			best = i
		}
	}
	return best
}

// Softmax writes the softmax of x into out (which may alias x) and returns out.
func Softmax(x, out []float64) []float64 {
	if out == nil {
		out = make([]float64, len(x))
	}
	if len(out) != len(x) {
		panic("nn: Softmax length mismatch")
	}
	max := x[0]
	for _, v := range x[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range x {
		e := math.Exp(v - max)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Sample draws an index from the categorical distribution p using rng.
// p must sum to approximately 1.
func Sample(rng *rand.Rand, p []float64) int {
	u := rng.Float64()
	acc := 0.0
	for i, v := range p {
		acc += v
		if u < acc {
			return i
		}
	}
	return len(p) - 1
}

// Entropy returns the Shannon entropy (nats) of a categorical distribution.
func Entropy(p []float64) float64 {
	h := 0.0
	for _, v := range p {
		if v > 1e-12 {
			h -= v * math.Log(v)
		}
	}
	return h
}
