//go:build !amd64

package nn

// useAVX is false off amd64: the Go loops in matrix.go are the kernels.
var useAVX = false

func mulVecAVX(w, x, y []float64) { panic("nn: no AVX kernels on this architecture") }

func axpyAVX(a float64, x, y []float64) { panic("nn: no AVX kernels on this architecture") }
