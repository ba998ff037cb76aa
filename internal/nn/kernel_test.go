package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The plain loops below are the kernels' reference: one accumulator per
// output, terms added in ascending index, each rounded separately. Their
// sums and products go through add and mul, which pin the operand order
// the assembly uses: the weight or scale first in a product, the
// accumulator first in a sum.

func naiveMulVec(m *Matrix, x, y []float64) {
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		for j := 0; j < m.Cols; j++ {
			s = add(s, mul(m.Data[i*m.Cols+j], x[j]))
		}
		y[i] = s
	}
}

func naiveMulVecT(m *Matrix, x, y []float64) {
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		if x[i] == 0 {
			continue
		}
		for j := 0; j < m.Cols; j++ {
			y[j] = add(y[j], mul(x[i], m.Data[i*m.Cols+j]))
		}
	}
}

func naiveAddOuter(m *Matrix, a, b []float64, s float64) {
	for i := range a {
		if a[i] == 0 {
			continue
		}
		f := mul(a[i], s)
		for j := range b {
			m.Data[i*m.Cols+j] = add(m.Data[i*m.Cols+j], mul(f, b[j]))
		}
	}
}

func naiveAxpy(s float64, x, y []float64) {
	for i := range x {
		y[i] = add(y[i], mul(s, x[i]))
	}
}

// mul and add are a·b and a+b with the NaN rule of x86 SSE and AVX
// arithmetic spelled out: a NaN first operand wins, else a NaN second
// one, quieted either way. Go leaves the operand order of a*b to the
// compiler, which picks it by register allocation.
func mul(a, b float64) float64 {
	if n, ok := firstNaN(a, b); ok {
		return n
	}
	return a * b
}

func add(a, b float64) float64 {
	if n, ok := firstNaN(a, b); ok {
		return n
	}
	return a + b
}

func firstNaN(a, b float64) (float64, bool) {
	const quiet = 1 << 51
	switch {
	case math.IsNaN(a):
		return math.Float64frombits(math.Float64bits(a) | quiet), true
	case math.IsNaN(b):
		return math.Float64frombits(math.Float64bits(b) | quiet), true
	}
	return 0, false
}

// Two quiet NaNs with different payloads and signs: which one a sum or a
// product keeps shows the operand order.
var (
	nanA = math.Float64frombits(0x7ff8000000000001)
	nanB = math.Float64frombits(0xfff800000000beef)
)

// kernelValue draws mostly ordinary values, with zeros of both signs,
// infinities, subnormals and the two NaNs mixed in, so that skipped,
// propagated and gradually underflowing terms are all covered.
func kernelValue(rng *rand.Rand) float64 {
	switch rng.Intn(48) {
	case 0:
		return nanA
	case 1:
		return nanB
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return math.Copysign(0, -1)
	case 5, 6, 7:
		return 0
	case 8:
		return math.SmallestNonzeroFloat64 * float64(rng.Intn(1000)+1)
	case 9:
		return -math.Float64frombits(rng.Uint64() & (1<<52 - 1)) // subnormal
	case 10:
		return 0x1p-1020 * (rng.Float64() + 0.5) // products underflow
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
}

func kernelVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = kernelValue(rng)
	}
	return v
}

// sameBits reports whether a and b are bit-identical. With anyNaN set, any
// NaN matches any NaN.
func sameBits(a, b []float64, anyNaN bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if anyNaN && math.IsNaN(a[i]) && math.IsNaN(b[i]) {
			continue
		}
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func kernelShapes() [][2]int {
	var shapes [][2]int
	for r := 0; r <= 17; r++ {
		for c := 0; c <= 17; c++ {
			shapes = append(shapes, [2]int{r, c})
		}
	}
	return append(shapes, [2]int{64, 25}, [2]int{64, 64}, [2]int{6, 64}, [2]int{256, 256}, [2]int{65, 66}, [2]int{11, 256}, [2]int{33, 31})
}

// TestKernelsMatchNaiveLoops checks MulVec, MulVecT, AddOuter and Axpy
// against the plain loops bit for bit, on the AVX path where the CPU has it
// and on the Go loops. The assembly pins every operand order, so there NaN
// payloads must match too; on the Go loops the compiler picks the order, so
// any NaN matches any NaN.
func TestKernelsMatchNaiveLoops(t *testing.T) {
	avx := useAVX
	defer func() { useAVX = avx }()
	if !avx {
		t.Log("no AVX on this CPU: only the Go loops run")
	}
	for _, path := range []struct {
		name string
		avx  bool
	}{{"go", false}, {"avx", true}} {
		if path.avx && !avx {
			continue
		}
		t.Run(path.name, func(t *testing.T) {
			useAVX = path.avx
			checkKernels(t, !path.avx)
		})
	}
}

func checkKernels(t *testing.T, anyNaN bool) {
	rng := rand.New(rand.NewSource(1))
	nans := 0
	for _, sh := range kernelShapes() {
		rows, cols := sh[0], sh[1]
		for trial := 0; trial < 4; trial++ {
			m := &Matrix{Rows: rows, Cols: cols, Data: kernelVec(rng, rows*cols)}
			x, xt := kernelVec(rng, cols), kernelVec(rng, rows)
			if trial == 0 {
				// Finite inputs, so a mismatch cannot hide behind a NaN.
				for _, v := range [][]float64{m.Data, x, xt} {
					for i := range v {
						if math.IsNaN(v[i]) || math.IsInf(v[i], 0) {
							v[i] = 1.5
						}
					}
				}
			}

			got, want := make([]float64, rows), make([]float64, rows)
			m.MulVec(x, got)
			naiveMulVec(m, x, want)
			if !sameBits(got, want, anyNaN) {
				t.Fatalf("MulVec %dx%d trial %d: %v, want %v", rows, cols, trial, got, want)
			}

			gotT, wantT := kernelVec(rng, cols), make([]float64, cols)
			m.MulVecT(xt, gotT)
			naiveMulVecT(m, xt, wantT)
			if !sameBits(gotT, wantT, anyNaN) {
				t.Fatalf("MulVecT %dx%d trial %d: %v, want %v", rows, cols, trial, gotT, wantT)
			}

			// AddOuter forms a[i]·s in Go, whose operand order the
			// compiler picks, so with a NaN s any NaN matches any NaN. A
			// NaN s must still reach every row with a non-zero a[i] and
			// leave the others alone.
			s := kernelValue(rng)
			gm := &Matrix{Rows: rows, Cols: cols, Data: kernelVec(rng, rows*cols)}
			wm := gm.Clone()
			gm.AddOuter(xt, x, s)
			naiveAddOuter(wm, xt, x, s)
			if !sameBits(gm.Data, wm.Data, anyNaN || math.IsNaN(s)) {
				t.Fatalf("AddOuter %dx%d trial %d: %v, want %v", rows, cols, trial, gm.Data, wm.Data)
			}

			a := kernelValue(rng)
			gy := kernelVec(rng, cols)
			wy := append([]float64(nil), gy...)
			Axpy(a, x, gy)
			naiveAxpy(a, x, wy)
			if !sameBits(gy, wy, anyNaN) {
				t.Fatalf("Axpy %d trial %d: %v, want %v", cols, trial, gy, wy)
			}
			for _, v := range [][]float64{want, wantT, wm.Data, wy} {
				for _, f := range v {
					if math.IsNaN(f) {
						nans++
					}
				}
			}
		}
	}
	if nans == 0 {
		t.Fatal("no output was NaN: the payload order went unchecked")
	}
}

// pensieveActor is the Pensieve actor's shape, 25→64→64→6.
func pensieveActor() *Network {
	return NewNetwork(Config{Sizes: []int{25, 64, 64, 6}, Hidden: ReLU, Output: SoftmaxAct, Seed: 3})
}

func TestForwardBackwardAllocateNothing(t *testing.T) {
	nets := map[string]*Network{
		"actor":  pensieveActor(),
		"critic": NewNetwork(Config{Sizes: []int{25, 64, 64, 1}, Hidden: ReLU, Output: Identity, Seed: 4}),
		"skip":   NewNetwork(Config{Sizes: []int{25, 64, 64, 6}, Hidden: Tanh, Output: SoftmaxAct, SkipInputs: []int{1, 24}, Seed: 5}),
		"single": NewNetwork(Config{Sizes: []int{4, 3}, Hidden: ReLU, Output: Sigmoid, SkipInputs: []int{0}, Seed: 6}),
	}
	for name, net := range nets {
		x := make([]float64, net.inputDim())
		for i := range x {
			x[i] = float64(i%7) - 3
		}
		dOut := make([]float64, net.OutDim())
		dOut[0] = 1
		allocs := testing.AllocsPerRun(100, func() {
			net.Forward(x)
			net.Backward(dOut)
		})
		if allocs != 0 {
			t.Errorf("%s: Forward+Backward allocate %v times per call, want 0", name, allocs)
		}
	}
}

// malformedNetworks encodes each shape UnmarshalBinary must reject, keyed
// by a description.
func malformedNetworks(t testing.TB) map[string][]byte {
	good := func() netWire {
		return netWire{Layers: []layerWire{
			{In: 2, Out: 3, Act: ReLU, W: make([]float64, 6), B: make([]float64, 3)},
			{In: 3, Out: 2, Act: SoftmaxAct, W: make([]float64, 6), B: make([]float64, 2)},
		}}
	}
	cases := map[string]func(*netWire){
		"negative In":        func(w *netWire) { w.Layers[0].In = -1 },
		"short W":            func(w *netWire) { w.Layers[0].W = w.Layers[0].W[:5] },
		"short B":            func(w *netWire) { w.Layers[1].B = w.Layers[1].B[:1] },
		"fan-in mismatch":    func(w *netWire) { w.Layers[1].In, w.Layers[1].W = 4, make([]float64, 8) },
		"zero layers":        func(w *netWire) { w.Layers = nil },
		"skip out of range":  func(w *netWire) { w.SkipInputs, w.Layers[1].In, w.Layers[1].W = []int{2}, 4, make([]float64, 8) },
		"unknown activation": func(w *netWire) { w.Layers[1].Act = SoftmaxAct + 1 },
		"huge width":         func(w *netWire) { w.Layers[0].In = maxWidth + 1 },
	}
	out := make(map[string][]byte, len(cases))
	for name, mutate := range cases {
		w := good()
		mutate(&w)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			t.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

func TestUnmarshalRejectsMalformedShapes(t *testing.T) {
	for name, data := range malformedNetworks(t) {
		n := pensieveActor()
		if err := n.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		} else if !strings.HasPrefix(err.Error(), "nn: decode network: ") {
			t.Errorf("%s: error %q", name, err)
		}
		if len(n.Layers) != 3 || n.Layers[0].In != 25 {
			t.Errorf("%s: failed decode changed the receiver", name)
		}
	}
}

// FuzzUnmarshalNetwork drives the network decoder, which teacher caches and
// shadow-model files reach, with arbitrary bytes: whatever decodes must run
// Forward on a zero row and Backward without panicking.
func FuzzUnmarshalNetwork(f *testing.F) {
	for _, net := range []*Network{
		pensieveActor(),
		NewNetwork(Config{Sizes: []int{3, 2}, Output: Identity, SkipInputs: []int{2}, Seed: 1}),
	} {
		raw, err := net.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
	}
	for _, data := range malformedNetworks(f) {
		f.Add(data)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var n Network
		if err := n.UnmarshalBinary(data); err != nil {
			return
		}
		x := make([]float64, n.inputDim())
		n.Forward(x)
		dOut := make([]float64, n.OutDim())
		dOut[0] = 1
		n.Backward(dOut)
		if _, err := n.MarshalBinary(); err != nil {
			t.Fatalf("decoded network does not re-encode: %v", err)
		}
	})
}
