package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
)

// Activation identifies the nonlinearity applied by a layer.
type Activation int

// Supported activations. Softmax is only meaningful on an output layer paired
// with a cross-entropy style gradient (see CrossEntropyGrad).
const (
	Identity Activation = iota
	ReLU
	Tanh
	Sigmoid
	SoftmaxAct
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case Identity:
		return "identity"
	case ReLU:
		return "relu"
	case Tanh:
		return "tanh"
	case Sigmoid:
		return "sigmoid"
	case SoftmaxAct:
		return "softmax"
	}
	return fmt.Sprintf("activation(%d)", int(a))
}

func (a Activation) apply(z, out []float64) {
	switch a {
	case Identity:
		copy(out, z)
	case ReLU:
		for i, v := range z {
			if v > 0 {
				out[i] = v
			} else {
				out[i] = 0
			}
		}
	case Tanh:
		for i, v := range z {
			out[i] = math.Tanh(v)
		}
	case Sigmoid:
		for i, v := range z {
			out[i] = 1 / (1 + math.Exp(-v))
		}
	case SoftmaxAct:
		Softmax(z, out)
	}
}

// derivMul computes dz = da ⊙ σ'(z) given the already-computed activations a.
// For SoftmaxAct the caller is expected to pass the combined
// softmax+cross-entropy gradient in da, so the derivative is the identity.
func (a Activation) derivMul(zAct, da, dz []float64) {
	switch a {
	case Identity, SoftmaxAct:
		copy(dz, da)
	case ReLU:
		for i, v := range zAct {
			if v > 0 {
				dz[i] = da[i]
			} else {
				dz[i] = 0
			}
		}
	case Tanh:
		for i, v := range zAct {
			dz[i] = da[i] * (1 - v*v)
		}
	case Sigmoid:
		for i, v := range zAct {
			dz[i] = da[i] * v * (1 - v)
		}
	}
}

// Dense is a fully connected layer y = act(W·x + b).
type Dense struct {
	In, Out int
	W       *Matrix // Out×In
	B       []float64
	Act     Activation

	// Gradient accumulators, filled by Network.Backward.
	GW *Matrix
	GB []float64

	// Forward caches (single-sample training) and scratch, so that forward
	// and backward allocate nothing.
	x, a      []float64
	z, dz, dx []float64
}

// newLayer wraps existing weights W (out×in, row-major) and biases B in a
// Dense layer with zeroed gradients and fresh scratch.
func newLayer(in, out int, act Activation, w, b []float64) *Dense {
	return &Dense{
		In: in, Out: out,
		W:   &Matrix{Rows: out, Cols: in, Data: w},
		B:   b,
		Act: act,
		GW:  NewMatrix(out, in),
		GB:  make([]float64, out),
		x:   make([]float64, in),
		a:   make([]float64, out),
		z:   make([]float64, out),
		dz:  make([]float64, out),
		dx:  make([]float64, in),
	}
}

// newDense creates a Dense layer with He/Xavier-style initialization.
func newDense(in, out int, act Activation, rng *rand.Rand) *Dense {
	d := newLayer(in, out, act, make([]float64, out*in), make([]float64, out))
	scale := math.Sqrt(2.0 / float64(in))
	if act == Tanh || act == Sigmoid || act == Identity || act == SoftmaxAct {
		scale = math.Sqrt(1.0 / float64(in))
	}
	for i := range d.W.Data {
		d.W.Data[i] = rng.NormFloat64() * scale
	}
	return d
}

func (d *Dense) forward(x []float64) []float64 {
	copy(d.x, x)
	d.W.MulVec(x, d.z)
	Axpy(1, d.B, d.z)
	d.Act.apply(d.z, d.a)
	return d.a
}

// backward accumulates the parameter gradients given dL/da, leaving dL/dz
// in the layer's dz scratch.
func (d *Dense) backward(da []float64) {
	d.Act.derivMul(d.a, da, d.dz)
	d.GW.AddOuter(d.dz, d.x, 1)
	Axpy(1, d.dz, d.GB)
}

// Network is a feed-forward network of Dense layers. If SkipInputs is
// non-empty, the raw input values at those indices are appended to the last
// hidden activation before the final layer, implementing the "significant
// feature near the output" redesign from §6.2 of the paper.
type Network struct {
	Layers     []*Dense
	SkipInputs []int

	aug []float64 // last layer's input: hidden activation, then skip inputs
}

// Config describes a Network architecture.
type Config struct {
	// Sizes lists layer widths input→…→output, e.g. {25, 64, 64, 6}.
	Sizes []int
	// Hidden is the activation used on all hidden layers.
	Hidden Activation
	// Output is the activation of the final layer.
	Output Activation
	// SkipInputs optionally re-injects raw input indices before the final
	// layer (the final layer's fan-in grows by len(SkipInputs)).
	SkipInputs []int
	// Seed makes initialization deterministic.
	Seed int64
}

// NewNetwork builds a network from a Config.
func NewNetwork(cfg Config) *Network {
	if len(cfg.Sizes) < 2 {
		panic("nn: NewNetwork needs at least input and output sizes")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := &Network{SkipInputs: append([]int(nil), cfg.SkipInputs...)}
	last := len(cfg.Sizes) - 2
	for i := 0; i+1 < len(cfg.Sizes); i++ {
		act := cfg.Hidden
		in := cfg.Sizes[i]
		if i == last {
			act = cfg.Output
			in += len(cfg.SkipInputs)
		}
		if i == last && len(cfg.Sizes) == 2 {
			// Single-layer network: no hidden layer, input feeds output
			// directly; skip inputs would duplicate features, still allowed.
			in = cfg.Sizes[i] + len(cfg.SkipInputs)
		}
		n.Layers = append(n.Layers, newDense(in, cfg.Sizes[i+1], act, rng))
	}
	return n
}

// InDim returns the network's input dimensionality.
func (n *Network) InDim() int { return n.Layers[0].In }

// OutDim returns the network's output dimensionality.
func (n *Network) OutDim() int { return n.Layers[len(n.Layers)-1].Out }

// Forward runs the network on a single input and returns the output
// activation. The returned slice is owned by the network and overwritten by
// the next call; copy it if you need to retain it.
func (n *Network) Forward(x []float64) []float64 {
	if len(x) != n.inputDim() {
		panic(fmt.Sprintf("nn: Forward input dim %d, want %d", len(x), n.inputDim()))
	}
	h := x
	last := len(n.Layers) - 1
	for i, l := range n.Layers {
		if i == last && len(n.SkipInputs) > 0 {
			if len(n.aug) != l.In {
				n.aug = make([]float64, l.In)
			}
			copy(n.aug, h)
			for k, idx := range n.SkipInputs {
				n.aug[len(h)+k] = x[idx]
			}
			h = n.aug
		}
		h = l.forward(h)
	}
	return h
}

// inputDim is the raw (pre-skip) input size.
func (n *Network) inputDim() int {
	if len(n.Layers) == 1 {
		return n.Layers[0].In - len(n.SkipInputs)
	}
	return n.Layers[0].In
}

// Backward back-propagates dL/dOutput through the network, accumulating
// parameter gradients. The gradient with respect to the input is never
// formed: no caller reads it, so the first layer skips that product.
func (n *Network) Backward(dOut []float64) {
	grad := dOut
	for i := len(n.Layers) - 1; i >= 0; i-- {
		l := n.Layers[i]
		l.backward(grad)
		if i == 0 {
			break
		}
		l.W.MulVecT(l.dz, l.dx)
		grad = l.dx
		if i == len(n.Layers)-1 && len(n.SkipInputs) > 0 {
			grad = grad[:len(grad)-len(n.SkipInputs)]
		}
	}
}

// ZeroGrad clears all accumulated gradients.
func (n *Network) ZeroGrad() {
	for _, l := range n.Layers {
		l.GW.Zero()
		for i := range l.GB {
			l.GB[i] = 0
		}
	}
}

// Param pairs a parameter slice with its gradient accumulator.
type Param struct {
	W []float64
	G []float64
}

// Params returns all parameter/gradient pairs, in a stable order.
func (n *Network) Params() []Param {
	var ps []Param
	for _, l := range n.Layers {
		ps = append(ps, Param{l.W.Data, l.GW.Data}, Param{l.B, l.GB})
	}
	return ps
}

// NumParams returns the total number of scalar parameters.
func (n *Network) NumParams() int {
	t := 0
	for _, p := range n.Params() {
		t += len(p.W)
	}
	return t
}

// ClipGrad scales gradients so their global L2 norm is at most max.
func (n *Network) ClipGrad(max float64) {
	sum := 0.0
	for _, p := range n.Params() {
		for _, g := range p.G {
			sum += g * g
		}
	}
	norm := math.Sqrt(sum)
	if norm <= max || norm == 0 {
		return
	}
	s := max / norm
	for _, p := range n.Params() {
		Scale(s, p.G)
	}
}

// Clone returns a deep copy of the network (weights only; gradients zeroed).
func (n *Network) Clone() *Network {
	c := &Network{SkipInputs: append([]int(nil), n.SkipInputs...)}
	for _, l := range n.Layers {
		w := append([]float64(nil), l.W.Data...)
		c.Layers = append(c.Layers, newLayer(l.In, l.Out, l.Act, w, append([]float64(nil), l.B...)))
	}
	return c
}

// netWire is the gob wire format for Network.
type netWire struct {
	SkipInputs []int
	Layers     []layerWire
}

type layerWire struct {
	In, Out int
	Act     Activation
	W       []float64
	B       []float64
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (n *Network) MarshalBinary() ([]byte, error) {
	w := netWire{SkipInputs: n.SkipInputs}
	for _, l := range n.Layers {
		w.Layers = append(w.Layers, layerWire{In: l.In, Out: l.Out, Act: l.Act, W: l.W.Data, B: l.B})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, fmt.Errorf("nn: encode network: %w", err)
	}
	return buf.Bytes(), nil
}

// maxWidth bounds a decoded layer's declared In and Out.
const maxWidth = 1 << 20

// UnmarshalBinary implements encoding.BinaryUnmarshaler. It rejects any
// network whose shapes Forward and Backward could not run on: no layers, a
// width outside [1, 2^20], weights or biases of the wrong length, a layer
// whose fan-in is not the previous layer's width (plus the skip inputs, on
// the last layer), a skip index outside the raw input, or an unknown
// activation. On error the receiver is left unchanged.
func (n *Network) UnmarshalBinary(data []byte) error {
	var w netWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("nn: decode network: %w", err)
	}
	if err := w.validate(); err != nil {
		return fmt.Errorf("nn: decode network: %w", err)
	}
	n.SkipInputs = w.SkipInputs
	n.Layers = nil
	for _, lw := range w.Layers {
		n.Layers = append(n.Layers, newLayer(lw.In, lw.Out, lw.Act, lw.W, lw.B))
	}
	n.aug = nil
	return nil
}

// validate checks the invariants UnmarshalBinary documents.
func (w *netWire) validate() error {
	if len(w.Layers) == 0 {
		return fmt.Errorf("no layers")
	}
	last := len(w.Layers) - 1
	for i, l := range w.Layers {
		if l.In < 1 || l.In > maxWidth || l.Out < 1 || l.Out > maxWidth {
			return fmt.Errorf("layer %d: shape %d→%d outside [1, %d]", i, l.In, l.Out, maxWidth)
		}
		if int64(len(l.W)) != int64(l.In)*int64(l.Out) || len(l.B) != l.Out {
			return fmt.Errorf("layer %d: %d weights and %d biases for %d→%d", i, len(l.W), len(l.B), l.In, l.Out)
		}
		if l.Act < Identity || l.Act > SoftmaxAct {
			return fmt.Errorf("layer %d: unknown %v", i, l.Act)
		}
		if i == 0 {
			continue
		}
		want := w.Layers[i-1].Out
		if i == last {
			want += len(w.SkipInputs)
		}
		if l.In != want {
			return fmt.Errorf("layer %d: fan-in %d, want %d", i, l.In, want)
		}
	}
	raw := w.Layers[0].In
	if last == 0 {
		raw -= len(w.SkipInputs)
	}
	if raw < 1 {
		return fmt.Errorf("%d skip inputs leave no raw input", len(w.SkipInputs))
	}
	for _, idx := range w.SkipInputs {
		if idx < 0 || idx >= raw {
			return fmt.Errorf("skip input %d outside raw input of %d", idx, raw)
		}
	}
	return nil
}

// CrossEntropyGrad returns dL/dlogits for a softmax output with one-hot
// target class and the given scale (e.g. an advantage). probs must be the
// softmax output. The returned gradient equals scale·(probs − onehot(target)).
func CrossEntropyGrad(probs []float64, target int, scale float64) []float64 {
	g := make([]float64, len(probs))
	for i, p := range probs {
		g[i] = scale * p
	}
	g[target] -= scale
	return g
}
