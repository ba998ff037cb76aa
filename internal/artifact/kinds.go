package artifact

import (
	"encoding"
	"fmt"

	"repro/internal/auto"
	"repro/internal/dataset"
	"repro/internal/metis/dtree"
	"repro/internal/metis/mask"
	"repro/internal/nn"
	"repro/internal/pensieve"
	"repro/internal/routenet"
)

// Kind tags for every model the pipeline produces. The tag is stored in the
// container header and drives Decode's dispatch.
const (
	KindTree = "dtree/tree"
	// KindQuantizedTree persists the flat serving form of a tree
	// (dtree.Quantized). The serving daemon quantizes a dtree/tree at load;
	// this kind spares it that step and serves as-is.
	KindQuantizedTree = "dtree/quantized"
	KindNetwork       = "nn/network"
	KindPensieveAgent = "pensieve/agent"
	KindAutoLRLA      = "auto/lrla"
	KindAutoSRLA      = "auto/srla"
	KindRouteNet      = "routenet/model"
	KindMaskResult    = "mask/result"
	// KindDataset persists a columnar training table (a distillation
	// corpus), letting pipelines cache DAgger datasets next to the
	// teachers that produced them and refit students without re-rolling
	// trajectories.
	KindDataset = "dataset/table"
	// KindManifest ("pipeline/manifest") is declared in manifest.go.
)

// decoders maps kind tags to payload decoders returning the concrete model.
var decoders = map[string]func([]byte) (any, error){
	KindTree:          decodeInto(func() *dtree.Tree { return new(dtree.Tree) }),
	KindQuantizedTree: decodeInto(func() *dtree.Quantized { return new(dtree.Quantized) }),
	KindNetwork:       decodeInto(func() *nn.Network { return new(nn.Network) }),
	KindPensieveAgent: decodeInto(func() *pensieve.Agent { return new(pensieve.Agent) }),
	KindAutoLRLA:      decodeInto(func() *auto.LRLA { return new(auto.LRLA) }),
	KindAutoSRLA:      decodeInto(func() *auto.SRLA { return new(auto.SRLA) }),
	KindRouteNet:      decodeInto(func() *routenet.Model { return new(routenet.Model) }),
	KindMaskResult:    decodeInto(func() *mask.Result { return new(mask.Result) }),
	KindDataset:       decodeInto(func() *dataset.Table { return new(dataset.Table) }),
	KindManifest:      decodeInto(func() *Manifest { return new(Manifest) }),
}

// decodeInto adapts a zero-value constructor for a BinaryUnmarshaler type
// into the registry's decoder shape.
func decodeInto[T encoding.BinaryUnmarshaler](mk func() T) func([]byte) (any, error) {
	return func(payload []byte) (any, error) {
		v := mk()
		if err := v.UnmarshalBinary(payload); err != nil {
			return nil, err
		}
		return v, nil
	}
}

// KindOf returns the kind tag for a supported model value.
func KindOf(model any) (string, error) {
	switch model.(type) {
	case *dtree.Tree:
		return KindTree, nil
	case *dtree.Quantized:
		return KindQuantizedTree, nil
	case *nn.Network:
		return KindNetwork, nil
	case *pensieve.Agent:
		return KindPensieveAgent, nil
	case *auto.LRLA:
		return KindAutoLRLA, nil
	case *auto.SRLA:
		return KindAutoSRLA, nil
	case *routenet.Model:
		return KindRouteNet, nil
	case *mask.Result:
		return KindMaskResult, nil
	case *dataset.Table:
		return KindDataset, nil
	case *Manifest:
		return KindManifest, nil
	}
	return "", fmt.Errorf("artifact: unsupported model type %T", model)
}

// SaveModel writes a model to path, inferring the kind tag from its type.
func SaveModel(path string, model any, meta map[string]string) error {
	kind, err := KindOf(model)
	if err != nil {
		return err
	}
	m, ok := model.(encoding.BinaryMarshaler)
	if !ok {
		return fmt.Errorf("artifact: %T does not implement encoding.BinaryMarshaler", model)
	}
	return Save(path, kind, meta, m)
}

// Decode reconstructs the concrete model held by a parsed artifact.
func (a *Artifact) Decode() (any, error) {
	dec, ok := decoders[a.Kind]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownKind, a.Kind)
	}
	return dec(a.Payload)
}

// Load opens path, verifies it, and reconstructs the model it holds.
func Load(path string) (any, *Artifact, error) {
	a, err := Open(path)
	if err != nil {
		return nil, nil, err
	}
	model, err := a.Decode()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return model, a, nil
}

// LoadAs loads path and asserts the model is of type T, returning
// ErrWrongKind otherwise.
func LoadAs[T any](path string) (T, error) {
	model, a, err := Load(path)
	if err != nil {
		var zero T
		return zero, err
	}
	v, ok := model.(T)
	if !ok {
		var zero T
		return zero, fmt.Errorf("%s: %w: holds %q (%T), want %T", path, ErrWrongKind, a.Kind, model, zero)
	}
	return v, nil
}

// LoadTree loads a distilled decision tree artifact.
func LoadTree(path string) (*dtree.Tree, error) { return LoadAs[*dtree.Tree](path) }

// LoadQuantized loads a quantized-tree artifact.
func LoadQuantized(path string) (*dtree.Quantized, error) { return LoadAs[*dtree.Quantized](path) }
