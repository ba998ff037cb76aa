package artifact

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
)

// FuzzOpenArtifact pins that the stream reader and the file reader are one
// parser: any byte string gives the same artifact through Read and Open, or
// the same sentinel error, and neither panics.
func FuzzOpenArtifact(f *testing.F) {
	tab, err := dataset.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}}, []int{0, 1, 0}, []float64{1, 0.5, 2})
	if err != nil {
		f.Fatal(err)
	}
	models := []encoding.BinaryMarshaler{
		smallTree(f),
		nn.NewNetwork(nn.Config{Sizes: []int{4, 8, 3}, Hidden: nn.ReLU, Output: nn.SoftmaxAct, Seed: 7}),
		tab,
	}
	for _, model := range models {
		kind, err := KindOf(model)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, kind, map[string]string{"name": "m"}, model); err != nil {
			f.Fatal(err)
		}
		data := buf.Bytes()
		f.Add(data)
		for _, n := range []int{0, 8, prefixLen - 1, prefixLen, prefixLen + 10, len(data) / 2, len(data) - 1} {
			f.Add(data[:n])
		}
		// A header length one byte past the end of the file.
		pastEOF := bytes.Clone(data)
		binary.BigEndian.PutUint32(pastEOF[10:prefixLen], uint32(len(data)-prefixLen+1))
		f.Add(pastEOF)
	}

	path := filepath.Join(f.TempDir(), "fuzz.metis")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fromRead, errRead := Read(bytes.NewReader(data))
		fromOpen, errOpen := Open(path)
		if (errRead == nil) != (errOpen == nil) {
			t.Fatalf("Read err %v, Open err %v", errRead, errOpen)
		}
		for _, sentinel := range []error{ErrBadMagic, ErrVersion, ErrChecksum} {
			if errors.Is(errRead, sentinel) != errors.Is(errOpen, sentinel) {
				t.Fatalf("Read err %v, Open err %v: disagree on %v", errRead, errOpen, sentinel)
			}
		}
		if errRead != nil {
			return
		}
		if fromRead.Kind != fromOpen.Kind || !reflect.DeepEqual(fromRead.Meta, fromOpen.Meta) ||
			!bytes.Equal(fromRead.Payload, fromOpen.Payload) {
			t.Fatalf("Read %+v, Open %+v", fromRead, fromOpen)
		}
	})
}
