package scenarios

import (
	"bufio"
	"encoding"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/scenario"
)

// payloadChildEnv marks the subprocess that computes the payload checksums.
const payloadChildEnv = "METIS_PAYLOAD_CHECKSUMS_CHILD"

// tinyPayloadCRCs pins the CRC-32C of every tiny-scale teacher and student
// payload. gob numbers types in the order a process first meets them, so
// the checksums are only comparable when computed the same way: in a fresh
// process that trains and distills one scenario after another, encoding
// nothing, and then encodes every model in the order listed here.
var tinyPayloadCRCs = []struct{ model, crc string }{
	{"abr/teacher", "35e3885a"},
	{"abr/student", "a5d6603c"},
	{"auto-lrla/teacher", "a546c254"},
	{"auto-lrla/student", "0dc9fd38"},
	{"auto-srla/teacher", "54d06791"},
	{"auto-srla/student", "28b72c1d"},
	{"routenet/teacher", "d63fcdd7"},
	{"routenet/student", "054d2e27"},
	{"jobs/student", "901a5f0f"},
	{"nfv/student", "5fe3cafc"},
	{"cellular/student", "d282525b"},
}

// TestTinyPayloadChecksums guards the training and distillation code paths
// against any change in their results, down to the last bit: every tiny
// teacher and student must encode to the recorded bytes.
func TestTinyPayloadChecksums(t *testing.T) {
	if testing.Short() {
		t.Skip("trains every tiny teacher; skipped in -short")
	}
	if os.Getenv(payloadChildEnv) == "1" {
		printTinyPayloadCRCs(t)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestTinyPayloadChecksums$", "-test.count=1")
	cmd.Env = append(os.Environ(), payloadChildEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("checksum subprocess: %v\n%s", err, out)
	}
	got := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 3 && f[0] == "payload" {
			got[f[1]] = f[2]
		}
	}
	if len(got) != len(tinyPayloadCRCs) {
		t.Fatalf("subprocess reported %d payloads, want %d:\n%s", len(got), len(tinyPayloadCRCs), out)
	}
	for _, want := range tinyPayloadCRCs {
		if got[want.model] != want.crc {
			t.Errorf("%s payload crc %s, recorded %s", want.model, got[want.model], want.crc)
		}
	}
}

// printTinyPayloadCRCs trains and distills every scenario at tiny scale with
// two workers and prints "payload <model> <crc>" lines in a fixed order.
func printTinyPayloadCRCs(t *testing.T) {
	cfg := scenario.Config{Scale: scenario.ScaleTiny, Workers: 2}
	type named struct {
		name  string
		model any
	}
	var models []named
	for _, name := range []string{"abr", "auto-lrla", "auto-srla", "routenet", "jobs", "nfv", "cellular"} {
		sc, ok := scenario.Get(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		teacher, err := sc.Train(cfg)
		if err != nil {
			t.Fatal(err)
		}
		student, err := sc.Distill(cfg, teacher)
		if err != nil {
			t.Fatal(err)
		}
		if m := teacher.Model(); m != nil {
			models = append(models, named{name + "/teacher", m})
		}
		models = append(models, named{name + "/student", student.Model()})
	}
	for _, m := range models {
		bm, ok := m.model.(encoding.BinaryMarshaler)
		if !ok {
			t.Fatalf("%s: %T has no binary encoding", m.name, m.model)
		}
		payload, err := bm.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("payload %s %08x\n", m.name, artifact.Checksum(payload))
	}
}
