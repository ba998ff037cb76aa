package experiments

import (
	"bytes"
	"encoding"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/artifact"
	"repro/internal/scenario"
)

// TestFixtureReadsScenarioCache: a Fixture takes its teachers from the
// scenario engine's cache. After a pipeline run fills the cache, a fixture at
// the same scale resolves every teacher and both AuTO trees without adding
// or rewriting a file, and each teacher it returns encodes back to the
// payload the pipeline cached.
func TestFixtureReadsScenarioCache(t *testing.T) {
	names := []string{"abr", "auto-lrla", "auto-srla", "routenet"}
	dir := t.TempDir()
	p := &scenario.Pipeline{Config: scenario.Config{Scale: scenario.ScaleTiny, CacheDir: dir}}
	if _, err := p.RunAll(names); err != nil {
		t.Fatal(err)
	}
	stat := func() map[string]os.FileInfo {
		paths, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		infos := make(map[string]os.FileInfo, len(paths))
		for _, path := range paths {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			infos[path] = fi
		}
		return infos
	}
	before := stat()

	f := NewFixture(Scale{Name: scenario.ScaleTiny})
	f.CacheDir = dir
	agent := f.Pensieve()
	lrla, srla, lrlaTree, srlaTree := f.AuTo()
	_, rnet := f.RouteNet()
	if lrlaTree == nil || srlaTree == nil {
		t.Fatal("the fixture returned no AuTO trees")
	}

	after := stat()
	if len(after) != len(before) {
		t.Fatalf("the fixture changed the cache from %d to %d files", len(before), len(after))
	}
	for path, fi := range before {
		got, ok := after[path]
		if !ok || !os.SameFile(fi, got) || !got.ModTime().Equal(fi.ModTime()) {
			t.Fatalf("the fixture rewrote %s: it rebuilt instead of loading", path)
		}
	}

	teachers := map[string]encoding.BinaryMarshaler{
		"abr": agent, "auto-lrla": lrla, "auto-srla": srla, "routenet": rnet,
	}
	for _, name := range names {
		a, err := artifact.Open(filepath.Join(dir, "scenario-"+name+"-"+scenario.ScaleTiny+".metis"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := teachers[name].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, a.Payload) {
			t.Fatalf("%s: the fixture's teacher encodes to %d bytes that differ from the %d cached", name, len(got), len(a.Payload))
		}
	}
}
