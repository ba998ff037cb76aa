package experiments

import (
	"bytes"
	"encoding"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/artifact"
	"repro/internal/dataset"
	"repro/internal/scenario"
)

// TestFixtureReadsScenarioCache: a Fixture takes its teachers and its
// Metis+Pensieve tree from the scenario engine's cache. After a pipeline run
// fills the cache, a fixture at the same scale resolves every teacher, the
// abr tree and both AuTO trees without adding or rewriting a file; each
// teacher it returns encodes back to the payload the pipeline cached, and
// the abr tree to the abr scenario's student, fitted on the cached corpus.
func TestFixtureReadsScenarioCache(t *testing.T) {
	names := []string{"abr", "auto-lrla", "auto-srla", "routenet"}
	dir := t.TempDir()
	p := &scenario.Pipeline{Config: scenario.Config{Scale: scenario.ScaleTiny, CacheDir: dir, OutDir: t.TempDir()}}
	reports, err := p.RunAll(names)
	if err != nil {
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

	f := NewFixture(scenario.ScaleTiny)
	f.CacheDir = dir
	agent := f.Pensieve()
	abrTree := f.PensieveTree()
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

	student, err := artifact.Open(reports[0].ArtifactPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := abrTree.Tree.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, student.Payload) {
		t.Fatalf("abr: the fixture's tree encodes to %d bytes that differ from the scenario's %d-byte student", len(got), len(student.Payload))
	}
	corpus, err := artifact.LoadAs[*dataset.Table](filepath.Join(dir, "scenario-abr-"+scenario.ScaleTiny+"-dataset.metis"))
	if err != nil {
		t.Fatal(err)
	}
	if abrTree.Data == nil || abrTree.Data.Len() != corpus.Len() {
		t.Fatalf("abr: the fixture's tree data is not the cached %d-row corpus", corpus.Len())
	}
}
