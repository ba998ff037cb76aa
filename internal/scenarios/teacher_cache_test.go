package scenarios

import (
	"bytes"
	"encoding"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/artifact"
	"repro/internal/pensieve"
	"repro/internal/scenario"
)

// coldThenCached trains a scenario's tiny teacher into an empty cache, then
// resolves it again from that cache. It returns the reloaded teacher, the
// cached artifact and the config that hits it. It fails the test if the
// second Train retrained (a retrain re-saves the artifact, which replaces
// the file).
func coldThenCached(t *testing.T, name string) (scenario.Teacher, *artifact.Artifact, scenario.Config) {
	t.Helper()
	sc, ok := scenario.Get(name)
	if !ok {
		t.Fatalf("scenario %s is not registered", name)
	}
	cfg := scenario.Config{Scale: scenario.ScaleTiny, Workers: 1, CacheDir: t.TempDir()}
	if _, err := sc.Train(cfg); err != nil {
		t.Fatal(err)
	}
	// Train caches the teacher and nothing else.
	paths, err := filepath.Glob(filepath.Join(cfg.CacheDir, "*"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("cold Train left %v in the cache, want one teacher artifact (%v)", paths, err)
	}
	path := paths[0]
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	teacher, err := sc.Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil || !os.SameFile(before, after) {
		t.Fatalf("cached Train rewrote %s: it retrained instead of loading", path)
	}
	a, err := artifact.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return teacher, a, cfg
}

// TestCachedTeacherReencodesExactly pins the cache-hit path of every
// teacher-caching scenario: the teacher decoded from the cache encodes back
// to exactly the cached payload. Both encodings happen in this process, so
// gob's type numbering matches.
func TestCachedTeacherReencodesExactly(t *testing.T) {
	for _, name := range []string{"abr", "auto-lrla", "auto-srla", "routenet"} {
		t.Run(name, func(t *testing.T) {
			teacher, cached, _ := coldThenCached(t, name)
			m, ok := teacher.Model().(encoding.BinaryMarshaler)
			if !ok {
				t.Fatalf("teacher model %T is not a BinaryMarshaler", teacher.Model())
			}
			got, err := m.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, cached.Payload) {
				t.Fatalf("reloaded teacher encodes to %d bytes that differ from the %d cached", len(got), len(cached.Payload))
			}
			if name != "abr" {
				return
			}
			// The decoder must restore the recipe's hyperparameters, or a
			// loaded teacher would fine-tune differently from a fresh one.
			agent := teacher.Model().(*pensieve.Agent)
			want := pensieve.NewAgent(seedPensieveAgent, false)
			if agent.Gamma != want.Gamma || agent.EntropyWeight != want.EntropyWeight ||
				agent.ActorLR != want.ActorLR || agent.CriticLR != want.CriticLR ||
				agent.BatchEpisodes != want.BatchEpisodes || agent.Modified != want.Modified {
				t.Fatalf("reloaded agent hyperparameters %+v, modified %v; NewAgent has %+v, modified %v",
					*agent.A2C, agent.Modified, *want.A2C, want.Modified)
			}
		})
	}
}

// TestCachedLRLATrainAllocations bounds what resolving the lRLA teacher from
// the cache allocates. Reading the file and decoding the network cost a few
// payloads' worth; building a seeded network only to overwrite it, or growing
// the read buffer from a small start, would push it past the bound.
func TestCachedLRLATrainAllocations(t *testing.T) {
	sc, _ := scenario.Get("auto-lrla")
	// coldThenCached's second Train is the warm-up call: gob's type
	// registry and the scenario's lazy state are built before measuring.
	_, cached, cfg := coldThenCached(t, "auto-lrla")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := sc.Train(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	payload := uint64(len(cached.Payload))
	t.Logf("cached auto-lrla Train allocated %d bytes for a %d-byte payload (%.1f×)", alloc, payload, float64(alloc)/float64(payload))
	if alloc > 5*payload {
		t.Fatalf("cached auto-lrla Train allocated %d bytes, more than 5× its %d-byte payload", alloc, payload)
	}
}
