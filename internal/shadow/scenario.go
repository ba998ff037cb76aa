package shadow

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/scenario"
)

// EnrollScenarios walks the engine's registry and enrolls every served model
// that declares scenario lineage — artifact metadata "scenario" naming a
// registered scenario and "scale" naming its scale (metis-exp stamps both on
// every student it exports). For each such model the bridge resolves the
// teacher through the scenario's Train path with CacheDir pointed at the
// monitor's Dir. A pre-cached teacher artifact (metis-exp -cache <dir>) is
// read once and its networks decoded; nothing is trained or initialised.
// A refittable model also decodes its cached corpus. At test scale that is
// a few milliseconds per model, most of it gob decoding (the lRLA teacher
// is a 0.6 MB payload). Absent a cache the teacher is trained in-process,
// which is only sensible at tiny scale. Every teacher and corpus is loaded
// and validated here, before the daemon serves.
//
// Models whose scenario implements scenario.Refitter AND has a cached
// distillation corpus under Dir are enrolled with the full drift→refit→
// rollback loop; the rest are enrolled score-only (fidelity measured and
// exported, drift never refits). Models without scenario metadata are
// skipped. Returns the number of models enrolled.
func EnrollScenarios(m *Monitor) (int, error) {
	logf := m.opts.Logf
	enrolled := 0
	for _, mod := range m.engine.Models() {
		name := mod.Meta["scenario"]
		if name == "" {
			continue
		}
		if mod.IsRegression() {
			logf("shadow: skipping %s: regression student", mod.Name)
			continue
		}
		sc, ok := scenario.Get(name)
		if !ok {
			logf("shadow: skipping %s: scenario %q is not registered", mod.Name, name)
			continue
		}
		cfg := scenario.Config{
			Scale:    mod.Meta["scale"],
			Workers:  m.opts.Workers,
			CacheDir: m.opts.Dir,
		}
		teacher, err := sc.Train(cfg)
		if err != nil {
			return enrolled, fmt.Errorf("shadow: teacher for %s (scenario %s): %w", mod.Name, name, err)
		}
		mc := ModelConfig{Model: mod.Name, Teacher: teacher}
		fp := sc.Fingerprint(cfg)
		if refitter, ok := sc.(scenario.Refitter); ok {
			if corpus, ok := cfg.LoadCachedDataset(name, fp); ok {
				mc.Corpus = corpus
				mc.Refit = func(ds *dataset.Table) (any, error) {
					st, err := refitter.Refit(cfg, ds)
					if err != nil {
						return nil, err
					}
					return st.Model(), nil
				}
				mc.SaveCorpus = func(ds *dataset.Table) error {
					return cfg.SaveCachedDataset(name, fp, ds)
				}
			} else {
				logf("shadow: %s: no cached corpus for scenario %s at %s — score-only", mod.Name, name, m.opts.Dir)
			}
		} else {
			logf("shadow: %s: scenario %s does not refit — score-only", mod.Name, name)
		}
		if err := m.Enroll(mc); err != nil {
			return enrolled, err
		}
		enrolled++
	}
	return enrolled, nil
}
