package experiments

import (
	"fmt"
	"sort"

	"repro/internal/scenario"
)

// Runner produces one experiment result from a shared fixture.
type Runner func(f *Fixture) fmt.Stringer

// Registry maps experiment identifiers (table/figure numbers) to runners.
// cmd/metis-exp iterates it; tests use it to guarantee every registered
// experiment actually runs.
var Registry = map[string]Runner{
	"fig7":      func(f *Fixture) fmt.Stringer { return Fig07(f) },
	"fig9":      func(f *Fixture) fmt.Stringer { return Fig09(f) },
	"fig11":     func(f *Fixture) fmt.Stringer { return Fig11(f) },
	"fig12":     func(f *Fixture) fmt.Stringer { return Fig12(f, "HSDPA") },
	"fig12b":    func(f *Fixture) fmt.Stringer { return Fig12(f, "FCC") },
	"fig12c":    func(f *Fixture) fmt.Stringer { return Fig12c(f) },
	"fig13":     func(f *Fixture) fmt.Stringer { return Fig13(f, 3000) },
	"fig14":     func(f *Fixture) fmt.Stringer { return Fig14(f) },
	"fig15a":    func(f *Fixture) fmt.Stringer { return Fig15a(f) },
	"fig15b":    func(f *Fixture) fmt.Stringer { return Fig15b(f) },
	"fig16a":    func(f *Fixture) fmt.Stringer { return Fig16a(f) },
	"fig16b":    func(f *Fixture) fmt.Stringer { return Fig16b(f) },
	"fig17a":    func(f *Fixture) fmt.Stringer { return Fig17a(f) },
	"fig17b":    func(f *Fixture) fmt.Stringer { return Fig17b(f) },
	"fig18":     func(f *Fixture) fmt.Stringer { return Fig18(f) },
	"fig20":     func(f *Fixture) fmt.Stringer { return Fig20(f) },
	"fig27":     func(f *Fixture) fmt.Stringer { return Fig27(f, byScale(f, []int{1, 5}, []int{1, 5, 10, 20, 50})) },
	"fig27auto": func(f *Fixture) fmt.Stringer { return Fig27Auto(f, byScale(f, []int{1, 5}, []int{1, 5, 10, 20})) },
	"fig28": func(f *Fixture) fmt.Stringer {
		return Fig28(f, byScale(f, []int{10, 50, 200}, []int{10, 50, 200, 1000, 5000}))
	},
	"fig29":  func(f *Fixture) fmt.Stringer { return Fig29(f) },
	"fig31":  func(f *Fixture) fmt.Stringer { return Fig31(f, byScale(f, []int{50, 200}, []int{100, 1000, 5000})) },
	"table3": func(f *Fixture) fmt.Stringer { return Table3(f) },
	"table5": func(f *Fixture) fmt.Stringer { return Table5(f) },
}

// byScale returns full at full scale and test otherwise. The sweeps above
// and the two knobs below are the figures' only per-scale settings that the
// scenario tables do not hold.
func byScale[T any](f *Fixture, test, full T) T {
	if f.Scale == scenario.ScaleFull {
		return full
	}
	return test
}

// auToRuns is how many fabric runs the AuTO figures average per workload.
func (f *Fixture) auToRuns() int { return byScale(f, 3, 8) }

// trafficSamples is how many routed traffic samples the global-system
// figures interpret (paper: 50).
func (f *Fixture) trafficSamples() int { return byScale(f, 8, 50) }

// Names returns all registered experiment identifiers, sorted.
func Names() []string {
	var names []string
	for k := range Registry {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
