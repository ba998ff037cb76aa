package experiments

import (
	"fmt"
	"strings"

	"repro/internal/metis/mask"
	"repro/internal/routenet"
	"repro/internal/routing"
	"repro/internal/scenarios"
	"repro/internal/stats"
	"repro/internal/topo"
)

// maskedRouting bundles one traffic sample's routing and mask.
type maskedRouting struct {
	demands []routing.Demand
	rt      *routing.Routing
	res     *mask.Result
}

// solveMasks routes TrafficSamples demand sets with RouteNet* and runs the
// critical-connection search on each.
func solveMasks(f *Fixture, samples int) []maskedRouting {
	g, model := f.RouteNet()
	opt := &routenet.Optimizer{Model: model, Graph: g}
	p := scenarios.RouteNetScale(f.Scale)
	var out []maskedRouting
	for s := 0; s < samples; s++ {
		demands := routing.RandomDemands(g, p.Demands, 3, 9, int64(900+s))
		rt := opt.Route(demands)
		sys := &scenarios.RouteNetSystem{Opt: opt, Routing: rt}
		res := mask.Search(sys, mask.Options{
			Lambda1: 0.25, Lambda2: 1, // Table 4 hyperparameters
			Iterations: p.MaskIterations,
			Seed:       int64(1000 + s),
			Workers:    f.Workers,
		})
		out = append(out, maskedRouting{demands: demands, rt: rt, res: res})
	}
	return out
}

// Table3Result lists the highest-mask (path, link) connections with the
// paper's interpretation taxonomy (shorter vs less congested), Table 3.
type Table3Result struct {
	Rows []Table3Row
}

// Table3Row is one interpreted critical connection.
type Table3Row struct {
	PathStr, LinkStr string
	Mask             float64
	Interpretation   string
}

// String renders the result.
func (r *Table3Result) String() string {
	var b strings.Builder
	b.WriteString("Table 3 — top mask-value interpretations (RouteNet* on NSFNet)\n")
	fmt.Fprintf(&b, "%-3s %-22s %-10s %-8s %s\n", "#", "routing path", "link", "mask", "interpretation")
	for i, row := range r.Rows {
		fmt.Fprintf(&b, "%-3d %-22s %-10s %-8.3f %s\n", i+1, row.PathStr, row.LinkStr, row.Mask, row.Interpretation)
	}
	return b.String()
}

// Table3 interprets the top-5 connections of one representative sample.
func Table3(f *Fixture) *Table3Result {
	g, _ := f.RouteNet()
	mr := solveMasks(f, 1)[0]
	off := routenet.ConnectionOffsets(mr.rt.Paths)
	loads := mr.rt.LinkLoads(g)

	// Map flat connection index → (demand, position).
	locate := func(ci int) (int, int) {
		for i := len(off) - 1; i >= 0; i-- {
			if ci >= off[i] {
				return i, ci - off[i]
			}
		}
		return 0, ci
	}
	res := &Table3Result{}
	for _, ci := range mr.res.TopConnections(5) {
		di, pos := locate(ci)
		p := mr.rt.Paths[di]
		link := g.Links[p[pos]]
		d := mr.rt.Demands[di]
		cands := g.CandidatePaths(d.Src, d.Dst, 1)
		interp := "shorter"
		if len(cands) > 1 && len(cands[1]) == len(cands[0]) && len(p) == len(cands[0]) {
			// Same-length alternatives exist: criticality comes from
			// congestion avoidance, not hop count.
			interp = "less congested"
			_ = loads
		}
		res.Rows = append(res.Rows, Table3Row{
			PathStr:        p.String(g),
			LinkStr:        fmt.Sprintf("%d→%d", link.Src, link.Dst),
			Mask:           mr.res.W[ci],
			Interpretation: interp,
		})
	}
	return res
}

// Fig09Result aggregates mask behaviour across samples: (a) the mask value
// distribution avoids the middle; (b) per-link mask mass correlates with
// link traffic.
type Fig09Result struct {
	// MidFraction is the fraction of masks in (0.2, 0.8) — the paper's
	// "few median values" claim.
	MidFraction float64
	// ExtremeFraction is the fraction below 0.2 or above 0.8.
	ExtremeFraction float64
	// CDF summarizes the pooled mask distribution.
	CDF []stats.CDFPoint
	// PearsonR is corr(Σ_e W_ve, link traffic) pooled over samples
	// (paper: 0.81).
	PearsonR float64
}

// String renders the result.
func (r *Fig09Result) String() string {
	return fmt.Sprintf("Fig 9 — mask distribution: %.0f%% of masks extreme (<0.2 or >0.8), %.0f%% median; corr(ΣW per link, link traffic) r=%.2f (paper: few medians, r=0.81)",
		100*r.ExtremeFraction, 100*r.MidFraction, r.PearsonR)
}

// Fig09 pools masks over traffic samples.
func Fig09(f *Fixture) *Fig09Result {
	g, _ := f.RouteNet()
	mrs := solveMasks(f, f.trafficSamples())
	var all []float64
	var sumW, traffic []float64
	for _, mr := range mrs {
		all = append(all, mr.res.W...)
		off := routenet.ConnectionOffsets(mr.rt.Paths)
		perLink := make([]float64, len(g.Links))
		for i, p := range mr.rt.Paths {
			for pos, id := range p {
				perLink[id] += mr.res.W[off[i]+pos]
			}
		}
		loads := mr.rt.LinkLoads(g)
		for l := range perLink {
			if loads[l] > 0 || perLink[l] > 0 {
				sumW = append(sumW, perLink[l])
				traffic = append(traffic, loads[l])
			}
		}
	}
	mid := 0
	for _, w := range all {
		if w > 0.2 && w < 0.8 {
			mid++
		}
	}
	return &Fig09Result{
		MidFraction:     float64(mid) / float64(len(all)),
		ExtremeFraction: 1 - float64(mid)/float64(len(all)),
		CDF:             stats.ECDF(all),
		PearsonR:        stats.Pearson(sumW, traffic),
	}
}

// Fig18Result is the ad-hoc rerouting study (§6.5): mask differences at
// diverting nodes predict which alternative path has lower latency.
type Fig18Result struct {
	// Points holds (w01−w02, l1−l2) pairs.
	Points [][2]float64
	// QuadrantFrac is the fraction in quadrants I/III (sign agreement).
	QuadrantFrac float64
	// NearFrac additionally counts points within a small band of the axes.
	NearFrac float64
}

// String renders the result.
func (r *Fig18Result) String() string {
	return fmt.Sprintf("Fig 18 — ad-hoc rerouting: %d candidate pairs, %.0f%% in quadrants I/III, %.0f%% including near-axis (paper: 72%% + 19%%)",
		len(r.Points), 100*r.QuadrantFrac, 100*r.NearFrac)
}

// Fig18 evaluates the §6.5 observation over all candidate scenarios.
func Fig18(f *Fixture) *Fig18Result {
	g, _ := f.RouteNet()
	dm := routing.DelayModel{}
	mrs := solveMasks(f, maxInt(2, f.trafficSamples()/4))
	r := &Fig18Result{}
	for _, mr := range mrs {
		off := routenet.ConnectionOffsets(mr.rt.Paths)
		loads := mr.rt.LinkLoads(g)
		for i, p0 := range mr.rt.Paths {
			d := mr.rt.Demands[i]
			cands := g.CandidatePaths(d.Src, d.Dst, 1)
			// Gather alternatives with their divergence info.
			type alt struct {
				divergePos int
				latency    float64
			}
			var alts []alt
			n0 := p0.Nodes(g)
			for _, c := range cands {
				if samePath(c, p0) {
					continue
				}
				nc := c.Nodes(g)
				pos := 0
				for pos < len(n0)-1 && pos < len(nc)-1 && n0[pos+1] == nc[pos+1] {
					pos++
				}
				if pos >= len(p0) {
					continue
				}
				// Latency of the rerouted path, other demands fixed.
				lat := 0.0
				for _, id := range c {
					extra := d.VolumeMbps
					onOld := false
					for _, oid := range p0 {
						if oid == id {
							onOld = true
							break
						}
					}
					load := loads[id] + extra
					if onOld {
						load = loads[id] // demand already counted there
					}
					lat += dm.LinkDelayMs(load, g.Links[id].CapMbps)
				}
				alts = append(alts, alt{divergePos: pos, latency: lat})
			}
			for a := 0; a < len(alts); a++ {
				for b := a + 1; b < len(alts); b++ {
					if alts[a].divergePos == alts[b].divergePos {
						continue
					}
					w1 := mr.res.W[off[i]+alts[a].divergePos]
					w2 := mr.res.W[off[i]+alts[b].divergePos]
					r.Points = append(r.Points, [2]float64{w1 - w2, alts[a].latency - alts[b].latency})
				}
			}
		}
	}
	in, near := 0, 0
	for _, p := range r.Points {
		if p[0]*p[1] > 0 {
			in++
			near++
		} else if absf(p[0]) < 0.05 || absf(p[1]) < 0.5 {
			near++
		}
	}
	if len(r.Points) > 0 {
		r.QuadrantFrac = float64(in) / float64(len(r.Points))
		r.NearFrac = float64(near) / float64(len(r.Points))
	}
	return r
}

func samePath(a, b topo.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Fig29Result is the λ sensitivity study (Appendix F.2): λ1 shrinks ‖W‖ and
// λ2 reduces entropy.
type Fig29Result struct {
	Lambda1s, NormAtL1    []float64
	Lambda2s, EntropyAtL2 []float64
}

// String renders the result.
func (r *Fig29Result) String() string {
	var b strings.Builder
	b.WriteString("Fig 29/30 — hyperparameter sensitivity\n")
	b.WriteString("λ1 sweep (λ2=1):   ")
	for i := range r.Lambda1s {
		fmt.Fprintf(&b, "λ1=%.3g→‖W‖/n=%.3f  ", r.Lambda1s[i], r.NormAtL1[i])
	}
	b.WriteString("\nλ2 sweep (λ1=0.25): ")
	for i := range r.Lambda2s {
		fmt.Fprintf(&b, "λ2=%.3g→H(W)/n=%.3f  ", r.Lambda2s[i], r.EntropyAtL2[i])
	}
	b.WriteString("\n(paper: both terms respond monotonically to their hyperparameter)\n")
	return b.String()
}

// Fig29 sweeps λ1 and λ2 on a fixed routing sample.
func Fig29(f *Fixture) *Fig29Result {
	g, model := f.RouteNet()
	opt := &routenet.Optimizer{Model: model, Graph: g}
	p := scenarios.RouteNetScale(f.Scale)
	demands := routing.RandomDemands(g, p.Demands, 3, 9, 901)
	rt := opt.Route(demands)
	sys := &scenarios.RouteNetSystem{Opt: opt, Routing: rt}

	r := &Fig29Result{}
	for _, l1 := range []float64{0.125, 0.25, 0.5, 1, 2} {
		res := mask.Search(sys, mask.Options{Lambda1: l1, Lambda2: 1, Iterations: p.MaskIterations, Seed: 5, Workers: f.Workers})
		r.Lambda1s = append(r.Lambda1s, l1)
		r.NormAtL1 = append(r.NormAtL1, res.Norm)
	}
	for _, l2 := range []float64{0.25, 0.5, 1, 2, 4} {
		res := mask.Search(sys, mask.Options{Lambda1: 0.25, Lambda2: l2, Iterations: p.MaskIterations, Seed: 5, Workers: f.Workers})
		r.Lambda2s = append(r.Lambda2s, l2)
		r.EntropyAtL2 = append(r.EntropyAtL2, res.Entropy)
	}
	return r
}
