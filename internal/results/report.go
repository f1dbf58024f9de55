package results

import (
	"fmt"
	"strings"

	"sfence/internal/exp"
)

// Claim is one machine-checkable statement from the paper's evaluation
// section: what the paper says, and a check that measures the suite
// against it.
type Claim struct {
	// Kind names the figure/table the claim belongs to.
	Kind string
	// Text is the paper's claim, paraphrased.
	Text string
	// Check returns a short description of the measured value and whether
	// it matches the claim.
	Check func(*Suite) (measured string, ok bool)
}

// Claims returns the paper-claim checklist in report order. Each check
// mirrors the corresponding assertion in the repository's test suite, so
// EXPERIMENTS.md and `go test` agree on what "reproduced" means.
func Claims() []Claim {
	return []Claim{
		{
			Kind: KindFigure12,
			Text: "S-Fence speeds up all four lock-free algorithms across the " +
				"workload sweep (the paper's peaks lie between 1.13x and 1.34x; " +
				"peaks outside that range are flagged in the measured column).",
			Check: func(s *Suite) (string, bool) {
				all := payload[[]exp.SpeedupSeries](s, "fig12")
				ok := len(all) == 4
				parts := make([]string, 0, len(all))
				for _, series := range all {
					peak, at := series.Peak()
					note := ""
					switch {
					case peak < 1.13:
						note = " [below paper range]"
					case peak > 1.34:
						note = " [above paper range]"
					}
					parts = append(parts, fmt.Sprintf("%s %.3fx@%d%s", series.Bench, peak, at, note))
					// The checked claim is the qualitative one: a real,
					// plausible speedup on every benchmark.
					if peak < 1.02 || peak > 2.5 {
						ok = false
					}
				}
				return "peaks: " + strings.Join(parts, ", "), ok
			},
		},
		{
			Kind: KindFigure13,
			Text: "On full applications S-Fence never loses to traditional fences, " +
				"with and without in-window speculation (S <= T, S+ <= T+).",
			Check: func(s *Suite) (string, bool) {
				groups := payload[[]exp.BenchGroup](s, "fig13")
				ok := len(groups) == 4
				parts := make([]string, 0, len(groups))
				for _, g := range groups {
					if len(g.Bars) != 4 {
						return "malformed groups", false
					}
					T, S, Tp, Sp := g.Bars[0], g.Bars[1], g.Bars[2], g.Bars[3]
					noise := 0.05
					if g.Bench == "ptc" {
						noise = 0.10 // dynamic schedule
					}
					if S.Total() > T.Total()+noise || Sp.Total() > Tp.Total()+noise {
						ok = false
					}
					parts = append(parts, fmt.Sprintf("%s S=%.3f S+=%.3f", g.Bench, S.Total(), Sp.Total()))
				}
				return strings.Join(parts, ", "), ok
			},
		},
		{
			Kind: KindFigure13,
			Text: "barnes and radiosity (set-scope applications) lose a large share " +
				"of their fence stalls under S-Fence.",
			Check: func(s *Suite) (string, bool) {
				groups := payload[[]exp.BenchGroup](s, "fig13")
				ok := false
				parts := []string{}
				for _, g := range groups {
					if g.Bench != "barnes" && g.Bench != "radiosity" {
						continue
					}
					ok = true
					T, S := g.Bars[0], g.Bars[1]
					if S.FenceStall > 0.6*T.FenceStall {
						ok = false
					}
					parts = append(parts, fmt.Sprintf("%s stalls T=%.3f S=%.3f", g.Bench, T.FenceStall, S.FenceStall))
				}
				return strings.Join(parts, ", "), ok
			},
		},
		{
			Kind: KindFigure14,
			Text: "Set scope performs slightly better than class scope, but the " +
				"difference is not significant.",
			Check: func(s *Suite) (string, bool) {
				groups := payload[[]exp.BenchGroup](s, "fig14")
				ok := len(groups) > 0
				parts := make([]string, 0, len(groups))
				for _, g := range groups {
					cs, ss := g.Bars[0], g.Bars[1]
					if ss.Total() > cs.Total()*1.10 {
						ok = false
					}
					parts = append(parts, fmt.Sprintf("%s S.S./C.S.=%.3f", g.Bench, ss.Total()/cs.Total()))
				}
				return strings.Join(parts, ", "), ok
			},
		},
		{
			Kind: KindFigure15,
			Text: "S-Fence's advantage persists across memory latencies; for the " +
				"set-scope applications S beats T at 200, 300, and 500 cycles.",
			Check: func(s *Suite) (string, bool) {
				groups := payload[[]exp.BenchGroup](s, "fig15")
				ok := len(groups) > 0
				parts := []string{}
				for _, g := range groups {
					byLabel := map[string]exp.Bar{}
					for _, b := range g.Bars {
						byLabel[b.Label] = b
					}
					if byLabel["500T"].Total() <= byLabel["200T"].Total() {
						ok = false
					}
					if g.Bench == "barnes" || g.Bench == "radiosity" {
						for _, lat := range []string{"200", "300", "500"} {
							if byLabel[lat+"S"].Total() >= byLabel[lat+"T"].Total() {
								ok = false
							}
						}
						parts = append(parts, fmt.Sprintf("%s S/T@500=%.3f", g.Bench,
							byLabel["500S"].Total()/byLabel["500T"].Total()))
					}
				}
				return strings.Join(parts, ", "), ok
			},
		},
		{
			Kind: KindFigure16,
			Text: "S-Fence's advantage persists across ROB sizes (64/128/256); a " +
				"larger window never hurts.",
			Check: func(s *Suite) (string, bool) {
				groups := payload[[]exp.BenchGroup](s, "fig16")
				ok := len(groups) > 0
				parts := make([]string, 0, len(groups))
				for _, g := range groups {
					byLabel := map[string]exp.Bar{}
					for _, b := range g.Bars {
						byLabel[b.Label] = b
					}
					if byLabel["256S"].Total() > byLabel["64S"].Total()*1.08 {
						ok = false
					}
					parts = append(parts, fmt.Sprintf("%s 256S=%.3f", g.Bench, byLabel["256S"].Total()))
				}
				return strings.Join(parts, ", "), ok
			},
		},
		{
			Kind: KindFigureDepth,
			Text: "(beyond the paper) S-Fence's advantage is a property of fence " +
				"semantics, not hierarchy shape: scoped fences never lose to " +
				"traditional fences on 2-, 3-, or 4-level memory hierarchies.",
			Check: func(s *Suite) (string, bool) {
				groups := payload[[]exp.BenchGroup](s, "fig-depth")
				ok := len(groups) == 8
				worst := map[string]float64{}
				for _, g := range groups {
					byLabel := map[string]exp.Bar{}
					for _, b := range g.Bars {
						byLabel[b.Label] = b
					}
					noise := 0.05
					if g.Bench == "ptc" {
						noise = 0.10
					}
					for _, d := range []string{"2", "3", "4"} {
						T, S := byLabel[d+"T"], byLabel[d+"S"]
						if T.Total() == 0 || S.Total() > T.Total()+noise {
							ok = false
						}
						if r := S.Total() / T.Total(); r > worst[d] {
							worst[d] = r
						}
					}
				}
				return fmt.Sprintf("worst S/T: depth2=%.3f depth3=%.3f depth4=%.3f",
					worst["2"], worst["3"], worst["4"]), ok
			},
		},
		{
			Kind: KindInferred,
			Text: "(beyond the paper) Static scope inference recovers the hand " +
				"annotations' benefit wherever address arithmetic is statically " +
				"resolvable (dekker, wsq, msn, barnes, radiosity), and on the " +
				"pointer-chasing applications degrades soundly toward traditional " +
				"fences — it never loses to them anywhere.",
			Check: func(s *Suite) (string, bool) {
				groups := payload[[]exp.BenchGroup](s, "fig-inferred")
				// The kernels whose shared-access addresses the abstract
				// interpreter resolves exactly; the rest reach shared data
				// through loaded pointers, where over-flagging is the sound
				// outcome.
				resolvable := map[string]bool{
					"dekker": true, "wsq": true, "msn": true, "barnes": true, "radiosity": true,
				}
				ok := len(groups) == 8
				worstVsT, worstVsS := 0.0, 0.0
				for _, g := range groups {
					if len(g.Bars) != 3 {
						return "malformed groups", false
					}
					T, S, I := g.Bars[0], g.Bars[1], g.Bars[2]
					if T.Total() == 0 || S.Total() == 0 {
						return "zero baseline", false
					}
					noise := 0.05
					if g.Bench == "ptc" {
						noise = 0.10 // dynamic schedule
					}
					if I.Total() > T.Total()+noise {
						ok = false
					}
					if resolvable[g.Bench] && I.Total() > S.Total()+noise {
						ok = false
					}
					if r := I.Total() / T.Total(); r > worstVsT {
						worstVsT = r
					}
					if r := I.Total() / S.Total(); resolvable[g.Bench] && r > worstVsS {
						worstVsS = r
					}
				}
				return fmt.Sprintf("worst I/T=%.3f overall, worst I/S=%.3f on resolvable kernels", worstVsT, worstVsS), ok
			},
		},
		{
			Kind: KindFigureCores,
			Text: "(beyond the paper) S-Fence's advantage survives machine width: " +
				"on the scalable kernels, scoped fences never lose to traditional " +
				"fences at 8, 64, or 256 cores, and every row completes verified.",
			Check: func(s *Suite) (string, bool) {
				rows := payload[[]exp.CoresRow](s, "fig-cores")
				type cell struct {
					bench string
					cores int
				}
				T, S := map[cell]exp.CoresRow{}, map[cell]exp.CoresRow{}
				for _, r := range rows {
					c := cell{r.Bench, r.Cores}
					if r.Mode == "T" {
						T[c] = r
					} else {
						S[c] = r
					}
				}
				ok := len(rows) == 2*len(exp.CoreCounts)*2
				worst := 0.0
				worstAt := ""
				for c, t := range T {
					sr, have := S[c]
					if !have || t.Cycles == 0 {
						ok = false
						continue
					}
					if r := float64(sr.Cycles) / float64(t.Cycles); r > worst {
						worst, worstAt = r, fmt.Sprintf("%s@%d", c.bench, c.cores)
					}
				}
				if worst > 1.05 {
					ok = false
				}
				return fmt.Sprintf("worst S/T cycles %.3f (%s) across %d rows", worst, worstAt, len(rows)), ok
			},
		},
		{
			Kind: KindHardwareCost,
			Text: "The S-Fence hardware costs less than 80 bytes of storage per core " +
				"for the Table III configuration.",
			Check: func(s *Suite) (string, bool) {
				rep := payload[exp.HardwareCostReport](s, "hwcost")
				return fmt.Sprintf("%.1f bytes/core", rep.TotalBytes), rep.PaperClaimOK
			},
		},
	}
}

// renderTableIVInfos formats stored Table IV records through the shared
// exp layout helpers.
func renderTableIVInfos(infos []BenchmarkInfo) string {
	var sb strings.Builder
	sb.WriteString("Table IV — Benchmark description\n")
	sb.WriteString(exp.TableIVHeader())
	for _, info := range infos {
		sb.WriteString(exp.TableIVLine(info.Name, info.ScopeType, info.Group, info.Description))
	}
	return sb.String()
}

// flag renders a claim verdict.
func flag(ok bool) string {
	if ok {
		return "✅ reproduced"
	}
	return "❌ DIVERGES"
}

// ExperimentsMD renders the paper-vs-measured record: for every figure
// and table, the paper's claim, the measured values, the verdict, and
// the full ASCII rendering of the measured data. The output is
// deterministic for a given suite, so regeneration is diff-clean when
// nothing changed.
func (s *Suite) ExperimentsMD() string {
	var sb strings.Builder
	sb.WriteString("# EXPERIMENTS — paper vs. measured\n\n")
	sb.WriteString("Source paper: " + Paper + ".\n\n")
	fmt.Fprintf(&sb, "Scale: **%s** · results schema v%d · generated by `sfence-report`\n\n", ScaleName(s.Scale), SchemaVersion)
	sb.WriteString("Regenerate this file and the `BENCH_*.json` artifacts with:\n\n")
	sb.WriteString("```\ngo run ./cmd/sfence-report")
	if s.Scale == exp.Quick {
		sb.WriteString(" -quick")
	}
	sb.WriteString("\n```\n\n")
	if s.SimRequests > 0 {
		// These counts are properties of the suite itself, independent of
		// cache presence or warmth, so regeneration stays diff-clean.
		fmt.Fprintf(&sb, "The suite requests %d simulations covering %d distinct configurations; the run cache deduplicates the overlap (Figures 13/15/16 share their Table III baselines).\n\n",
			s.SimRequests, s.SimDistinct)
	}

	sb.WriteString("## Claim checklist\n\n")
	sb.WriteString("| # | Where | Paper claim | Measured | Verdict |\n")
	sb.WriteString("|---|-------|-------------|----------|---------|\n")
	okCount, total := 0, 0
	for i, c := range Claims() {
		measured, ok := c.Check(s)
		total++
		if ok {
			okCount++
		}
		fmt.Fprintf(&sb, "| %d | %s | %s | %s | %s |\n", i+1, kindTitles[c.Kind], c.Text, measured, flag(ok))
	}
	fmt.Fprintf(&sb, "\n**%d/%d claims reproduced.**\n\n", okCount, total)

	block := func(body string) { sb.WriteString("```\n" + strings.TrimRight(body, "\n") + "\n```\n\n") }
	section := func(title, body string) {
		sb.WriteString("## " + title + "\n\n")
		block(body)
	}
	// The section titles and chart titles below are the report's own; some
	// differ from the registry renderers' titles.
	groups := func(title, id string) string { return exp.RenderGroups(title, payload[[]exp.BenchGroup](s, id)) }
	section(kindTitles[KindTableIII], exp.RenderTableIIIRows(payload[[]exp.TableIIIRow](s, "table3")))
	section(kindTitles[KindTableIV], renderTableIVInfos(payload[[]BenchmarkInfo](s, "table4")))
	section(kindTitles[KindHardwareCost], exp.RenderHardwareCost(payload[exp.HardwareCostReport](s, "hwcost")))
	section(kindTitles[KindFigure12], exp.RenderFigure12(payload[[]exp.SpeedupSeries](s, "fig12")))
	section(kindTitles[KindFigure13], groups("Figure 13 — Normalized execution time (T, S, T+, S+)", "fig13"))
	section(kindTitles[KindFigure14], groups("Figure 14 — Class scope vs. set scope", "fig14"))
	section(kindTitles[KindFigure15], groups("Figure 15 — Varying memory access latency", "fig15"))
	section(kindTitles[KindFigure16], groups("Figure 16 — Varying ROB size", "fig16"))
	section(kindTitles[KindFigureDepth], groups("Depth sweep — Varying memory-hierarchy depth (2/3/4 levels)", "fig-depth"))
	sb.WriteString("The depth sweep generalizes Figure 15's sensitivity study from latencies to " +
		"hierarchy *shape*: every Table IV benchmark runs on the canonical 2-, 3-, and 4-level " +
		"hierarchies of `memsys.DepthConfig`, normalized per benchmark to the 2-level " +
		"traditional run. Deeper hierarchies pay a slower last level on shared-data misses, " +
		"which stretches the store-buffer drain a traditional fence must wait out — so the " +
		"absolute fence-stall bars grow with depth while S-Fence, which skips out-of-scope " +
		"stores entirely, keeps most of its bar flat. The S/T gap therefore persists (and " +
		"typically widens) with depth, the same qualitative conclusion as the paper's " +
		"latency sweep: the fence-stall cost S-Fence removes scales with the memory system, " +
		"not with the fence count.\n\n")

	section(kindTitles[KindFigureCores], exp.RenderCores(payload[[]exp.CoresRow](s, "fig-cores")))
	sb.WriteString("The core-count sweep runs the scalable `scale` kernels (a balanced " +
		"ring-synchronized variant and a straggler-imbalanced barrier variant) on 8-, 64-, " +
		"and 256-core machines — the last far beyond the 64-core ceiling the old " +
		"directory bitmask imposed. The simulated results are deterministic: the " +
		"event-driven clock reproduces naive per-cycle stepping bit-for-bit on these " +
		"kernels at 64, 65 and 256 cores (the clock-equivalence tests assert it), even " +
		"though it parks the straggler variant's spinning cores through the barrier " +
		"tail. Wall-clock measurements of the simulator itself come from " +
		"`bash bench/run.sh`.\n\n")
	section(kindTitles[KindHeatmap], exp.RenderHeatmap(payload[[]exp.HeatmapRow](s, "fig-heatmap")))
	sb.WriteString("The heatmap breaks each benchmark's fence stall down per static fence site " +
		"(the `FenceProfile` plumbing), showing *which* fences the scoped semantics rescue: " +
		"under T a handful of sites carry nearly all the stall; under S the same sites " +
		"either leave the profile entirely (scoped fences skip the remote drain) or keep " +
		"only their intra-scope share.\n\n")

	section(kindTitles[KindInferred], groups("Inferred scopes — T (traditional), S (hand annotations), I (static inference)", "fig-inferred"))
	sb.WriteString("The inferred-scope experiment runs every Table IV benchmark a third way: the " +
		"unannotated (traditional) build is handed to `scopecheck.Infer`, which computes each " +
		"fence's pending-access footprint by abstract interpretation, rewrites every fence to " +
		"set scope, and flags exactly the thread-escaping accesses whose ordering the fence " +
		"must enforce — the paper's Section IV compiler support as a working analysis, with no " +
		"hand annotations anywhere. Where the interpreter resolves every shared-access address " +
		"(dekker, wsq, msn, barnes, radiosity) the inferred configuration (I) matches the " +
		"hand-annotated one (S) within noise: the annotations carry no information the analysis " +
		"cannot recover from the program text. Where shared data is reached through loaded " +
		"pointers (harris's node chases, pst/ptc's queue buffers and CSR-indexed arrays) the " +
		"analysis over-flags conservatively and I degrades toward T — soundness means precision " +
		"loss can only add ordering, never remove it, so inference never loses to traditional " +
		"fences anywhere. The same inference is verified dynamically in `internal/ref`: every fuzzed " +
		"scenario's inferred lowering must be bit-identical across simulator clocks and agree " +
		"with the SC oracle's checked projection.\n\n")

	sb.WriteString("## Ablations (beyond the paper)\n\n")
	for _, r := range s.Results {
		if _, ok := r.Data.(AblationSet); ok {
			block(r.Render())
		}
	}

	sb.WriteString("## Artifacts\n\n")
	sb.WriteString("Machine-readable envelopes (schema v" + fmt.Sprint(SchemaVersion) + ") accompany this file:\n\n")
	for _, name := range s.artifactNames() {
		fmt.Fprintf(&sb, "- `%s`\n", name)
	}
	return sb.String()
}
