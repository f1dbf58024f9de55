package machine

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"sfence/internal/isa"
	"sfence/internal/stats"
)

// clockStatPrefix names the stats that describe how the clock ran (slow
// ticks, jumps, spin forwarding) rather than what the simulated hardware
// did: they are the only stats the naive and event-driven clocks may
// disagree on.
const clockStatPrefix = "machine.clock."

// Diff returns the first divergence between a and b, naming what diverged
// and both values, or nil when the two machines did the same thing. It is
// the one comparator behind every check that the event-driven Run agrees
// with naive stepping, and it compares, in order:
//   - the global cycle;
//   - each machine's clock accounting: slow ticks plus skipped cycles
//     must equal its cycle;
//   - every registered stat outside machine.clock.*;
//   - per core: its own clock, its cpu.Stats, every register and its
//     fence profile;
//   - the cache hierarchy's total statistics;
//   - the memory image.
func Diff(a, b *Machine) error {
	if a.cycle != b.cycle {
		return fmt.Errorf("cycle diverged: %d vs %d", a.cycle, b.cycle)
	}
	for _, m := range []*Machine{a, b} {
		if cs := m.clock; cs.SlowTicks+cs.SkippedCycles != m.cycle {
			return fmt.Errorf("clock accounting broken: %d slow + %d skipped != %d cycles",
				cs.SlowTicks, cs.SkippedCycles, m.cycle)
		}
	}
	sa, sb := hardwareStats(a.StatsSnapshot()), hardwareStats(b.StatsSnapshot())
	for i := range min(len(sa), len(sb)) {
		if sa[i] == sb[i] {
			continue
		}
		if sa[i].Name != sb[i].Name {
			return fmt.Errorf("stat set diverged: %s vs %s", sa[i].Name, sb[i].Name)
		}
		return fmt.Errorf("stat %s diverged: %s vs %s", sa[i].Name, sampleValue(sa[i]), sampleValue(sb[i]))
	}
	if len(sa) != len(sb) {
		return fmt.Errorf("stat count diverged: %d vs %d", len(sa), len(sb))
	}
	// Every core registers stats, so equal stats mean equal core counts.
	for i, ca := range a.cores {
		cb := b.cores[i]
		if ca.Cycle() != cb.Cycle() {
			return fmt.Errorf("core %d clock diverged: %d vs %d", i, ca.Cycle(), cb.Cycle())
		}
		if va, vb := reflect.ValueOf(*ca.Stats()), reflect.ValueOf(*cb.Stats()); !va.Equal(vb) {
			for f := range va.NumField() {
				if !va.Field(f).Equal(vb.Field(f)) {
					return fmt.Errorf("core %d stats.%s diverged: %v vs %v",
						i, va.Type().Field(f).Name, va.Field(f), vb.Field(f))
				}
			}
		}
		for r := range isa.Reg(isa.NumRegs) {
			if ca.Reg(r) != cb.Reg(r) {
				return fmt.Errorf("core %d R%d diverged: %d vs %d", i, r, ca.Reg(r), cb.Reg(r))
			}
		}
		if pa, pb := ca.FenceProfile(), cb.FenceProfile(); !slices.Equal(pa, pb) {
			return fmt.Errorf("core %d fence profile diverged:\n%+v\nvs\n%+v", i, pa, pb)
		}
	}
	if ha, hb := a.hier.TotalStats(), b.hier.TotalStats(); !reflect.DeepEqual(ha, hb) {
		return fmt.Errorf("hierarchy stats diverged:\n%+v\nvs\n%+v", ha, hb)
	}
	if addr, differ := a.img.FirstDiff(b.img); differ {
		return fmt.Errorf("memory word at %d diverged: %d vs %d", addr, a.img.Load(addr), b.img.Load(addr))
	}
	return nil
}

// sampleValue renders a sample's value: the float of a formula, the
// integer of any other kind.
func sampleValue(s stats.Sample) string {
	if s.Kind == stats.KindFormula {
		return strconv.FormatFloat(s.Float, 'g', -1, 64)
	}
	return strconv.FormatInt(s.Value, 10)
}

// hardwareStats returns the samples of s outside machine.clock.*.
func hardwareStats(s stats.Snapshot) []stats.Sample {
	return slices.DeleteFunc(s.Samples, func(smp stats.Sample) bool {
		return strings.HasPrefix(smp.Name, clockStatPrefix)
	})
}
