package obs

import (
	"runtime"
	"testing"
)

// FuzzParseExposition feeds mutated exposition text, seeded with the
// every-kind registry's WritePrometheus output, to ParseExposition.
// Whatever the bytes, the parser must return families or an error,
// never panic, and allocate at most 16 B per input byte plus 64 KiB.
// Every family an accepted input returns is keyed by its own name, and
// each one that holds samples passes RequireSeries; a TYPE or HELP line
// without samples is valid exposition and declares an empty family.
func FuzzParseExposition(f *testing.F) {
	f.Add(everyKindExposition(f))
	f.Fuzz(func(t *testing.T, text string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fams, err := ParseExposition(text)
		runtime.ReadMemStats(&after)
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, 16*uint64(len(text))+64<<10; alloc > limit {
			t.Fatalf("parsing %d bytes allocated %d (limit %d)", len(text), alloc, limit)
		}
		if err != nil {
			return
		}
		for name, fam := range fams {
			if fam.Name != name {
				t.Fatalf("family %q returned under the name %q", fam.Name, name)
			}
			if len(fam.Samples) == 0 {
				continue
			}
			if err := RequireSeries(fams, name); err != nil {
				t.Fatalf("accepted family fails RequireSeries: %v", err)
			}
		}
	})
}
