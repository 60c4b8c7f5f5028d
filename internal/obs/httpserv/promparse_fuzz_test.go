package httpserv

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"taccc/internal/obs"
)

// FuzzParseText checks tactop's exposition parser on three fronts. On
// arbitrary text, ParseText returns samples or an error and never panics,
// and neither does HistogramFrom on any family it parsed. A snapshot of
// counters and gauges under fuzzed non-empty names, written by
// WriteMetrics, parses back in order: counters, then gauges, each sorted
// by registry name and named by its MetricName. Gauges keep their
// float64 bits (NaN stays NaN), and counters read back as float64(c),
// exactly c up to 2^53. And a sample whose label holds a fuzzed quoted
// value reads back with that value.
func FuzzParseText(f *testing.F) {
	var demo strings.Builder
	if err := WriteMetrics(&demo, demoRegistry().Snapshot()); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct {
		text, names string
		counter     int64
		gauge       float64
		label       string
	}{
		{demo.String(), "cluster.requests.sent|cluster.edge.0.queue_depth", 97, 3, "0.5"},
		{"# TYPE x counter\nx 1\n\n  y{a=\"b\",c=\"d\\\"e\"} 2.5 1700000000\n", "0starts|edge-0 depth|x", 1 << 53, math.NaN(), `d"e`},
		{"h_bucket{le=\"NaN\"} 1\nh_bucket{le=\"+Inf\"} -Inf\nh_sum NaN\nh_count 1e300\n", "h|h|\xff\xfe", -1 << 62, math.Inf(-1), "a,b=c\n"},
		{"metric{le=\"unterminated value\n", "é|#|{}", math.MaxInt64, math.Copysign(0, -1), "\xff\\"},
		{"no_value_here\n", "a", math.MinInt64, 5e-324, ""},
	} {
		f.Add(seed.text, seed.names, seed.counter, math.Float64bits(seed.gauge), seed.label)
	}
	f.Fuzz(func(t *testing.T, text, names string, counter int64, gaugeBits uint64, label string) {
		if samples, err := ParseText(strings.NewReader(text)); err == nil {
			families := map[string]bool{}
			for _, s := range samples {
				for _, suffix := range []string{"_bucket", "_sum", "_count"} {
					if family, ok := strings.CutSuffix(s.Name, suffix); ok && !families[family] {
						families[family] = true
						HistogramFrom(samples, family)
					}
				}
			}
		}

		snap := obs.Snapshot{Counters: map[string]int64{}, Gauges: map[string]float64{}}
		for i, name := range strings.Split(names, "|") {
			if name != "" {
				snap.Counters[name] = counter + int64(i)
				snap.Gauges[name] = math.Float64frombits(gaugeBits + uint64(i))
			}
		}
		var sb strings.Builder
		if err := WriteMetrics(&sb, snap); err != nil {
			t.Fatal(err)
		}
		samples, err := ParseText(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("names %q: exposition does not parse: %v\n%s", names, err, sb.String())
		}
		keys := make([]string, 0, len(snap.Counters))
		for name := range snap.Counters {
			keys = append(keys, name)
		}
		sort.Strings(keys)
		if len(samples) != 2*len(keys) {
			t.Fatalf("names %q: %d samples, want %d\n%s", names, len(samples), 2*len(keys), sb.String())
		}
		for k, name := range keys {
			c, g := samples[k], samples[len(keys)+k]
			if want := MetricName(name); c.Name != want || g.Name != want {
				t.Fatalf("registry name %q: samples %q and %q, want %q", name, c.Name, g.Name, want)
			}
			v := snap.Counters[name]
			if c.Value != float64(v) || (v >= -1<<53 && v <= 1<<53 && int64(c.Value) != v) {
				t.Fatalf("counter %q = %d reads back as %v", name, v, c.Value)
			}
			want := snap.Gauges[name]
			if math.IsNaN(want) != math.IsNaN(g.Value) || !math.IsNaN(want) && math.Float64bits(g.Value) != math.Float64bits(want) {
				t.Fatalf("gauge %q = %v (bits %#x) reads back as %v (bits %#x)", name, want, math.Float64bits(want), g.Value, math.Float64bits(g.Value))
			}
			if c.Labels != nil || g.Labels != nil {
				t.Fatalf("registry name %q: unlabelled samples read back with labels %v, %v", name, c.Labels, g.Labels)
			}
		}

		line := "x{l=" + strconv.Quote(label) + "} 1\n"
		got, err := ParseText(strings.NewReader(line))
		if err != nil {
			t.Fatalf("label value %q: %q does not parse: %v", label, line, err)
		}
		if len(got) != 1 || got[0].Name != "x" || len(got[0].Labels) != 1 || got[0].Labels["l"] != label || got[0].Value != 1 {
			t.Fatalf("label value %q: %q reads back as %+v", label, line, got)
		}
	})
}
