package slo

import (
	"strings"
	"testing"
)

func TestParseObjectives(t *testing.T) {
	objs, err := ParseObjectives("p95<=20@99, uplink.p99<=5, miss<=0.01@95, service.mean<=2.5")
	if err != nil {
		t.Fatalf("ParseObjectives: %v", err)
	}
	if len(objs) != 4 {
		t.Fatalf("parsed %d objectives, want 4", len(objs))
	}
	want := []Objective{
		{Series: SeriesE2E, Stat: StatQuantile(0.95), Threshold: 20, Target: 0.99},
		{Series: SeriesUplink, Stat: StatQuantile(0.99), Threshold: 5, Target: 0.99},
		{Series: SeriesE2E, Stat: StatMiss, Threshold: 0.01, Target: 0.95},
		{Series: SeriesService, Stat: StatMean, Threshold: 2.5, Target: 0.99},
	}
	for i, w := range want {
		got := objs[i]
		if got.Series != w.Series || got.Stat != w.Stat || got.Threshold != w.Threshold ||
			abs(got.Target-w.Target) > 1e-12 {
			t.Errorf("objective %d = %+v, want %+v", i, got, w)
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestParseFractionalQuantile pins that "p99.9" parses as a quantile
// with a fractional percentage, not as series "p99" + stat "9".
func TestParseFractionalQuantile(t *testing.T) {
	objs, err := ParseObjectives("p99.9<=100")
	if err != nil {
		t.Fatalf("ParseObjectives: %v", err)
	}
	if objs[0].Series != SeriesE2E || objs[0].Stat.Kind != "quantile" || abs(objs[0].Stat.Q-0.999) > 1e-12 {
		t.Fatalf("p99.9 parsed as %+v", objs[0])
	}
	if objs[0].Stat.String() != "p99.9" {
		t.Fatalf("stat renders as %q, want p99.9", objs[0].Stat.String())
	}
}

func TestParseObjectivesErrors(t *testing.T) {
	cases := []struct {
		spec, wantErr string
	}{
		{"", "empty"},
		{" , ", "empty"},
		{"p95", "want [series.]stat<=threshold"},
		{"p95<=abc", "bad threshold"},
		{"p95<=20@0", "must be a percentage"},
		{"p95<=20@101", "must be a percentage"},
		{"p0<=20", "unknown stat"},
		{"p100<=20", "unknown stat"},
		{"median<=20", "unknown stat"},
		{"bogus.p95<=20", "unknown stat"}, // unknown series leaves "bogus.p95" as the stat
		{"uplink.miss<=0.1", "only defined on the e2e series"},
		{"miss<=1.5", "outside [0,1]"},
		{"p95<=-3", "invalid threshold"},
	}
	for _, tc := range cases {
		_, err := ParseObjectives(tc.spec)
		if err == nil {
			t.Errorf("spec %q: no error, want %q", tc.spec, tc.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("spec %q: error %q does not contain %q", tc.spec, err, tc.wantErr)
		}
	}
}

// TestSpecRoundTrip checks Objective.Spec re-parses to the same
// objective.
func TestSpecRoundTrip(t *testing.T) {
	objs, err := ParseObjectives("queue.p95<=7.5@99.5")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	back, err := ParseObjectives(objs[0].Spec())
	if err != nil {
		t.Fatalf("re-parse %q: %v", objs[0].Spec(), err)
	}
	if back[0].Series != objs[0].Series || back[0].Stat != objs[0].Stat ||
		back[0].Threshold != objs[0].Threshold || abs(back[0].Target-objs[0].Target) > 1e-12 {
		t.Fatalf("round trip %q → %+v, want %+v", objs[0].Spec(), back[0], objs[0])
	}
}

// FuzzParseObjectives: any -slo spec either fails to parse, or yields
// objectives that New accepts and that each re-parse from their Spec()
// to the same objective, bit for bit.
func FuzzParseObjectives(f *testing.F) {
	for _, spec := range []string{
		"p95<=20@99",
		"p95<=20@99, uplink.p99<=5, miss<=0.01@95, service.mean<=2.5",
		"queue.p95<=7.5@99.5",
		"p99.9<=100",
		"downlink.p1e-3<=1e+06@0.07",
		"p99.99999999999999<=-0@100",
		"p95<=20@99,p95<=20@99",
		"",
		" , ",
		"p95",
		"p95<=x",
		"p95<=1@0",
		"p100<=1",
		"uplink.miss<=0.1",
		"mean<=NaN",
		"edge.p95<=1",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		objs, err := ParseObjectives(spec)
		if err != nil {
			return
		}
		for _, o := range objs {
			back, err := ParseObjectives(o.Spec())
			if err != nil {
				t.Fatalf("spec %q: re-parsing %q: %v", spec, o.Spec(), err)
			}
			if len(back) != 1 || back[0] != o {
				t.Fatalf("spec %q: %q re-parses to %+v, want [%+v]", spec, o.Spec(), back, o)
			}
		}
		if _, err := New(Config{WindowMs: 1, Objectives: objs}); err != nil {
			t.Fatalf("spec %q: New rejects its objectives: %v", spec, err)
		}
	})
}
