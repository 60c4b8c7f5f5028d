package experiment

import (
	"math"
	"strings"
	"testing"

	"taccc/internal/assign"
	"taccc/internal/topology"
)

func quickOpts() Options { return Options{Quick: true, Reps: 2, Seed: 7} }

func TestTableRenderAndCSV(t *testing.T) {
	tab := &Table{
		ID:     "X1",
		Title:  "demo",
		Header: []string{"a", "b"},
		Note:   "hello",
	}
	tab.AddRow("x", 1.5)
	tab.AddRow("longer", 1234567.0)
	out := tab.Render()
	for _, want := range []string{"X1", "demo", "a", "b", "x", "1.500", "hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q in:\n%s", want, out)
		}
	}
	csv := tab.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want 3", len(lines))
	}
	if lines[0] != "a,b" {
		t.Fatalf("CSV header = %q", lines[0])
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		1.23456: "1.235",
		150.26:  "150.3",
		2e6:     "2e+06",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
	if got := formatFloat(math.NaN()); got != "-" {
		t.Errorf("formatFloat(NaN) = %q, want -", got)
	}
}

func TestScenarioBuild(t *testing.T) {
	b, err := Scenario{NumIoT: 20, NumEdge: 4, Seed: 3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if b.Instance.N() != 20 || b.Instance.M() != 4 {
		t.Fatalf("instance dims %dx%d", b.Instance.N(), b.Instance.M())
	}
	if len(b.Devices) != 20 || len(b.Capacity) != 4 {
		t.Fatal("artifacts sized wrong")
	}
	// Deterministic.
	b2, err := Scenario{NumIoT: 20, NumEdge: 4, Seed: 3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	g1, err := assign.NewGreedy().Assign(b.Instance)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := assign.NewGreedy().Assign(b2.Instance)
	if err != nil {
		t.Fatal(err)
	}
	if b.Instance.TotalCost(g1) != b2.Instance.TotalCost(g2) {
		t.Fatal("same-seed scenarios differ")
	}
}

// TestScenarioBuildSharesDelayStore requires a built scenario to hold one
// delay matrix: each row of Built.Delay is the instance's cost row for
// that device, the same memory, for latency and payload-aware costs.
func TestScenarioBuildSharesDelayStore(t *testing.T) {
	for _, payload := range []float64{0, 64} {
		b, err := Scenario{NumIoT: 30, NumEdge: 4, PayloadKB: payload, Seed: 3}.Build()
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range b.Delay.DelayMs {
			if &row[0] != &b.Instance.CostRow(i)[0] {
				t.Fatalf("payload %v: delay row %d and cost row %d are separate copies", payload, i, i)
			}
		}
	}
}

func TestScenarioBuildErrors(t *testing.T) {
	if _, err := (Scenario{NumIoT: 0, NumEdge: 4}).Build(); err == nil {
		t.Error("NumIoT 0 accepted")
	}
	if _, err := (Scenario{NumIoT: 5, NumEdge: 0}).Build(); err == nil {
		t.Error("NumEdge 0 accepted")
	}
	if _, err := (Scenario{NumIoT: 5, NumEdge: 2, Family: "bogus"}).Build(); err == nil {
		t.Error("bogus family accepted")
	}
	for _, kb := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -5} {
		_, err := Scenario{NumIoT: 5, NumEdge: 2, PayloadKB: kb, Seed: 1}.Build()
		if err == nil || !strings.Contains(err.Error(), "payload") {
			t.Errorf("payload %v KB: error %v, want one naming the payload", kb, err)
		}
	}
}

// TestBadLinkParamsAreErrors feeds each LinkParams field -1, NaN and
// +Inf through every generator family's Scenario.Build, through
// HierarchicalInfra and through AttachIoTAt. Each must return a topology
// error naming the field, not panic on the first bad link, and
// AttachIoTAt must fail before it adds a node.
func TestBadLinkParamsAreErrors(t *testing.T) {
	fields := []struct {
		name string
		set  func(*topology.LinkParams, float64)
	}{
		{"WiredBaseMs", func(p *topology.LinkParams, v float64) { p.WiredBaseMs = v }},
		{"WiredPerKmMs", func(p *topology.LinkParams, v float64) { p.WiredPerKmMs = v }},
		{"WirelessBaseMs", func(p *topology.LinkParams, v float64) { p.WirelessBaseMs = v }},
		{"WirelessJitterMs", func(p *topology.LinkParams, v float64) { p.WirelessJitterMs = v }},
		{"WiredBandwidthMbps", func(p *topology.LinkParams, v float64) { p.WiredBandwidthMbps = v }},
		{"WirelessBandwidthMbps", func(p *topology.LinkParams, v float64) { p.WirelessBandwidthMbps = v }},
	}
	infra, err := topology.HierarchicalInfra(topology.Config{NumEdge: 2, NumGateways: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fields {
		for _, v := range []float64{-1, math.NaN(), math.Inf(1)} {
			links := topology.DefaultLinkParams()
			f.set(&links, v)
			want := "topology: LinkParams." + f.name
			check := func(call string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s with %s = %v: error %v, want one containing %q", call, f.name, v, err, want)
				}
			}
			for _, fam := range topology.Families() {
				_, err := Scenario{NumIoT: 12, NumEdge: 2, Family: fam, Links: links, Seed: 1}.Build()
				check("Build("+string(fam)+")", err)
			}
			_, err := topology.HierarchicalInfra(topology.Config{NumEdge: 2, NumGateways: 4, Links: links, Seed: 1})
			check("HierarchicalInfra", err)
			g := infra.Clone()
			nodes := g.NumNodes()
			check("AttachIoTAt", topology.AttachIoTAt(g, []float64{10, 20}, []float64{10, 20}, links, 1))
			if g.NumNodes() != nodes {
				t.Errorf("AttachIoTAt with %s = %v added %d nodes before failing", f.name, v, g.NumNodes()-nodes)
			}
		}
	}
}

func TestScenarioPayloadAwareCostsHigher(t *testing.T) {
	plain, err := Scenario{NumIoT: 15, NumEdge: 3, Seed: 9}.Build()
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := Scenario{NumIoT: 15, NumEdge: 3, Seed: 9, PayloadKB: 100}.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < plain.Instance.N(); i++ {
		for j := 0; j < plain.Instance.M(); j++ {
			if heavy.Instance.CostAt(i, j) <= plain.Instance.CostAt(i, j) {
				t.Fatal("payload-aware delay not larger")
			}
		}
	}
}

func TestCompareAlgorithms(t *testing.T) {
	sc := Scenario{NumIoT: 20, NumEdge: 4, Seed: 11}
	res, err := CompareAlgorithmsWorkers(sc, []string{"random", "greedy", "qlearning"}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d stats", len(res))
	}
	byName := map[string]AlgoStat{}
	for _, st := range res {
		byName[st.Name] = st
		if st.Reps != 2 {
			t.Fatalf("%s: Reps = %d", st.Name, st.Reps)
		}
		if st.FeasibleRate <= 0 {
			t.Fatalf("%s: no feasible replication", st.Name)
		}
		if st.MeanCost <= 0 {
			t.Fatalf("%s: non-positive mean cost", st.Name)
		}
	}
	if byName["qlearning"].MeanCost > byName["random"].MeanCost {
		t.Fatalf("qlearning (%v) worse than random (%v)",
			byName["qlearning"].MeanCost, byName["random"].MeanCost)
	}
}

func TestCompareAlgorithmsErrors(t *testing.T) {
	sc := Scenario{NumIoT: 5, NumEdge: 2, Seed: 1}
	if _, err := CompareAlgorithmsWorkers(sc, []string{"greedy"}, 0, 0); err == nil {
		t.Error("reps=0 accepted")
	}
	if _, err := CompareAlgorithmsWorkers(sc, []string{"bogus"}, 1, 0); err == nil {
		t.Error("bogus algorithm accepted")
	}
}

func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep still takes a few seconds")
	}
	for _, spec := range All() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			tables, err := spec.Run(quickOpts())
			if err != nil {
				t.Fatalf("%s: %v", spec.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", spec.ID)
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Fatalf("%s table %s has no rows", spec.ID, tab.ID)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Header) {
						t.Fatalf("%s table %s: row width %d, header %d",
							spec.ID, tab.ID, len(row), len(tab.Header))
					}
				}
				if out := tab.Render(); !strings.Contains(out, tab.ID) {
					t.Fatalf("%s render missing ID", spec.ID)
				}
			}
		})
	}
}

func TestByID(t *testing.T) {
	s, err := ByID("F3")
	if err != nil || s.ID != "F3" {
		t.Fatalf("ByID(F3) = %+v, %v", s, err)
	}
	if _, err := ByID("Z9"); err == nil {
		t.Fatal("unknown ID accepted")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Reps != 5 || o.Seed != 1 {
		t.Fatalf("defaults: %+v", o)
	}
	q := Options{Quick: true}.withDefaults()
	if q.Reps != 2 {
		t.Fatalf("quick default reps: %+v", q)
	}
}
