package gap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"taccc/internal/topology"
	"taccc/internal/workload"
)

// hashStore folds an instance's dimensions and every cost, weight and
// capacity bit, row by row, into FNV-64a.
func hashStore(in *Instance) string {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	word(uint64(in.N()))
	word(uint64(in.M()))
	for i := 0; i < in.N(); i++ {
		for j := 0; j < in.M(); j++ {
			word(math.Float64bits(in.CostAt(i, j)))
		}
		for j := 0; j < in.M(); j++ {
			word(math.Float64bits(in.WeightAt(i, j)))
		}
	}
	for _, c := range in.Capacity {
		word(math.Float64bits(c))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// mixedBudgets returns one deadline budget per device of in, cycling
// through no deadline (0 and a negative value), a tight budget (the
// device's cheapest cost), a middling one (its mean finite cost) and a
// loose one that masks nothing.
func mixedBudgets(in *Instance) []float64 {
	budgets := make([]float64, in.N())
	for i := range budgets {
		min, sum, finite := math.Inf(1), 0.0, 0
		for j := 0; j < in.M(); j++ {
			if c := in.CostAt(i, j); !math.IsInf(c, 1) {
				min = math.Min(min, c)
				sum += c
				finite++
			}
		}
		switch i % 5 {
		case 0:
			budgets[i] = 0
		case 1:
			budgets[i] = -1
		case 2:
			budgets[i] = min
		case 3:
			budgets[i] = sum / float64(finite)
		case 4:
			budgets[i] = 1e9
		}
	}
	return budgets
}

// storeGoldenInstances builds every instance whose store is pinned: a
// topology-derived one, and the cloud and deadline derivations of it and
// of a synthetic instance.
func storeGoldenInstances(t *testing.T) map[string]*Instance {
	t.Helper()
	out := map[string]*Instance{}
	must := func(name string, in *Instance, err error) *Instance {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = in
		return in
	}
	g, err := topology.Hierarchical(topology.Config{NumIoT: 300, NumEdge: 20, NumGateways: 40, NumRouters: 20, Seed: 4}, topology.PlaceUniform)
	if err != nil {
		t.Fatal(err)
	}
	dm := topology.NewDelayMatrix(g, topology.LatencyCost)
	devs, err := workload.Generate(300, workload.DefaultProfile(4))
	if err != nil {
		t.Fatal(err)
	}
	caps, err := UniformCapacities(20, workload.TotalLoad(devs), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := FromTopology(dm, devs, caps)
	topo = must("from-topology-300x20", topo, err)
	syn, err := Synthetic(SyntheticCorrelated, 40, 6, 1, 11)
	syn = must("synthetic-40x6", syn, err)

	for name, base := range map[string]*Instance{"topology": topo, "synthetic": syn} {
		cloud, err := WithCloud(base, 150)
		must(name+"-with-cloud", cloud, err)
		dl, err := WithDeadlines(base, mixedBudgets(base))
		must(name+"-with-deadlines", dl, err)
	}
	return out
}

// goldenStoreHashes pins hashStore per instance, taken before the
// instance kept its matrices in one row-major store.
var goldenStoreHashes = map[string]string{
	"from-topology-300x20":     "940d8fd8e0f5a66e",
	"synthetic-40x6":           "38b71a094b32abe7",
	"topology-with-cloud":      "47fc51126fc3dc31",
	"topology-with-deadlines":  "72e036d93b697edb",
	"synthetic-with-cloud":     "9416f20503e4d921",
	"synthetic-with-deadlines": "0ac616f76116ecfc",
}

// TestStoreGolden requires every builder to keep the bits it stores.
func TestStoreGolden(t *testing.T) {
	for name, in := range storeGoldenInstances(t) {
		if got, want := hashStore(in), goldenStoreHashes[name]; got != want {
			t.Errorf("%s: hash %s, pinned %q", name, got, want)
		}
	}
}

// goldenJSONHashes pins the FNV-64a of WriteJSON's bytes for two
// synthetic instances.
var goldenJSONHashes = map[string]string{
	"uniform-8x3":     "9e69275899a4f463",
	"correlated-12x4": "75c36784d3faf0e0",
}

func TestWriteJSONGolden(t *testing.T) {
	for name, mk := range map[string]func() (*Instance, error){
		"uniform-8x3":     func() (*Instance, error) { return Synthetic(SyntheticUniform, 8, 3, 0.7, 9) },
		"correlated-12x4": func() (*Instance, error) { return Synthetic(SyntheticCorrelated, 12, 4, 0.9, 3) },
	} {
		in, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := in.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		got := fmt.Sprintf("%016x", h.Sum64())
		if want := goldenJSONHashes[name]; got != want {
			t.Errorf("%s: WriteJSON hash %s, pinned %q", name, got, want)
		}
	}
}

// goldenExactHashes pins the bits of BranchAndBound's objective (with its
// node count and proof flag) and of LPBound on the instances the exact
// and LP tests use.
var goldenExactHashes = map[string]string{
	"branch-and-bound": "db11567eed42c95d",
	"lp-bound":         "bf8e63b5aa32f986",
}

func TestExactGolden(t *testing.T) {
	bnb := fnv.New64a()
	bnbCase := func(in *Instance, maxNodes int64) {
		res, err := branchAndBound(in, maxNodes)
		fmt.Fprintf(bnb, "%x %v %d %v\n", math.Float64bits(res.Cost), res.Proven, res.Nodes, errors.Is(err, ErrInfeasible))
	}
	lpb := fnv.New64a()
	lpCase := func(in *Instance) {
		fmt.Fprintf(lpb, "%x\n", math.Float64bits(LPBound(in)))
	}
	synth := func(kind SyntheticKind, n, m int, rho float64, seed int64) *Instance {
		in, err := Synthetic(kind, n, m, rho, seed)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	for seed := int64(0); seed < 20; seed++ {
		for _, kind := range []SyntheticKind{SyntheticUniform, SyntheticCorrelated} {
			bnbCase(synth(kind, 8, 3, 0.75, seed), maxBnBNodes)
		}
	}
	for seed := int64(0); seed < 15; seed++ {
		bnbCase(synth(SyntheticCorrelated, 10, 3, 0.7, seed), maxBnBNodes)
	}
	bnbCase(synth(SyntheticCorrelated, 40, 8, 0.95, 2), 50)
	bnbCase(synth(SyntheticUniform, 10, 3, 0.8, 4), maxBnBNodes)
	bnbCase(tiny(t), maxBnBNodes)

	lpCase(tiny(t))
	for seed := int64(0); seed < 10; seed++ {
		lpCase(synth(SyntheticCorrelated, 10, 3, 0.8, seed))
	}
	for seed := int64(0); seed < 5; seed++ {
		lpCase(synth(SyntheticCorrelated, 12, 3, 0.9, seed))
	}

	for name, h := range map[string]uint64{"branch-and-bound": bnb.Sum64(), "lp-bound": lpb.Sum64()} {
		if got, want := fmt.Sprintf("%016x", h), goldenExactHashes[name]; got != want {
			t.Errorf("%s: hash %s, pinned %q", name, got, want)
		}
	}
}
