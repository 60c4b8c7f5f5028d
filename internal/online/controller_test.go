package online

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"taccc/internal/assign"
	"taccc/internal/xrand"
)

func newTestController(t *testing.T) *Controller {
	t.Helper()
	c, err := NewController([]float64{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// placement reads the edge serving device id through Snapshot.
func placement(t *testing.T, c *Controller, id int) int {
	t.Helper()
	ids, _, cur, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for k, got := range ids {
		if got == id {
			return cur.Of[k]
		}
	}
	t.Fatalf("device %d is not attached", id)
	return -1
}

func TestNewControllerValidation(t *testing.T) {
	if _, err := NewController(nil); err == nil {
		t.Error("empty capacity accepted")
	}
	if _, err := NewController([]float64{-1}); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := NewController([]float64{math.NaN()}); err == nil {
		t.Error("NaN capacity accepted")
	}
	if _, err := NewController([]float64{1, math.Inf(1)}); err == nil {
		t.Error("+Inf capacity accepted")
	}
}

func TestJoinPlacesCheapest(t *testing.T) {
	c := newTestController(t)
	edge, err := c.Join(1, []float64{5, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if edge != 1 {
		t.Fatalf("joined edge %d, want 1", edge)
	}
	if got := placement(t, c, 1); got != 1 {
		t.Fatalf("placement = %d", got)
	}
	if c.NumDevices() != 1 {
		t.Fatalf("NumDevices = %d", c.NumDevices())
	}
	if c.TotalDelay() != 2 || c.MeanDelay() != 2 {
		t.Fatalf("delay accounting wrong: total %v mean %v", c.TotalDelay(), c.MeanDelay())
	}
	loads := c.Loads()
	if loads[0] != 0 || loads[1] != 3 {
		t.Fatalf("Loads = %v", loads)
	}
}

func TestJoinRespectsCapacity(t *testing.T) {
	c := newTestController(t)
	// Fill edge 1 so the next device detours to edge 0.
	if _, err := c.Join(1, []float64{5, 2}, 9); err != nil {
		t.Fatal(err)
	}
	edge, err := c.Join(2, []float64{5, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if edge != 0 {
		t.Fatalf("second join went to %d, want detour to 0", edge)
	}
}

func TestJoinErrors(t *testing.T) {
	c := newTestController(t)
	if _, err := c.Join(1, []float64{1, 1}, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(1, []float64{1, 1}, 3); err == nil {
		t.Error("duplicate join accepted")
	}
	if _, err := c.Join(2, []float64{1}, 3); err == nil {
		t.Error("wrong cost width accepted")
	}
	if _, err := c.Join(3, []float64{1, 1}, 0); err == nil {
		t.Error("zero weight accepted")
	}
	if _, err := c.Join(4, []float64{-1, 1}, 3); err == nil {
		t.Error("negative cost accepted")
	}
	if _, err := c.Join(5, []float64{1, 1}, 100); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("want ErrNoCapacity, got %v", err)
	}
}

func TestLeaveFreesCapacity(t *testing.T) {
	c := newTestController(t)
	if _, err := c.Join(1, []float64{1, 2}, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(2, []float64{1, 2}, 10); err != nil {
		t.Fatal(err) // fits on edge 1
	}
	if err := c.Leave(1); err != nil {
		t.Fatal(err)
	}
	if c.NumDevices() != 1 {
		t.Fatalf("NumDevices = %d", c.NumDevices())
	}
	if _, err := c.Join(3, []float64{1, 2}, 10); err != nil {
		t.Fatalf("capacity not freed: %v", err)
	}
	if err := c.Leave(99); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("want ErrUnknownDevice, got %v", err)
	}
}

func TestUpdateCostsAndMigrate(t *testing.T) {
	c := newTestController(t)
	if _, err := c.Join(1, []float64{1, 5}, 3); err != nil {
		t.Fatal(err)
	}
	// Device moved: edge 1 is now much closer.
	if err := c.UpdateCosts(1, []float64{9, 2}); err != nil {
		t.Fatal(err)
	}
	moved, err := c.Migrate(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !moved {
		t.Fatal("expected migration")
	}
	if got := placement(t, c, 1); got != 1 {
		t.Fatalf("placement after migrate = %d", got)
	}
	if c.Migrations() != 1 {
		t.Fatalf("Migrations = %d", c.Migrations())
	}
	// Threshold prevents marginal migrations.
	if err := c.UpdateCosts(1, []float64{1.5, 2}); err != nil {
		t.Fatal(err)
	}
	moved, err = c.Migrate(1, 1.0) // gain 0.5 < threshold 1.0
	if err != nil {
		t.Fatal(err)
	}
	if moved {
		t.Fatal("migrated despite threshold")
	}
	if err := c.UpdateCosts(99, []float64{1, 1}); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("want ErrUnknownDevice, got %v", err)
	}
}

func TestSweepMigrate(t *testing.T) {
	c := newTestController(t)
	for i := 1; i <= 3; i++ {
		if _, err := c.Join(i, []float64{1, 5}, 2); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 3; i++ {
		if err := c.UpdateCosts(i, []float64{5, 1}); err != nil {
			t.Fatal(err)
		}
	}
	moved, err := c.SweepMigrate(0)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 3 {
		t.Fatalf("SweepMigrate moved %d, want 3", moved)
	}
	if c.MeanDelay() != 1 {
		t.Fatalf("MeanDelay = %v, want 1", c.MeanDelay())
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	c := newTestController(t)
	if _, err := c.Join(7, []float64{1, 5}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(3, []float64{4, 2}, 3); err != nil {
		t.Fatal(err)
	}
	ids, in, cur, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 7 {
		t.Fatalf("ids = %v, want [3 7]", ids)
	}
	if in.N() != 2 || in.M() != 2 {
		t.Fatalf("instance dims %dx%d", in.N(), in.M())
	}
	if !in.Feasible(cur) {
		t.Fatal("snapshot assignment infeasible")
	}
	if in.TotalCost(cur) != c.TotalDelay() {
		t.Fatalf("snapshot cost %v != controller %v", in.TotalCost(cur), c.TotalDelay())
	}
	// Empty snapshot errors.
	empty := newTestController(t)
	if _, _, _, err := empty.Snapshot(); err == nil {
		t.Error("empty snapshot accepted")
	}
}

func TestRebalanceImprovesAndBoundsMigrations(t *testing.T) {
	c, err := NewController([]float64{10, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	// Ten devices all parked on their worst edge via later cost updates.
	for i := 0; i < 10; i++ {
		if _, err := c.Join(i, []float64{1, 1, 1}, 2); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		costs := []float64{9, 9, 9}
		costs[i%3] = 1
		if err := c.UpdateCosts(i, costs); err != nil {
			t.Fatal(err)
		}
	}
	before := c.MeanDelay()
	applied, err := c.Rebalance(assign.NewGreedy(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if applied > 4 {
		t.Fatalf("applied %d migrations, budget 4", applied)
	}
	if c.MeanDelay() >= before {
		t.Fatalf("rebalance did not improve: %v -> %v", before, c.MeanDelay())
	}
	// Unlimited budget finishes the job.
	if _, err := c.Rebalance(assign.NewGreedy(), -1); err != nil {
		t.Fatal(err)
	}
	if c.MeanDelay() > before {
		t.Fatalf("full rebalance worse than start")
	}
	// Capacity never violated.
	for j, u := range c.Utilization() {
		if u > 1+1e-9 {
			t.Fatalf("edge %d overloaded after rebalance: %v", j, u)
		}
	}
}

func TestFailEdgeEvacuates(t *testing.T) {
	c := newTestController(t)
	if _, err := c.Join(1, []float64{1, 5}, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(2, []float64{1, 5}, 3); err != nil {
		t.Fatal(err) // edge 0 now at 9/10; device 2 on edge 0
	}
	stranded, err := c.FailEdge(0)
	if err != nil {
		t.Fatal(err)
	}
	// Edge 1 has 10 capacity: both (6 + 3) fit.
	if len(stranded) != 0 {
		t.Fatalf("stranded %v, want none", stranded)
	}
	for _, id := range []int{1, 2} {
		if e := placement(t, c, id); e != 1 {
			t.Fatalf("device %d on edge %d, want 1", id, e)
		}
	}
	if _, err := c.FailEdge(9); err == nil {
		t.Error("invalid edge accepted")
	}
}

func TestFailEdgeStrands(t *testing.T) {
	c, err := NewController([]float64{10, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(1, []float64{1, 5}, 6); err != nil {
		t.Fatal(err)
	}
	stranded, err := c.FailEdge(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(stranded) != 1 || stranded[0] != 1 {
		t.Fatalf("stranded = %v, want [1]", stranded)
	}
	if c.NumDevices() != 0 {
		t.Fatalf("stranded device still attached")
	}
}

// Property: a controller driven by random joins/leaves/updates/migrations
// never overloads an edge and never loses track of load accounting.
func TestControllerInvariantQuick(t *testing.T) {
	f := func(seed int64) bool {
		src := xrand.New(seed)
		m := 2 + src.Intn(3)
		capacity := make([]float64, m)
		for j := range capacity {
			capacity[j] = src.Uniform(5, 15)
		}
		c, err := NewController(capacity)
		if err != nil {
			return false
		}
		nextID := 0
		alive := map[int]bool{}
		for step := 0; step < 200; step++ {
			switch src.Intn(4) {
			case 0: // join
				costs := make([]float64, m)
				for j := range costs {
					costs[j] = src.Uniform(1, 10)
				}
				if _, err := c.Join(nextID, costs, src.Uniform(0.5, 3)); err == nil {
					alive[nextID] = true
				} else if !errors.Is(err, ErrNoCapacity) {
					return false
				}
				nextID++
			case 1: // leave
				for id := range alive {
					if err := c.Leave(id); err != nil {
						return false
					}
					delete(alive, id)
					break
				}
			case 2: // update + migrate
				for id := range alive {
					costs := make([]float64, m)
					for j := range costs {
						costs[j] = src.Uniform(1, 10)
					}
					if err := c.UpdateCosts(id, costs); err != nil {
						return false
					}
					if _, err := c.Migrate(id, 0.5); err != nil {
						return false
					}
					break
				}
			case 3: // sweep
				if _, err := c.SweepMigrate(1); err != nil {
					return false
				}
			}
			// Invariants.
			loads := c.Loads()
			for j := range loads {
				if loads[j] > capacity[j]+1e-9 || loads[j] < -1e-9 {
					return false
				}
			}
			if c.NumDevices() != len(alive) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
