package online

import (
	"strings"
	"testing"
)

// policyFixture builds a controller with five devices parked on their
// worst edge (cost updates arrived after joining): each gains 4 ms by
// moving, and the 20% rebalance budget allows one migration per tick.
func policyFixture(t *testing.T) *Controller {
	t.Helper()
	c, err := NewController([]float64{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Join(i, []float64{1, 5}, 2); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := c.UpdateCosts(i, []float64{5, 1}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestJoinOnlyDoesNothing(t *testing.T) {
	c := policyFixture(t)
	before := c.MeanDelay()
	if err := (JoinOnly{}).Tick(0, c); err != nil {
		t.Fatal(err)
	}
	if c.MeanDelay() != before || c.Migrations() != 0 {
		t.Fatal("join-only policy acted")
	}
	if JoinOnly.Name(JoinOnly{}) != "join-only" {
		t.Fatal("name wrong")
	}
}

func TestThresholdMigrates(t *testing.T) {
	c := policyFixture(t)
	if err := (Threshold{}).Tick(0, c); err != nil {
		t.Fatal(err)
	}
	if c.MeanDelay() != 1 {
		t.Fatalf("MeanDelay = %v, want 1 after threshold sweep", c.MeanDelay())
	}
	if c.Migrations() != 5 {
		t.Fatalf("Migrations = %d, want 5", c.Migrations())
	}
}

func TestThresholdRespectsGain(t *testing.T) {
	c, err := NewController([]float64{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Join(i, []float64{1, 5}, 2); err != nil {
			t.Fatal(err)
		}
	}
	// Device 0 would gain 0.25 ms, under the 0.5 ms bar; device 1
	// would gain 4 ms.
	if err := c.UpdateCosts(0, []float64{1.25, 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateCosts(1, []float64{5, 1}); err != nil {
		t.Fatal(err)
	}
	if err := (Threshold{}).Tick(0, c); err != nil {
		t.Fatal(err)
	}
	if c.Migrations() != 1 {
		t.Fatalf("Migrations = %d, want 1", c.Migrations())
	}
	for id, want := range []int{0, 1} {
		if got := placement(t, c, id); got != want {
			t.Fatalf("device %d on edge %d, want %d", id, got, want)
		}
	}
}

func TestRebalanceTriggersOnSchedule(t *testing.T) {
	c := policyFixture(t)
	p := Rebalance{Seed: 5}
	// Even epochs never rebalance; each odd epoch spends its budget of
	// one migration.
	for epoch, want := range []int{0, 1, 1, 2} {
		if err := p.Tick(epoch, c); err != nil {
			t.Fatal(err)
		}
		if c.Migrations() != want {
			t.Fatalf("after epoch %d: Migrations = %d, want %d", epoch, c.Migrations(), want)
		}
	}
}

func TestRebalanceBudget(t *testing.T) {
	c := policyFixture(t)
	if err := (Rebalance{Seed: 5}).Tick(1, c); err != nil {
		t.Fatal(err)
	}
	// Budget 0.2 * 5 = 1 migration of the five the solve proposes.
	if c.Migrations() != 1 {
		t.Fatalf("Migrations = %d, want 1 under budget", c.Migrations())
	}
	if c.MeanDelay() != 4.2 {
		t.Fatalf("MeanDelay = %v, want 4.2 after one 4 ms migration", c.MeanDelay())
	}
}

func TestRebalanceDefaultAssigner(t *testing.T) {
	c := policyFixture(t)
	p := Rebalance{Seed: 5}
	// The built-in Q-learning solve finds the all-on-edge-1 optimum,
	// so five odd epochs move every device there.
	for epoch := 1; epoch < 10; epoch += 2 {
		if err := p.Tick(epoch, c); err != nil {
			t.Fatal(err)
		}
	}
	if c.MeanDelay() != 1 || c.Migrations() != 5 {
		t.Fatalf("MeanDelay = %v after %d migrations, want 1 after 5", c.MeanDelay(), c.Migrations())
	}
}

func TestRebalanceEmptyController(t *testing.T) {
	c, err := NewController([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if err := (Rebalance{}).Tick(1, c); err != nil {
		t.Fatal("empty controller should be a no-op, got error")
	}
}

func TestPolicyNames(t *testing.T) {
	for _, p := range []Policy{JoinOnly{}, Threshold{}, Rebalance{}} {
		if strings.TrimSpace(p.Name()) == "" {
			t.Fatalf("%T has empty name", p)
		}
	}
}
