package taccc_test

import (
	"fmt"
	"log"

	taccc "taccc"
)

// The quickstart flow: build a deployment scenario, solve the assignment,
// verify feasibility.
func ExampleScenario() {
	built, err := taccc.Scenario{NumIoT: 30, NumEdge: 4, Seed: 7}.Build()
	if err != nil {
		log.Fatal(err)
	}
	a, err := taccc.NewQLearning(7).Assign(built.Instance)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("devices:", built.Instance.N())
	fmt.Println("edges:", built.Instance.M())
	fmt.Println("feasible:", built.Instance.Feasible(a))
	// Output:
	// devices: 30
	// edges: 4
	// feasible: true
}

// Building an instance by hand and solving it exactly.
func ExampleBranchAndBound() {
	in, err := taccc.NewInstance(
		[][]float64{{1, 9}, {9, 1}}, // delays
		[][]float64{{1, 1}, {1, 1}}, // loads
		[]float64{1, 1},             // capacities
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := taccc.BranchAndBound(in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimal total delay: %.0f ms (proven: %v)\n", res.Cost, res.Proven)
	// Output:
	// optimal total delay: 2 ms (proven: true)
}

// The algorithm registry sweeps every implementation generically.
func ExampleAlgorithmRegistry() {
	in, err := taccc.SyntheticInstance(taccc.SyntheticUniform, 10, 3, 0.6, 1)
	if err != nil {
		log.Fatal(err)
	}
	reg := taccc.NewAlgorithmRegistry()
	for _, name := range []string{"greedy", "qlearning"} {
		a, err := reg.New(name, 1)
		if err != nil {
			log.Fatal(err)
		}
		got, err := a.Assign(in)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s feasible: %v\n", name, in.Feasible(got))
	}
	// Output:
	// greedy feasible: true
	// qlearning feasible: true
}

// The online controller maintains a live configuration incrementally.
func ExampleOnlineController() {
	ctrl, err := taccc.NewOnlineController([]float64{10, 10})
	if err != nil {
		log.Fatal(err)
	}
	edge, err := ctrl.Join(0, []float64{5, 2}, 3) // joins the cheaper edge
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("placed on edge:", edge)
	// The device moved; edge 0 is now closer.
	if err := ctrl.UpdateCosts(0, []float64{1, 6}); err != nil {
		log.Fatal(err)
	}
	moved, err := ctrl.Migrate(0, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("migrated:", moved)
	fmt.Printf("mean delay: %.0f ms\n", ctrl.MeanDelay())
	// Output:
	// placed on edge: 1
	// migrated: true
	// mean delay: 1 ms
}

// Deadline budgets turn into hard constraints via cell masking.
func ExampleWithDeadlines() {
	in, err := taccc.NewInstance(
		[][]float64{{3, 30}},
		[][]float64{{1, 1}},
		[]float64{5, 5},
	)
	if err != nil {
		log.Fatal(err)
	}
	masked, err := taccc.WithDeadlines(in, []float64{10})
	if err != nil {
		log.Fatal(err)
	}
	a, err := taccc.NewGreedy().Assign(masked)
	if err != nil {
		log.Fatal(err)
	}
	v, err := taccc.DeadlineViolations(in, a, []float64{10})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("violations:", v)
	// Output:
	// violations: 0
}
