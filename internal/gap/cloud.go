package gap

import (
	"fmt"
	"math"
)

// WithCloud appends a cloud tier as an extra column: effectively unlimited
// capacity at a high, distance-independent delay. With a cloud fallback no
// instance is infeasible — overflow devices pay the WAN round trip instead
// — and "how much traffic spills to the cloud" becomes the interesting
// metric (see CloudOffload). cloudDelayMs must exceed zero; the cloud
// column index is the returned instance's M()-1.
func WithCloud(in *Instance, cloudDelayMs float64) (*Instance, error) {
	if cloudDelayMs <= 0 || math.IsNaN(cloudDelayMs) || math.IsInf(cloudDelayMs, 0) {
		return nil, fmt.Errorf("gap: invalid cloud delay %v", cloudDelayMs)
	}
	n, m := in.N(), in.M()
	cost := make([]float64, n*(m+1))
	weight := make([]float64, n*(m+1))
	totalW := 0.0
	for i := 0; i < n; i++ {
		costRow := cost[i*(m+1) : (i+1)*(m+1)]
		copy(costRow, in.CostRow(i))
		costRow[m] = cloudDelayMs
		weightRow := weight[i*(m+1) : (i+1)*(m+1)]
		// The cloud charges the device's cheapest edge-side weight (a
		// neutral choice; cloud capacity is sized to absorb everything
		// anyway).
		minW := math.Inf(1)
		for j := 0; j < m; j++ {
			w := in.WeightAt(i, j)
			weightRow[j] = w
			if w < minW {
				minW = w
			}
		}
		weightRow[m] = minW
		totalW += minW
	}
	capacity := make([]float64, m+1)
	copy(capacity, in.Capacity)
	capacity[m] = totalW * 2 // headroom so the cloud never binds
	return newInstance(n, cost, weight, capacity)
}

// CloudOffload reports how an assignment over a WithCloud instance uses
// the cloud tier: the count of cloud-assigned devices and their fraction.
func CloudOffload(in *Instance, a *Assignment) (count int, fraction float64, err error) {
	if len(a.Of) != in.N() {
		return 0, 0, fmt.Errorf("gap: assignment length %d for %d devices", len(a.Of), in.N())
	}
	cloud := in.M() - 1
	for _, j := range a.Of {
		if j == cloud {
			count++
		}
	}
	return count, float64(count) / float64(in.N()), nil
}
