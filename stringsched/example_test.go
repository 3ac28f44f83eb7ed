package stringsched_test

import (
	"fmt"

	"repro/stringsched"
)

// ExampleNewCluster runs a small burst of Gaussian-elimination requests
// through the Strings runtime on a two-GPU node.
func ExampleNewCluster() {
	cluster, err := stringsched.NewCluster(stringsched.Config{
		Seed: 1,
		Nodes: []stringsched.NodeConfig{
			{Devices: []stringsched.DeviceSpec{stringsched.Quadro2000, stringsched.TeslaC2050}},
		},
		Mode:    stringsched.ModeStrings,
		Balance: "GMin",
	})
	if err != nil {
		panic(err)
	}
	defer cluster.Close()
	r, err := cluster.Run([]stringsched.StreamSpec{{
		Kind: stringsched.Gaussian, Count: 3, LambdaFactor: 0.6,
		Node: 0, Tenant: 1, Weight: 1,
	}})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d requests finished\n", r.Finished)
	// Output: 3 requests finished
}

// ExampleJainFairness evaluates the paper's equation (3).
func ExampleJainFairness() {
	fmt.Printf("%.2f\n", stringsched.JainFairness([]float64{1, 1, 1, 1}))
	fmt.Printf("%.2f\n", stringsched.JainFairness([]float64{1, 0, 0, 0}))
	// Output:
	// 1.00
	// 0.25
}

// ExampleWeightedSpeedup evaluates the paper's equation (2).
func ExampleWeightedSpeedup() {
	alone := []stringsched.Time{100 * stringsched.Second, 60 * stringsched.Second}
	shared := []stringsched.Time{50 * stringsched.Second, 30 * stringsched.Second}
	fmt.Printf("%.1fx\n", stringsched.WeightedSpeedup(alone, shared))
	// Output: 2.0x
}

// ExampleProfileFor inspects a Table I benchmark's calibrated profile.
func ExampleProfileFor() {
	p := stringsched.ProfileFor(stringsched.MonteCarlo)
	fmt.Printf("%s: %v solo, %.0f%% GPU time\n", p.Name, p.SoloRuntime, p.GPUPct)
	// Output: MonteCarlo: 8.000s solo, 85% GPU time
}

// ExamplePairs lists the first of the paper's 24 workload pairs.
func ExamplePairs() {
	fmt.Println(stringsched.Pairs()[0])
	// Output: A(DC-BS)
}
