package siteselect_test

import (
	"fmt"
	"time"

	"siteselect"
)

// ExampleRun runs a small load-sharing cluster and reports the primary
// real-time metric. Runs are deterministic for a fixed seed, so the
// output is stable.
func ExampleRun() {
	cfg := siteselect.DefaultConfig(siteselect.LoadSharing, 4, 0.05)
	cfg.Duration = 3 * time.Minute
	cfg.Warmup = 30 * time.Second
	cfg.Drain = 30 * time.Second
	cfg.Seed = 7

	res, err := siteselect.Run(siteselect.LoadSharing, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d transactions submitted\n", res.M.Submitted)
	fmt.Printf("success rate above 50%%: %v\n", res.SuccessRate() > 50)
	// Output:
	// 58 transactions submitted
	// success rate above 50%: true
}

// ExampleSystemKind_String shows the paper's names for the systems.
func ExampleSystemKind_String() {
	fmt.Println(siteselect.Centralized)
	fmt.Println(siteselect.ClientServer)
	fmt.Println(siteselect.LoadSharing)
	fmt.Println(siteselect.CentralizedOptimistic)
	// Output:
	// CE-RTDBS
	// CS-RTDBS
	// LS-CS-RTDBS
	// CE-RTDBS/OCC
}
