// Command lockproto demonstrates the message economics behind Figures 1
// and 2: standard 2PL, callback locking, and the lock-grouping (forward
// list) protocol, both as closed-form counts and as a live two-client
// simulation whose message counters are printed.
package main

import (
	"fmt"
	"os"
	"time"

	"siteselect"
	"siteselect/internal/experiment"
	"siteselect/internal/netsim"
)

func main() {
	counts, err := experiment.Protocol([]int{1, 2, 3, 5, 10, 20}).Run(experiment.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lockproto:", err)
		os.Exit(1)
	}
	counts.Render(os.Stdout)

	// Live demonstration: a tiny write-heavy cluster where grouped
	// migration visibly replaces recall/return/ship round trips with
	// client-to-client hops.
	fmt.Println("\nLive two-protocol comparison (20 clients, 30% updates, hot database):")
	base := siteselect.DefaultConfig(20, 0.30)
	base.DBSize = 1000
	base.HotRegionSize = 200
	base.LocalFraction = 0.8
	base.ServerMemory = 1000
	base.Duration = 20 * time.Minute
	base.Warmup = 2 * time.Minute

	cs, err := siteselect.Run(siteselect.ClientServer, base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lockproto:", err)
		os.Exit(1)
	}
	ls, err := siteselect.Run(siteselect.LoadSharing, base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lockproto:", err)
		os.Exit(1)
	}
	fmt.Printf("%-42s %12s %12s\n", "", "CS-RTDBS", "LS-CS-RTDBS")
	row := func(label string, kind netsim.Kind) {
		fmt.Printf("%-42s %12d %12d\n", label, cs.Messages[kind].Count, ls.Messages[kind].Count)
	}
	row("object requests (client to server)", netsim.KindObjectRequest)
	row("objects sent (server to client)", netsim.KindObjectShip)
	row("recalls (server to client)", netsim.KindRecall)
	row("returns (client to server)", netsim.KindObjectReturn)
	row("forward-list hops (client to client)", netsim.KindClientForward)
	fmt.Printf("%-42s %12d %12d\n", "total messages", cs.TotalMessages, ls.TotalMessages)
	fmt.Printf("\nsuccess: CS %.1f%%  LS %.1f%%\n", cs.SuccessRate(), ls.SuccessRate())
}
