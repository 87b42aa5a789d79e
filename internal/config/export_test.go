package config

import "fmt"

// ClassOf maps client site i (1-based) to its class index. It panics if
// i is out of range — Validate guarantees the partition covers exactly
// NumClients sites.
func (w *WorkloadSpec) ClassOf(i int) int {
	rest := i
	for ci, c := range w.Classes {
		rest -= c.Count
		if rest <= 0 {
			return ci
		}
	}
	panic(fmt.Sprintf("config: client %d beyond the workload's %d sites", i, w.TotalClients()))
}
