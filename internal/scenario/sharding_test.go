package scenario

import "testing"

// TestReplicationGrammar pins the replication block's lowering onto the
// sharding topology: adaptive tuning keys and repeatable static
// placements.
func TestReplicationGrammar(t *testing.T) {
	src := `scenario rep-grammar
config {
  duration 4m
  servers 4
}
clients web 2 {
}
replication {
  hot 3
  window 90s
  shed-below 2
  replica 0:1
  replica 9:2
}
`
	s, err := Parse("rep-grammar.rts", src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	sh := c.Config.Sharding
	if sh.Servers != 4 || sh.ReplicateHot != 3 || sh.ShedBelow != 2 {
		t.Fatalf("topology = %+v, want servers 4, hot 3, shed-below 2", sh)
	}
	if sh.HeatWindow.Seconds() != 90 {
		t.Fatalf("HeatWindow = %v, want 90s", sh.HeatWindow)
	}
	if len(sh.Replicas) != 2 || sh.Replicas[0] != 1 || sh.Replicas[9] != 2 {
		t.Fatalf("Replicas = %v, want {0:1, 9:2}", sh.Replicas)
	}
}
