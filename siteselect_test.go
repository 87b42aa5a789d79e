package siteselect_test

import (
	"testing"
	"time"

	"siteselect"
)

func quick(n int, upd float64) siteselect.Config {
	cfg := siteselect.DefaultConfig(n, upd)
	cfg.Duration = 3 * time.Minute
	cfg.Warmup = 30 * time.Second
	cfg.Drain = 30 * time.Second
	return cfg
}

func TestRunAllKinds(t *testing.T) {
	for _, kind := range []siteselect.SystemKind{
		siteselect.Centralized, siteselect.ClientServer, siteselect.LoadSharing,
	} {
		cfg := quick(4, 0.05)
		if kind == siteselect.Centralized {
			cfg.ServerMemory = 5000
		}
		res, err := siteselect.Run(kind, cfg)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.M.Submitted == 0 {
			t.Fatalf("%v: no transactions", kind)
		}
		if got := res.SuccessRate(); got < 0 || got > 100 {
			t.Fatalf("%v: success rate %v", kind, got)
		}
	}
}

func TestRunRejectsUnknownKind(t *testing.T) {
	if _, err := siteselect.Run(siteselect.SystemKind(42), quick(2, 0)); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := quick(4, 0.05)
	cfg.DBSize = -1
	if _, err := siteselect.Run(siteselect.ClientServer, cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestSystemKindString(t *testing.T) {
	if siteselect.Centralized.String() != "CE-RTDBS" ||
		siteselect.ClientServer.String() != "CS-RTDBS" ||
		siteselect.LoadSharing.String() != "LS-CS-RTDBS" {
		t.Fatal("kind names wrong")
	}
	if siteselect.SystemKind(9).String() == "" {
		t.Fatal("unknown kind should still print")
	}
}

func TestFigureEntryPoint(t *testing.T) {
	f, err := siteselect.Figure3(siteselect.Options{Scale: 0.05, Clients: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 1 || f.Rows[0].Clients != 4 {
		t.Fatalf("rows = %+v", f.Rows)
	}
}
