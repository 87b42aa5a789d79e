package siteselect_test

import (
	"testing"
	"time"

	"siteselect"
)

func quick(kind siteselect.SystemKind, n int, upd float64) siteselect.Config {
	cfg := siteselect.DefaultConfig(kind, n, upd)
	cfg.Duration = 3 * time.Minute
	cfg.Warmup = 30 * time.Second
	cfg.Drain = 30 * time.Second
	return cfg
}

func TestRunAllKinds(t *testing.T) {
	for _, kind := range []siteselect.SystemKind{
		siteselect.Centralized, siteselect.ClientServer, siteselect.LoadSharing,
	} {
		cfg := quick(kind, 4, 0.05)
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
	if _, err := siteselect.Run(siteselect.SystemKind(42), quick(siteselect.ClientServer, 2, 0)); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := quick(siteselect.ClientServer, 4, 0.05)
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
