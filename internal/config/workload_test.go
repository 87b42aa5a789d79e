package config

import (
	"strings"
	"testing"
	"time"
)

// workloadBase returns a valid config carrying a declarative workload,
// the starting point every corruption case mutates.
func workloadBase() Config {
	c := Default(6, 0.20)
	c.Workload = &WorkloadSpec{Classes: []ClientClass{
		{
			Name:  "web",
			Count: 4,
			Phases: []ArrivalPhase{
				{Kind: ArrivalClosed, MeanInterArrival: 4 * time.Second, Duration: time.Minute},
				{Kind: ArrivalOpen, Rate: 0.5},
			},
		},
		{
			Name:  "batch",
			Count: 2,
			Phases: []ArrivalPhase{
				{Kind: ArrivalBurst, BurstSize: 5, BurstEvery: 30 * time.Second, Duration: time.Minute},
				{Kind: ArrivalDiurnal, Rate: 0.1, Peak: 0.5, Period: 2 * time.Minute, Duration: time.Minute},
				{Kind: ArrivalFlash, Rate: 0.1, Peak: 1, Ramp: 10 * time.Second},
			},
			Access: &AccessSpec{
				Kind: AccessSkewed, ZipfTheta: 0.9,
				HotSize: 50, HotFraction: 0.5,
				DriftEvery: 30 * time.Second, DriftStep: 100,
			},
		},
	}}
	return c
}

func TestValidateWorkloadAcceptsBase(t *testing.T) {
	if err := workloadBase().Validate(); err != nil {
		t.Fatalf("base workload config should validate, got: %v", err)
	}
}

// TestValidateWorkloadCatchesBadFields corrupts, one at a time, every
// workload field the scenario compiler can set — class counts, workload
// parameters, each arrival kind's phase parameters, phase durations,
// and access-skew parameters — and checks Validate rejects each with a
// diagnostic naming the class at fault.
func TestValidateWorkloadCatchesBadFields(t *testing.T) {
	share := func(f float64) *float64 { return &f }
	cases := []struct {
		name    string
		corrupt func(*Config)
		want    string
	}{
		{"no classes", func(c *Config) { c.Workload.Classes = nil }, "no client classes"},
		{"count mismatch", func(c *Config) { c.NumClients = 7 }, "cover 6 clients, NumClients is 7"},
		{"zero count", func(c *Config) {
			c.Workload.Classes[0].Count = 0
			c.NumClients = 2
		}, "class web: count must be positive"},
		{"negative length", func(c *Config) { c.Workload.Classes[0].MeanLength = -time.Second }, "class web: MeanLength"},
		{"negative slack", func(c *Config) { c.Workload.Classes[0].MeanSlack = -time.Second }, "class web: MeanSlack"},
		{"negative objects", func(c *Config) { c.Workload.Classes[0].MeanObjects = -1 }, "class web: MeanObjects"},
		{"objects beyond db", func(c *Config) { c.Workload.Classes[1].MeanObjects = c.DBSize + 1 }, "class batch: MeanObjects"},
		{"updates out of range", func(c *Config) { c.Workload.Classes[0].UpdateFraction = share(1.5) }, "class web: UpdateFraction"},
		{"decomposable out of range", func(c *Config) { c.Workload.Classes[0].DecomposableFraction = share(-0.1) }, "class web: DecomposableFraction"},
		{"no phases", func(c *Config) { c.Workload.Classes[0].Phases = nil }, "class web: needs at least one arrival phase"},
		{"negative phase duration", func(c *Config) { c.Workload.Classes[0].Phases[0].Duration = -time.Second }, "duration must be non-negative"},
		{"open-ended inner phase", func(c *Config) { c.Workload.Classes[0].Phases[0].Duration = 0 }, "only the last phase may leave duration unset"},
		{"unknown arrival kind", func(c *Config) { c.Workload.Classes[0].Phases[0].Kind = ArrivalKind(99) }, "unknown arrival kind"},
		{"closed negative interarrival", func(c *Config) { c.Workload.Classes[0].Phases[0].MeanInterArrival = -time.Second }, "closed-loop interarrival must be non-negative"},
		{"open without rate", func(c *Config) { c.Workload.Classes[0].Phases[1].Rate = 0 }, "open-loop phase needs a positive rate"},
		{"burst without size", func(c *Config) { c.Workload.Classes[1].Phases[0].BurstSize = 0 }, "burst phase needs a positive size"},
		{"burst without every", func(c *Config) { c.Workload.Classes[1].Phases[0].BurstEvery = 0 }, "burst phase needs a positive every interval"},
		{"burst negative spread", func(c *Config) { c.Workload.Classes[1].Phases[0].BurstSpread = -time.Second }, "burst spread must be non-negative"},
		{"diurnal without rate", func(c *Config) { c.Workload.Classes[1].Phases[1].Rate = 0 }, "diurnal phase needs a positive trough rate"},
		{"diurnal peak below trough", func(c *Config) { c.Workload.Classes[1].Phases[1].Peak = 0.01 }, "diurnal peak must be at least the trough rate"},
		{"diurnal without period", func(c *Config) { c.Workload.Classes[1].Phases[1].Period = 0 }, "diurnal phase needs a positive period"},
		{"flash without rate", func(c *Config) { c.Workload.Classes[1].Phases[2].Rate = 0 }, "flash phase needs a positive base rate"},
		{"flash peak below base", func(c *Config) { c.Workload.Classes[1].Phases[2].Peak = 0.01 }, "flash peak must be at least the base rate"},
		{"flash negative ramp", func(c *Config) { c.Workload.Classes[1].Phases[2].Ramp = -time.Second }, "flash ramp must be non-negative"},
		{"unknown access kind", func(c *Config) { c.Workload.Classes[1].Access.Kind = AccessKind(99) }, "unknown access kind"},
		{"skewed negative theta", func(c *Config) { c.Workload.Classes[1].Access.ZipfTheta = -0.1 }, "ZipfTheta"},
		{"skewed hot fraction out of range", func(c *Config) { c.Workload.Classes[1].Access.HotFraction = 1.5 }, "HotFraction"},
		{"skewed hot size beyond db", func(c *Config) { c.Workload.Classes[1].Access.HotSize = c.DBSize + 1 }, "HotSize"},
		{"skewed negative drift-every", func(c *Config) { c.Workload.Classes[1].Access.DriftEvery = -time.Second }, "DriftEvery must be non-negative"},
		{"skewed drift without step", func(c *Config) { c.Workload.Classes[1].Access.DriftStep = 0 }, "DriftStep must be positive when DriftEvery is set"},
		{"hot-cold hot size", func(c *Config) {
			c.Workload.Classes[1].Access = &AccessSpec{Kind: AccessHotCold, HotSize: 0, HotFraction: 0.5}
		}, "HotSize"},
		{"hot-cold hot fraction", func(c *Config) {
			c.Workload.Classes[1].Access = &AccessSpec{Kind: AccessHotCold, HotSize: 50, HotFraction: -0.5}
		}, "HotFraction"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := workloadBase()
			tc.corrupt(&c)
			err := c.Validate()
			if err == nil {
				t.Fatalf("Validate accepted the corrupted config; want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestValidateWorkloadClosedPhaseInherits pins what an unset class
// field means: a closed phase without an interarrival, and a class
// without update or decomposable shares, are valid and take the
// run-level values (internal/rtdbs carveCohort reads them), so a later
// change to the run-level field reaches the class.
func TestValidateWorkloadClosedPhaseInherits(t *testing.T) {
	c := workloadBase()
	c.Workload.Classes[0].Phases[0].MeanInterArrival = 0
	c.Workload.Classes[0].UpdateFraction, c.Workload.Classes[0].DecomposableFraction = nil, nil
	if err := c.Validate(); err != nil {
		t.Fatalf("a class that inherits the run-level interarrival and shares should validate, got: %v", err)
	}
	c.MeanInterArrival = 0
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "MeanInterArrival must be positive") {
		t.Fatalf("Validate = %v, want the run-level interarrival the phase inherits checked", err)
	}
}

func TestWorkloadClassOf(t *testing.T) {
	w := workloadBase().Workload
	for i, want := range map[int]int{1: 0, 4: 0, 5: 1, 6: 1} {
		if got := w.ClassOf(i); got != want {
			t.Errorf("ClassOf(%d) = %d, want %d", i, got, want)
		}
	}
	if got := w.TotalClients(); got != 6 {
		t.Errorf("TotalClients() = %d, want 6", got)
	}
}
