package rtdbs_test

import (
	"reflect"
	"testing"
	"time"

	"siteselect/internal/cache"
	"siteselect/internal/client"
	"siteselect/internal/config"
	"siteselect/internal/lockmgr"
	"siteselect/internal/metrics"
	"siteselect/internal/netsim"
	"siteselect/internal/rng"
	"siteselect/internal/shardmap"
	"siteselect/internal/sim"
	"siteselect/internal/txn"
)

// TestInitOverUsedValueEqualsNew: every per-site type has one
// initialisation body — New* is new + Init — and Init leaves nothing of
// the value's past behind: over a used value it gives what New* gives
// afresh, field for field. (A population's sites are initialised in the
// arrays they live in; the owner of an array may reuse it.)
func TestInitOverUsedValueEqualsNew(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	// Init of a generator draws its first arrival, so each side of that
	// case has a stream of its own in the same state; the other samplers
	// only keep the pointer, and share one.
	shared := rng.NewStream(3)
	locCfg := rng.LocalizedRWConfig{DBSize: 1000, ClientIndex: 3, NumClients: 10, RegionSize: 50, LocalFraction: 0.75, ZipfTheta: 0.9}
	skewCfg := rng.SkewedConfig{DBSize: 1000, ZipfTheta: 0.8, HotSize: 20, HotFraction: 0.5, DriftEvery: time.Second, DriftStep: 7}
	wc := txn.WorkloadConfig{
		MeanInterArrival: time.Second, MeanLength: time.Second, MeanSlack: 10 * time.Second,
		MeanObjects: 4, Access: rng.NewUniform(shared, 100),
	}
	cfg := config.Default(2, 0.05)
	net := netsim.New(env, netsim.DefaultConfig())
	boxes := make([]sim.Mailbox[netsim.Message], 2)
	for k := range boxes {
		boxes[k].Init(env)
	}
	topo := shardmap.New(cfg.Sharding)
	maker := new(txn.Maker)
	gen := txn.NewGenerator(rng.NewStream(4), 1, wc, maker)
	var stock client.Stock
	var m metrics.Collector

	for _, tc := range []struct {
		name string
		// used returns a pointer to a value with a past, initialised
		// again; fresh the same from New*.
		used, fresh func() any
	}{
		{"sim.Mailbox", func() any {
			mb := sim.NewMailbox[int](env)
			for i := 0; i < 5; i++ {
				mb.Put(i)
			}
			mb.TryGet()
			mb.Init(env)
			return mb
		}, func() any { return sim.NewMailbox[int](env) }},
		{"sim.Resource", func() any {
			r := sim.NewResource(env, 3)
			var tk sim.Task
			tk.Acquire(r, 0)
			r.Init(env, 2)
			return r
		}, func() any { return sim.NewResource(env, 2) }},
		{"cache.Cache", func() any {
			c := cache.New(2, 1)
			for obj := lockmgr.ObjectID(0); obj < 5; obj++ {
				c.Recycle(c.Remove(obj - 3))
				c.Insert(obj, lockmgr.ModeShared, obj == 2, 1)
			}
			c.Lookup(4)
			c.Lookup(99)
			c.Init(4, 2, nil)
			return c
		}, func() any { return cache.New(4, 2) }},
		{"rng.Stream", func() any {
			s := rng.NewStream(1)
			for i := 0; i < 300; i++ { // past the lazily built state vector
				s.Float64()
			}
			s.Init(9)
			return s
		}, func() any { return rng.NewStream(9) }},
		{"rng.Zipf", func() any {
			z := rng.NewZipf(shared, 1.5, 40)
			z.Rank()
			z.Init(shared, 0.9, 100)
			return z
		}, func() any { return rng.NewZipf(shared, 0.9, 100) }},
		{"rng.Uniform", func() any {
			g := rng.NewUniform(shared, 50)
			g.NextSet(5)
			g.Init(shared, 100)
			return g
		}, func() any { return rng.NewUniform(shared, 100) }},
		{"rng.HotCold", func() any {
			g := rng.NewHotCold(shared, 50, 5, 0.5)
			g.NextSet(5)
			g.Init(shared, 100, 10, 0.8)
			return g
		}, func() any { return rng.NewHotCold(shared, 100, 10, 0.8) }},
		{"rng.LocalizedRW", func() any {
			g := rng.NewLocalizedRW(shared, rng.LocalizedRWConfig{DBSize: 10, NumClients: 1, RegionSize: 10})
			g.NextSet(5)
			g.Init(shared, locCfg)
			return g
		}, func() any { return rng.NewLocalizedRW(shared, locCfg) }},
		{"rng.Skewed", func() any {
			g := rng.NewSkewed(shared, rng.SkewedConfig{DBSize: 10})
			g.Advance(time.Minute)
			g.NextSet(5)
			g.Init(shared, skewCfg)
			return g
		}, func() any { return rng.NewSkewed(shared, skewCfg) }},
		{"txn.Generator", func() any {
			g := txn.NewGenerator(rng.NewStream(8), 2, txn.WorkloadConfig{MeanObjects: 1, Access: wc.Access}, new(txn.Maker))
			g.NextArrival()
			g.Init(rng.NewStream(5), 1, wc, maker)
			return g
		}, func() any { return txn.NewGenerator(rng.NewStream(5), 1, wc, maker) }},
		{"client.Client", func() any {
			c := client.New(env, &cfg, 2, net, &stock, &m, boxes, topo, gen, false)
			c.Cache().Insert(7, lockmgr.ModeExclusive, true, 3)
			c.Tracked = append(c.Tracked, &txn.Transaction{ID: 1})
			c.Retries, c.ShippedIn = 4, 2
			c.Init(env, &cfg, 1, net, &stock, &m, boxes, topo, gen, true)
			return c
		}, func() any { return client.New(env, &cfg, 1, net, &stock, &m, boxes, topo, gen, true) }},
	} {
		used, fresh := tc.used(), tc.fresh()
		if !reflect.DeepEqual(used, fresh) {
			t.Errorf("%s: Init over a used value differs from New:\n used  %+v\n fresh %+v", tc.name, used, fresh)
		}
	}
}
