GO ?= go

.PHONY: build test race loc proc-lint study-lint state-lint bench-check seed-scan fuzz-smoke bench-kernel bench-mem alloc-census cpu-census figures scenarios update-scenarios update-scenarios-scale

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -short -race ./...

# loc prints the lines of non-test Go outside bench/ — the figure a
# simplicity PR records before and after (ROADMAP, CHANGES.md) — and
# beside it how many of them are code: not blank, not comment only. A
# fall in the first that is not in the second is deleted commentary.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | \
		awk '{ total++; sub(/^[ \t]+/, "") } \
			inblock { if (index($$0, "*/")) inblock = 0; next } \
			/^$$/ || /^\/\// { next } \
			/^\/\*/ { if (!index($$0, "*/")) inblock = 1; next } \
			{ code++ } \
			END { printf "%d lines, %d of them code\n", total, code }'

# proc-lint keeps goroutine processes (sim.Proc, Env.Go) inside the
# kernel package and the one benchmark driver that still measures them,
# so deleting internal/sim/proc.go stays a one-package change.
proc-lint:
	@if grep -rnE 'sim\.Proc|\.Go\("' --include='*.go' . | grep -vE '^\./(internal/sim|bench|\.bench_build)/'; then \
		echo 'proc-lint: goroutine processes are kernel-internal; write a sim.Machine' >&2; exit 1; fi

# study-lint keeps internal/experiment to one renderer: every study is a
# declaration run and rendered by engine.go, so a Render or CSV method in
# any other file of the package is a bespoke stack creeping back.
study-lint:
	@if grep -nE '^func \([^)]*\) (Render|CSV)\(' internal/experiment/*.go | grep -v '^internal/experiment/engine\.go:'; then \
		echo 'study-lint: declare a Study; engine.go is the only renderer' >&2; exit 1; fi

# state-lint keeps per-key state in one record per key: the server
# reaches everything it knows about an object through Server.objs and
# about a client through Server.sites, so no struct in internal/server
# has a map field at all (a rule that names the key type misses a map
# keyed by a struct of two ids); the lock table reaches everything it
# knows about an owner through Table.owners (no second owner-keyed map);
# and the once-per-system indexes keyed by a dense id — the buffer pool's
# by page, the shard map's by object — are slices. It keeps spent
# records in the system's slabs, too (DESIGN.md, "Record ownership"): no
# struct outside internal/slab has a free-list field — internal/sim's
# event pool and spare goroutines aside, which are not records — and the
# two pop-or-make helpers slab.Slab replaced do not come back.
state-lint:
	@if grep -nE '^\s+\w+(, \w+)*\s+\*?map\[' internal/server/*.go | grep -v '_test\.go:'; then \
		echo 'state-lint: no map fields in internal/server: per-object state belongs in objState (Server.objs), per-client state in site (Server.sites)' >&2; exit 1; fi
	@if grep -nE '^\s+\w+\s+map\[(lockmgr\.ObjectID|PageID)\]' internal/pagefile/*.go internal/shardmap/*.go | grep -v '_test\.go:'; then \
		echo 'state-lint: page and object ids are dense: index a slice (BufferPool.frames, Map.replicas)' >&2; exit 1; fi
	@if [ "$$(grep -nE '^\s+\w+\s+map\[OwnerID\]' internal/lockmgr/*.go | grep -vc '_test\.go:')" -gt 1 ]; then \
		grep -nE '^\s+\w+\s+map\[OwnerID\]' internal/lockmgr/*.go | grep -v '_test\.go:'; \
		echo 'state-lint: per-owner lock state belongs in ownerRec (Table.owners)' >&2; exit 1; fi
	@if grep -rnE '^\s+\w*[fF]ree\w*\s+\[\]\*' --include='*.go' internal | grep -vE '^internal/(slab|sim)/|_test\.go:'; then \
		echo 'state-lint: spent records go back to a slab.Slab the system owns, not a free list of the site, shard or engine' >&2; exit 1; fi
	@if grep -rnE 'FreeList|popFree' --include='*.go' . | grep -vE '^\./(bench|\.bench_build)/'; then \
		echo 'state-lint: slab.Slab is the one type that pops a spent record or makes a new one (New, Put, Keep)' >&2; exit 1; fi

# bench-check compiles and tests the benchmark module (its own go.mod,
# so `go test ./...` at the root never sees it) and smoke-runs all four
# workloads: an internal API the benchmark uses cannot disappear silently.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	bash bench/run.sh -smoke

# seed-scan runs seeds 1..SEEDS through the three load-sharing cells the
# known defects live in (ROADMAP item 1(a); rtdbs.TestSeedScan, skipped
# by a plain `go test`) and prints, per cell, the seeds that failed and
# what with. Minutes at the default; a baseline, not a gate — it exits 0
# whatever it finds. EXPERIMENTS.md, "Seed scan", holds the last table.
SEEDS ?= 150
seed-scan:
	$(GO) test ./internal/rtdbs -run 'TestSeedScan$$' -seeds $(SEEDS) -timeout 0 -v

# fuzz-smoke gives each fuzz target a short randomized budget on top of
# its committed corpus (CI runs the same six).
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -fuzz FuzzLockTable -fuzztime $(FUZZTIME) ./internal/lockmgr/
	$(GO) test -fuzz FuzzForwardList -fuzztime $(FUZZTIME) ./internal/forward/
	$(GO) test -fuzz FuzzFaultSchedule -fuzztime $(FUZZTIME) ./internal/netsim/
	$(GO) test -fuzz FuzzScenarioParse -fuzztime $(FUZZTIME) ./internal/scenario/
	$(GO) test -fuzz FuzzBatchSchedule -fuzztime $(FUZZTIME) ./internal/batch/
	$(GO) test -fuzz FuzzSourceMatchesMathRand -fuzztime $(FUZZTIME) ./internal/rng/

# scenarios runs the committed .rts corpus and fails on any expect
# violation; update-scenarios reruns it and rewrites the goldens. Both
# cover the everyday tier; the scale tier (scale_1m, >= 100k clients) is
# opt-in via update-scenarios-scale or RTS_SCALE=1.
scenarios:
	$(GO) run ./cmd/rtbench -scenario-dir scenarios

update-scenarios:
	$(GO) test ./internal/scenario -run TestCorpusGoldens -update

update-scenarios-scale:
	$(GO) test ./internal/scenario -run TestCorpusScale -update -timeout 60m

# bench-kernel records the kernel benchmark suite (micro benchmarks plus
# the BenchmarkFigure3, BenchmarkFigure3Batched and BenchmarkScaleSmoke
# macro runs) into
# BENCH_kernel.json under LABEL; BENCH_SCALE=1 adds the million-client
# BenchmarkScale100x (minutes, tens of GB).
LABEL ?= current
bench-kernel:
	sh scripts/bench_kernel.sh $(LABEL)

# bench-mem is the allocation-hunting loop: the two macro benchmarks
# with -benchmem, recorded under LABEL. Besides ns/op, B/op and
# allocs/op this captures the GC metrics the scale harness reports
# (heap-MB high water, B/client, gc-pause-ms, gc-cycles), so a
# benchjson -diff against post-pr shows memory regressions directly.
# See EXPERIMENTS.md, "Hunting allocations".
bench-mem:
	$(GO) test -run '^$$' -bench 'BenchmarkFigure3$$|BenchmarkScaleSmoke$$' -benchtime 1x -benchmem . | \
		$(GO) run ./cmd/benchjson -into BENCH_kernel.json -label $(LABEL)

# alloc-census counts every heap object a run makes and says where
# (EXPERIMENTS.md, "Hunting allocations") — one scenario's, or every
# cell's of an rtbench experiment (the paper's sweeps are built in Go,
# not .rts; EXP=fig3 is the benchmark's fig3 workload but for the cells'
# derived seeds): the run goes under GODEBUG=memprofilerate=1, so the
# profile is exact and its total divides into objects per submitted
# transaction — the benchmark's allocs_per_txn, by call site. The cost
# is per object recorded: a few times a plain run's time where a
# transaction allocates tens of objects, hardly more where it allocates
# two. The binary, the profile and the report stay in CENSUS_OUT.
#	make alloc-census SCENARIO=bench/workloads/scale_100k.rts
#	make alloc-census EXP=fig3
CENSUS_OUT ?= /tmp/alloc-census
alloc-census:
	@test -n "$(SCENARIO)$(EXP)" || { echo 'usage: make alloc-census SCENARIO=path.rts | EXP=id' >&2; exit 2; }
	@mkdir -p $(CENSUS_OUT)
	$(GO) build -o $(CENSUS_OUT)/rtbench ./cmd/rtbench
ifdef EXP
	GODEBUG=memprofilerate=1 $(CENSUS_OUT)/rtbench -exp $(EXP) -parallel 1 -progress -memprofile $(CENSUS_OUT)/heap.pprof 2>&1 >/dev/null | \
		sed -n 's/.* \([0-9]*\) transactions submitted$$/submitted \1/p' > $(CENSUS_OUT)/report.txt
else
	GODEBUG=memprofilerate=1 $(CENSUS_OUT)/rtbench -scenario $(SCENARIO) -memprofile $(CENSUS_OUT)/heap.pprof > $(CENSUS_OUT)/report.txt
endif
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=40 $(CENSUS_OUT)/rtbench $(CENSUS_OUT)/heap.pprof | tee $(CENSUS_OUT)/top.txt
	@objects=$$(sed -n 's/.* of \([0-9]*\) total.*/\1/p' $(CENSUS_OUT)/top.txt | head -1); \
	txns=$$(awk '$$1 == "submitted" { print $$2 }' $(CENSUS_OUT)/report.txt); \
	awk -v o="$$objects" -v t="$$txns" 'BEGIN { printf "%d objects, %d transactions submitted: %.1f objects per transaction\n", o, t, o / t }'

# cpu-census says where a run's cycles go (EXPERIMENTS.md, "Hunting
# cycles"): one scenario, or every cell of an rtbench experiment, three
# times under -cpuprofile, and the forty hottest functions of the three
# profiles merged. It shares CENSUS_OUT with alloc-census.
#	make cpu-census SCENARIO=bench/workloads/contended_cs.rts
#	make cpu-census EXP=fig3
cpu-census:
	@test -n "$(SCENARIO)$(EXP)" || { echo 'usage: make cpu-census SCENARIO=path.rts | EXP=id' >&2; exit 2; }
	@mkdir -p $(CENSUS_OUT)
	$(GO) build -o $(CENSUS_OUT)/rtbench ./cmd/rtbench
	@for i in 1 2 3; do \
		$(CENSUS_OUT)/rtbench $(if $(EXP),-exp $(EXP) -parallel 1,-scenario $(SCENARIO)) -cpuprofile $(CENSUS_OUT)/cpu$$i.pprof > /dev/null || exit 1; done
	$(GO) tool pprof -top -nodecount=40 $(CENSUS_OUT)/rtbench $(CENSUS_OUT)/cpu1.pprof $(CENSUS_OUT)/cpu2.pprof $(CENSUS_OUT)/cpu3.pprof | tee $(CENSUS_OUT)/cpu-top.txt

figures:
	$(GO) run ./cmd/rtbench -exp all
