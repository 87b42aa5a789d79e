package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// stack is one CPU-profile sample: function names leaf first, and how
// many profiler ticks landed on it.
type stack struct {
	funcs []string
	count int64
}

// decodeProfile reads a gzipped pprof CPU profile — the bytes
// runtime/pprof wrote — into its stacks. It decodes only the fields the
// bucketer needs (samples, locations, functions, strings); the module
// has no dependency to do it with.
func decodeProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sampleRec struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []sampleRec
		locFuncs = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcName = map[uint64]uint64{}   // function id -> string index
		strs     []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample: location_id = 1, value = 2
			var s sampleRec
			var vals []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location: id = 1, line = 4 (Line: function_id = 1)
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, loc := range s.locs {
			// A location's lines run from the innermost inlined
			// function outward, so the order stays leaf first.
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		if len(st.funcs) > 0 {
			out = append(out, st)
		}
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its integer value or its bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			if v, n = uvarint(b); n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errTruncated
			}
			b = b[size:]
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, 0
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// appendVarints appends a repeated integer field, which arrives either
// as one value or as a packed run of them.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// cpuBuckets are the *.cpu_share metrics, by bucket name. Their shares
// sum to 1: every sample lands in exactly one.
var cpuBuckets = map[string]string{
	"sim":       "sim.cpu_share",
	"rng":       "rng.cpu_share",
	"lockmgr":   "lockmgr.cpu_share",
	"client":    "client.cpu_share",
	"cache":     "cache.cpu_share",
	"server":    "server.cpu_share",
	"batch":     "batch.cpu_share",
	"netsim":    "netsim.cpu_share",
	"pagefile":  "pagefile.cpu_share",
	"wal":       "wal.cpu_share",
	"trace":     "trace.cpu_share",
	"invariant": "invariant.cpu_share",
	"occ":       "occ.cpu_share",
	"rt.gc":     "runtime.gc_cpu_share",
	"rt.alloc":  "runtime.alloc_cpu_share",
	"rt.maps":   "runtime.maps_cpu_share",
	"rt.sched":  "runtime.sched_cpu_share",
	"other":     "other.cpu_share",
}

const internalPrefix = "siteselect/internal/"

// bucketOf assigns a sample to a layer by walking from its leaf
// function towards the root until a frame says whose time it is: a
// function of a package under internal/ (that layer's self time),
// math/rand (the generator behind internal/rng), or a Go runtime
// function that names an activity. Helpers that say nothing — memmove,
// sort, a memclr — are thereby charged to what called them: a memclr
// under mallocgc is allocation, a scanobject under an allocation assist
// is collection, a memmove under sim's heap is sim.
func bucketOf(funcs []string) string {
	for _, fn := range funcs {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			if _, listed := cpuBuckets[pkg]; listed {
				return pkg
			}
			return "other"
		}
		if strings.HasPrefix(fn, "math/rand.") {
			return "rng"
		}
		if name, ok := runtimeName(fn); ok {
			if b := runtimeBucket(name); b != "" {
				return b
			}
		}
	}
	return "other"
}

// runtimeName strips the package from a Go runtime function.
func runtimeName(fn string) (string, bool) {
	for _, p := range []string{"runtime.", "internal/runtime/maps.", "internal/runtime/", "runtime/internal/"} {
		if rest, ok := strings.CutPrefix(fn, p); ok {
			if p == "internal/runtime/maps." {
				return "map." + rest, true
			}
			return rest, true
		}
	}
	return "", false
}

// runtimeActivity maps name prefixes of runtime functions to buckets.
// Only functions that are unambiguous about the activity are listed;
// shared helpers (heapBits*, spanOf, memclr*) fall through to their
// callers.
var runtimeActivity = []struct{ bucket, prefixes string }{
	{"rt.gc", "gc scan grey markroot bgsweep sweepone (*mspan).sweep (*sweepLocked) wbBuf (*gcWork) " +
		"(*gcControllerState) bgscavenge (*scavengerState) (*mheap).reclaim"},
	{"rt.alloc", "malloc newobject newarray makeslice growslice nextFree (*mcache) (*mcentral) (*mheap).alloc " +
		"(*mheap).grow (*pageAlloc) persistentalloc sysUsed sysAlloc sysMap"},
	{"rt.maps", "map makemap aeshash memhash strhash nilinterhash interhash typehash evacuate growWork hashGrow"},
	{"rt.sched", "schedule findRunnable park_m gopark goready ready mcall gosched goexit chansend chanrecv " +
		"selectgo futex notesleep notewakeup notetsleep stopm startm wakep runq execute gogo lock unlock osyield " +
		"usleep procyield checkTimers (*timers) resetspinning injectglist newproc gfget gfput casgstatus " +
		"semasleep semawakeup netpoll sysmon preempt asyncPreempt mstart mPark acquirep releasep pidle globrunq " +
		"send recv stealWork handoffp retake"},
}

func runtimeBucket(name string) string {
	for _, act := range runtimeActivity {
		for _, p := range strings.Fields(act.prefixes) {
			if strings.HasPrefix(name, p) {
				return act.bucket
			}
		}
	}
	return ""
}

// cpuShares buckets the stacks and returns each bucket's share of all
// samples, with the sample count.
func cpuShares(stacks []stack) (map[string]float64, int64) {
	counts := map[string]int64{}
	var total int64
	for _, s := range stacks {
		counts[bucketOf(s.funcs)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for b := range cpuBuckets {
		if total > 0 {
			shares[b] = float64(counts[b]) / float64(total)
		}
	}
	return shares, total
}
