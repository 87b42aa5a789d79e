// Package pagefile reimplements the MiniRel Paged-File (PF) layer the
// paper builds its databases on: a file of uniquely numbered fixed-size
// pages accessed through a buffer pool with LRU replacement and dirty
// write-back. The backing store is a simulated disk whose accesses are
// serialized and charged a configurable latency, so buffer hits are free
// and misses queue on the device — the asymmetry that throttles the
// centralized server in the paper's experiments.
//
// A page is the paper's 2 KB in what it costs — the wire size of an
// object transfer (netsim.ObjectBytes) and one disk access time — and
// an 8-byte stamp in what it holds: the version of the object stored in
// it, which is the only content any site ever wrote into a page body.
package pagefile

import (
	"fmt"
	"time"

	"siteselect/internal/sim"
)

// PageID numbers pages within a file, starting at zero.
type PageID int

// DiskConfig sets the device's timing.
type DiskConfig struct {
	ReadTime  time.Duration
	WriteTime time.Duration
}

// Disk is a simulated block device holding numPages pages. Requests are
// serialized (single actuator) in deadline-agnostic FIFO order.
type Disk struct {
	env   *sim.Env
	cfg   DiskConfig
	arm   *sim.Resource
	pages []uint64 // one stamp a page; see Frame.Stamp

	// Reads and Writes count completed operations.
	Reads  int64
	Writes int64
}

// NewDisk returns a disk with numPages pages, all stamped zero.
func NewDisk(env *sim.Env, numPages int, cfg DiskConfig) *Disk {
	if numPages <= 0 {
		panic("pagefile: disk needs at least one page")
	}
	return &Disk{
		env:   env,
		cfg:   cfg,
		arm:   sim.NewResource(env, 1),
		pages: make([]uint64, numPages),
	}
}

// NumPages returns the capacity of the disk in pages.
func (d *Disk) NumPages() int { return len(d.pages) }

// Resource exposes the device arm so co-located work (e.g. a write-ahead
// log sharing the spindle) contends with page I/O.
func (d *Disk) Resource() *sim.Resource { return d.arm }

func (d *Disk) check(id PageID) error {
	if int(id) < 0 || int(id) >= len(d.pages) {
		return fmt.Errorf("pagefile: page %d out of range [0,%d)", id, len(d.pages))
	}
	return nil
}
