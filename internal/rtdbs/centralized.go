package rtdbs

import (
	"errors"
	"fmt"

	"siteselect/internal/config"
	"siteselect/internal/lockmgr"
	"siteselect/internal/metrics"
	"siteselect/internal/netsim"
	"siteselect/internal/pagefile"
	"siteselect/internal/proto"
	"siteselect/internal/sim"
	"siteselect/internal/slab"
	"siteselect/internal/txn"
	"siteselect/internal/wal"
)

// ceCore is what the two centralized engines share: the simulated LAN,
// the server's disk, buffer pool, thread slots and single CPU, the
// terminals, and the machines that feed transactions to the server
// (ceTermMachine, ceDrainMachine, ceServeMachine). An engine embeds it
// and supplies spawn, its per-transaction machine.
type ceCore struct {
	cfg config.Config

	env *sim.Env
	net *netsim.Network
	// payloads is this system's stock of message payload records: a
	// terminal fills a TxnSubmit and the server's dispatcher releases it,
	// the server fills a UserResult and the terminal's drain releases it.
	payloads proto.Pool
	m        *metrics.Collector
	disk     *pagefile.Disk
	pool     *pagefile.BufferPool
	slots    *sim.Resource
	cpu      *sim.Resource

	inbox *sim.Mailbox[netsim.Message]
	// terminals is the population, by site id less one: each record
	// holds its inbox, and its generator is an element of the workload
	// arrays (newGenerators).
	terminals []terminal
	// spawn starts the engine's machine for one arriving transaction.
	spawn func(*txn.Transaction)
}

type terminal struct {
	id      netsim.SiteID
	inbox   sim.Mailbox[netsim.Message]
	gen     *txn.Generator
	tracked []*txn.Transaction
}

func newCECore(cfg config.Config) (ceCore, error) {
	if err := cfg.Validate(); err != nil {
		return ceCore{}, err
	}
	env := sim.NewEnv()
	net := netsim.New(env, netsim.Config{
		Latency:      cfg.NetLatency,
		BandwidthBps: cfg.NetBandwidthBps,
		Switched:     cfg.Topology == config.TopologySwitched,
	})
	disk := pagefile.NewDisk(env, cfg.DBSize, pagefile.DiskConfig{
		ReadTime:  cfg.DiskRead,
		WriteTime: cfg.DiskWrite,
	})
	ce := ceCore{
		cfg:   cfg,
		env:   env,
		net:   net,
		m:     &metrics.Collector{},
		disk:  disk,
		pool:  pagefile.NewBufferPool(env, disk, cfg.ServerMemory),
		slots: sim.NewResource(env, cfg.ServerThreads),
		cpu:   sim.NewResource(env, 1),
		inbox: sim.NewMailbox[netsim.Message](env),
	}
	gens := newGenerators(&cfg)
	ce.terminals = make([]terminal, cfg.NumClients)
	for k := range ce.terminals {
		term := &ce.terminals[k]
		term.id, term.gen = netsim.SiteID(k+1), &gens[k]
		term.inbox.Init(env)
	}
	return ce, nil
}

// Env exposes the simulation environment.
func (ce *ceCore) Env() *sim.Env { return ce.env }

// Net exposes the simulated LAN.
func (ce *ceCore) Net() *netsim.Network { return ce.net }

// Metrics exposes the live collector.
func (ce *ceCore) Metrics() *metrics.Collector { return ce.m }

// Start spawns the server dispatcher and the terminal machines.
func (ce *ceCore) Start() {
	s := &ceServeMachine{ce: ce}
	ce.env.Spawn(&s.task, s)
	for k := range ce.terminals {
		term := &ce.terminals[k]
		tm := &ceTermMachine{ce: ce, term: term}
		ce.env.Spawn(&tm.task, tm)
		dm := &ceDrainMachine{ce: ce, term: term}
		ce.env.Spawn(&dm.task, dm)
	}
}

// Centralized is the CE-RTDBS: the server performs all transaction
// processing (as many as ServerThreads concurrently, each as a separate
// "thread"), scheduled Earliest-Deadline-First with strict 2PL on a
// central lock table; clients are terminals that submit transactions and
// receive results over the LAN.
type Centralized struct {
	ceCore

	locks    *lockmgr.Table
	versions []int64
	log      *wal.Log
	// machines holds the transaction machines, one per transaction at the
	// server; a finished one goes back with its frame and request arrays.
	machines slab.Slab[ceTxnMachine]
}

// NewCentralized builds the CE-RTDBS.
func NewCentralized(cfg config.Config) (*Centralized, error) {
	core, err := newCECore(cfg)
	if err != nil {
		return nil, err
	}
	ce := &Centralized{
		ceCore:   core,
		locks:    lockmgr.NewTable(),
		versions: make([]int64, cfg.DBSize),
	}
	ce.spawn = ce.spawnTxn
	ce.locks.Reserve(cfg.DBSize)
	if cfg.UseLogging {
		ce.log = wal.New(ce.env, ce.disk.Resource(), cfg.DiskWrite)
	}
	return ce, nil
}

// ceTermMachine submits a terminal's transaction stream to the server:
// it sleeps until the next arrival, submits it, and repeats until the
// arrivals run past the experiment's duration.
type ceTermMachine struct {
	task    sim.Task
	ce      *ceCore
	term    *terminal
	arrived bool // woken at an arrival instant, not at spawn
}

func (m *ceTermMachine) Resume() {
	ce, term := m.ce, m.term
	if m.arrived {
		t := term.gen.Next()
		term.tracked = append(term.tracked, t)
		sub := ce.payloads.TxnSubmit.New()
		sub.T = t
		ce.net.Send(netsim.Message{
			Kind: netsim.KindTxnSubmit, From: term.id, To: netsim.ServerSite,
			Size: netsim.TxnShipBytes, Payload: sub,
		}, ce.inbox)
	}
	next := term.gen.NextArrival()
	if next > ce.cfg.Duration {
		m.task.Detach()
		return
	}
	m.arrived = true
	m.task.SleepUntil(next)
}

// ceDrainMachine consumes result messages (displayed to the user).
type ceDrainMachine struct {
	task sim.Task
	ce   *ceCore
	term *terminal
}

func (m *ceDrainMachine) Resume() {
	for {
		msg, ok := m.term.inbox.Recv(&m.task)
		if !ok {
			return
		}
		m.ce.release(msg)
	}
}

// release returns a delivered frame's payload record to the pool.
func (ce *ceCore) release(msg netsim.Message) {
	if !msg.Shared {
		ce.payloads.Release(msg.Payload)
	}
}

// ceServeMachine dispatches arriving transactions, each executing as
// its own machine (the paper's thread-per-transaction server).
type ceServeMachine struct {
	task sim.Task
	ce   *ceCore
	pc   uint8
	t    *txn.Transaction
}

const (
	csIdle uint8 = iota
	csCPUSleep
	csSpawn
)

func (m *ceServeMachine) Resume() {
	ce := m.ce
	for {
		switch m.pc {
		case csIdle:
			msg, ok := ce.inbox.Recv(&m.task)
			if !ok {
				return
			}
			m.t = msg.Payload.(*proto.TxnSubmit).T
			ce.release(msg)
			if ce.cfg.ServerOpCPU <= 0 {
				m.pc = csSpawn
				continue
			}
			m.pc = csCPUSleep
			if !m.task.Acquire(ce.cpu, 0) {
				return
			}
		case csCPUSleep:
			m.pc = csSpawn
			m.task.Sleep(ce.cfg.ServerOpCPU)
			return
		default: // csSpawn
			if ce.cfg.ServerOpCPU > 0 {
				ce.cpu.Release()
			}
			ce.spawn(m.t)
			m.t = nil
			m.pc = csIdle
		}
	}
}

// ceRead is the page-materialization loop both engines run between
// admission and compute: for each access in order, abandon the
// transaction if its deadline has passed (EDF discipline: a late
// transaction must not keep consuming the CPU and disk), charge
// ServerOpCPU on the server's one CPU, then pin the page through the
// buffer pool (hits are free; misses queue on the disk). In the
// centralized system all of every client's low-level database work
// lands on that CPU, which is what saturates the server as clients are
// added (Figures 3–5).
type ceRead struct {
	pc     uint8
	idx    int
	frames []*pagefile.Frame
	get    pagefile.GetOp
}

const (
	rdNext uint8 = iota
	rdCPUWait
	rdCPUBusy
	rdCPUDone
	rdPage
)

type readStatus uint8

const (
	readParked readStatus = iota
	readDone              // every page is pinned in frames, in Ops order
	readLate              // deadline passed; the caller unpins and fails
)

// start arms the loop for a transaction of n accesses.
func (r *ceRead) start(n int) {
	if cap(r.frames) < n {
		r.frames = make([]*pagefile.Frame, 0, n)
	}
	r.pc, r.idx, r.frames = rdNext, 0, r.frames[:0]
}

func (r *ceRead) step(ce *ceCore, task *sim.Task, t *txn.Transaction, prio float64) readStatus {
	for {
		switch r.pc {
		case rdNext:
			if task.Now() > t.Deadline {
				return readLate
			}
			if r.idx >= len(t.Ops) {
				return readDone
			}
			if ce.cfg.ServerOpCPU <= 0 {
				r.pc = rdCPUDone
				continue
			}
			switch task.AcquireTimeout(ce.cpu, prio, t.Deadline-task.Now()) {
			case sim.AcquireGranted:
				r.pc = rdCPUBusy
			case sim.AcquireTimedOut:
				return readLate
			default:
				r.pc = rdCPUWait
				return readParked
			}
		case rdCPUWait:
			if task.ResTimedOut() {
				return readLate
			}
			r.pc = rdCPUBusy
		case rdCPUBusy:
			r.pc = rdCPUDone
			task.Sleep(ce.cfg.ServerOpCPU)
			return readParked
		case rdCPUDone:
			if ce.cfg.ServerOpCPU > 0 {
				ce.cpu.Release()
			}
			r.get.Init(ce.pool, pagefile.PageID(t.Ops[r.idx].Obj))
			r.pc = rdPage
		default: // rdPage
			done, err := r.get.Step(task)
			if !done {
				return readParked
			}
			if err != nil {
				panic(fmt.Sprintf("rtdbs: centralized read %d: %v", t.Ops[r.idx].Obj, err))
			}
			r.frames = append(r.frames, r.get.Frame())
			r.idx++
			r.pc = rdNext
		}
	}
}

// unpinAll drops every pin gathered so far, unmodified.
func (r *ceRead) unpinAll(pool *pagefile.BufferPool) {
	for _, f := range r.frames {
		pool.Unpin(f, false)
	}
	clear(r.frames)
	r.frames = r.frames[:0]
}

// admit asks for a thread slot until t's deadline: a machine calls it on
// its first resume and, when that parked, again on the next (resumed).
func (ce *ceCore) admit(task *sim.Task, t *txn.Transaction, prio float64, resumed bool) sim.AcquireStatus {
	if resumed {
		if task.ResTimedOut() {
			return sim.AcquireTimedOut
		}
		return sim.AcquireGranted
	}
	slack := t.Deadline - task.Now()
	if slack <= 0 {
		return sim.AcquireTimedOut
	}
	return task.AcquireTimeout(ce.slots, prio, slack)
}

// reply records t's outcome and sends the result to its terminal.
func (ce *ceCore) reply(t *txn.Transaction, committed bool) {
	if committed {
		t.Status = txn.StatusCommitted
	} else if t.Status != txn.StatusAborted {
		t.Status = txn.StatusMissed
	}
	t.Finished = ce.env.Now()
	t.ExecSite = netsim.ServerSite
	res := ce.payloads.UserResult.New()
	res.Txn, res.Committed = t.ID, committed
	ce.net.Send(netsim.Message{
		Kind: netsim.KindUserResult, From: netsim.ServerSite, To: t.Origin,
		Size: netsim.ResultBytes, Payload: res,
	}, &ce.terminals[int(t.Origin)-1].inbox)
}

func (ce *Centralized) spawnTxn(t *txn.Transaction) {
	x := ce.machines.New()
	*x = ceTxnMachine{ce: ce, t: t, read: ceRead{frames: x.read.frames}, locks: x.locks}
	x.prio = t.Deadline.Seconds()
	if ce.cfg.Scheduling == config.SchedFCFS {
		x.prio = t.Arrival.Seconds()
	}
	ce.env.Spawn(&x.task, x)
}

// ceTxnMachine executes one transaction at the server: EDF admission to
// a thread slot, strict 2PL lock acquisition in access order (wait-for
// graph refusal aborts), page reads through the buffer pool, the
// prescribed processing delay, updates, release, and the result
// message. Locks and the slot are released by finish, newest first.
type ceTxnMachine struct {
	task sim.Task
	ce   *Centralized
	t    *txn.Transaction
	pc   uint8

	prio       float64
	slotHeld   bool
	locksOwned bool
	locks      lockmgr.SeqLockOp
	read       ceRead
	force      wal.ForceOp
}

const (
	xsAdmit uint8 = iota
	xsAdmitWait
	xsLock
	xsRead
	xsRan
	xsForce
	xsDone
)

func (m *ceTxnMachine) Resume() {
	for m.pc != xsDone {
		if m.step() {
			return
		}
	}
	m.task.Detach()
	m.ce.machines.Keep(m)
}

// step runs one state; true means the machine parked.
func (m *ceTxnMachine) step() bool {
	ce, t := m.ce, m.t
	switch m.pc {
	case xsAdmit, xsAdmitWait:
		switch ce.admit(&m.task, t, m.prio, m.pc == xsAdmitWait) {
		case sim.AcquireParked:
			m.pc = xsAdmitWait
			return true
		case sim.AcquireTimedOut:
			m.finish(false)
			return false
		}
		m.slotHeld = true
		if m.task.Now() > t.Deadline {
			m.finish(false)
			return false
		}
		t.Status = txn.StatusRunning
		m.locksOwned = true
		m.locks.Init(ce.locks, len(t.Ops))
		for _, op := range t.Ops {
			m.locks.Add(lockmgr.Request{Obj: op.Obj, Owner: lockmgr.OwnerID(t.ID), Mode: op.Mode(), Deadline: t.Deadline})
		}
		m.pc = xsLock
	case xsLock:
		done, err := m.locks.Step(&m.task)
		if !done {
			return true
		}
		if err != nil {
			if errors.Is(err, lockmgr.ErrDeadlock) {
				t.Status = txn.StatusAborted
			}
			m.finish(false)
			return false
		}
		m.read.start(len(t.Ops))
		m.pc = xsRead
	case xsRead:
		switch m.read.step(&ce.ceCore, &m.task, t, m.prio) {
		case readParked:
			return true
		case readLate:
			m.read.unpinAll(ce.pool)
			m.finish(false)
		default:
			m.pc = xsRan
			m.task.Sleep(t.Length)
			return true
		}
	case xsRan:
		var lastLSN int64
		for i, op := range t.Ops {
			dirty := op.Write
			if dirty {
				ce.versions[op.Obj]++
				m.read.frames[i].Stamp = uint64(ce.versions[op.Obj])
				if ce.log != nil {
					lastLSN = ce.log.Append(int64(t.ID), op.Obj, ce.versions[op.Obj])
				}
			}
			ce.pool.Unpin(m.read.frames[i], dirty)
		}
		clear(m.read.frames)
		if ce.log != nil && lastLSN > 0 {
			m.force.Init(ce.log, int64(t.ID), lastLSN)
			m.pc = xsForce
			return false
		}
		m.finish(m.task.Now() <= t.Deadline)
	case xsForce:
		if !m.force.Step(&m.task) {
			return true
		}
		m.finish(m.task.Now() <= t.Deadline)
	}
	return false
}

// finish reports the outcome to the terminal, then releases the held
// locks and thread slot, newest first.
func (m *ceTxnMachine) finish(committed bool) {
	ce := m.ce
	ce.reply(m.t, committed)
	if m.locksOwned {
		ce.locks.ReleaseAll(lockmgr.OwnerID(m.t.ID))
		m.locksOwned = false
	}
	if m.slotHeld {
		ce.slots.Release()
		m.slotHeld = false
	}
	m.pc = xsDone
}

// Run executes the full experiment.
func (ce *Centralized) Run() (*Result, error) {
	ce.Start()
	ce.env.Run(ce.cfg.Duration + ce.cfg.Drain)
	res := ce.collect()
	err := ce.locks.Audit()
	ce.env.Close()
	return res, err
}

func (ce *ceCore) collect() *Result {
	now := ce.env.Now()
	for k := range ce.terminals {
		for _, t := range ce.terminals[k].tracked {
			if !t.Terminal() {
				if t.Deadline >= now {
					continue
				}
				t.Status = txn.StatusMissed
				t.Finished = now
			}
			if t.Arrival < ce.cfg.Warmup {
				continue
			}
			ce.m.Submitted++
			ce.m.RecordOutcome(t)
		}
	}
	return &Result{
		Config:              ce.cfg,
		M:                   ce.m,
		Messages:            messageSnapshot(ce.net),
		TotalMessages:       ce.net.TotalMessages(),
		TotalBytes:          ce.net.TotalBytes(),
		NetUtilization:      ce.net.Utilization(),
		ServerBufferHitRate: ce.pool.HitRate(),
		ServerDiskReads:     ce.disk.Reads,
		ServerDiskWrites:    ce.disk.Writes,
		Elapsed:             now,
	}
}
