package rtdbs

import (
	"errors"
	"fmt"

	"siteselect/internal/config"
	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/pagefile"
	"siteselect/internal/proto"
	"siteselect/internal/sim"
	"siteselect/internal/slab"
	"siteselect/internal/txn"
	"siteselect/internal/wal"
)

// ceCore is what the two centralized engines share beside the run
// core: the server's disk, buffer pool, thread slots and single CPU, the
// terminals, whose arrival streams are kernel events (terminal.RunEvent),
// and the machine that feeds their transactions to the server
// (ceServeMachine). An engine embeds it and supplies spawn, its
// per-transaction machine.
type ceCore struct {
	core

	// payloads is this system's stock of message payload records: a
	// terminal fills a TxnShip and the server's dispatcher releases it.
	// A result is sent with no payload and no inbox (netsim.Send with a
	// nil dest): it takes the LAN and is counted, and nothing reads it.
	payloads proto.Pool
	// frames holds the blocks the machines' page vectors live in
	// (ceRead).
	frames slab.Slab[*pagefile.Frame]
	disk   *pagefile.Disk
	pool   *pagefile.BufferPool
	slots  *sim.Resource
	cpu    *sim.Resource

	inbox *sim.Mailbox[netsim.Message]
	// terminals is the population, by site id less one: a terminal's
	// generator is an element of the workload arrays (newGenerators).
	terminals []terminal
	// spawn starts the engine's machine for one arriving transaction.
	spawn func(*txn.Transaction)
}

type terminal struct {
	ce  *ceCore
	id  netsim.SiteID
	gen *txn.Generator
}

func newCECore(cfg config.Config) (ceCore, error) {
	var ce ceCore
	if err := ce.init(cfg); err != nil {
		return ceCore{}, err
	}
	env := ce.env
	ce.disk = pagefile.NewDisk(env, cfg.DBSize, pagefile.DiskConfig{
		ReadTime:  cfg.DiskRead,
		WriteTime: cfg.DiskWrite,
	})
	ce.pool = pagefile.NewBufferPool(env, ce.disk, cfg.ServerMemory)
	ce.slots = sim.NewResource(env, cfg.ServerThreads)
	ce.cpu = sim.NewResource(env, 1)
	ce.inbox = sim.NewMailbox[netsim.Message](env)
	ce.terminals = make([]terminal, cfg.NumClients)
	for k := range ce.terminals {
		term := &ce.terminals[k]
		term.id, term.gen = netsim.SiteID(k+1), &ce.gens[k]
	}
	return ce, nil
}

// Start spawns the server dispatcher and posts every terminal's first
// arrival.
func (ce *ceCore) Start() {
	s := &ceServeMachine{ce: ce}
	ce.env.Spawn(&s.task, s)
	for k := range ce.terminals {
		term := &ce.terminals[k]
		term.ce = ce
		term.postArrival()
	}
}

// Centralized is the CE-RTDBS: the server performs all transaction
// processing (as many as ServerThreads concurrently, each as a separate
// "thread"), scheduled Earliest-Deadline-First with strict 2PL on a
// central lock table; clients are terminals that submit transactions and
// receive results over the LAN.
type Centralized struct {
	ceCore

	locks *lockmgr.Table
	log   *wal.Log
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
		ceCore: core,
		locks:  lockmgr.NewTable(),
	}
	ce.spawn = ce.spawnTxn
	ce.locks.Reserve(cfg.DBSize)
	if cfg.UseLogging {
		ce.log = wal.New(ce.env, ce.disk.Resource(), cfg.DiskWrite)
	}
	return ce, nil
}

// RunEvent submits the terminal's arrival that is due to the server and
// posts the next one (sim.EventHook), until the arrivals run past the
// experiment's duration.
func (term *terminal) RunEvent() {
	ce := term.ce
	t := term.gen.Next()
	sub := ce.payloads.TxnShip.New()
	sub.T = t
	ce.net.Send(netsim.Message{
		Kind: netsim.KindTxnSubmit, From: term.id, To: netsim.ServerSite,
		Size: netsim.TxnShipBytes, Payload: sub,
	}, ce.inbox)
	term.postArrival()
}

func (term *terminal) postArrival() {
	if next := term.gen.NextArrival(); next <= term.ce.cfg.Duration {
		term.ce.env.AtHook(next, term)
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
	cpu  sim.HoldOp
	t    *txn.Transaction
}

const (
	csRecv uint8 = iota
	csCharge
)

func (m *ceServeMachine) Resume() {
	ce := m.ce
	for {
		switch m.pc {
		case csRecv:
			msg, ok := ce.inbox.Recv(&m.task)
			if !ok {
				return
			}
			m.t = msg.Payload.(*proto.TxnShip).T
			ce.release(msg)
			m.pc = csCharge
		default: // csCharge
			if done, _ := m.cpu.Step(&m.task, ce.cpu, 0, ce.cfg.ServerOpCPU, 0); !done {
				return
			}
			ce.spawn(m.t)
			m.t = nil
			m.pc = csRecv
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
	cpu    sim.HoldOp
	idx    int
	frames []*pagefile.Frame
	get    pagefile.GetOp
}

const (
	rdNext uint8 = iota
	rdCharge
	rdPage
)

type readStatus uint8

const (
	readParked readStatus = iota
	readDone              // every page is pinned in frames, in Ops order
	readLate              // deadline passed; the caller unpins and fails
)

// start arms the loop for a transaction of n accesses, its frame
// vector in a block of frames, until drop.
func (r *ceRead) start(frames *slab.Slab[*pagefile.Frame], n int) {
	r.pc, r.idx, r.frames = rdNext, 0, frames.Fit(r.frames, n)
}

// drop hands the frame vector's block back to frames when the machine is
// done (slab.Return).
func (r *ceRead) drop(frames *slab.Slab[*pagefile.Frame]) {
	frames.Return(r.frames)
	r.frames = nil
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
			r.pc = rdCharge
		case rdCharge:
			// The CPU is served in EDF order, and a transaction whose
			// deadline passes in the queue gives up its place.
			done, ok := r.cpu.Step(task, ce.cpu, prio, ce.cfg.ServerOpCPU, t.Deadline)
			if !done {
				return readParked
			}
			if !ok {
				return readLate
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

// reply records t's outcome and sends the result to its terminal, which
// only displays it: the message takes the LAN and is delivered nowhere.
func (ce *ceCore) reply(t *txn.Transaction, committed bool) {
	if committed {
		t.Status = txn.StatusCommitted
	} else if t.Status != txn.StatusAborted {
		t.Status = txn.StatusMissed
	}
	t.Finished = ce.env.Now()
	t.ExecSite = netsim.ServerSite
	ce.net.Send(netsim.Message{
		Kind: netsim.KindUserResult, From: netsim.ServerSite, To: t.Origin,
		Size: netsim.ResultBytes,
	}, nil)
	ce.retire(t)
}

// retire counts t, which has reached its final state, in the collector
// and has the maker forget it: the system keeps no history. The machine
// that finished t may still read it; nothing writes it again.
func (ce *ceCore) retire(t *txn.Transaction) {
	ce.txns.Forget(t)
	ce.m.Retire(t, ce.cfg.Warmup)
}

// priority is t's rank for a thread slot and the CPU, lower first: its
// deadline under EDF, its arrival under FCFS.
func (ce *ceCore) priority(t *txn.Transaction) float64 {
	if ce.cfg.Scheduling == config.SchedFCFS {
		return t.Arrival.Seconds()
	}
	return t.Deadline.Seconds()
}

func (ce *Centralized) spawnTxn(t *txn.Transaction) {
	x := ce.machines.New()
	*x = ceTxnMachine{ce: ce, t: t, prio: ce.priority(t)}
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
	m.t = nil // a kept machine must not pin a retired transaction
	m.locks.Drop()
	m.read.drop(&m.ce.frames)
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
		m.read.start(&ce.frames, len(t.Ops))
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
			if op.Write && ce.log != nil {
				lastLSN = ce.log.Append()
			}
			ce.pool.Unpin(m.read.frames[i], op.Write)
		}
		clear(m.read.frames)
		if ce.log != nil && lastLSN > 0 {
			m.force.Init(ce.log, lastLSN)
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
	if err == nil {
		err = ce.conserved()
	}
	ce.env.Close()
	return res, err
}

// collect settles the run (core.settle) and reads the server's
// statistics.
func (ce *ceCore) collect() *Result {
	res := ce.settle()
	res.ServerBufferHitRate = ce.pool.HitRate()
	res.ServerDiskReads = ce.disk.Reads
	res.ServerDiskWrites = ce.disk.Writes
	return res
}
