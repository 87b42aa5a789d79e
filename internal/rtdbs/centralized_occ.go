package rtdbs

import (
	"siteselect/internal/config"
	"siteselect/internal/occ"
	"siteselect/internal/sim"
	"siteselect/internal/slab"
	"siteselect/internal/txn"
)

// CentralizedOCC is the optimistic variant of the centralized system —
// the concurrency-control study the paper's conclusion defers to future
// work. Transactions execute speculatively without locks and validate
// at commit; a validation conflict restarts the transaction while its
// deadline still permits. Everything but the per-transaction machine is
// Centralized's (ceCore).
type CentralizedOCC struct {
	ceCore

	valid *occ.Validator
	// machines holds the transaction machines; a finished one goes back
	// with its frame and snapshot arrays.
	machines slab.Slab[occTxnMachine]

	// Restarts counts read-phase re-executions after failed validation.
	Restarts int64
}

// NewCentralizedOCC builds the optimistic centralized system.
func NewCentralizedOCC(cfg config.Config) (*CentralizedOCC, error) {
	core, err := newCECore(cfg)
	if err != nil {
		return nil, err
	}
	ce := &CentralizedOCC{ceCore: core, valid: occ.NewValidator(cfg.DBSize)}
	ce.spawn = ce.spawnTxn
	return ce, nil
}

func (ce *CentralizedOCC) spawnTxn(t *txn.Transaction) {
	x := ce.machines.New()
	*x = occTxnMachine{ce: ce, t: t, snapshot: x.snapshot[:0]}
	ce.env.Spawn(&x.task, x)
}

// occTxnMachine executes one transaction optimistically: admission to a
// thread slot, then speculative read and compute phases without any
// locks and a serialized validation; a conflict restarts the read phase
// while the deadline still allows a full re-execution attempt. Every
// bail path unpins what the read phase gathered, then finish releases
// the slot.
type occTxnMachine struct {
	task sim.Task
	ce   *CentralizedOCC
	t    *txn.Transaction
	pc   uint8

	slotHeld bool
	snapshot []int64 // the versions t.Ops read, in access order
	read     ceRead
}

const (
	osAdmit uint8 = iota
	osAdmitWait
	osAttempt
	osRead
	osRan
	osDone
)

func (m *occTxnMachine) Resume() {
	for m.pc != osDone {
		if m.step() {
			return
		}
	}
	m.task.Detach()
	m.t = nil // a kept machine must not pin a retired transaction
	m.read.drop(&m.ce.frames)
	m.ce.machines.Keep(m)
}

// step runs one state; true means the machine parked.
func (m *occTxnMachine) step() bool {
	ce, t := m.ce, m.t
	switch m.pc {
	case osAdmit, osAdmitWait:
		switch ce.admit(&m.task, t, ce.priority(t), m.pc == osAdmitWait) {
		case sim.AcquireParked:
			m.pc = osAdmitWait
			return true
		case sim.AcquireTimedOut:
			m.finish(false)
			return false
		}
		m.slotHeld = true
		t.Status = txn.StatusRunning
		m.pc = osAttempt
	case osAttempt:
		if m.task.Now() > t.Deadline {
			m.finish(false)
			return false
		}
		// Read phase: snapshot versions, fault pages in, no locks held.
		m.snapshot = ce.valid.ReadSet(t.Ops, m.snapshot[:0])
		m.read.start(&ce.frames, len(t.Ops))
		m.pc = osRead
	case osRead:
		switch m.read.step(&ce.ceCore, &m.task, t, ce.priority(t)) {
		case readParked:
			return true
		case readLate:
			m.bail()
		default:
			// Compute phase (speculative).
			m.pc = osRan
			m.task.Sleep(t.Length)
			return true
		}
	case osRan:
		if m.task.Now() > t.Deadline {
			m.bail()
			return false
		}
		// Validation + write phase (serialized, atomic in virtual time).
		if ce.valid.Validate(t.Ops, m.snapshot) {
			for i, op := range t.Ops {
				ce.pool.Unpin(m.read.frames[i], op.Write)
			}
			clear(m.read.frames)
			m.finish(true)
			return false
		}
		m.read.unpinAll(ce.pool)
		// Restart only while a full re-execution can still fit.
		if m.task.Now()+t.Length > t.Deadline {
			m.finish(false)
			return false
		}
		ce.Restarts++
		m.pc = osAttempt
	}
	return false
}

// bail abandons the transaction mid-attempt: unpin what the read phase
// gathered and fail.
func (m *occTxnMachine) bail() {
	m.read.unpinAll(m.ce.pool)
	m.finish(false)
}

// finish reports the outcome to the terminal, then releases the thread
// slot.
func (m *occTxnMachine) finish(committed bool) {
	m.ce.reply(m.t, committed)
	if m.slotHeld {
		m.ce.slots.Release()
		m.slotHeld = false
	}
	m.pc = osDone
}

// Run executes the full experiment.
func (ce *CentralizedOCC) Run() (*Result, error) {
	ce.Start()
	ce.env.Run(ce.cfg.Duration + ce.cfg.Drain)
	res := ce.collect()
	res.Restarts = ce.Restarts
	res.Validations = ce.valid.Validations
	res.Conflicts = ce.valid.Conflicts
	var err error
	if ce.cfg.CheckInvariants {
		err = ce.ledger.verify(ce.m)
	}
	ce.env.Close()
	return res, err
}
