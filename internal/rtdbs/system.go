package rtdbs

import (
	"fmt"

	"siteselect/internal/config"
	"siteselect/internal/netsim"
	"siteselect/internal/sim"
)

// Kind names one of the simulated systems.
type Kind int

// The three systems the paper evaluates, plus the centralized system
// under optimistic concurrency control (the study its conclusion defers
// to future work).
const (
	CE Kind = iota + 1
	CS
	LS
	CEOCC
)

// String names the system the way the paper does.
func (k Kind) String() string {
	switch k {
	case CE:
		return "CE-RTDBS"
	case CS:
		return "CS-RTDBS"
	case LS:
		return "LS-CS-RTDBS"
	case CEOCC:
		return "CE-RTDBS/OCC"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind resolves the short system names the command lines and the
// scenario DSL use: ce, ce-occ, cs, ls.
func ParseKind(name string) (Kind, bool) {
	k, ok := map[string]Kind{"ce": CE, "ce-occ": CEOCC, "cs": CS, "ls": LS}[name]
	return k, ok
}

// Centralized reports whether the system executes every transaction at
// the server (clients are terminals), so it takes the centralized
// Table 1 defaults and has no client caches, server request path or
// tracer.
func (k Kind) Centralized() bool { return k == CE || k == CEOCC }

// System is what every simulated system offers once built: run it to
// completion, or reach its kernel and network first to instrument them.
type System interface {
	Run() (*Result, error)
	Env() *sim.Env
	Net() *netsim.Network
}

// New builds the system of the given kind. It is the one place a kind
// turns into a constructor.
func New(kind Kind, cfg config.Config) (System, error) {
	var (
		sys System
		err error
	)
	switch kind {
	case CE:
		sys, err = NewCentralized(cfg)
	case CS:
		sys, err = NewClientServer(cfg)
	case LS:
		sys, err = NewLoadSharing(cfg)
	case CEOCC:
		sys, err = NewCentralizedOCC(cfg)
	default:
		err = fmt.Errorf("rtdbs: unknown system kind %d", int(kind))
	}
	if err != nil {
		return nil, err // not sys: a nil *Cluster is a non-nil System
	}
	return sys, nil
}

// Run builds the system of the given kind and runs it to completion.
func Run(kind Kind, cfg config.Config) (*Result, error) {
	sys, err := New(kind, cfg)
	if err != nil {
		return nil, err
	}
	return sys.Run()
}
