// Package proto defines the message payloads exchanged between the
// database server and client sites in the client-server configurations:
// object requests (probe, commit, location query) and grants, recalls
// and returns, location replies, and transaction shipping envelopes. Every
// client-originated payload carries a piggybacked load report, which is
// how the server maintains its load table without extra messages
// (Section 4).
package proto

import (
	"time"

	"siteselect/internal/forward"
	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/txn"
)

// LoadReport is a client's piggybacked load summary: its ready-queue
// length and observed average transaction length (the inputs to H1).
type LoadReport struct {
	Client   netsim.SiteID
	QueueLen int
	ATL      time.Duration
	Valid    bool
}

// Op is what an ObjRequest asks of a shard.
type Op uint8

// Request ops.
const (
	// OpProbe is the load-sharing client's tentative all-or-nothing
	// round (Section 4): is every listed object grantable right now? The
	// shard either grants and ships them all, or ships nothing and
	// answers with Locations naming the conflicting objects' holders.
	OpProbe Op = iota + 1
	// OpCommit asks for the listed objects and locks in earnest. It is
	// the follow-up message of the load-sharing path ("the transaction
	// will be processed locally — ship the objects over as soon as
	// possible", converting an earlier tentative batch into firm
	// requests), and with one access it is the paper's sequential
	// request/response loop whose round trip Table 3 measures — a client
	// fetching that way has at most one firm request outstanding — and
	// the form in which a shard forwards a request it cannot serve to
	// the object's home shard.
	OpCommit
	// OpLocate asks where the listed objects are and how loaded the
	// candidate sites are (the H1-failed and decomposition paths of the
	// load-sharing algorithm); the shard answers with Locations naming
	// every holder.
	OpLocate
)

// ObjRequest asks a shard for a transaction's objects, one access per
// element of Objs and Modes: a client's request, or a commit request a
// shard forwards to the objects' home shard. Nums holds each access's
// request number (probe and commit only): the shard keeps it with the
// registration the access makes and every grant of that registration
// echoes it, so the client can tell a grant it still waits for from one
// that crossed a release (docs/PROTOCOL.md §4). Returned, under fault
// injection, counts the returns the client had sent to the shard when it
// sent the request: a shard that has received fewer knows the request
// overtook one.
type ObjRequest struct {
	Op       Op
	Client   netsim.SiteID
	Txn      txn.ID
	Deadline time.Duration
	Objs     []lockmgr.ObjectID
	Modes    []lockmgr.Mode
	Nums     []int64
	Returned int32
	Load     LoadReport
}

// ObjGrant delivers an object and its lock to a client; it travels as
// an element of a GrantMsg.
type ObjGrant struct {
	Obj     lockmgr.ObjectID
	Mode    lockmgr.Mode
	Version int64
	// Num is the request number of the registration the grant delivers:
	// the number the request carried, or the number of a release of Obj
	// the client sent while the request waited at the shard. The client
	// drops a grant whose number it has closed — such a grant was sent
	// before the shard processed a release or downgrade and delivers a
	// registration that no longer exists.
	Num int64
	// Fwd is the remaining forward list the recipient must honour at
	// commit (nil outside migrations).
	Fwd *forward.List
}

// GrantMsg is the payload of KindObjectShip (server to client) and
// KindClientForward (client to client along a forward list): one grant,
// or every grant the server coalesced for one destination at a
// batch-window close (Config.BatchWindow > 0). The message is sized as
// the sum of its member grants, and the client applies each member in
// order.
type GrantMsg struct {
	Grants []ObjGrant
}

// ObjConflict names an object's holders in a Locations answer: the
// conflicting ones or all of them (or, for an object mid-migration, the
// last client on its forward list — the paper's location-reporting rule).
type ObjConflict struct {
	Obj     lockmgr.ObjectID
	Holders []netsim.SiteID
}

// AppendLocation appends obj with a copy of its holders to objs; the
// copy lives in flat — a reply's Flat, the one array its holder lists are
// windows of (one made before flat grew keeps the old array, same contents).
func AppendLocation(objs []ObjConflict, flat []netsim.SiteID, obj lockmgr.ObjectID, holders []netsim.SiteID) ([]ObjConflict, []netsim.SiteID) {
	n := len(flat)
	flat = append(flat, holders...)
	return append(objs, ObjConflict{Obj: obj, Holders: flat[n:len(flat):len(flat)]}), flat
}

// SiteCount reports how many of a transaction's objects a site caches.
type SiteCount struct {
	Site  netsim.SiteID
	Count int
}

// Locations is a shard's answer that names where objects are: to a
// probe it could not grant in full, the conflicting holders (nothing was
// shipped); to a location query, every holder. Loads are the known loads
// of the named sites. DataCounts — probe answers only — tells the client
// how much of the whole access set each candidate holder caches: the
// "significant percentage of a transaction's required data is already
// cached at another site" condition of Section 3.1.
type Locations struct {
	Txn        txn.ID
	Objs       []ObjConflict
	Loads      []LoadReport
	DataCounts []SiteCount
	Flat       []netsim.SiteID // see AppendLocation
}

// DenyReason explains a refused request.
type DenyReason int

// Deny reasons.
const (
	// DenyDeadlock means wait-for-graph cycle refusal.
	DenyDeadlock DenyReason = iota + 1
	// DenyExpired means the requesting transaction's deadline had
	// already passed at the server.
	DenyExpired
)

// DenyReply refuses one request.
type DenyReply struct {
	Txn    txn.ID
	Reason DenyReason
}

// Recall is a server-to-client lock callback; it travels as an element
// of a RecallMsg. When DowngradeToShared is
// set the holder may keep the object with an SL instead of giving it up
// entirely (the paper's modified callback scheme). HolderMode is the
// mode the server's table records for the target at send time — a
// client whose cached state does not match it knows the recall refers
// to a grant still on the wire and must defer rather than answer for
// the wrong lock.
type Recall struct {
	Obj               lockmgr.ObjectID
	DowngradeToShared bool
	HolderMode        lockmgr.Mode
}

// RecallMsg is the payload of KindRecall: one callback, or every
// callback issued to one holder at a batch-window close
// (Config.BatchWindow > 0), sized as the sum of its members. Between
// shards it recalls read replicas.
type RecallMsg struct {
	Recalls []Recall
}

// ReplicaInstall ships a read replica of an object from its home shard
// to another server shard (multi-server topologies only). The receiving
// shard serves shared-mode requests for Obj at Version until the home
// shard recalls the replica (a writer arrived) or the replica shard
// sheds it for coldness. Carried on KindObjectShip: it is an object
// transfer, just shard-to-shard.
type ReplicaInstall struct {
	Obj     lockmgr.ObjectID
	Version int64
}

// ObjReturn answers a recall (or voluntarily returns a dirty eviction).
type ObjReturn struct {
	Client netsim.SiteID
	Obj    lockmgr.ObjectID
	// HasData marks returns carrying a modified object.
	HasData bool
	Version int64
	// Downgraded means the client kept an SL copy.
	Downgraded bool
	// UpdateOnly pushes committed data to the server without touching
	// the lock (the write-through ablation); the client keeps its EL.
	UpdateOnly bool
	// Migration marks the final hop of an exclusive forward list.
	Migration bool
	// RunComplete marks the end of a parallel read run: every member
	// received its copy, so the server may recall them normally again
	// (the paper's "the object is returned to the server" — for a
	// read-only run only the acknowledgement needs to travel).
	RunComplete bool
	// Fwd is the spent forward list a final return (Migration or
	// RunComplete) carries home. Its Retained names the chain clients
	// that kept clean shared copies (legal because no exclusive entry
	// followed them); the server registers these SLs so its lock table
	// matches the caches, and the list goes back to the pool's stock with
	// the return's record.
	Fwd *forward.List
	// Num, nonzero on a return that gives a registration up (a release,
	// a give-up, a downgrade), is the fresh request number the client
	// opened with it. The shard renumbers the client's requests for Obj
	// still waiting there to it, so that their grants carry a number the
	// client holds open, while every grant sent before this return
	// carries one it has closed.
	Num  int64
	Load LoadReport
}

// TxnShip moves a transaction (or one subtask of a decomposed
// transaction) to another client site for execution, or carries a
// terminal's transaction to the centralized server.
type TxnShip struct {
	T *txn.Transaction
	// Sub is non-nil when shipping a subtask.
	Sub *txn.Subtask
}

// TxnResult reports a shipped transaction's (or subtask's) outcome to
// its origin, naming the transaction as the TxnShip that carried it did.
type TxnResult struct {
	T         *txn.Transaction
	SubIndex  int
	IsSub     bool
	Committed bool
}
