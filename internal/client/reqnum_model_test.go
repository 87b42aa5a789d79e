package client

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"siteselect/internal/netsim"
)

// An explicit-state model of the request-number rule (docs/PROTOCOL.md
// §4): a few clients, one object, a home shard and optionally a replica
// shard, and every message on the wire deliverable in any order — or, in
// the FIFO variant, a client's messages to one shard in the order sent,
// as the simulated bus delivers them without faults. Every reachable
// state is visited.
//
// The model follows the protocol the code implements: a request carries
// a fresh number, renumbered by the shard when a release of the object
// from the same client reaches it first; a grant echoes the number of
// the registration it delivers; a shard skips a release not newer than
// the registration it would end; under faults a request that overtook a
// return of its client's (it carries the count of returns the client had
// sent, a forwarded one counts as overtaking) is answered from an
// exclusive hold numbered below it under the hold's own number; the
// client accepts a grant iff the number is open — some open request of
// the object expects it from the grant's shard (objRec.expect, the
// code's own) and has a send unanswered — and, under faults, does not
// install one older than its copy. Copies carry versions: an exclusive
// holder may write, a give-up or downgrade of a dirty copy and a chain's
// end carry the data home, and a grant carries the shard's version.
// The lock table admits a queued request in its own mode, as
// lockmgr.Table.admit does, even over a stronger hold its owner got
// meanwhile; the known defect that makes is listed below.
// Beside it runs the release-epoch rule the numbers replaced, with a
// downgrade counted as a release: per (client, shard) counters, the
// shard's highest seen stamped into each grant at decision.
//
// It checks, after every step, that no client caches a copy its shard
// has not registered (in that mode or stronger, or, for an exclusive
// chain, the chain is at that client) or a copy of the home shard older
// than the home shard's version; and at every grant delivery it compares
// the two rules.
//
// Covered: shared and exclusive requests, upgrades, a read run (the
// shard admits a run of shared requests at once), an exclusive chain (a
// checked-out object hopping client to client, each hop echoing the
// entry's number frozen at dispatch), recalls answered by a downgrade, a
// give-up or a not-cached release, silent eviction of a clean shared
// copy, a transaction giving up its wait, retransmissions, the fault
// layer's duplicated requests, and a replica shard forwarding a request
// it cannot serve to the home shard with the number it arrived with.

const (
	mNone, mSL, mEL = 0, 1, 2
	home, replica   = 0, 1
	chainOwner      = -1
)

type mMsg struct {
	kind   byte // 'q' request, 'g' grant, 'h' chain hop, 'r' return, 'e' chain's end, 'c' recall
	client int
	site   int // the shard: destination of a request or return, source of a grant or recall
	mode   int
	num    int64
	epoch  int64
	ver    int  // a grant's or hop's version, a return's data
	data   bool // a return carrying the copy's data
	rets   int  // a request: the returns its client had sent to the shard
	down   bool // a return that downgrades; a recall asking for one
	seq    int  // a client's messages to one shard, in sending order
	dup    bool // the fault layer delivers this request twice
	fwd    bool // a request a replica forwarded home, and the grant answering it
}

type mReq struct {
	num     int64
	mode    int
	left    int  // sends not answered
	dup     bool // answered in full once already: the allowance for a duplicate is spent
	waiting bool
}

type mClient struct {
	copyMode, copySite int
	copyVer            int
	dirty              bool
	rets               [2]int // returns sent, per shard
	reqs               []mReq
	rels               []relMark
	epochs             [2]int64
	budget             int
	gaveUp, evicted    bool
	chain              bool // holds the chain's token
}

type mEntry struct {
	client, mode int
	num, epoch   int64
	fwd          bool
}

type mShard struct {
	holders  map[int][2]int64 // client → (mode, number)
	queue    []mEntry
	recalled map[int]bool
	seen     map[int]int64 // the highest release epoch each client reported
	got      map[int]int   // returns received, per client
	ver      int
	chain    []mEntry // the exclusive chain's remaining entries, frozen at dispatch
	checked  bool     // the object is checked out to a chain
	serving  bool     // a replica that serves shared requests
}

type mState struct {
	clients []mClient
	shards  []mShard
	net     []mMsg
	lastNum int64
	seq     int
	dups    int // duplications the network may still make
	writes  int // writes the clients may still make
	// faulty: frames may overtake one another or be duplicated; strong:
	// admit keeps a hold's stronger mode (the fix of the known defect).
	faulty, strong bool
}

type modelConfig struct {
	clients, shards, budget int
	fifo                    bool
	dups, writes            int
	strong                  bool
}

type modelReport struct {
	states                       int
	numOnly, epochOnly, bothDrop int
	epochOnlyFwd                 int // of epochOnly: grants of a request a replica forwarded home
	violation                    string
	trace                        []string
}

func (s *mState) clone() *mState {
	n := &mState{lastNum: s.lastNum, seq: s.seq, dups: s.dups, writes: s.writes, faulty: s.faulty, strong: s.strong}
	n.clients = make([]mClient, len(s.clients))
	for i, c := range s.clients {
		c.reqs = slices.Clone(c.reqs)
		c.rels = slices.Clone(c.rels)
		n.clients[i] = c
	}
	n.shards = make([]mShard, len(s.shards))
	for i, sh := range s.shards {
		m := mShard{queue: slices.Clone(sh.queue), chain: slices.Clone(sh.chain), checked: sh.checked, serving: sh.serving,
			ver: sh.ver, holders: map[int][2]int64{}, recalled: map[int]bool{}, seen: map[int]int64{}, got: map[int]int{}}
		for k, v := range sh.holders {
			m.holders[k] = v
		}
		for k, v := range sh.recalled {
			m.recalled[k] = v
		}
		for k, v := range sh.seen {
			m.seen[k] = v
		}
		for k, v := range sh.got {
			m.got[k] = v
		}
		n.shards[i] = m
	}
	n.net = slices.Clone(s.net)
	return n
}

// key is a canonical encoding: numbers are compared, never printed, so
// two states that differ only in which fresh numbers they drew are one.
func (s *mState) key() string {
	var b strings.Builder
	nums := map[int64]int{}
	rank := func(n int64) int {
		if n == 0 {
			return 0
		}
		if r, ok := nums[n]; ok {
			return r
		}
		nums[n] = len(nums) + 1
		return nums[n]
	}
	fmt.Fprintf(&b, "D%dW%d", s.dups, s.writes)
	for _, c := range s.clients {
		fmt.Fprintf(&b, "C%d%d%d%v%v%v%d%d%d%v%v|", c.copyMode, c.copySite, c.budget, c.gaveUp, c.evicted, c.chain, c.epochs[0], c.epochs[1], c.copyVer, c.dirty, c.rets)
		for _, q := range c.reqs {
			fmt.Fprintf(&b, "q%d,%d,%d,%v,%v;", rank(q.num), q.mode, q.left, q.dup, q.waiting)
		}
		for _, m := range c.rels {
			fmt.Fprintf(&b, "m%d,%d;", m.site, rank(m.num))
		}
	}
	for _, sh := range s.shards {
		fmt.Fprintf(&b, "S%v%v%d|", sh.checked, sh.serving, sh.ver)
		for k := range 4 {
			if h, ok := sh.holders[k]; ok {
				fmt.Fprintf(&b, "h%d,%d,%d;", k, h[0], rank(h[1]))
			}
			if sh.recalled[k] {
				fmt.Fprintf(&b, "r%d;", k)
			}
			fmt.Fprintf(&b, "e%d,%d;", sh.seen[k], sh.got[k])
		}
		for _, e := range sh.queue {
			fmt.Fprintf(&b, "w%d,%d,%d,%d,%v;", e.client, e.mode, rank(e.num), e.epoch, e.fwd)
		}
		for _, e := range sh.chain {
			fmt.Fprintf(&b, "x%d,%d,%d,%d;", e.client, e.mode, rank(e.num), e.epoch)
		}
	}
	msgs := make([]string, len(s.net))
	for i, m := range s.net {
		msgs[i] = fmt.Sprintf("%c%d,%d,%d,%d,%d,%v,%v,%v,%d,%v,%d", m.kind, m.client, m.site, m.mode, rank(m.num), m.epoch, m.down, m.dup, m.fwd, m.ver, m.data, m.rets)
	}
	slices.Sort(msgs)
	b.WriteString(strings.Join(msgs, "|"))
	return b.String()
}

func (s *mState) newNum() int64 {
	s.lastNum++
	return s.lastNum
}

func (s *mState) send(m mMsg) {
	s.seq++
	m.seq = s.seq
	s.net = append(s.net, m)
}

// deliverable reports whether message i may be delivered now: always,
// unless FIFO holds it behind an earlier message of the same client to
// the same shard, or it is a return and an earlier return of the same
// client to the same shard is still on the wire. (The fault layer can
// reorder two returns too — a lost frame is sent again later — and a
// release that overtakes a give-up with data then frees the object
// before the data lands; that is a known defect outside the rule.)
func (s *mState) deliverable(i int, fifo bool) bool {
	m := s.net[i]
	toShard := func(k byte) bool { return k == 'q' || k == 'r' || k == 'e' }
	ret := func(k byte) bool { return k == 'r' || k == 'e' }
	if !toShard(m.kind) || !fifo && !ret(m.kind) {
		return true
	}
	for _, o := range s.net {
		if (fifo && toShard(o.kind) || ret(o.kind) && ret(m.kind)) && !o.fwd && o.client == m.client && o.site == m.site && o.seq < m.seq {
			return false
		}
	}
	return true
}

// expect is what client c expects from site for its request numbered n:
// the code's objRec.expect over the client's release marks.
func (c *mClient) expect(n int64, site int) int64 {
	r := objRec{rels: c.rels}
	return r.expect(n, netsim.SiteID(-site))
}

// release opens a release number of the object to site: marks it for the
// open requests, bumps the epoch counter (a downgrade is a release). A
// dirty copy's data goes with it.
func (s *mState) release(ci, site int, down bool) {
	c := &s.clients[ci]
	data, ver := c.dirty, c.copyVer
	c.dirty = false
	c.rets[site]++
	num := s.newNum()
	if len(c.reqs) > 0 {
		i := slices.IndexFunc(c.rels, func(m relMark) bool { return m.site == netsim.SiteID(-site) })
		if i < 0 {
			c.rels = append(c.rels, relMark{site: netsim.SiteID(-site)})
			i = len(c.rels) - 1
		}
		c.rels[i].num = num
	}
	c.epochs[site]++
	s.send(mMsg{kind: 'r', client: ci, site: site, num: num, epoch: c.epochs[site], down: down, data: data, ver: ver, rets: c.rets[site]})
}

// settle forgets the release marks once no request is open.
func (c *mClient) settle() {
	if len(c.reqs) == 0 {
		c.rels = nil
	}
}

func compatible(a, b int) bool { return a == mSL && b == mSL }

// grant registers client ci at shard si in mode under num and sends the
// grant, stamped with the shard's view of the client's releases and the
// shard's version. A hold the lock table answers a request from, or
// upgrades, keeps its mode or strengthens; one admitted from the queue
// takes the request's mode (lockmgr.Table.admit) unless strong.
func (s *mState) grant(si, ci, mode int, num int64, fwd, admitted bool) {
	sh := &s.shards[si]
	h := sh.holders[ci]
	held := int64(mode)
	if !admitted || s.strong {
		held = max(held, h[0])
	}
	sh.holders[ci] = [2]int64{held, max(h[1], num)}
	s.send(mMsg{kind: 'g', client: ci, site: si, mode: mode, num: num, epoch: sh.seen[ci], fwd: fwd, ver: sh.ver})
}

// conflicts lists the holders of shard si that stand in the way of ci
// acquiring mode.
func (sh *mShard) conflicts(ci, mode int) []int {
	var out []int
	for k := range 4 {
		if h, ok := sh.holders[k]; ok && k != ci && !compatible(mode, int(h[0])) {
			out = append(out, k)
		}
	}
	if sh.checked {
		out = append(out, chainOwner)
	}
	return out
}

// admit grants the queue's head run while it is compatible with the
// holders: a run of shared requests is one read run.
func (s *mState) admit(si int) {
	sh := &s.shards[si]
	for len(sh.queue) > 0 && len(sh.conflicts(sh.queue[0].client, sh.queue[0].mode)) == 0 {
		e := sh.queue[0]
		sh.queue = sh.queue[1:]
		s.grant(si, e.client, e.mode, e.num, e.fwd, true)
	}
	s.recallHead(si)
}

// recallHead recalls the holders blocking the queue's head, once each.
func (s *mState) recallHead(si int) {
	sh := &s.shards[si]
	if len(sh.queue) == 0 {
		return
	}
	head := sh.queue[0]
	for _, k := range sh.conflicts(head.client, head.mode) {
		if k == chainOwner || sh.recalled[k] {
			continue
		}
		sh.recalled[k] = true
		s.send(mMsg{kind: 'c', client: k, site: si, mode: int(sh.holders[k][0]), down: head.mode == mSL})
	}
}

// onRequest is a shard processing a request.
func (s *mState) onRequest(m mMsg) {
	si, sh := m.site, &s.shards[m.site]
	if si == replica && (m.mode == mEL || !sh.serving) {
		// Forwarded with the number it arrived with, behind everything the
		// client had sent home before it.
		m.site, m.fwd, m.rets = home, true, 1<<30
		s.net = append(s.net, m)
		return
	}
	if h, ok := sh.holders[m.client]; ok && h[0] == mEL && s.faulty && m.num > h[1] && m.rets > sh.got[m.client] {
		// Overtaken (Server.overtaken): the grant carries the hold's number.
		s.send(mMsg{kind: 'g', client: m.client, site: si, mode: mEL, num: h[1], epoch: sh.seen[m.client], fwd: m.fwd, ver: sh.ver})
		return
	}
	if h, ok := sh.holders[m.client]; ok && (int(h[0]) == m.mode || h[0] == mEL) {
		s.grant(si, m.client, int(h[0]), m.num, m.fwd, false) // a repeat, answered from the hold
		return
	}
	for _, e := range sh.queue {
		if e.client == m.client && e.mode == m.mode {
			return // already waiting: a duplicate
		}
	}
	_, upgrade := sh.holders[m.client]
	if len(sh.conflicts(m.client, m.mode)) > 0 || len(sh.queue) > 0 && !upgrade {
		sh.queue = append(sh.queue, mEntry{client: m.client, mode: m.mode, num: m.num, fwd: m.fwd})
		s.recallHead(si)
		return
	}
	s.grant(si, m.client, m.mode, m.num, m.fwd, false)
}

// onReturn is a shard processing a release, a give-up or a downgrade: the
// epoch bookkeeping, the renumbering of the client's waiting requests,
// and the release unless the registration is newer than it.
func (s *mState) onReturn(m mMsg) {
	si, sh := m.site, &s.shards[m.site]
	sh.got[m.client]++
	if m.data {
		sh.ver = max(sh.ver, m.ver)
	}
	if m.kind == 'e' { // the chain's last member hands the object back
		sh.checked = false
		s.admit(si)
		return
	}
	sh.seen[m.client] = max(sh.seen[m.client], m.epoch)
	for i := range sh.queue {
		if e := &sh.queue[i]; e.client == m.client && e.num < m.num {
			e.num = m.num
		}
	}
	delete(sh.recalled, m.client)
	if h, ok := sh.holders[m.client]; ok && h[1] < m.num { // else skipped: not newer than the hold
		if m.down && h[0] == mEL {
			sh.holders[m.client] = [2]int64{mSL, h[1]}
		} else if !m.down {
			delete(sh.holders, m.client)
		}
	}
	s.admit(si)
}

// accepts applies both rules to a grant delivered to client ci: the
// number rule's verdict (and the request it answers), and the epoch
// rule's.
func (s *mState) accepts(ci int, m mMsg) (byNum bool, req int, byEpoch bool) {
	c := &s.clients[ci]
	for i, q := range c.reqs {
		if q.left > 0 && c.expect(q.num, m.site) == m.num {
			return true, i, m.epoch == c.epochs[m.site]
		}
	}
	return false, -1, m.epoch == c.epochs[m.site]
}

// onGrant delivers a grant or a chain hop to its client.
func (s *mState) onGrant(m mMsg, rep *modelReport, faulty bool) {
	ci := m.client
	c := &s.clients[ci]
	byNum, i, byEpoch := s.accepts(ci, m)
	switch {
	case byNum && !byEpoch:
		rep.numOnly++
	case !byNum && byEpoch:
		rep.epochOnly++
		if m.fwd {
			rep.epochOnlyFwd++
		}
	case !byNum:
		rep.bothDrop++
	}
	if !byNum {
		if m.kind == 'h' {
			s.passOn(ci, m.site, m.ver)
		}
		return
	}
	q := &c.reqs[i]
	q.left--
	switch {
	case q.left > 0:
	case faulty && !q.dup: // a duplicate's answer may follow (Client.open)
		q.left, q.dup = 1, true
	default:
		c.reqs = slices.Delete(c.reqs, i, i+1)
	}
	install, mode := true, m.mode
	if faulty && m.kind == 'g' && c.copyMode != mNone {
		if c.copyVer > m.ver || c.copyVer == m.ver && c.copyMode >= m.mode {
			install, mode = false, c.copyMode // the version checks of Client.onGrant
		}
	}
	if install {
		c.copyMode, c.copySite, c.copyVer = m.mode, m.site, m.ver
	}
	for j := range c.reqs {
		if c.reqs[j].mode <= mode {
			c.reqs[j].waiting = false
		}
	}
	if m.kind == 'h' {
		c.chain = true
	}
	c.settle()
}

// passOn hands the chain's token from client ci to the next entry, or
// home when the chain is spent; ci keeps no copy.
func (s *mState) passOn(ci, site, ver int) {
	sh, c := &s.shards[site], &s.clients[ci]
	c.chain = false
	if len(sh.chain) == 0 {
		c.rets[site]++
		s.send(mMsg{kind: 'e', client: ci, site: site, data: true, ver: ver, rets: c.rets[site]})
		return
	}
	e := sh.chain[0]
	sh.chain = sh.chain[1:]
	s.send(mMsg{kind: 'h', client: e.client, site: site, mode: mEL, num: e.num, epoch: e.epoch, ver: ver})
}

// fresh reports whether client ci's copy of the home shard is at least
// as new as the home shard's version.
func (s *mState) fresh(ci int) bool {
	c := &s.clients[ci]
	return c.copyMode == mNone || c.copySite != home || c.copyVer >= s.shards[home].ver
}

// registered reports whether client ci's copy is registered.
func (s *mState) registered(ci int) bool {
	c := &s.clients[ci]
	if c.copyMode == mNone {
		return true
	}
	if c.chain {
		return s.shards[c.copySite].checked
	}
	h, ok := s.shards[c.copySite].holders[ci]
	return ok && int(h[0]) >= c.copyMode
}

// successors returns every state one step from s, with a label.
func (s *mState) successors(cfg modelConfig, rep *modelReport) ([]*mState, []string) {
	var out []*mState
	var labels []string
	add := func(n *mState, label string) {
		out = append(out, n)
		labels = append(labels, label)
	}
	for ci := range s.clients {
		c := &s.clients[ci]
		for _, mode := range []int{mSL, mEL} {
			if c.budget == 0 || c.copyMode >= mode || c.chain {
				continue
			}
			n := s.clone()
			nc := &n.clients[ci]
			nc.budget--
			site := home
			if mode == mSL && cfg.shards > 1 {
				site = replica
			}
			num := n.newNum()
			nc.reqs = append(nc.reqs, mReq{num: num, mode: mode, left: 1, waiting: true})
			n.send(mMsg{kind: 'q', client: ci, site: site, mode: mode, num: nc.expect(num, site), rets: nc.rets[site]})
			add(n, fmt.Sprintf("c%d asks %d at %d", ci, mode, site))
		}
		for qi, q := range c.reqs {
			if q.waiting && !c.gaveUp {
				n := s.clone()
				n.clients[ci].reqs[qi].waiting = false
				n.clients[ci].gaveUp = true
				add(n, fmt.Sprintf("c%d gives up", ci))
			}
			if q.waiting && c.budget > 0 {
				n := s.clone()
				nc := &n.clients[ci]
				nc.budget--
				nc.reqs[qi].left++
				site := home
				if q.mode == mSL && cfg.shards > 1 {
					site = replica
				}
				n.send(mMsg{kind: 'q', client: ci, site: site, mode: q.mode, num: nc.expect(q.num, site), rets: nc.rets[site]})
				add(n, fmt.Sprintf("c%d retransmits", ci))
			}
		}
		if c.copyMode == mSL && !c.chain && !c.evicted {
			n := s.clone()
			n.clients[ci].copyMode, n.clients[ci].evicted = mNone, true
			add(n, fmt.Sprintf("c%d evicts silently", ci))
		}
		if c.copyMode == mEL && !c.chain && !c.evicted {
			n := s.clone()
			n.clients[ci].evicted = true
			n.release(ci, c.copySite, false)
			n.clients[ci].copyMode = mNone
			add(n, fmt.Sprintf("c%d gives its copy up", ci))
		}
		if c.chain {
			n := s.clone()
			n.clients[ci].copyMode, n.clients[ci].dirty = mNone, false
			n.passOn(ci, c.copySite, c.copyVer)
			add(n, fmt.Sprintf("c%d passes the chain on", ci))
		}
		if c.copyMode == mEL && s.writes > 0 {
			n := s.clone()
			n.writes--
			n.clients[ci].copyVer++
			n.clients[ci].dirty = true
			add(n, fmt.Sprintf("c%d writes", ci))
		}
	}
	for si := range s.shards {
		sh := &s.shards[si]
		if len(sh.holders) == 0 && !sh.checked && len(sh.queue) >= 2 && sh.queue[0].mode == mEL && sh.queue[1].mode == mEL {
			n := s.clone()
			nsh := &n.shards[si]
			nsh.checked = true
			first := nsh.queue[0]
			nsh.chain = nil
			for _, e := range nsh.queue[1:] {
				if e.mode != mEL {
					break
				}
				e.epoch = nsh.seen[e.client]
				nsh.chain = append(nsh.chain, e)
			}
			nsh.queue = nsh.queue[1+len(nsh.chain):]
			n.send(mMsg{kind: 'h', client: first.client, site: si, mode: mEL, num: first.num, epoch: nsh.seen[first.client], ver: nsh.ver})
			add(n, fmt.Sprintf("shard %d dispatches a chain", si))
		}
		if si == replica && sh.serving {
			n := s.clone()
			n.shards[si].serving = false
			add(n, "the replica is shed")
		}
	}
	for i, m := range s.net {
		if !s.deliverable(i, cfg.fifo) {
			continue
		}
		n := s.clone()
		if m.dup && m.kind == 'q' {
			n.net[i].dup = false // the first copy; the duplicate stays on the wire
		} else {
			n.net = slices.Delete(n.net, i, i+1)
		}
		label := fmt.Sprintf("deliver %c c%d site %d mode %d num %d", m.kind, m.client, m.site, m.mode, m.num)
		switch m.kind {
		case 'q':
			n.onRequest(m)
		case 'r', 'e':
			n.onReturn(m)
		case 'g', 'h':
			n.onGrant(m, rep, n.faulty)
		case 'c':
			nc := &n.clients[m.client]
			switch {
			case nc.chain || nc.copyMode != mNone && nc.copyMode != m.mode || nc.copyMode == mNone && slices.ContainsFunc(nc.reqs, func(q mReq) bool { return q.waiting }):
				continue // parked: the copy the recall names is still on the wire, or pinned by a chain
			case nc.copyMode == mEL && m.down:
				n.release(m.client, m.site, true)
				nc.copyMode = mSL
			default:
				if nc.copyMode == mNone {
					nc.dirty = false // not cached: nothing to send
				}
				n.release(m.client, m.site, false)
				nc.copyMode = mNone
			}
		}
		add(n, label)
		if m.kind == 'q' && s.dups > 0 && !m.dup {
			d := s.clone()
			d.net[i].dup = true
			d.dups--
			add(d, fmt.Sprintf("the network duplicates a request of c%d", m.client))
		}
	}
	return out, labels
}

func runModel(t *testing.T, cfg modelConfig) modelReport {
	t.Helper()
	init := &mState{dups: cfg.dups, writes: cfg.writes, faulty: !cfg.fifo || cfg.dups > 0, strong: cfg.strong}
	for range cfg.clients {
		init.clients = append(init.clients, mClient{copySite: home, budget: cfg.budget})
	}
	for i := range cfg.shards {
		init.shards = append(init.shards, mShard{holders: map[int][2]int64{}, recalled: map[int]bool{}, seen: map[int]int64{}, got: map[int]int{}, serving: i == replica})
	}
	var rep modelReport
	seen := map[string]bool{init.key(): true}
	type node struct {
		s    *mState
		path []string
	}
	stack := []node{{init, nil}}
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		rep.states++
		if rep.states > 4_000_000 {
			t.Fatalf("%+v: more than 4 000 000 states", cfg)
		}
		next, labels := nd.s.successors(cfg, &rep)
		for i, n := range next {
			for ci, c := range n.clients {
				var v string
				switch {
				case !n.registered(ci):
					v = fmt.Sprintf("client %d caches mode %d at shard %d unregistered", ci, c.copyMode, c.copySite)
				case !n.fresh(ci):
					v = fmt.Sprintf("client %d caches version %d, the home shard has %d", ci, c.copyVer, n.shards[home].ver)
				}
				if v != "" && rep.violation == "" {
					rep.violation, rep.trace = v, append(slices.Clone(nd.path), labels[i])
				}
			}
			if k := n.key(); !seen[k] {
				seen[k] = true
				stack = append(stack, node{n, append(slices.Clone(nd.path), labels[i])})
			}
		}
	}
	return rep
}

// TestRequestNumberModel walks every reachable state of the model in
// several configurations. With a lock table that keeps a hold's stronger
// mode, no client in any of them caches a copy its shard has not
// registered, or a copy older than the home shard's. Under the bus's
// order (FIFO), the number rule accepts every grant the epoch rule — a
// downgrade counted as a release — accepts, but for one kind: a grant of
// a request a replica forwarded home, registered there after the home
// shard processed a release of the client's the request had gone out
// before. The client cannot tell it from a grant that crossed that
// release, and drops it; the shard's registration is then released
// lazily, as after any drop. When a client's messages to a shard may
// overtake one another, the two rules part both ways, and only safety is
// checked.
//
// The lock table as it is (lockmgr.Table.admit gives an owner's hold the
// mode of the queued request it admits, weaker or not) fails the
// configurations marked admit: a client's shared request queued behind
// its own exclusive one, whose transaction gave up, weakens the hold to
// shared in the pass that grants the exclusive one, and the client
// caches an exclusive copy registered as shared. The search checks that
// it still does — mend admit, and clear the marks.
func TestRequestNumberModel(t *testing.T) {
	if testing.Short() {
		t.Skip("an explicit-state search of about two minutes")
	}
	for _, c := range []struct {
		name  string
		cfg   modelConfig
		admit bool
	}{
		{"2 clients, home, fifo", modelConfig{clients: 2, shards: 1, budget: 2, fifo: true, writes: 1}, true},
		{"3 clients, home, fifo", modelConfig{clients: 3, shards: 1, budget: 1, fifo: true, writes: 1}, false},
		{"2 clients, home, fifo, a duplicate", modelConfig{clients: 2, shards: 1, budget: 1, fifo: true, dups: 1, writes: 1}, false},
		{"2 clients, home and replica, fifo", modelConfig{clients: 2, shards: 2, budget: 2, fifo: true, writes: 1}, true},
		{"2 clients, home, any order", modelConfig{clients: 2, shards: 1, budget: 1, dups: 1, writes: 1}, false},
		{"1 client, home, any order", modelConfig{clients: 1, shards: 1, budget: 3, writes: 1}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, strong := range []bool{true, false} {
				cfg := c.cfg
				cfg.strong = strong
				rep := runModel(t, cfg)
				t.Logf("strong admit %v: %d states; grants both rules drop %d, only the number rule accepts %d, only the epoch rule accepts %d (%d forwarded)",
					strong, rep.states, rep.bothDrop, rep.numOnly, rep.epochOnly, rep.epochOnlyFwd)
				switch {
				case strong && rep.violation != "":
					t.Fatalf("%s after\n  %s", rep.violation, strings.Join(rep.trace, "\n  "))
				case !strong && (rep.violation != "") != c.admit:
					t.Errorf("with admit as the lock table has it: violation %q, want one: %v\n  %s", rep.violation, c.admit, strings.Join(rep.trace, "\n  "))
				}
				if strong && c.cfg.fifo && rep.epochOnly > rep.epochOnlyFwd {
					t.Errorf("under FIFO the epoch rule accepts %d grants the number rule drops, %d of them not forwarded", rep.epochOnly, rep.epochOnly-rep.epochOnlyFwd)
				}
			}
		})
	}
}
