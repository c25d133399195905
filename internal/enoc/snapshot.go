package enoc

import (
	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// This file implements noc.Checkpointer for the wormhole mesh. Unlike the
// crossbars, in-flight state here is a pointer graph: flits point to their
// packet, packets to their message, and one packet is referenced from many
// places at once (every flit of it, the VC owner field, the NI send state).
// Snapshot and Restore therefore clone through a memoizing graphCloner so the
// sharing structure — which the allocator and the protocol both rely on — is
// reproduced exactly. The packet/flit free lists are deliberately left out on
// both sides: they hold only dead state, and restored traffic uses fresh
// clones, so a stale free-list entry can never alias a live flit.

// graphCloner deep-copies the packet/message graph while preserving aliasing:
// every distinct source pointer maps to exactly one clone. Flits are never
// shared between containers, so they clone without memoization.
type graphCloner struct {
	msgs map[*noc.Message]*noc.Message
	pkts map[*packet]*packet
}

func newGraphCloner() *graphCloner {
	return &graphCloner{
		msgs: make(map[*noc.Message]*noc.Message),
		pkts: make(map[*packet]*packet),
	}
}

func (c *graphCloner) msg(m *noc.Message) *noc.Message {
	if m == nil {
		return nil
	}
	if d, ok := c.msgs[m]; ok {
		return d
	}
	d := &noc.Message{}
	*d = *m
	c.msgs[m] = d
	return d
}

func (c *graphCloner) pkt(p *packet) *packet {
	if p == nil {
		return nil
	}
	if d, ok := c.pkts[p]; ok {
		return d
	}
	d := &packet{}
	*d = *p
	d.msg = c.msg(p.msg)
	c.pkts[p] = d
	return d
}

func (c *graphCloner) flit(f *flit) *flit {
	d := &flit{}
	*d = *f
	d.pkt = c.pkt(f.pkt)
	return d
}

func (c *graphCloner) flits(dst []*flit, src []*flit) []*flit {
	dst = dst[:0]
	for _, f := range src {
		dst = append(dst, c.flit(f))
	}
	return dst
}

func (c *graphCloner) pktSlice(dst []*packet, src []*packet) []*packet {
	dst = dst[:0]
	for _, p := range src {
		dst = append(dst, c.pkt(p))
	}
	return dst
}

// vcBufSnap mirrors vcBuf with cloned contents.
type vcBufSnap struct {
	q       []*flit
	owner   *packet
	outPort int
	outVC   int
	routed  bool
	granted bool
}

// routerSnap captures one router's buffers, credits, links and arbitration.
type routerSnap struct {
	in        [numPorts][]vcBufSnap
	outCredit [numPorts][]int
	outBusy   [numPorts][]bool
	link      [numPorts][]linkFlit
	rr        [numPorts]slot
	occupancy int
	linkLoad  int
}

// niSnap captures one network interface's queues and send state.
type niSnap struct {
	classQ  [noc.NumClasses][]*packet
	sending [noc.NumClasses]sendState
	rr      int
}

// meshSnapshot is the mesh fabric's full mutable state.
type meshSnapshot struct {
	now      sim.Tick
	stats    *noc.Stats
	power    powerCounters
	selfQ    []selfMsg
	inflight int
	routers  []routerSnap
	nis      []niSnap
}

// SnapshotAt implements noc.Snapshot.
func (s *meshSnapshot) SnapshotAt() sim.Tick { return s.now }

// Snapshot implements noc.Checkpointer.
func (n *Network) Snapshot() noc.Snapshot {
	cl := newGraphCloner()
	s := &meshSnapshot{
		now:      n.now,
		stats:    n.stats.Clone(),
		power:    n.power,
		inflight: n.inflight,
		routers:  make([]routerSnap, len(n.routers)),
		nis:      make([]niSnap, len(n.nis)),
	}
	for _, sm := range n.selfQ {
		s.selfQ = append(s.selfQ, selfMsg{at: sm.at, msg: cl.msg(sm.msg)})
	}
	for ri, r := range n.routers {
		rs := &s.routers[ri]
		rs.rr = r.rr
		rs.occupancy = r.occupancy
		rs.linkLoad = r.linkLoad
		for p := 0; p < numPorts; p++ {
			rs.in[p] = make([]vcBufSnap, len(r.in[p]))
			for v := range r.in[p] {
				b := &r.in[p][v]
				rs.in[p][v] = vcBufSnap{
					q:       cl.flits(nil, b.q),
					owner:   cl.pkt(b.owner),
					outPort: b.outPort,
					outVC:   b.outVC,
					routed:  r.routed[p]&(1<<v) != 0,
					granted: b.granted,
				}
			}
			rs.outCredit[p] = append([]int(nil), r.outCredit[p]...)
			rs.outBusy[p] = append([]bool(nil), r.outBusy[p]...)
			if l := r.outLink[p]; l != nil {
				for _, lf := range l.inflight {
					rs.link[p] = append(rs.link[p], linkFlit{at: lf.at, f: cl.flit(lf.f)})
				}
			}
		}
	}
	for ni, iface := range n.nis {
		ns := &s.nis[ni]
		ns.rr = iface.rr
		for c := range iface.classQ {
			ns.classQ[c] = cl.pktSlice(nil, iface.classQ[c])
			ns.sending[c] = iface.sending[c]
			ns.sending[c].pkt = cl.pkt(iface.sending[c].pkt)
		}
	}
	return s
}

// Restore implements noc.Checkpointer. A fresh cloner maps snapshot pointers
// to new live ones, so the snapshot remains valid for further restores and
// never aliases the running fabric.
func (n *Network) Restore(s noc.Snapshot) {
	snap := s.(*meshSnapshot)
	cl := newGraphCloner()
	n.now = snap.now
	n.stats = snap.stats.Clone()
	n.power = snap.power
	n.inflight = snap.inflight
	n.selfQ = n.selfQ[:0]
	for _, sm := range snap.selfQ {
		n.selfQ = append(n.selfQ, selfMsg{at: sm.at, msg: cl.msg(sm.msg)})
	}
	for ri, r := range n.routers {
		rs := &snap.routers[ri]
		r.rr = rs.rr
		r.occupancy = rs.occupancy
		r.linkLoad = rs.linkLoad
		// The occupancy masks are an index over buffer state: rebuild
		// them from the restored buffers rather than snapshotting them.
		r.nonEmpty = [numPorts]uint16{}
		r.routed = [numPorts]uint16{}
		r.routedTo = [numPorts][numPorts]uint16{}
		for p := 0; p < numPorts; p++ {
			for v := range r.in[p] {
				b := &r.in[p][v]
				bs := &rs.in[p][v]
				b.q = cl.flits(b.q, bs.q)
				b.owner = cl.pkt(bs.owner)
				b.outPort = bs.outPort
				b.outVC = bs.outVC
				b.granted = bs.granted
				bit := uint16(1) << v
				if len(b.q) > 0 {
					r.nonEmpty[p] |= bit
				}
				if bs.routed {
					r.routed[p] |= bit
					r.routedTo[b.outPort][p] |= bit
				}
			}
			copy(r.outCredit[p], rs.outCredit[p])
			copy(r.outBusy[p], rs.outBusy[p])
			if l := r.outLink[p]; l != nil {
				l.inflight = l.inflight[:0]
				for _, lf := range rs.link[p] {
					l.inflight = append(l.inflight, linkFlit{at: lf.at, f: cl.flit(lf.f)})
				}
			}
		}
	}
	for ni, iface := range n.nis {
		ns := &snap.nis[ni]
		iface.rr = ns.rr
		for c := range iface.classQ {
			iface.classQ[c] = cl.pktSlice(iface.classQ[c], ns.classQ[c])
			iface.sending[c] = ns.sending[c]
			iface.sending[c].pkt = cl.pkt(ns.sending[c].pkt)
		}
	}
}
