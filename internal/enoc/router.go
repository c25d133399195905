package enoc

import (
	"math/bits"

	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// vcBuf is one virtual-channel input buffer.
type vcBuf struct {
	q []*flit
	// owner is the packet currently allocated to this VC; a VC is busy
	// from head-flit allocation until its tail flit departs.
	owner *packet
	// outPort/outVC are the route decision for the owner packet; they are
	// computed once per packet at this router. Whether outPort is valid is
	// the buffer's bit in the router's routed mask.
	outPort int
	outVC   int
	granted bool
}

// link models a point-to-point channel with a fixed traversal delay. Flits
// pushed at cycle t surface at the downstream input buffer at t+delay; the
// delay is constant, so inflight is a FIFO ordered by arrival time.
// wrap marks torus wraparound links — the datelines of the VC discipline.
type link struct {
	delay    sim.Tick
	dst      *router
	dstPort  int
	wrap     bool
	inflight []linkFlit
}

type linkFlit struct {
	at sim.Tick
	f  *flit
}

// router is one mesh node: five ports (N/S/E/W/local), VCs per port,
// combined VC+switch allocation, one flit per output port per cycle.
type router struct {
	id, x, y int
	net      *Network

	in [numPorts][]vcBuf
	// out[p] describes the downstream of output port p: the link (nil for
	// unconnected edges and for the local ejection port), the mirrored
	// credit count per downstream VC, and the mirrored busy state used by
	// VC allocation.
	outLink   [numPorts]*link
	outCredit [numPorts][]int
	outBusy   [numPorts][]bool

	// upstream[p] identifies the router and output port feeding input
	// port p, so credits and VC releases can flow back. The local port
	// has no upstream; the network interface reads buffer state directly.
	upstream [numPorts]*upstreamRef

	// rr are round-robin arbitration pointers, one per output port: the
	// slot where the next grant search starts, in the flattened
	// inPort*VCs+vc order.
	rr [numPorts]slot

	// Occupancy masks over the (input port, VC) slots, one word per input
	// port with bit v standing for VC v (VCs ≤ 16):
	//   nonEmpty[p]    — the buffer holds at least one flit;
	//   routed[p]      — its packet has a route decision at this router;
	//   routedTo[o][p] — that decision is output port o.
	// They change only in acceptFlit, popFlit and the route step, and are
	// rebuilt from buffer state by Reset and Restore. The switch allocator
	// reads them to visit only the slots that can compete for an output.
	nonEmpty [numPorts]uint16
	routed   [numPorts]uint16
	routedTo [numPorts][numPorts]uint16

	// occupancy counts buffered flits across all input VCs, so allocate
	// can return at once for an empty router — the dominant case at
	// kernel loads.
	occupancy int
	// linkLoad counts flits in flight on this router's outgoing links so
	// drainLinks can skip quiet routers.
	linkLoad int
}

// slot names one (input port, VC) buffer of a router. The fields are
// bytes because every router keeps one per output port.
type slot struct{ port, vc uint8 }

// upstreamRef points back at the fabric element feeding an input port.
type upstreamRef struct {
	r    *router
	port int
}

func newRouter(id, x, y int, net *Network) *router {
	r := &router{id: id, x: x, y: y, net: net}
	vcs := net.cfg.VCs
	for p := 0; p < numPorts; p++ {
		r.in[p] = make([]vcBuf, vcs)
		r.outCredit[p] = make([]int, vcs)
		r.outBusy[p] = make([]bool, vcs)
		for v := 0; v < vcs; v++ {
			r.outCredit[p][v] = net.cfg.BufDepth
		}
	}
	return r
}

// vcRange returns the half-open VC range a message class may use. When
// fewer VCs than classes exist every class shares the full range (acceptable
// for synthetic traffic; the coherent system configures VCs ≥ classes).
func (r *router) vcRange(c noc.Class) (lo, hi int) {
	vcs := r.net.cfg.VCs
	if vcs < int(noc.NumClasses) {
		return 0, vcs
	}
	lo = int(c) * vcs / int(noc.NumClasses)
	hi = (int(c) + 1) * vcs / int(noc.NumClasses)
	return lo, hi
}

// acceptFlit appends a flit arriving on (port, vc) to the input buffer. The
// caller is responsible for having respected credits; overflow is a flow
// control protocol violation and panics.
func (r *router) acceptFlit(port, vc int, f *flit) {
	b := &r.in[port][vc]
	if len(b.q) >= r.net.cfg.BufDepth {
		panic("enoc: input buffer overflow — credit protocol violated")
	}
	f.readyAt = r.net.now + sim.Tick(r.net.cfg.RouterStages)
	f.inPort = port
	f.vcAtRouter = vc
	if f.isHead {
		if b.owner != nil {
			panic("enoc: head flit arrived on busy VC — allocation protocol violated")
		}
		// The previous owner's tail cleared the route and grant state
		// when it left (popFlit), so the new packet starts unrouted.
		b.owner = f.pkt
	}
	b.q = append(b.q, f)
	r.nonEmpty[port] |= 1 << vc
	r.occupancy++
	r.net.power.bufferWrites++
}

// drainLinks surfaces link flits whose delay expired: the ready prefix of
// each link's FIFO.
func (r *router) drainLinks() {
	if r.linkLoad == 0 {
		return
	}
	now := r.net.now
	for p := 0; p < numPorts; p++ {
		l := r.outLink[p]
		if l == nil {
			continue
		}
		ready := 0
		for ready < len(l.inflight) && l.inflight[ready].at <= now {
			f := l.inflight[ready].f
			l.dst.acceptFlit(l.dstPort, f.vcOnWire, f)
			ready++
		}
		if ready > 0 {
			r.linkLoad -= ready
			l.inflight = l.inflight[:copy(l.inflight, l.inflight[ready:])]
		}
	}
}

// allocate performs combined route computation, VC allocation and switch
// allocation for all output ports of this router in one cycle, moving at
// most one flit per output port.
func (r *router) allocate() {
	if r.occupancy == 0 {
		return
	}
	r.net.work.RouterCycles++
	// Find the slots whose head-of-queue flit has cleared the router
	// pipeline, and the input ports holding any. No flit arrives during
	// allocation, so only a grant changes a slot's head; grantFirst then
	// drops the slot for the rest of the cycle.
	var ready [numPorts]uint16
	var busy uint8
	for in := 0; in < numPorts; in++ {
		for m := r.nonEmpty[in]; m != 0; m &= m - 1 {
			vc := bits.TrailingZeros16(m)
			if r.in[in][vc].q[0].readyAt <= r.net.now {
				ready[in] |= 1 << vc
			}
		}
		if ready[in] != 0 {
			busy |= 1 << in
		}
	}
	for out := 0; out < numPorts; out++ {
		// U-turns never occur under minimal routing.
		if ins := busy &^ (1 << out); ins != 0 {
			r.allocateOutput(out, ins, &ready)
		}
	}
}

// allocateOutput grants output port out to at most one (input port, VC)
// slot among the input ports in ins. Slots are visited in round-robin order
// over the flattened inPort*VCs+vc space, starting at rr[out]: the start
// port's VCs from the start VC up, every following port's VCs, then the
// start port's lower VCs. Only candidates are visited: ready slots routed to
// out, or holding a head that has no route yet. Every other slot would fail
// the readiness or port check without side effects, so skipping it changes
// nothing. An unrouted head is routed when the walk first reaches it,
// exactly where a walk over all slots would route it: west-first reads the
// credits and VC state that earlier grants this cycle have already changed.
func (r *router) allocateOutput(out int, ins uint8, ready *[numPorts]uint16) {
	firstPort, firstVC := int(r.rr[out].port), r.rr[out].vc
	// Rotate the port set so bit j stands for input port firstPort+j.
	rot := (ins>>firstPort | ins<<(numPorts-firstPort)) & (1<<numPorts - 1)
	for ; rot != 0; rot &= rot - 1 {
		j := bits.TrailingZeros8(rot)
		in := firstPort + j
		if in >= numPorts {
			in -= numPorts
		}
		cand := r.candidates(out, in, ready[in])
		if j == 0 {
			cand &^= 1<<firstVC - 1
		}
		if r.grantFirst(out, in, cand, ready) {
			return
		}
	}
	if ins&(1<<firstPort) != 0 {
		r.grantFirst(out, firstPort, r.candidates(out, firstPort, ready[firstPort])&(1<<firstVC-1), ready)
	}
}

// candidates narrows the ready slots of input port in to those that may
// compete for out.
func (r *router) candidates(out, in int, ready uint16) uint16 {
	return ready & (r.routedTo[out][in] | ^r.routed[in])
}

// grantFirst tries the candidate VCs of input port in, lowest first, and
// grants out to the first whose flit moves, advancing the round-robin
// pointer past it. It reports whether a flit moved.
func (r *router) grantFirst(out, in int, cand uint16, ready *[numPorts]uint16) bool {
	for ; cand != 0; cand &= cand - 1 {
		vc := bits.TrailingZeros16(cand)
		r.net.work.SlotsVisited++
		if r.trySlot(out, in, vc) {
			r.net.work.FlitsMoved++
			r.rr[out] = r.nextSlot(in, vc)
			// The slot cannot win again this cycle: a buffer holds one
			// packet at a time (the next head needs the tail gone and
			// its VC released upstream), and this packet's output port
			// is spent.
			ready[in] &^= 1 << vc
			return true
		}
	}
	return false
}

// nextSlot returns the slot after (in, vc) in the flattened order, wrapping
// around at the end.
func (r *router) nextSlot(in, vc int) slot {
	if vc++; vc < r.net.cfg.VCs {
		return slot{uint8(in), uint8(vc)}
	}
	if in++; in < numPorts {
		return slot{uint8(in), 0}
	}
	return slot{}
}

// trySlot runs the allocation pipeline for the ready head-of-queue flit of
// (in, vc) against output port out: route computation for an unrouted head,
// VC allocation for an ungranted head, then the crossbar. It reports whether
// the flit moved.
func (r *router) trySlot(out, in, vc int) bool {
	b := &r.in[in][vc]
	f := b.q[0]
	bit := uint16(1) << vc
	if f.isHead && r.routed[in]&bit == 0 {
		b.outPort = r.route(f.pkt)
		r.routed[in] |= bit
		r.routedTo[b.outPort][in] |= bit
		r.net.power.routeComps++
	}
	if b.outPort != out {
		return false
	}
	if f.isHead && !b.granted && !r.grantVC(b, f.pkt) {
		return false // no free downstream VC this cycle
	}
	return r.forward(b, f) // false: no credit this cycle
}

// grantVC tries to allocate a downstream VC for the packet heading out of
// b.outPort. It reports success and records the grant in b.outVC. The local
// ejection port has no downstream buffers and therefore needs no VC.
func (r *router) grantVC(b *vcBuf, p *packet) bool {
	if b.outPort == portLocal {
		b.outVC = 0
		b.granted = true
		return true
	}
	lo, hi := r.vcRange(p.msg.Class)
	if r.net.torus {
		// Dateline discipline: exactly one VC before the wrap crossing,
		// the other after. This breaks the ring cycle each unidirectional
		// torus dimension would otherwise form.
		v := lo
		if p.crossedWrap {
			v = lo + 1
		}
		if v >= hi || r.outBusy[b.outPort][v] {
			return false
		}
		r.outBusy[b.outPort][v] = true
		b.outVC = v
		b.granted = true
		r.net.power.vcAllocs++
		return true
	}
	for v := lo; v < hi; v++ {
		if !r.outBusy[b.outPort][v] {
			r.outBusy[b.outPort][v] = true
			b.outVC = v
			b.granted = true
			r.net.power.vcAllocs++
			return true
		}
	}
	return false
}

// forward moves the head-of-queue flit of b through the crossbar to
// b.outPort, consuming one credit. It reports whether the flit moved.
func (r *router) forward(b *vcBuf, f *flit) bool {
	out := b.outPort
	if out == portLocal {
		// Ejection: the local port has unbounded sink bandwidth per VC
		// (standard simplification; endpoint contention is modelled in
		// the protocol layer above).
		r.popFlit(b, f)
		r.net.eject(r.id, f)
		return true
	}
	if r.outCredit[out][b.outVC] <= 0 {
		return false
	}
	r.outCredit[out][b.outVC]--
	f.vcOnWire = b.outVC
	l := r.outLink[out]
	if l.wrap && f.isHead {
		f.pkt.crossedWrap = true
	}
	l.inflight = append(l.inflight, linkFlit{at: r.net.now + l.delay, f: f})
	r.linkLoad++
	r.popFlit(b, f)
	r.net.power.xbarTraversals++
	r.net.power.linkTraversals++
	if f.isHead {
		f.pkt.hops++
	}
	return true
}

// popFlit removes the forwarded flit from its buffer, returning the credit
// upstream and releasing the VC on tail departure.
func (r *router) popFlit(b *vcBuf, f *flit) {
	b.q = b.q[1:]
	bit := uint16(1) << f.vcAtRouter
	if len(b.q) == 0 {
		r.nonEmpty[f.inPort] &^= bit
	}
	r.occupancy--
	r.net.power.bufferReads++
	// Return one credit and, on tail, the VC itself to the upstream
	// mirror of this input buffer.
	if up := r.upstream[f.inPort]; up != nil {
		up.r.outCredit[up.port][f.vcAtRouter]++
		if f.isTail {
			up.r.outBusy[up.port][f.vcAtRouter] = false
		}
	}
	if f.isTail {
		b.owner = nil
		b.granted = false
		r.routed[f.inPort] &^= bit
		r.routedTo[b.outPort][f.inPort] &^= bit
	}
}
