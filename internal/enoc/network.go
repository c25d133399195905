package enoc

import (
	"fmt"

	"onocsim/internal/config"
	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// Network is the electrical mesh fabric (optionally a torus). It implements
// noc.Network.
type Network struct {
	cfg   config.Mesh
	width int
	nodes int
	torus bool

	now     sim.Tick
	deliver noc.DeliverFunc
	stats   *noc.Stats
	power   powerCounters
	work    WorkCounters

	routers []*router
	nis     []*netIface
	// links counts the unidirectional router-to-router links wired by New,
	// wraparound links included; the leakage model charges each one.
	links int

	// selfQ holds Src==Dst messages pending their next-cycle delivery.
	selfQ []selfMsg
	// inflight counts injected-but-undelivered packets (including
	// self-messages) for Busy.
	inflight int

	// pktFree/flitFree recycle the per-message wormhole state: a packet
	// and its flits die at ejection and are reborn at the next Inject,
	// so a steady-state run allocates almost nothing per message.
	pktFree  []*packet
	flitFree []*flit
}

// newPacket returns a recycled or fresh packet wrapping m.
func (n *Network) newPacket(m *noc.Message) *packet {
	if l := len(n.pktFree); l > 0 {
		p := n.pktFree[l-1]
		n.pktFree[l-1] = nil
		n.pktFree = n.pktFree[:l-1]
		*p = packet{msg: m, nflits: flitsFor(m.Bytes, n.cfg.FlitBytes)}
		return p
	}
	return &packet{msg: m, nflits: flitsFor(m.Bytes, n.cfg.FlitBytes)}
}

// newFlit returns a recycled or fresh flit.
func (n *Network) newFlit() *flit {
	if l := len(n.flitFree); l > 0 {
		f := n.flitFree[l-1]
		n.flitFree[l-1] = nil
		n.flitFree = n.flitFree[:l-1]
		*f = flit{}
		return f
	}
	return &flit{}
}

// WorkCounters tallies the simulator's own work in the mesh, as opposed to
// the modelled events the power counters charge for. They are deterministic
// for a given traffic history, so benchmarks gate on them instead of on
// noisy wall time. They accumulate over the fabric's lifetime: Reset and
// Restore leave them alone, since the work those rewind was still done.
type WorkCounters struct {
	// RouterCycles counts router-cycles allocated: cycles in which a
	// router held buffered flits and ran its switch allocator.
	RouterCycles uint64
	// SlotsVisited counts the (input port, VC) slots the switch allocator
	// examined across all output ports.
	SlotsVisited uint64
	// FlitsMoved counts flits granted the crossbar, forwarded or ejected.
	FlitsMoved uint64
}

// Work returns the fabric's cumulative work counters.
func (n *Network) Work() WorkCounters { return n.work }

type selfMsg struct {
	at  sim.Tick
	msg *noc.Message
}

// New builds a width×width mesh where width² equals nodes. It panics on a
// non-square node count, matching the config validation contract.
func New(nodes int, cfg config.Mesh) *Network {
	width := 1
	for width*width < nodes {
		width++
	}
	if width*width != nodes {
		panic(fmt.Sprintf("enoc: %d nodes is not a perfect square", nodes))
	}
	if cfg.VCs < 1 || cfg.VCs > 16 {
		// The allocator's occupancy masks hold one bit per VC in a uint16.
		panic(fmt.Sprintf("enoc: %d VCs out of [1,16]", cfg.VCs))
	}
	n := &Network{cfg: cfg, width: width, nodes: nodes, torus: cfg.Topology == "torus", stats: noc.NewStats()}
	n.routers = make([]*router, nodes)
	for id := 0; id < nodes; id++ {
		n.routers[id] = newRouter(id, id%width, id/width, n)
	}
	// Wire neighbor links and the upstream credit paths.
	connect := func(from *router, outPort int, to *router, inPort int, wrap bool) {
		from.outLink[outPort] = &link{delay: sim.Tick(cfg.LinkCycles), dst: to, dstPort: inPort, wrap: wrap}
		to.upstream[inPort] = &upstreamRef{r: from, port: outPort}
		n.links++
	}
	for id := 0; id < nodes; id++ {
		r := n.routers[id]
		if r.y > 0 {
			connect(r, portNorth, n.routers[id-width], portSouth, false)
		} else if n.torus && width > 1 {
			connect(r, portNorth, n.routers[r.x+(width-1)*width], portSouth, true)
		}
		if r.y < width-1 {
			connect(r, portSouth, n.routers[id+width], portNorth, false)
		} else if n.torus && width > 1 {
			connect(r, portSouth, n.routers[r.x], portNorth, true)
		}
		if r.x < width-1 {
			connect(r, portEast, n.routers[id+1], portWest, false)
		} else if n.torus && width > 1 {
			connect(r, portEast, n.routers[r.y*width], portWest, true)
		}
		if r.x > 0 {
			connect(r, portWest, n.routers[id-1], portEast, false)
		} else if n.torus && width > 1 {
			connect(r, portWest, n.routers[r.y*width+width-1], portEast, true)
		}
	}
	n.nis = make([]*netIface, nodes)
	for id := 0; id < nodes; id++ {
		n.nis[id] = &netIface{node: id, net: n}
	}
	return n
}

// Nodes implements noc.Network.
func (n *Network) Nodes() int { return n.nodes }

// Width returns the mesh edge length.
func (n *Network) Width() int { return n.width }

// Now implements noc.Network.
func (n *Network) Now() sim.Tick { return n.now }

// Stats implements noc.Network.
func (n *Network) Stats() *noc.Stats { return n.stats }

// SetDeliver implements noc.Network.
func (n *Network) SetDeliver(fn noc.DeliverFunc) { n.deliver = fn }

// Inject implements noc.Network.
func (n *Network) Inject(m *noc.Message) {
	if m.Src < 0 || m.Src >= n.nodes || m.Dst < 0 || m.Dst >= n.nodes {
		panic(fmt.Sprintf("enoc: message %d endpoints (%d->%d) out of range [0,%d)", m.ID, m.Src, m.Dst, n.nodes))
	}
	m.Inject = n.now
	n.stats.Injected++
	n.inflight++
	if m.Src == m.Dst {
		n.selfQ = append(n.selfQ, selfMsg{at: n.now + 1, msg: m})
		return
	}
	n.nis[m.Src].enqueue(n.newPacket(m))
}

// Tick implements noc.Network: link drain, then allocation, then injection,
// all in deterministic node order.
func (n *Network) Tick() {
	n.now++
	// Self-messages bypass the fabric with a one-cycle loopback latency.
	if len(n.selfQ) > 0 {
		keep := n.selfQ[:0]
		for _, s := range n.selfQ {
			if s.at <= n.now {
				s.msg.Arrive = n.now
				n.stats.RecordDelivery(s.msg)
				n.stats.HopCount.Add(0)
				n.inflight--
				if n.deliver != nil {
					n.deliver(s.msg)
				}
			} else {
				keep = append(keep, s)
			}
		}
		n.selfQ = keep
	}
	for _, r := range n.routers {
		r.drainLinks()
	}
	for _, r := range n.routers {
		r.allocate()
	}
	for _, ni := range n.nis {
		ni.tryInject()
	}
}

// eject is called by a router's local port as flits complete. Ejected flits
// (and, on tail, the packet) return to the fabric free lists.
func (n *Network) eject(node int, f *flit) {
	if !f.isTail {
		n.flitFree = append(n.flitFree, f)
		return
	}
	p := f.pkt
	n.flitFree = append(n.flitFree, f)
	m := p.msg
	if node != m.Dst {
		panic(fmt.Sprintf("enoc: message %d ejected at %d, expected %d", m.ID, node, m.Dst))
	}
	m.Arrive = n.now
	n.stats.RecordDelivery(m)
	n.stats.HopCount.Add(float64(p.hops))
	n.stats.QueueDelay.Add(float64(p.enterNI - m.Inject))
	n.pktFree = append(n.pktFree, p)
	n.inflight--
	if n.deliver != nil {
		n.deliver(m)
	}
}

// Busy implements noc.Network.
func (n *Network) Busy() bool { return n.inflight > 0 }

// Lookahead implements noc.Network: the fastest cross-node interaction is a
// single-hop packet — one router pipeline traversal plus one link flight.
// The mesh is not ScheduleShardable (wormhole flits from different sources
// contend for shared links every cycle), so this bound serves only the
// generic conservative-window machinery.
func (n *Network) Lookahead() sim.Tick {
	la := sim.Tick(n.cfg.RouterStages + n.cfg.LinkCycles)
	if la < 1 {
		la = 1
	}
	return la
}

// NextWake implements noc.Network. With flits in routers or NIs the mesh
// does observable work every cycle, so the only skippable states are a
// fully drained fabric and one where the sole survivors are self-messages
// awaiting their fixed loopback delivery.
func (n *Network) NextWake() sim.Tick {
	if n.inflight == 0 {
		return noc.Never
	}
	if n.inflight == len(n.selfQ) {
		wake := noc.Never
		for _, s := range n.selfQ {
			if s.at < wake {
				wake = s.at
			}
		}
		return wake
	}
	return n.now + 1
}

// SkipTo implements noc.Network. In the skippable states (see NextWake) no
// router, link or NI holds live work, and all remaining state — self-queue
// delivery times, flit readyAt stamps — is kept in absolute cycles, so the
// skip is a pure clock jump.
func (n *Network) SkipTo(t sim.Tick) {
	if t > n.now {
		n.now = t
	}
}

// Reset implements noc.Resettable: clocks, statistics, power counters,
// queues, buffers, occupancy masks, credits and arbitration pointers all
// return to their constructor values; the work counters keep counting. The
// packet/flit free lists survive — they hold only dead state and are the
// point of reusing the fabric.
func (n *Network) Reset() {
	n.now = 0
	n.stats = noc.NewStats()
	n.power = powerCounters{}
	n.selfQ = n.selfQ[:0]
	n.inflight = 0
	depth := n.cfg.BufDepth
	for _, r := range n.routers {
		for p := 0; p < numPorts; p++ {
			for v := range r.in[p] {
				b := &r.in[p][v]
				b.q = b.q[:0]
				b.owner = nil
				b.granted = false
			}
			for v := range r.outCredit[p] {
				r.outCredit[p][v] = depth
				r.outBusy[p][v] = false
			}
			if l := r.outLink[p]; l != nil {
				l.inflight = l.inflight[:0]
			}
			r.rr[p] = slot{}
		}
		r.nonEmpty = [numPorts]uint16{}
		r.routed = [numPorts]uint16{}
		r.routedTo = [numPorts][numPorts]uint16{}
		r.occupancy = 0
		r.linkLoad = 0
	}
	for _, ni := range n.nis {
		for c := range ni.classQ {
			ni.classQ[c] = ni.classQ[c][:0]
			ni.sending[c] = sendState{}
		}
		ni.rr = 0
	}
}

// ZeroLoadLatency implements noc.Network: per-hop pipeline plus wire delay
// plus serialization, with one cycle of injection overhead.
func (n *Network) ZeroLoadLatency(src, dst, bytes int) sim.Tick {
	if src == dst {
		return 1
	}
	sx, sy := src%n.width, src/n.width
	dx, dy := dst%n.width, dst/n.width
	hx, hy := abs(dx-sx), abs(dy-sy)
	if n.torus {
		if w := n.width - hx; w < hx {
			hx = w
		}
		if w := n.width - hy; w < hy {
			hy = w
		}
	}
	hops := hx + hy
	nflits := flitsFor(bytes, n.cfg.FlitBytes)
	return sim.Tick(hops+1)*sim.Tick(n.cfg.RouterStages) + sim.Tick(hops)*sim.Tick(n.cfg.LinkCycles) + sim.Tick(nflits)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// netIface is the per-node network interface: per-class injection queues,
// one flit injected per cycle, VC allocation against the local input port.
type netIface struct {
	node    int
	net     *Network
	classQ  [noc.NumClasses][]*packet
	sending [noc.NumClasses]sendState
	rr      int
}

// sendState tracks an in-progress packet injection; pkt == nil means idle.
// Stored by value inside the interface so starting a packet allocates
// nothing.
type sendState struct {
	pkt  *packet
	vc   int
	next int
}

func (ni *netIface) enqueue(p *packet) {
	c := p.msg.Class
	if c >= noc.NumClasses {
		panic(fmt.Sprintf("enoc: message %d has invalid class %d", p.msg.ID, c))
	}
	ni.classQ[c] = append(ni.classQ[c], p)
}

// tryInject pushes at most one flit into the local router this cycle,
// round-robining across classes for fairness.
func (ni *netIface) tryInject() {
	if ni.idle() {
		return
	}
	r := ni.net.routers[ni.node]
	for k := 0; k < int(noc.NumClasses); k++ {
		c := noc.Class((ni.rr + k) % int(noc.NumClasses))
		if ni.injectClass(r, c) {
			ni.rr = (ni.rr + k + 1) % int(noc.NumClasses)
			return
		}
	}
}

// idle reports whether the interface has nothing queued or mid-send.
func (ni *netIface) idle() bool {
	for c := range ni.classQ {
		if len(ni.classQ[c]) > 0 || ni.sending[c].pkt != nil {
			return false
		}
	}
	return true
}

// injectClass attempts one flit for class c; reports whether a flit moved.
func (ni *netIface) injectClass(r *router, c noc.Class) bool {
	st := &ni.sending[c]
	if st.pkt == nil {
		if len(ni.classQ[c]) == 0 {
			return false
		}
		// Find a free local-input VC in this class's partition.
		lo, hi := r.vcRange(c)
		vc := -1
		for v := lo; v < hi; v++ {
			if r.in[portLocal][v].owner == nil && len(r.in[portLocal][v].q) < ni.net.cfg.BufDepth {
				vc = v
				break
			}
		}
		if vc < 0 {
			return false
		}
		p := ni.classQ[c][0]
		ni.classQ[c][0] = nil
		ni.classQ[c] = ni.classQ[c][1:]
		p.enterNI = ni.net.now
		*st = sendState{pkt: p, vc: vc}
	}
	b := &r.in[portLocal][st.vc]
	if len(b.q) >= ni.net.cfg.BufDepth {
		return false
	}
	f := ni.net.newFlit()
	f.pkt = st.pkt
	f.idx = st.next
	f.isHead = st.next == 0
	f.isTail = st.next == st.pkt.nflits-1
	r.acceptFlit(portLocal, st.vc, f)
	st.next++
	if st.next == st.pkt.nflits {
		st.pkt = nil
	}
	return true
}
