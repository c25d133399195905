package enoc

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// These tests pin the switch allocator's observable behaviour. The expected
// values were recorded from the original slot-walk allocator (which visited
// every (input port, VC) slot per output port per cycle); the occupancy-mask
// allocator must reproduce them exactly, since route computation, VC
// allocation and the round-robin winner all feed the golden tables.

// respBit marks the response a request triggers at its destination.
const respBit = uint64(1) << 62

// loadRun drives a fabric with heavy closed-loop synthetic traffic: every
// node injects requests and writebacks at a high rate, and every delivered
// request injects a response from inside the delivery callback (so new work
// lands in the NI queues mid-allocation, as in the coherent system). The
// injection pattern is a pure function of the cycle number, so a run can be
// snapshotted and resumed without carrying traffic-generator state.
type loadRun struct {
	n         *Network
	seed      uint64
	rate      float64
	until     sim.Tick    // last injection cycle
	digest    hash.Hash64 // FNV-1a over (ID, Arrive) in delivery order
	delivered int
}

func newLoadRun(cfg config.Mesh, seed uint64, rate float64, until sim.Tick) *loadRun {
	lr := &loadRun{n: New(64, cfg), seed: seed, rate: rate, until: until, digest: fnv.New64a()}
	lr.n.SetDeliver(lr.deliver)
	return lr
}

func (lr *loadRun) deliver(m *noc.Message) {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], m.ID)
	binary.LittleEndian.PutUint64(buf[8:], uint64(m.Arrive))
	lr.digest.Write(buf[:])
	lr.delivered++
	if m.Class == noc.ClassRequest && m.Src != m.Dst {
		lr.n.Inject(&noc.Message{ID: m.ID | respBit, Src: m.Dst, Dst: m.Src, Bytes: 72, Class: noc.ClassResponse})
	}
}

// step injects this cycle's traffic (if still in the injection window) and
// ticks the fabric once.
func (lr *loadRun) step() {
	now := lr.n.Now()
	if now < lr.until {
		rng := sim.NewRNG(lr.seed ^ uint64(now)*0x9e3779b97f4a7c15)
		for src := 0; src < 64; src++ {
			if !rng.Bernoulli(lr.rate) {
				continue
			}
			dst := rng.Intn(64)
			class := noc.ClassRequest
			if rng.Bernoulli(0.3) {
				class = noc.ClassWriteback
			}
			lr.n.Inject(&noc.Message{ID: uint64(now)<<8 | uint64(src), Src: src, Dst: dst, Bytes: 8 + rng.Intn(120), Class: class})
		}
	}
	lr.n.Tick()
}

// runTo steps until the clock reaches t.
func (lr *loadRun) runTo(t sim.Tick) {
	for lr.n.Now() < t {
		lr.step()
	}
}

// finish steps until the fabric drains, failing the test on a wedge.
func (lr *loadRun) finish(t *testing.T) {
	t.Helper()
	for i := 0; lr.n.Now() < lr.until || lr.n.Busy(); i++ {
		if i > 500_000 {
			t.Fatal("fabric did not drain")
		}
		lr.step()
	}
}

// outcome is what a finished run exposes for comparison.
type outcome struct {
	power     powerCounters
	digest    uint64
	now       sim.Tick
	delivered int
}

func (lr *loadRun) outcome() outcome {
	return outcome{power: lr.n.power, digest: lr.digest.Sum64(), now: lr.n.Now(), delivered: lr.delivered}
}

// equivCase is one allocator configuration under heavy load and the outcome
// the slot-walk allocator produced for it.
type equivCase struct {
	name   string
	mutate func(*config.Mesh)
	want   outcome
}

func equivCases() []equivCase {
	return []equivCase{
		{name: "mesh/xy", mutate: func(c *config.Mesh) {},
			want: outcome{powerCounters{246467, 246467, 207636, 207636, 43254, 51309}, 0x3c533e5940a684fc, 2587, 8145}},
		{name: "mesh/westfirst", mutate: func(c *config.Mesh) { c.Routing = "westfirst" },
			want: outcome{powerCounters{246467, 246467, 207636, 207636, 43254, 51309}, 0x94a803d17afa0deb, 3803, 8145}},
		{name: "torus/6vc", mutate: func(c *config.Mesh) { c.Topology = "torus"; c.VCs = 6 },
			want: outcome{powerCounters{198229, 198229, 159398, 159398, 33164, 41219}, 0x31c1a5ec3923672, 1939, 8145}},
		{name: "mesh/1vc", mutate: func(c *config.Mesh) { c.VCs = 1 },
			want: outcome{powerCounters{246467, 246467, 207636, 207636, 43254, 51309}, 0x562a35d93fcc2e9d, 4493, 8145}},
		{name: "mesh/16vc", mutate: func(c *config.Mesh) { c.VCs = 16 },
			want: outcome{powerCounters{246467, 246467, 207636, 207636, 43254, 51309}, 0xaa878c48c25f1c66, 1623, 8145}},
		{name: "westfirst/16vc", mutate: func(c *config.Mesh) { c.Routing = "westfirst"; c.VCs = 16 },
			want: outcome{powerCounters{246467, 246467, 207636, 207636, 43254, 51309}, 0xdef33da752baf3eb, 1926, 8145}},
		{name: "mesh/link3", mutate: func(c *config.Mesh) { c.LinkCycles = 3; c.BufDepth = 6 },
			want: outcome{powerCounters{246467, 246467, 207636, 207636, 43254, 51309}, 0xf88c63c71a6985f, 2874, 8145}},
	}
}

func equivCfg(c equivCase) config.Mesh {
	cfg := config.Default().Mesh
	c.mutate(&cfg)
	return cfg
}

const (
	equivSeed  = 0x5eed
	equivRate  = 0.25
	equivUntil = 300
)

// TestAllocatorEquivalencePin checks the raw power counters and the
// per-message arrival digest of every allocator configuration against the
// values the original slot-walk allocator produced.
func TestAllocatorEquivalencePin(t *testing.T) {
	for _, c := range equivCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			lr := newLoadRun(equivCfg(c), equivSeed, equivRate, equivUntil)
			lr.finish(t)
			if got := lr.outcome(); got != c.want {
				t.Errorf("allocator diverged from the slot-walk reference:\n got %+v\nwant %+v", got, c.want)
			}
		})
	}
}

// TestAllocatorSnapshotRestoreContinuation snapshots a saturated fabric
// mid-run, finishes the run, restores the snapshot into the drained fabric
// and finishes again: both continuations must match. Restore rebuilds the
// occupancy masks from buffer state, so a stale or missing mask bit shows up
// here as a diverging continuation.
func TestAllocatorSnapshotRestoreContinuation(t *testing.T) {
	for _, c := range equivCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			lr := newLoadRun(equivCfg(c), equivSeed, equivRate, equivUntil)
			lr.runTo(equivUntil / 2)
			snap := lr.n.Snapshot()
			lr.digest.Reset()
			lr.delivered = 0
			lr.finish(t)
			first := lr.outcome()

			lr.n.Restore(snap)
			lr.digest.Reset()
			lr.delivered = 0
			lr.finish(t)
			if second := lr.outcome(); second != first {
				t.Fatalf("restored continuation diverged:\n first %+v\nsecond %+v", first, second)
			}
		})
	}
}

// TestAllocatorResetRerunMatchesFresh reruns the load on a Reset fabric and
// on a freshly built one; the outcomes must be identical.
func TestAllocatorResetRerunMatchesFresh(t *testing.T) {
	for _, c := range equivCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			fresh := newLoadRun(equivCfg(c), equivSeed, equivRate, equivUntil)
			fresh.finish(t)
			want := fresh.outcome()

			// Leave the reused fabric mid-run, full of live state, before
			// resetting it.
			reused := newLoadRun(equivCfg(c), equivSeed+1, equivRate, equivUntil)
			reused.runTo(equivUntil / 2)
			reused.n.Reset()
			reused.seed = equivSeed
			reused.digest.Reset()
			reused.delivered = 0
			reused.finish(t)
			if got := reused.outcome(); got != want {
				t.Fatalf("reset rerun diverged from a fresh fabric:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
