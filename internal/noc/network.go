package noc

import (
	"fmt"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/sim"
	"reactivenoc/internal/trace"
)

// Network assembles the full mesh: one router and one NI per tile, with
// paired flit and credit links on every adjacency. It implements
// sim.Ticker; ticking the network advances every router and NI one cycle.
type Network struct {
	cfg     NetConfig
	routers []*Router
	nis     []*NI
	ev      PowerEvents
	msgID   uint64
	pool    pools

	// Parallel-engine state (SetShards). Slot 0 of each per-shard array
	// aliases the legacy field above, so sequential execution and every
	// accessor that predates sharding see unchanged behaviour.
	nshards  int
	shardMap []int
	evShard  []*PowerEvents
	poolSh   []*pools
	// msgSeq holds per-shard message-id sequence counters; shard s hands
	// out ids seq*nshards+s+1, so the streams interleave without colliding
	// and a 1-shard network degenerates to the legacy 1,2,3,... sequence.
	msgSeq []uint64
	// boundary links cross a shard seam; they are staged and flushed at
	// the per-cycle barrier.
	boundaryFlits   []*Link
	boundaryCredits []*CreditLink
}

// NewNetwork builds the network. handler and hook may be nil (baseline).
func NewNetwork(cfg NetConfig, handler CircuitHandler, hook NIHook) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Speculative && handler != nil {
		panic("noc: speculative routers and reactive circuits are alternative designs; pick one")
	}
	n := &Network{cfg: cfg}
	n.pool.disabled = cfg.NoPool || envNoPool()
	m := cfg.Mesh
	n.routers = make([]*Router, m.Nodes())
	n.nis = make([]*NI, m.Nodes())
	for id := mesh.NodeID(0); int(id) < m.Nodes(); id++ {
		n.routers[id] = newRouter(id, &n.cfg, handler, &n.ev)
		n.nis[id] = newNI(id, &n.cfg, &n.ev, hook, &n.pool)
	}

	// Wire the local ports: NI -> router (injection) and router -> NI
	// (ejection), plus the credit wire for the router's local input.
	for id := range n.routers {
		r, ni := n.routers[id], n.nis[id]
		inj, injCr := &Link{}, &CreditLink{}
		ej := &Link{}
		ni.toRouter = inj
		ni.creditIn = injCr
		ni.fromRouter = ej
		r.addInput(mesh.Local, inj, injCr)
		r.addOutput(mesh.Local, ej, nil)
	}

	// Wire inter-router links: for every adjacency a->b create a flit
	// link (a's output, b's input) and its reverse credit wire.
	for id := mesh.NodeID(0); int(id) < m.Nodes(); id++ {
		for d := mesh.North; d <= mesh.West; d++ {
			nb, ok := m.Neighbor(id, d)
			if !ok {
				continue
			}
			flits, credits := &Link{}, &CreditLink{}
			// SDM divides only the mesh wires; the NI injection/ejection
			// links wired above stay full-width.
			flits.SetLanes(cfg.LinkLanes)
			n.routers[id].addOutput(d, flits, credits)
			n.routers[nb].addInput(d.Opposite(), flits, credits)
		}
	}
	return n
}

// Config returns the network configuration.
func (n *Network) Config() *NetConfig { return &n.cfg }

// SetTracer attaches a lifecycle tracer to every NI (nil detaches).
func (n *Network) SetTracer(t *trace.Buffer) {
	for _, ni := range n.nis {
		ni.tracer = t
	}
}

// Router returns the router at node id.
func (n *Network) Router(id mesh.NodeID) *Router { return n.routers[id] }

// NI returns the network interface at node id.
func (n *Network) NI(id mesh.NodeID) *NI { return n.nis[id] }

// Events returns the accumulated power-event counters (shard 0's slice of
// them under the parallel engine; see EventsTotal for the whole network).
func (n *Network) Events() *PowerEvents { return &n.ev }

// EventsAt returns the power-event counters the component at tile id must
// charge — its shard's slice. With one shard this is Events().
func (n *Network) EventsAt(id mesh.NodeID) *PowerEvents {
	if n.nshards <= 1 {
		return &n.ev
	}
	return n.evShard[n.shardMap[id]]
}

// EventsTotal folds every shard's power events into one total. With one
// shard it is simply a copy of Events().
func (n *Network) EventsTotal() PowerEvents {
	total := n.ev
	for s := 1; s < n.nshards; s++ {
		total.Add(n.evShard[s])
	}
	return total
}

// ResetEvents zeroes every shard's power-event counters.
func (n *Network) ResetEvents() {
	n.ev = PowerEvents{}
	for s := 1; s < n.nshards; s++ {
		*n.evShard[s] = PowerEvents{}
	}
}

// NextMsgID hands out unique message identifiers. Production senders use
// NextMsgIDAt so id allocation stays shard-local; this tile-less form
// (tests, examples) draws from shard 0's stream.
func (n *Network) NextMsgID() uint64 {
	if n.nshards > 1 {
		return n.nextMsgIDShard(0)
	}
	n.msgID++
	return n.msgID
}

// NextMsgIDAt hands out a unique message identifier from tile src's shard
// stream. The per-shard streams interleave (shard s issues s+1, s+1+N,
// s+1+2N, ...), so ids are globally unique without cross-shard contention,
// and a 1-shard network produces the legacy 1,2,3,... sequence.
func (n *Network) NextMsgIDAt(src mesh.NodeID) uint64 {
	if n.nshards <= 1 {
		return n.NextMsgID()
	}
	return n.nextMsgIDShard(n.shardMap[src])
}

func (n *Network) nextMsgIDShard(s int) uint64 {
	seq := n.msgSeq[s]
	n.msgSeq[s]++
	return seq*uint64(n.nshards) + uint64(s) + 1
}

// Shards returns the shard count the network is partitioned into.
func (n *Network) Shards() int {
	if n.nshards < 1 {
		return 1
	}
	return n.nshards
}

// ShardOf returns the shard owning tile id.
func (n *Network) ShardOf(id mesh.NodeID) int {
	if n.nshards <= 1 {
		return 0
	}
	return n.shardMap[id]
}

// SetShards partitions the network into shards tile bands for the parallel
// engine: per-shard power-event and pool slices replace the single shared
// instances (slot 0 aliasing the legacy fields), per-tile components are
// re-pointed at their shard's slices, and every link crossing a shard seam
// is switched to staged (barrier-flushed) delivery. Must run before the
// network is registered with a kernel and before any traffic. shardMap maps
// every tile to its shard (mesh.ShardMap); shards <= 1 is a no-op.
func (n *Network) SetShards(shards int, shardMap []int) {
	if shards <= 1 {
		return
	}
	if len(shardMap) != len(n.routers) {
		panic(fmt.Sprintf("noc: shard map covers %d of %d tiles", len(shardMap), len(n.routers)))
	}
	n.nshards = shards
	n.shardMap = shardMap
	n.msgSeq = make([]uint64, shards)
	n.evShard = make([]*PowerEvents, shards)
	n.poolSh = make([]*pools, shards)
	n.evShard[0] = &n.ev
	n.poolSh[0] = &n.pool
	for s := 1; s < shards; s++ {
		n.evShard[s] = &PowerEvents{}
		n.poolSh[s] = &pools{disabled: n.pool.disabled}
	}
	for id := range n.routers {
		s := shardMap[id]
		n.routers[id].ev = n.evShard[s]
		n.nis[id].ev = n.evShard[s]
		n.nis[id].pool = n.poolSh[s]
	}
	m := n.cfg.Mesh
	for id := mesh.NodeID(0); int(id) < m.Nodes(); id++ {
		for d := mesh.North; d <= mesh.West; d++ {
			nb, ok := m.Neighbor(id, d)
			if !ok || shardMap[id] == shardMap[nb] {
				continue
			}
			op := n.routers[id].out[d]
			op.link.SetStaged(true)
			op.credit.SetStaged(true)
			n.boundaryFlits = append(n.boundaryFlits, op.link)
			n.boundaryCredits = append(n.boundaryCredits, op.credit)
		}
	}
}

// FlushBoundary publishes every staged boundary-link send and wakes the
// receiving components. The kernel coordinator calls it from the per-cycle
// epilogue, after all shard workers passed the cycle barrier — this is the
// deterministic cross-shard wake hand-off.
func (n *Network) FlushBoundary(sim.Cycle) {
	for _, l := range n.boundaryFlits {
		l.Flush()
	}
	for _, l := range n.boundaryCredits {
		l.Flush()
	}
}

// Register adds every router and NI to k as individually activity-tracked
// components, in the exact order Tick visits them (routers by id, then NIs
// by id), and wires each link's wake callback to its receiving component.
// A network registered this way must not also be ticked monolithically.
func (n *Network) Register(k *sim.Kernel) {
	for id, r := range n.routers {
		k.SetShard(n.ShardOf(mesh.NodeID(id)))
		w := k.Add(r)
		for d := range r.in {
			if p := r.in[d]; p != nil && p.link != nil {
				p.link.SetWake(w.Wake) // flits arriving from upstream / the NI
			}
		}
		for d := range r.out {
			if op := r.out[d]; op != nil && op.credit != nil {
				op.credit.SetWake(w.Wake) // credits arriving from downstream
			}
		}
	}
	for id, ni := range n.nis {
		k.SetShard(n.ShardOf(mesh.NodeID(id)))
		w := k.Add(ni)
		ni.SetWaker(w)
		ni.fromRouter.SetWake(w.Wake)
		ni.creditIn.SetWake(w.Wake)
	}
	k.SetShard(0)
}

// DescribeMetrics registers the network's counters with reg, including the
// free-list effectiveness gauges.
func (n *Network) DescribeMetrics(reg *sim.Registry) {
	n.ev.Describe(reg)
	reg.Counter("noc/pool_flit_allocs", &n.pool.FlitAllocs)
	reg.Counter("noc/pool_flit_reuses", &n.pool.FlitReuses)
	reg.Counter("noc/pool_msg_allocs", &n.pool.MsgAllocs)
	reg.Counter("noc/pool_msg_reuses", &n.pool.MsgReuses)
	// Per-shard slices register under the same names; the registry sums
	// same-named counters, so snapshots report whole-network totals
	// independent of the shard count.
	for s := 1; s < n.nshards; s++ {
		n.evShard[s].Describe(reg)
		reg.Counter("noc/pool_flit_allocs", &n.poolSh[s].FlitAllocs)
		reg.Counter("noc/pool_flit_reuses", &n.poolSh[s].FlitReuses)
		reg.Counter("noc/pool_msg_allocs", &n.poolSh[s].MsgAllocs)
		reg.Counter("noc/pool_msg_reuses", &n.poolSh[s].MsgReuses)
	}
}

// Tick advances every router and NI one cycle.
func (n *Network) Tick(now sim.Cycle) {
	for _, r := range n.routers {
		r.Tick(now)
	}
	for _, ni := range n.nis {
		ni.Tick(now)
	}
}

// Quiescent reports whether no message is queued, buffered, or in flight
// anywhere in the network.
func (n *Network) Quiescent() bool {
	for _, ni := range n.nis {
		if ni.QueueLen() > 0 || ni.toRouter.Busy() || ni.fromRouter.Busy() {
			return false
		}
	}
	for _, r := range n.routers {
		if r.busy() {
			return false
		}
	}
	return true
}

// Send is a convenience for tests and examples: it assigns an id and
// enqueues m at its source NI.
func (n *Network) Send(m *Message, now sim.Cycle) {
	if !n.cfg.Mesh.Contains(m.Src) || !n.cfg.Mesh.Contains(m.Dst) {
		panic(fmt.Sprintf("noc: message endpoints %d->%d outside mesh", m.Src, m.Dst))
	}
	if m.ID == 0 {
		m.ID = n.NextMsgIDAt(m.Src)
	}
	n.nis[m.Src].Send(m, now)
}
