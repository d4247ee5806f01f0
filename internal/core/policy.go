package core

import (
	"fmt"
	"strings"

	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/sim"
)

// Policy is the first-class switching-policy seam: every circuit mechanism
// — the paper's variants and the post-paper policies from the related work
// — is one implementation of this interface, registered by name. The
// Manager owns the mechanism-independent state (router circuit tables, NI
// registries, reservation walks, statistics) and dispatches every
// variant-specific decision through its resolved Policy:
//
//   - Reserve runs at each router's VA stage, in parallel with the
//     request's VC allocation (the paper's key idea).
//   - Confirm finalizes the finished reservation walk into the NI registry
//     record the reply will consult.
//   - Inject steers a message about to leave its NI: ride the circuit,
//     wait for a timed slot, scrounge, or fall back to packet switching.
//   - Deliver intercepts message arrival before the generic paths (the
//     probe comparator consumes its setup flits here).
//   - Undo clears the reservation named by a teardown token at one router
//     and steers the undo walk onward.
//   - Teardown reclaims a built circuit's router entries when the
//     coherence protocol abandons it.
//
// The predicates scope the shared machinery: GapTolerant selects the
// bypass-miss behaviour, BypassBuffered whether circuit flits may wait in
// buffers, and ConflictChecked/RegistryChecked/LeakChecked which invariant
// oracles (internal/verify) apply to the policy's structures.
//
// Hook ordering follows the double-buffered simulation phases: Reserve and
// Undo fire during the router phase (compute on the current cycle's
// state), Inject and Deliver during the NI phase, and Confirm strictly
// after every Reserve of the same walk — a request's final router runs its
// VA stage before the NI delivers the tail flit.
type Policy interface {
	// Name is the registry key the policy was registered under.
	Name() string
	// Validate rejects option combinations the policy cannot honour.
	Validate(o *Options) error
	// NetConfig applies the policy's router microarchitecture (VC
	// inventory, routing, injection rules) to the baseline config.
	NetConfig(cfg *noc.NetConfig, o *Options)
	// Attach sizes per-manager policy state; called once from NewManager.
	Attach(mg *Manager)
	// DescribeMetrics registers policy-specific counters with the
	// sim.Registry scope the manager exports.
	DescribeMetrics(reg *sim.Registry)

	// Reserve installs this router's share of the reply circuit as the
	// request wins VC allocation. in/out are the request's ports.
	Reserve(mg *Manager, id mesh.NodeID, msg *noc.Message, in, out mesh.Dir, w *walk, now sim.Cycle)
	// Confirm finalizes the reservation walk into rec at the NI where the
	// reply will be injected.
	Confirm(mg *Manager, ni mesh.NodeID, msg *noc.Message, rec *record, w *walk)
	// Inject classifies and steers a message about to leave NI ni; it
	// returns the earliest cycle the message may be injected.
	Inject(mg *Manager, ni mesh.NodeID, msg *noc.Message, now sim.Cycle) sim.Cycle
	// Deliver runs before the generic delivery paths. handled=false hands
	// the message to the shared record/scrounger logic; handled=true makes
	// deliver the final verdict (false consumes the message).
	Deliver(mg *Manager, ni mesh.NodeID, msg *noc.Message, now sim.Cycle) (handled, deliver bool)
	// Undo clears the reservation named by tok at router id and reports
	// which port the undo walk continues out of (ok=false stops it).
	Undo(mg *Manager, id mesh.NodeID, tok *noc.UndoToken, in mesh.Dir, now sim.Cycle) (mesh.Dir, bool)
	// UndoEligible reports whether a protocol-level Undo of rec counts as
	// tearing down a live circuit.
	UndoEligible(rec *record) bool
	// Teardown reclaims a built circuit's router entries.
	Teardown(mg *Manager, rec *record, now sim.Cycle)
	// Observe feeds every reply's final outcome back to the policy
	// (profiling policies learn from it; most ignore it). ni is the tile
	// where the classification fired — under the parallel engine the
	// policy must shard any mutable state it touches by it.
	Observe(mg *Manager, ni mesh.NodeID, msg *noc.Message, o Outcome)

	// GapTolerant: a reply expecting a circuit that finds no entry re-enters
	// the normal pipeline instead of violating an invariant.
	GapTolerant() bool
	// BypassBuffered: circuit flits may wait in router buffers.
	BypassBuffered() bool
	// ConflictChecked: the output-port construction rule applies, so the
	// circuit-table oracle must find no two inputs sharing an output.
	ConflictChecked() bool
	// RegistryChecked: NI records promise built entries along the whole
	// reply path, so the registry oracle may cross-check them.
	RegistryChecked() bool
	// LeakChecked: unclaimed built entries are leaks the online oracle may
	// flag (scoped by options — timed entries self-expire).
	LeakChecked(o *Options) bool
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

var (
	policyFactories = map[string]func() Policy{}
	policyOrder     []string
)

// RegisterPolicy adds a switching policy under name. The factory returns a
// fresh instance per manager so stateful policies never share state across
// runs. Registration happens at init time; duplicates panic.
func RegisterPolicy(name string, factory func() Policy) {
	if name == "" || factory == nil {
		panic("core: RegisterPolicy needs a name and a factory")
	}
	if _, dup := policyFactories[name]; dup {
		panic("core: policy " + name + " registered twice")
	}
	policyFactories[name] = factory
	policyOrder = append(policyOrder, name)
}

// PolicyNames lists every registered policy in registration order.
func PolicyNames() []string {
	return append([]string(nil), policyOrder...)
}

func init() {
	RegisterPolicy("baseline", func() Policy { return baselinePolicy{} })
	RegisterPolicy("fragmented", func() Policy { return fragmentedPolicy{} })
	RegisterPolicy("complete", func() Policy { return completePolicy{} })
	RegisterPolicy("ideal", func() Policy { return idealPolicy{} })
	RegisterPolicy("probe-setup", func() Policy { return probePolicy{} })
	RegisterPolicy("profiled-hybrid", func() Policy { return &profiledPolicy{} })
	RegisterPolicy("dynamic-vc", func() Policy { return &dynVCPolicy{} })
	RegisterPolicy("sdm", func() Policy { return &sdmPolicy{} })
}

// PolicyFor resolves the policy an Options selects: the explicit Policy
// name when set, otherwise the mechanism's default implementation.
func PolicyFor(o Options) (Policy, error) {
	name := o.Policy
	if name == "" {
		switch o.Mechanism {
		case MechNone:
			name = "baseline"
		case MechFragmented:
			name = "fragmented"
		case MechComplete:
			name = "complete"
		case MechIdeal:
			name = "ideal"
		case MechProbe:
			name = "probe-setup"
		default:
			return nil, fmt.Errorf("core: unknown mechanism %d", o.Mechanism)
		}
	}
	f := policyFactories[name]
	if f == nil {
		return nil, fmt.Errorf("core: unknown policy %q (registered: %s)",
			name, strings.Join(PolicyNames(), ", "))
	}
	return f(), nil
}

// mustPolicyFor resolves a policy for options that already validated.
func mustPolicyFor(o Options) Policy {
	p, err := PolicyFor(o)
	if err != nil {
		panic(err)
	}
	return p
}

// ---------------------------------------------------------------------------
// Shared default behaviour
// ---------------------------------------------------------------------------

// basePolicy supplies the default hook implementations: the paper's
// reversed-entry undo walk, the credit-walk teardown, and conservative
// predicates. Concrete policies embed it and override what differs.
type basePolicy struct{}

func (basePolicy) Attach(*Manager)                    {}
func (basePolicy) DescribeMetrics(*sim.Registry)      {}
func (basePolicy) NetConfig(*noc.NetConfig, *Options) {}
func (basePolicy) Reserve(*Manager, mesh.NodeID, *noc.Message, mesh.Dir, mesh.Dir, *walk, sim.Cycle) {
}
func (basePolicy) Confirm(*Manager, mesh.NodeID, *noc.Message, *record, *walk) {}
func (basePolicy) Inject(mg *Manager, ni mesh.NodeID, msg *noc.Message, now sim.Cycle) sim.Cycle {
	return mg.injectFallback(ni, msg, now)
}
func (basePolicy) Deliver(*Manager, mesh.NodeID, *noc.Message, sim.Cycle) (bool, bool) {
	return false, true
}

// Undo clears the reversed entry the token names and continues out of the
// entry's output port — the default walk toward the circuit destination.
func (basePolicy) Undo(mg *Manager, id mesh.NodeID, tok *noc.UndoToken, in mesh.Dir, now sim.Cycle) (mesh.Dir, bool) {
	e := mg.tables[id].clear(in, tok.Dest, tok.Block, now)
	if e == nil {
		return 0, false
	}
	mg.net.EventsAt(id).CircuitWrites++
	return e.out, true
}

func (basePolicy) UndoEligible(rec *record) bool { return !rec.failed }

// Teardown clears the entry at the circuit's first router and sends an
// undo-credit walk down the reply path for the rest.
func (basePolicy) Teardown(mg *Manager, rec *record, now sim.Cycle) {
	if e := mg.tables[rec.src].clear(mesh.Local, rec.key.dest, rec.key.block, now); e != nil {
		mg.net.EventsAt(rec.src).CircuitWrites++
		if e.out != mesh.Local {
			tok := &noc.UndoToken{Dest: rec.key.dest, Block: rec.key.block}
			mg.net.Router(rec.src).SendUndoCredit(e.out, tok, now)
		}
	}
}

func (basePolicy) Observe(*Manager, mesh.NodeID, *noc.Message, Outcome) {}
func (basePolicy) GapTolerant() bool                                    { return false }
func (basePolicy) BypassBuffered() bool                                 { return false }
func (basePolicy) ConflictChecked() bool                                { return false }
func (basePolicy) RegistryChecked() bool                                { return false }
func (basePolicy) LeakChecked(*Options) bool                            { return false }

// validateNotSpeculative is shared by every circuit policy: speculative
// routers are an alternative design, not an addition.
func validateNotSpeculative(o *Options) error {
	if o.SpeculativeRouter {
		return fmt.Errorf("core: speculative routers and circuits are alternative designs")
	}
	return nil
}

// validateTimed checks the Section 4.7 parameter rules (and that the
// parameters are absent when the policy is untimed).
func validateTimed(o *Options) error {
	if o.Timed {
		if o.SlackPerHop < 0 || o.DelayPerHop < 0 || o.PostponePerHop < 0 {
			return fmt.Errorf("core: negative timed parameters")
		}
		if o.DelayPerHop > 0 && o.SlackPerHop == 0 {
			return fmt.Errorf("core: delayed reservations require slack (Section 4.7)")
		}
		if o.PostponePerHop > 0 && (o.SlackPerHop > 0 || o.DelayPerHop > 0) {
			return fmt.Errorf("core: postponed circuits use exact windows, not slack/delay")
		}
	} else if o.SlackPerHop > 0 || o.DelayPerHop > 0 || o.PostponePerHop > 0 {
		return fmt.Errorf("core: slack/delay/postpone require Timed")
	}
	return nil
}

// orDefault substitutes def for an unset (zero or negative) knob.
func orDefault(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}
