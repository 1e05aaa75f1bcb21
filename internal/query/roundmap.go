package query

// Round maps: the compiled lock schedules of the batched growing phase.
//
// The paper's thesis is that synchronization is COMPILED, not interpreted
// (§5): the generated code for an operation is a fixed sequence of lock
// acquisitions and container accesses. The batched executor in
// internal/core sweeps every member of a batch once per growing-phase
// round, so whether a step is a lock, a speculative access or a plain
// access — and which lock-order position it waits for — must not be
// re-derived at run time. That classification is a pure function of the
// PLAN, so this file fixes it at plan-compile time: every Plan and
// MutationPlan carries a *RoundProgram / *MutationProgram, a flat array of
// pre-classified rounds the executor walks with an integer cursor and two
// comparisons per sweep. The program pointer doubles as the plan's
// identity: members of one batch that share a compiled plan share the
// pointer, which is what the executor's memoized member grouping and the
// per-plan merge of speculative requests key on.
//
// A round is one of:
//
//   - RoundSteps: a maximal run of non-waiting access steps (lookups,
//     plain scans, the terminal count). The executor runs Steps[Lo:Hi]
//     back-to-back without yielding to the sweep.
//   - RoundLock: Steps[Lo] is a lock step. Gated on the node's position in
//     the global lock order (§5.1); executing it registers the member's
//     stripe locks in the batch's coalesced lock set and yields until the
//     wave's AcquireSet completes.
//   - RoundSpec: Steps[Lo] is a speculative access (§4.5) — a keyed
//     speculative lookup or an unkeyed speculative scan. Gated on the
//     TARGET node's lock position; executing it registers speculative
//     target requests and yields until the wave resolves them.
type RoundKind uint8

// The three round kinds; see the package comment above for semantics.
const (
	// RoundSteps runs Steps[Lo:Hi] back-to-back without yielding.
	RoundSteps RoundKind = iota
	// RoundLock acquires Steps[Lo]'s stripe locks, gated on lock order.
	RoundLock
	// RoundSpec resolves Steps[Lo]'s speculative target (§4.5).
	RoundSpec
)

// Round is one pre-classified schedule entry of a query plan.
type Round struct {
	Kind RoundKind
	// Gate is the decomposition-node index this round waits for: the
	// executor may run the round only once the sweep has reached Gate.
	// RoundSteps rounds never wait (Gate 0).
	Gate int
	// Lo:Hi is the covered range of Plan.Steps (Hi = Lo+1 for waiting
	// rounds).
	Lo, Hi int
}

// RoundProgram is the compiled schedule of one query plan. The pointer is
// stable across recompilation (count pushdown re-invokes compilePlan after
// appending steps), so it serves as the plan-identity key for the
// executor's memoized batch grouping.
type RoundProgram struct {
	Rounds []Round
}

// MutationRoundKind discriminates the schedule entries of a mutation's
// growing phase. One NodeDirective expands to one to five rounds.
type MutationRoundKind uint8

const (
	// MRoundSpecIn registers the §4.5 speculative target requests for the
	// directive's speculative in-edges and yields until the wave resolves
	// them.
	MRoundSpecIn MutationRoundKind = iota
	// MRoundLocate consumes resolved speculative targets and completes the
	// directive's instance location (for removes: row-directed locate).
	MRoundLocate
	// MRoundAccess locates the directive's instances through its plain
	// access edge (lookup or filtered scan); never waits.
	MRoundAccess
	// MRoundExist runs an insert's existence-check step at this node (the
	// put-if-absent probe); never waits. Emitted for every insert
	// directive; the executor skips it when the node has no existence
	// step.
	MRoundExist
	// MRoundLock acquires the directive's exclusive stripe locks; yields
	// for the wave's AcquireSet iff the directive carries selectors.
	MRoundLock
	// MRoundRootLock replaces MRoundLock at the root directive of a plan
	// over a demotable root (Planner.KeyNode): a batch that has not
	// escalated takes the root Shared on the 2PL row and records its
	// epoch on the optimistic row; an escalated batch takes it
	// exclusively.
	MRoundRootLock
	// MRoundEscalate follows a mutation's plain access at the key node
	// of a demotable root, for an insert always and for a remove when the
	// key node's columns are a key of the relation: a missing key-node
	// instance (insert), or a located one the remove will empty and no
	// insert of the batch refills, means the batch will write the root
	// container, so the batch escalates its root to Exclusive before any
	// key-node lock is taken. Never waits.
	MRoundEscalate
)

// MutationRound is one pre-classified schedule entry of a mutation plan.
type MutationRound struct {
	Kind MutationRoundKind
	// Gate is the directive node's lock-order index.
	Gate int
	// Dir indexes MutationPlan.PerNode.
	Dir int
}

// MutationProgram is the compiled schedule of one mutation plan; like
// RoundProgram, its pointer is the plan-identity key.
type MutationProgram struct {
	Rounds []MutationRound
}

// compileRounds (re)builds p.Prog from p.Steps. The Rounds slice is
// rebuilt from scratch — assembleCount appends steps and recompiles — but
// the RoundProgram pointer is reused so plan identity survives
// recompilation.
func (pl *Planner) compileRounds(p *Plan) {
	if p.Prog == nil {
		p.Prog = &RoundProgram{}
	}
	rounds := p.Prog.Rounds[:0]
	runLo := -1 // start of the current RoundSteps run, -1 when none
	flush := func(hi int) {
		if runLo >= 0 {
			rounds = append(rounds, Round{Kind: RoundSteps, Lo: runLo, Hi: hi})
			runLo = -1
		}
	}
	for i := range p.Steps {
		s := &p.Steps[i]
		switch {
		case s.Kind == StepLock:
			flush(i)
			rounds = append(rounds, Round{Kind: RoundLock, Gate: s.Node.Index, Lo: i, Hi: i + 1})
		case s.Kind == StepSpecLookup,
			s.Kind == StepScan && pl.P.RuleFor(s.Edge).Speculative:
			flush(i)
			rounds = append(rounds, Round{Kind: RoundSpec, Gate: s.Edge.Dst.Index, Lo: i, Hi: i + 1})
		default: // StepLookup, plain StepScan, StepCount
			if runLo < 0 {
				runLo = i
			}
		}
	}
	flush(len(p.Steps))
	p.Prog.Rounds = rounds
}

// compileMutationRounds builds m.Prog from m.PerNode. Directive order is
// topological node order, so round gates are non-decreasing: the member's
// walk never waits on a node the sweep has already passed. Over a
// demotable root the root directive's lock round is MRoundRootLock, and
// an insert checks for escalation right after locating the key node; so
// does a remove when the key node's columns are a key of the relation,
// where every remove that finds its victim empties its key-node instance.
func (pl *Planner) compileMutationRounds(m *MutationPlan) {
	if m.Prog == nil {
		m.Prog = &MutationProgram{}
	}
	key := pl.KeyNode()
	escalates := m.Kind == OpInsert || key != nil && pl.D.Spec.IsKey(key.A)
	rounds := m.Prog.Rounds[:0]
	for d := range m.PerNode {
		nd := &m.PerNode[d]
		g := nd.Node.Index
		if nd.Node != pl.D.Root {
			// Non-root directives locate their instances first; the root's
			// instance is pinned at enqueue, so it goes straight to its lock.
			if len(nd.SpecIns) > 0 {
				rounds = append(rounds,
					MutationRound{Kind: MRoundSpecIn, Gate: g, Dir: d},
					MutationRound{Kind: MRoundLocate, Gate: g, Dir: d})
			} else {
				rounds = append(rounds, MutationRound{Kind: MRoundAccess, Gate: g, Dir: d})
			}
			if nd.Node == key && escalates {
				rounds = append(rounds, MutationRound{Kind: MRoundEscalate, Gate: g, Dir: d})
			}
			if m.Kind == OpInsert {
				rounds = append(rounds, MutationRound{Kind: MRoundExist, Gate: g, Dir: d})
			}
		}
		kind := MRoundLock
		if key != nil && nd.Node == pl.D.Root {
			kind = MRoundRootLock
		}
		rounds = append(rounds, MutationRound{Kind: kind, Gate: g, Dir: d})
	}
	m.Prog.Rounds = rounds
}
