package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/decomp"
	"repro/internal/locks"
	"repro/internal/rel"
)

// The well-lockedness auditor turns the logical-lock protocol of §4.2 into
// executable assertions: when enabled, every container access the executor
// performs is checked against the lock placement — the transaction must
// hold the physical lock(s) that imply the logical lock of the touched
// edge instances. A violation panics with a diagnostic; the test suites
// run with auditing on, so a planner or executor bug that under-locks
// cannot pass silently even if no race happens to materialize.
//
// The rules mirror §4.3–4.5:
//
//   - non-speculative edge: the lock lives on the placement node's
//     instance; if the operation tuple binds the stripe selector, that
//     stripe must be held, otherwise every stripe must be held (the
//     "conservatively take all k locks" case);
//   - speculative edge, present entry: the target instance's lock;
//   - speculative edge, absent entry or whole-container access: the
//     fallback stripes;
//   - instances created by the running operation are private until its
//     locks are released, so accesses to them need no locks.

var auditEnabled atomic.Bool

// SetAudit globally enables or disables well-lockedness auditing. Intended
// for tests; auditing costs one placement resolution per container access.
func SetAudit(on bool) { auditEnabled.Store(on) }

// AuditEnabled reports whether auditing is on.
func AuditEnabled() bool { return auditEnabled.Load() }

// covered reports whether the running operation's synchronization covers
// lock l: the transaction holds it, or — in an optimistic read-only
// attempt — its epoch has been recorded into the read-set, which is the
// lock-free analog of a shared hold (the final validation proves the
// reads under it were stable). The commit pipeline's optimistic row
// (commit.go) mixes both currencies: write members' accesses are covered
// by held exclusive locks, read members' (and their apply-phase
// re-executions') by recorded epochs, and reads that traverse
// write-locked instances by either.
func (b *opBuf) covered(l *locks.Lock) bool {
	if b.occ {
		return b.txn.Holds(l) || b.reads.Contains(l)
	}
	if b.optimistic {
		return b.reads.Contains(l)
	}
	return b.txn.Holds(l)
}

// auditCover asserts coverage of l, with one deliberate relaxation: an
// OCC apply-phase re-execution may legitimately discover an instance
// that exists in NO coverage set — created by a concurrent transaction
// after the batch's read phase (the batch holds no lock excluding it).
// Such an attempt is doomed — the container the instance appeared in has
// a recorded epoch its creator bumped — so instead of panicking on a
// transient the protocol already handles, the audit records the
// discovered lock's epoch (the re-read's stability evidence) and lets
// validation fail the attempt. Every other mode keeps the hard panic.
func (b *opBuf) auditCover(l *locks.Lock) bool {
	if b.covered(l) {
		return true
	}
	if b.occ && b.apply {
		b.reads.Record(l)
		return true
	}
	return false
}

// auditAccess asserts lock coverage for an access to edge e. insts maps
// node index → located instance (a query state's instances or a
// mutation's xinst array); row is the access's bound row (the stripe
// source); target is the present speculative target, nil otherwise;
// fresh marks instances created by this operation.
// whole marks whole-container observations (emptiness and Len reads),
// which rely on every entry's logical lock: a single stripe then only
// suffices when the selector is constant per container (⊆ the source
// node's bound columns). Per-entry and filtered accesses accept a single
// stripe whenever the row binds the selector (the predicate-lock
// argument of §4.4: all entries the access relies on share that stripe).
// In an optimistic attempt (b.optimistic) "held" means "epoch recorded":
// every lock-free read must be covered by a read-set entry recorded where
// the pessimistic plan would have acquired the lock.
func (r *Relation) auditAccess(b *opBuf, e *decomp.Edge, insts []*Instance, row rel.Row, target *Instance, fresh map[*Instance]bool, whole bool) {
	if !auditEnabled.Load() {
		return
	}
	src := insts[e.Src.Index]
	if src == nil || fresh[src] {
		return // private or unlocated: nothing observable
	}
	rule := r.placement.RuleFor(e)
	if rule.Speculative {
		if target != nil {
			if fresh[target] {
				return
			}
			if !b.auditCover(target.lock(0)) {
				panic(fmt.Sprintf("core: audit: speculative access to %s without target lock %v", e.Name, target.lock(0).ID()))
			}
			return
		}
		r.auditStripes(b, e, insts[rule.FallbackAt.Index], rule.FallbackAt, rule.FallbackStripeBy, row, whole)
		return
	}
	at := insts[rule.At.Index]
	if at == nil {
		panic(fmt.Sprintf("core: audit: access to %s before locating placement node %s", e.Name, rule.At.Name))
	}
	if fresh[at] {
		return
	}
	r.auditStripes(b, e, at, rule.At, rule.StripeBy, row, whole)
}

// auditStripes asserts the stripe-coverage rule on one placement instance.
// Stripe selection mirrors Placement.StripeIndex, computed over the row
// through the schema (the auditor is test-only, so the per-access name
// resolution here is acceptable).
func (r *Relation) auditStripes(b *opBuf, e *decomp.Edge, inst *Instance, at *decomp.Node, stripeBy []string, row rel.Row, whole bool) {
	if inst == nil {
		panic(fmt.Sprintf("core: audit: access to %s before locating fallback/placement node %s", e.Name, at.Name))
	}
	k := r.placement.StripeCount(at)
	selMask := r.schema.Mask(stripeBy)
	single := false
	if whole {
		single = rel.ColsSubset(stripeBy, e.Src.A)
	} else {
		single = row.BindsAll(selMask)
	}
	if single {
		idx, ok := 0, true
		switch {
		case k == 1 || len(stripeBy) == 0:
			// stripe 0
		case row.BindsAll(selMask):
			idx = int(row.HashAt(r.schema.Indices(stripeBy)) % uint64(k))
		default:
			ok = false
		}
		if ok {
			if !b.auditCover(inst.lock(idx)) {
				panic(fmt.Sprintf("core: audit: access to %s without stripe %d of %s (selector %v)",
					e.Name, idx, at.Name, stripeBy))
			}
			return
		}
	}
	for i := 0; i < k; i++ {
		if !b.auditCover(inst.lock(i)) {
			panic(fmt.Sprintf("core: audit: unselective access to %s missing stripe %d of %s (whole=%v)", e.Name, i, at.Name, whole))
		}
	}
}

// auditWrite asserts the writer half of the optimistic read protocol for
// a write to edge e made with the operation's instances insts over the
// fully bound row: the stripe of the edge's placement instance that
// covers the written entry (the speculative fallback stripe for a
// membership change) is held exclusively and its epoch is odd, so every
// lock-free reader that recorded it fails validation. The instance that
// carries the covering lock may belong to a node other than the written
// container's (a rule placed at a dominator), which is what makes the
// check catch a write left unbumped on a node whose instances carry no
// stripe array. Placement instances private to the writer are exempt.
func (r *Relation) auditWrite(b *opBuf, e *decomp.Edge, insts []*Instance, row rel.Row, fresh map[*Instance]bool) {
	if !auditEnabled.Load() {
		return
	}
	at := insts[r.edgeLockAt[e.Index]]
	if fresh[at] {
		return
	}
	rule := r.placement.RuleFor(e)
	stripeBy := rule.StripeBy
	if rule.Speculative {
		stripeBy = rule.FallbackStripeBy
	}
	idx := 0
	if k := r.placement.StripeCount(at.node); k > 1 && len(stripeBy) > 0 {
		idx = int(row.HashAt(r.schema.Indices(stripeBy)) % uint64(k))
	}
	if l := at.lock(idx); !b.txn.HoldsExclusive(l) || !l.EpochOdd() {
		panic(fmt.Sprintf("core: audit: write to %s under %v without an exclusive hold and an odd epoch", e.Name, l.ID()))
	}
}
