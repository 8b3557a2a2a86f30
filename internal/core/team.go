package core

import (
	"fmt"

	"repro/internal/sim"
)

// Teams (OpenSHMEM 1.5 shmem_team_*): first-class handles over PE
// subsets, superseding the positional active-set triples. A team owns
// its synchronisation area, translates between team-relative and world
// PE numbers, and scopes the collectives. On this runtime a team wraps
// an ActiveSet plus an internally managed pSync/pWrk, so user code gets
// the modern API without the classic interface's work-array plumbing.

// Team is a handle on a strided PE subset. Create with TeamWorld or
// TeamSplitStrided; destroy with Destroy. A team handle is only valid on
// member PEs.
type Team struct {
	pe    *PE
	set   ActiveSet
	pSync SymAddr
	pWrk  SymAddr
	pWrkN int // capacity in bytes
	dead  bool
}

// teamWrkBytes is the per-member scratch a team pre-allocates for its
// reductions; Reduce calls needing more fall back to gather chunking.
const teamWrkBytes = 8 << 10

// TeamWorld returns the team of all PEs (SHMEM_TEAM_WORLD). Every PE
// must call it at the same point; the team allocates its work areas from
// the symmetric heap.
func (pe *PE) TeamWorld(p *sim.Proc) *Team {
	return pe.newTeam(p, ActiveSet{Start: 0, LogStride: 0, Size: pe.NumPEs()})
}

// TeamSplitStrided is shmem_team_split_strided over the world team:
// members are start, start+stride, ... (size of them); stride must be a
// power of two (the runtime's sets are log-strided). Every PE of the
// PARENT (world) must call it with identical arguments — non-members
// receive nil, as the spec's SHMEM_TEAM_INVALID.
func (pe *PE) TeamSplitStrided(p *sim.Proc, start, stride, size int) *Team {
	logStride := 0
	switch {
	case stride <= 0:
		panic(fmt.Sprintf("core: team stride %d must be positive", stride))
	case stride&(stride-1) != 0:
		panic(fmt.Sprintf("core: team stride %d must be a power of two", stride))
	default:
		for s := stride; s > 1; s >>= 1 {
			logStride++
		}
	}
	set := ActiveSet{Start: start, LogStride: logStride, Size: size}
	set.validate(pe.NumPEs())
	// Allocation must happen on every parent PE to stay symmetric, even
	// on PEs that end up outside the team.
	team := pe.newTeam(p, set)
	if set.Rank(pe.id) < 0 {
		team.dead = true
		return nil
	}
	return team
}

func (pe *PE) newTeam(p *sim.Proc, set ActiveSet) *Team {
	t := &Team{
		pe:    pe,
		set:   set,
		pSync: pe.MustMalloc(p, BarrierSyncWords*8),
		pWrkN: set.Size * teamWrkBytes,
	}
	t.pWrk = pe.MustMalloc(p, t.pWrkN)
	pe.heap.Zero(int64(t.pSync), BarrierSyncWords*8)
	// Team creation is collective over the world; the barrier keeps a
	// fast member from signalling into a work area a slower PE has not
	// allocated yet.
	pe.BarrierAll(p)
	return t
}

func (t *Team) checkLive() {
	if t == nil || t.dead {
		panic("core: operation on an invalid team handle")
	}
	t.pe.checkLive()
}

// MyPE returns the calling PE's team-relative rank
// (shmem_team_my_pe).
func (t *Team) MyPE() int {
	t.checkLive()
	return t.set.Rank(t.pe.id)
}

// NumPEs returns the team size (shmem_team_n_pes).
func (t *Team) NumPEs() int {
	t.checkLive()
	return t.set.Size
}

// TranslateTo returns the world PE Id of team rank r
// (shmem_team_translate_pe toward the world team).
func (t *Team) TranslateTo(r int) int {
	t.checkLive()
	if r < 0 || r >= t.set.Size {
		panic(fmt.Sprintf("core: team rank %d out of range [0,%d)", r, t.set.Size))
	}
	return t.set.Member(r)
}

// TranslateFrom returns the team rank of world PE id, or -1 if the PE is
// not a member.
func (t *Team) TranslateFrom(id int) int {
	t.checkLive()
	return t.set.Rank(id)
}

// Set returns the underlying active set (for interop with the classic
// collectives).
func (t *Team) Set() ActiveSet {
	t.checkLive()
	return t.set
}

// Barrier synchronises the team (shmem_team_sync).
func (t *Team) Barrier(p *sim.Proc) {
	t.checkLive()
	t.pe.BarrierSet(p, t.set, t.pSync)
}

// Broadcast sends nelems elements at src on the team rank root to every
// member's dst (shmem_broadcast over a team; root is team-relative).
func TeamBroadcast[T Scalar](p *sim.Proc, t *Team, root int, dst, src SymAddr, nelems int) {
	t.checkLive()
	BroadcastSet[T](p, t.pe, t.set, t.TranslateTo(root), dst, src, nelems, t.pSync)
}

// TeamReduce element-wise combines every member's vector at src into
// every member's dst (shmem_TYPE_OP_reduce over a team). The team's
// internal work area bounds nelems to teamWrkBytes/sizeof(T) per member.
func TeamReduce[T Scalar](p *sim.Proc, t *Team, op ReduceOp, dst, src SymAddr, nelems int) {
	t.checkLive()
	if nelems*sizeOf[T]() > teamWrkBytes {
		panic(fmt.Sprintf("core: team reduce of %d elements exceeds the %d-byte team work area",
			nelems, teamWrkBytes))
	}
	ReduceSet[T](p, t.pe, t.set, op, dst, src, nelems, t.pWrk, t.pSync)
}

// Destroy retires the team (shmem_team_destroy). Every member must call
// it at the same point; the handle is dead afterwards. The symmetric
// work areas are not returned to the heap — non-members of a split hold
// matching allocations but no handle, so freeing here would desymmetrise
// subsequent allocations; the space is reclaimed at Finalize like the
// rest of the heap.
func (t *Team) Destroy(p *sim.Proc) {
	t.checkLive()
	t.Barrier(p)
	t.dead = true
}
