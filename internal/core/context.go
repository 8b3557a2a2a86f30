package core

import (
	"fmt"

	"repro/internal/sim"
)

// Communication contexts (OpenSHMEM 1.4 shmem_ctx_*): independent
// completion domains. Non-blocking operations issued on a context are
// drained by that context's Quiet alone, so a latency-sensitive stream
// (say, per-iteration halo flags) never waits behind a bulk stream's
// completions. On this runtime a context is purely a bookkeeping
// domain — the wire protocol is shared — which matches how contexts map
// to completion queues on commodity RDMA hardware.

// Ctx is one communication context. Create with PE.CtxCreate; destroy
// with Ctx.Destroy. The zero value is invalid.
type Ctx struct {
	pe          *PE
	id          int
	outstanding int
	quietCond   *sim.Cond
	destroyed   bool
}

// CtxCreate returns a fresh context (shmem_ctx_create).
func (pe *PE) CtxCreate() *Ctx {
	pe.checkLive()
	pe.nextCtxID++
	c := &Ctx{
		pe:        pe,
		id:        pe.nextCtxID,
		quietCond: sim.NewCond(fmt.Sprintf("ctx-quiet:%d:%d", pe.id, pe.nextCtxID)),
	}
	pe.contexts = append(pe.contexts, c)
	return c
}

func (c *Ctx) checkLive() {
	c.pe.checkLive()
	if c.destroyed {
		panic(fmt.Sprintf("core: pe %d used destroyed context %d", c.pe.id, c.id))
	}
}

// PE returns the owning processing element.
func (c *Ctx) PE() *PE { return c.pe }

// Outstanding reports the context's queued non-blocking operations.
func (c *Ctx) Outstanding() int { return c.outstanding }

// PutBytes is the context-scoped blocking put; blocking operations are
// complete on return regardless of context, so this simply delegates.
func (c *Ctx) PutBytes(p *sim.Proc, target int, dst SymAddr, src []byte) {
	c.checkLive()
	c.pe.PutBytes(p, target, dst, src)
}

// GetBytes is the context-scoped blocking get.
func (c *Ctx) GetBytes(p *sim.Proc, target int, src SymAddr, dst []byte) {
	c.checkLive()
	c.pe.GetBytes(p, target, src, dst)
}

// PutBytesNBI queues a non-blocking put tracked by this context only.
func (c *Ctx) PutBytesNBI(p *sim.Proc, target int, dst SymAddr, src []byte) {
	c.checkLive()
	c.pe.checkPeer(target)
	c.spawn(fmt.Sprintf("ctx%d-put-nbi:%d->%d", c.id, c.pe.id, target), func(np *sim.Proc) {
		c.pe.PutBytes(np, target, dst, src)
	})
}

// GetBytesNBI queues a non-blocking get tracked by this context only.
func (c *Ctx) GetBytesNBI(p *sim.Proc, target int, src SymAddr, dst []byte) {
	c.checkLive()
	c.pe.checkPeer(target)
	c.spawn(fmt.Sprintf("ctx%d-get-nbi:%d<-%d", c.id, c.pe.id, target), func(np *sim.Proc) {
		c.pe.GetBytes(np, target, src, dst)
	})
}

func (c *Ctx) spawn(name string, op func(np *sim.Proc)) {
	c.outstanding++
	c.pe.world.Cluster.Sim.Go(name, func(np *sim.Proc) {
		op(np)
		c.outstanding--
		if c.outstanding == 0 {
			c.quietCond.Broadcast()
		}
	})
}

// Quiet drains this context's non-blocking operations
// (shmem_ctx_quiet). Other contexts' operations are not waited for.
func (c *Ctx) Quiet(p *sim.Proc) {
	c.checkLive()
	for c.outstanding > 0 {
		c.quietCond.Wait(p)
	}
}

// Fence orders this context's deliveries; as with the default context,
// per-target FIFO paths make it equivalent to Quiet here.
func (c *Ctx) Fence(p *sim.Proc) { c.Quiet(p) }

// Destroy quiesces and retires the context (shmem_ctx_destroy).
func (c *Ctx) Destroy(p *sim.Proc) {
	c.Quiet(p)
	c.destroyed = true
	for i, other := range c.pe.contexts {
		if other == c {
			c.pe.contexts = append(c.pe.contexts[:i], c.pe.contexts[i+1:]...)
			break
		}
	}
}

// quietAllContexts drains every live context; Finalize calls it so a
// forgotten context cannot leak in-flight traffic past job teardown.
func (pe *PE) quietAllContexts(p *sim.Proc) {
	for _, c := range append([]*Ctx(nil), pe.contexts...) {
		c.Quiet(p)
	}
}
