package pcie

import "fmt"

// NetSnapshot marks a flow network captured at quiescence. The network
// holds no absolute-time state between transfers — per-flow progress
// clocks live on the Transfer records, and at quiescence there are none
// — so the snapshot carries nothing; it exists so Cluster snapshots
// assert the network really was idle at capture, and so Restore can
// quarantine stale completion events.
type NetSnapshot struct{}

// Snapshot asserts the network is quiescent and returns its (empty)
// captured state.
func (n *Network) Snapshot() NetSnapshot {
	n.assertIdle("Snapshot")
	return NetSnapshot{}
}

// Restore prepares a quiescent network to serve another future, from
// time zero or from a captured point alike. Interned servers, routes,
// and the transfer pool all survive — rebuilding them is exactly the
// cold-start cost a recycled world avoids — and a generation bump
// quarantines any completion event a previous life scheduled for this
// instant.
func (n *Network) Restore(NetSnapshot) {
	n.assertIdle("Restore")
	n.gen++
}

func (n *Network) assertIdle(op string) {
	if len(n.flows) != 0 {
		panic(fmt.Sprintf("pcie: %s with %d active flow(s)", op, len(n.flows)))
	}
	if n.solvePending {
		panic("pcie: " + op + " with a solve pending")
	}
}
