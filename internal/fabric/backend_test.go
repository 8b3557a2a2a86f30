package fabric

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/model"
	"repro/internal/sim"
)

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Errorf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	aliases := map[string]Kind{
		"ring": KindNTBRing, "ntb": KindNTBRing,
		"pair":   KindNTBPair,
		"switch": KindPCIeSwitch,
		"cxl":    KindCXL, "cxl-mem": KindCXL, "cxl.mem": KindCXL,
	}
	for s, want := range aliases {
		got, err := ParseKind(s)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = (%v, %v), want %v", s, got, err, want)
		}
	}
	if _, err := ParseKind("infiniband"); err == nil || !strings.Contains(err.Error(), "infiniband") {
		t.Errorf("ParseKind of an unknown kind = %v, want an error naming it", err)
	}
}

func TestNewValidatesHostCounts(t *testing.T) {
	cases := []struct {
		kind  Kind
		hosts int
		ok    bool
	}{
		{KindNTBRing, 2, true},
		{KindNTBRing, 1, false},
		{KindNTBRing, MaxHosts + 1, false},
		{KindNTBPair, 2, true},
		{KindNTBPair, 3, false},
		{KindPCIeSwitch, 2, true},
		{KindPCIeSwitch, MaxSwitchHosts, true},
		{KindPCIeSwitch, 1, false},
		{KindPCIeSwitch, MaxSwitchHosts + 1, false},
		{KindCXL, 2, true},
		{KindCXL, 1, false},
		{KindCXL, MaxCXLHosts + 1, false},
	}
	for _, tc := range cases {
		c, err := New(Config{Sim: sim.New(), Par: model.Default(), Hosts: tc.hosts, Kind: tc.kind})
		if tc.ok {
			if err != nil {
				t.Errorf("New(%s, %d hosts): %v", tc.kind, tc.hosts, err)
			} else if c.Kind() != tc.kind || c.N() != tc.hosts {
				t.Errorf("New(%s, %d hosts) built (%s, %d hosts)", tc.kind, tc.hosts, c.Kind(), c.N())
			}
		} else if err == nil || c != nil {
			t.Errorf("New(%s, %d hosts) = (%v, %v), want descriptive error", tc.kind, tc.hosts, c, err)
		}
	}
	if _, err := New(Config{Sim: sim.New(), Par: model.Default(), Hosts: 2, Kind: Kind(99)}); err == nil {
		t.Error("New accepted an unknown kind")
	}
}

// TestConstructionErrorsAtTheFunnel: everything a caller can get wrong
// in a Config — no simulator, no profile, a profile Validate rejects, a
// host count the backend cannot build — comes back as an error from New
// and from the kind's own constructor, never as a panic.
func TestConstructionErrorsAtTheFunnel(t *testing.T) {
	badLanes := model.Default()
	badLanes.Lanes = 3
	constructors := map[Kind]func(*sim.Simulator, *model.Params, int) (*Cluster, error){
		KindNTBRing:    NewRing,
		KindNTBPair:    func(s *sim.Simulator, par *model.Params, _ int) (*Cluster, error) { return NewPair(s, par) },
		KindPCIeSwitch: NewSwitch,
		KindCXL:        NewCXL,
	}
	for _, kind := range Kinds() {
		for _, tc := range []struct {
			name  string
			sim   *sim.Simulator
			par   *model.Params
			hosts int
			want  string
		}{
			{"nil Sim", nil, model.Default(), 2, "needs a simulator"},
			{"nil Par", sim.New(), nil, 2, "needs a platform profile"},
			{"Lanes: 3", sim.New(), badLanes, 2, "Lanes"},
			{"hosts above the limit", sim.New(), model.Default(), MaxHostsFor(kind) + 1, "host"},
			{"one host", sim.New(), model.Default(), 1, "host"},
		} {
			check := func(via string, c *Cluster, err error) {
				if err == nil || c != nil {
					t.Errorf("%s, %s via %s: got (%v, %v), want an error", kind, tc.name, via, c, err)
				} else if !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s, %s via %s: error %q does not mention %q", kind, tc.name, via, err, tc.want)
				}
			}
			c, err := New(Config{Sim: tc.sim, Par: tc.par, Hosts: tc.hosts, Kind: kind})
			check("New", c, err)
			if kind == KindNTBPair && tc.hosts != 2 {
				continue // NewPair takes no host count; only New can be asked for another
			}
			c, err = constructors[kind](tc.sim, tc.par, tc.hosts)
			check("its constructor", c, err)
		}
	}
}

// TestClusterUnplugSurface: the uniform failure-injection surface.
// Point-to-point fabrics support Unplug; shared-core fabrics report why
// they cannot.
func TestClusterUnplugSurface(t *testing.T) {
	build := func(kind Kind, n int) *Cluster {
		c, err := New(Config{Sim: sim.New(), Par: model.Default(), Hosts: n, Kind: kind})
		if err != nil {
			t.Fatalf("building %s: %v", kind, err)
		}
		return c
	}
	if err := build(KindNTBRing, 3).Unplug(0); err != nil {
		t.Errorf("ring Unplug: %v", err)
	}
	if err := build(KindNTBPair, 2).Unplug(0); err != nil {
		t.Errorf("pair Unplug: %v", err)
	}
	for _, kind := range []Kind{KindPCIeSwitch, KindCXL} {
		err := build(kind, 3).Unplug(0)
		if err == nil || !strings.Contains(err.Error(), "unplug not supported on") {
			t.Errorf("%s Unplug: err %v, want not-supported", kind, err)
		}
	}
}

func TestMaxHostsFor(t *testing.T) {
	want := map[Kind]int{
		KindNTBRing:    MaxHosts,
		KindNTBPair:    2,
		KindPCIeSwitch: MaxSwitchHosts,
		KindCXL:        MaxCXLHosts,
	}
	for k, n := range want {
		if got := MaxHostsFor(k); got != n {
			t.Errorf("MaxHostsFor(%s) = %d, want %d", k, got, n)
		}
	}
}

func TestSwitchWiring(t *testing.T) {
	const n = 4
	c, err := NewSwitch(sim.New(), model.Default(), n)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint16]string{}
	for i, h := range c.Hosts {
		if h.Left != nil || h.Right != nil {
			t.Errorf("host %d has ring adapters on the switch fabric", i)
		}
		if len(h.Mesh) != n || len(h.MeshEP) != n || len(h.MeshTx) != n {
			t.Fatalf("host %d mesh slices sized %d/%d/%d, want %d",
				i, len(h.Mesh), len(h.MeshEP), len(h.MeshTx), n)
		}
		for j := 0; j < n; j++ {
			if j == i {
				if h.Mesh[j] != nil || h.MeshEP[j] != nil || h.MeshTx[j] != nil {
					t.Errorf("host %d has a port to itself", i)
				}
				continue
			}
			if h.Mesh[j] == nil || h.MeshEP[j] == nil || h.MeshTx[j] == nil {
				t.Fatalf("host %d missing mesh objects toward %d", i, j)
			}
			if peer := h.Mesh[j].Peer(); peer != c.Hosts[j].Mesh[i] {
				t.Errorf("host %d port to %d not cabled to the mirror port", i, j)
			}
			id := h.Mesh[j].RequesterID()
			if want := uint16(i+1)<<8 | uint16(j+1); id != want {
				t.Errorf("host %d port to %d has requester id %#x, want %#x", i, j, id, want)
			}
			if prev, dup := seen[id]; dup {
				t.Errorf("requester id %#x reused by %s and host %d->%d", id, prev, i, j)
			}
			seen[id] = fmt.Sprintf("host %d->%d", i, j)
		}
	}
	if c.Ring() {
		t.Error("switch fabric reported as ring")
	}
}

func TestCXLWiring(t *testing.T) {
	const n = 3
	c, err := NewCXL(sim.New(), model.Default(), n)
	if err != nil {
		t.Fatal(err)
	}
	if c.cxl == nil {
		t.Fatal("CXL cluster has no shared fabric state")
	}
	if len(c.cxl.mu) != n || len(c.cxl.routes) != n*n || len(c.cxl.links) != n {
		t.Fatalf("CXL state sized mu=%d routes=%d links=%d, want %d, %d, %d",
			len(c.cxl.mu), len(c.cxl.routes), len(c.cxl.links), n, n*n, n)
	}
	for i, h := range c.Hosts {
		if h.Left != nil || h.Right != nil || h.Mesh != nil {
			t.Errorf("host %d carries NTB adapters on the CXL fabric", i)
		}
		for j := 0; j < n; j++ {
			// A route never built is the zero Route, with no bottleneck.
			if i == j {
				if c.cxl.routes[i*n+j].Bottleneck() != 0 {
					t.Errorf("host %d has a fabric route to itself", i)
				}
				continue
			}
			if c.cxl.routes[i*n+j].Bottleneck() == 0 {
				t.Errorf("host %d missing route to %d", i, j)
			}
		}
	}
}

// TestRingDirTo is the arc-selection unit test the routing integration
// tests in internal/core defer to: dirTo chooses the shorter arc under
// RouteShortest (ties rightward) and always rightward under the paper's
// policy.
func TestRingDirTo(t *testing.T) {
	links := func(n int, r Routing) []Link {
		c, err := NewRing(sim.New(), model.Default(), n)
		if err != nil {
			t.Fatal(err)
		}
		ls, err := c.Links(LinkOptions{Routing: r})
		if err != nil {
			t.Fatal(err)
		}
		return ls
	}
	// 5 hosts, shortest-arc, from host 0: 1 and 2 are nearer rightward,
	// 3 and 4 leftward.
	l0 := links(5, RouteShortest)[0].(*ringLink)
	for dst, want := range map[int]driver.Dir{
		1: driver.DirRight, 2: driver.DirRight,
		3: driver.DirLeft, 4: driver.DirLeft,
	} {
		if got := l0.dirTo(dst); got != want {
			t.Errorf("shortest n=5: dirTo(%d) = %v, want %v", dst, got, want)
		}
	}
	// 4 hosts: the antipode is a tie, which goes rightward.
	if got := links(4, RouteShortest)[0].(*ringLink).dirTo(2); got != driver.DirRight {
		t.Errorf("shortest n=4 tie: dirTo(2) = %v, want rightward", got)
	}
	// The paper's policy never turns left.
	lr := links(5, RouteRightward)[0].(*ringLink)
	for dst := 1; dst < 5; dst++ {
		if got := lr.dirTo(dst); got != driver.DirRight {
			t.Errorf("rightward: dirTo(%d) = %v, want rightward", dst, got)
		}
	}
	// From a non-zero host the arcs wrap: host 3 of 5 reaches 4 and 0
	// rightward, 1 and 2 leftward.
	l3 := links(5, RouteShortest)[3].(*ringLink)
	for dst, want := range map[int]driver.Dir{
		4: driver.DirRight, 0: driver.DirRight,
		1: driver.DirLeft, 2: driver.DirLeft,
	} {
		if got := l3.dirTo(dst); got != want {
			t.Errorf("shortest n=5 host 3: dirTo(%d) = %v, want %v", dst, got, want)
		}
	}
}
