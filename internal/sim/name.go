package sim

// Name is the diagnostic name of a process or a kernel primitive, kept
// in parts and formatted only when a trace, a deadlock report or an
// error reads it: a literal ("ping"), or a prefix and the name of the
// thing it belongs to ("dma-engine:" and a port, "svc:" and a host's
// number). A world names about two dozen queues, conditions, locks and
// processes per host, and building every name up front cost more than
// the objects themselves at a thousand hosts. Making a Name allocates
// nothing.
type Name struct {
	prefix string
	of     Namer // when set, the name is prefix followed by of's name
}

// Namer is anything with a diagnostic name of its own.
type Namer interface{ Name() string }

// Named is the literal name s.
func Named(s string) Name { return Name{prefix: s} }

// NameOf is prefix followed by of's name, read when the Name is.
func NameOf(prefix string, of Namer) Name { return Name{prefix: prefix, of: of} }

// String formats the name.
func (n Name) String() string {
	if n.of != nil {
		return n.prefix + n.of.Name()
	}
	return n.prefix
}

// blocker is what a parked process waits on. Park stores the primitive
// itself, and a deadlock report formats its label from the primitive's
// Name only when it lists the process.
type blocker interface{ blockLabel() string }

// sleeping is the blocker of a process in Sleep. A sleeper always has
// its wake event pending, so it never appears in a deadlock report.
type sleeping struct{}

func (sleeping) blockLabel() string { return "sleep" }
