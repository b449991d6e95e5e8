package netsim

// arenaHosts is how many hosts one isolated context clones: a pair
// measurement has a client, a vVP and a tNode; a scan has two clients and
// its candidate.
const arenaHosts = 3

// Arena is the simulator-side memory of one isolated simulation, reused from
// one to the next: the Sim (queue, slab, flow table, rng), the host clones,
// and the closed overlay view in which the clones stand in for their
// originals. A simulation run over View() sees the base network's routing
// and filters but no host other than the clones, so its outcome is a pure
// function of (wiring, the cloned addresses, the seeds) and it writes to
// nothing outside the arena — which is what lets any number of them run
// side by side and lets a caller keep their answers. Pair measurement
// (detect) and the discovery and qualification scans (scan) both run in one.
//
// The zero value is ready to use. An Arena is owned by one simulation at a
// time; the clones and the view are valid until the next Isolate.
type Arena struct {
	Sim Sim

	base  *Network
	view  Network
	hosts [arenaHosts]Host
	n     int
}

// Isolate starts a new context over base with no clones yet.
func (a *Arena) Isolate(base *Network) { a.base, a.n = base, 0 }

// Clone adds base.CloneHost(h, seed) to the context, built in the arena's
// own storage, and returns it. Cloning more than three hosts is a bug.
func (a *Arena) Clone(h *Host, seed int64) *Host {
	c := &a.hosts[a.n]
	a.n++
	a.base.CloneHostInto(c, h, seed)
	return c
}

// View returns the network the context simulates over: base with the clones
// shadowing their originals and every other address unattached. Call it
// after the last Clone.
func (a *Arena) View() *Network {
	var clones [arenaHosts]*Host
	for i := range clones {
		clones[i] = &a.hosts[i]
	}
	a.base.OverlayInto(&a.view, clones[:a.n]...)
	a.view.closed = true
	return &a.view
}
