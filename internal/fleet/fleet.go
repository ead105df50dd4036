package fleet

import (
	"fmt"
	"sync"
	"time"

	"bpsf/internal/service"
)

// Fleet is the local loopback orchestrator (bpsf-fleet, CI, tests): N
// in-process decode servers named b0..bN-1 behind one gateway, with
// kill, restart and rolling-restart controls. It exercises exactly the
// failover machinery a multi-host fleet would — the gateway talks to its
// backends over real TCP sessions and cannot tell loopback from remote.
type FleetOptions struct {
	// Backends is the member count (default 3).
	Backends int
	// Server configures every member (PoolSize, StreamWindow, ...).
	Server service.Options
	// Gateway configures the front door; its Backends field is ignored
	// (the orchestrator fills it from the members it starts).
	Gateway GatewayOptions
	// GatewayListen is the gateway's listen address (default loopback
	// ephemeral; bpsf-fleet sets it so CI can dial a fixed port).
	GatewayListen string
}

type Fleet struct {
	opts FleetOptions
	gw   *Gateway

	mu      sync.Mutex
	members []*service.Server // index-aligned with names b0..bN-1
}

// memberName is the registry name of backend i.
func memberName(i int) string { return fmt.Sprintf("b%d", i) }

// StartLocal boots the members and the gateway, all on loopback
// ephemeral ports.
func StartLocal(opts FleetOptions) (*Fleet, error) {
	if opts.Backends <= 0 {
		opts.Backends = 3
	}
	f := &Fleet{opts: opts}
	var addrs []BackendAddr
	for i := 0; i < opts.Backends; i++ {
		srv := service.NewServer(opts.Server)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: starting member %d: %w", i, err)
		}
		f.members = append(f.members, srv)
		addrs = append(addrs, BackendAddr{Name: memberName(i), Addr: srv.Addr().String()})
	}
	gopts := opts.Gateway
	gopts.Backends = addrs
	gw, err := NewGateway(gopts)
	if err != nil {
		f.Close()
		return nil, err
	}
	f.gw = gw
	listen := opts.GatewayListen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	if err := gw.Listen(listen); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Gateway returns the fleet's front door.
func (f *Fleet) Gateway() *Gateway { return f.gw }

// GatewayAddr returns the dial address clients (bpsf-load) should use.
func (f *Fleet) GatewayAddr() string { return f.gw.Addr().String() }

// Size returns the member count.
func (f *Fleet) Size() int { return f.opts.Backends }

// BackendAddr returns member i's current listen address.
func (f *Fleet) BackendAddr(i int) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if i < 0 || i >= len(f.members) || f.members[i] == nil {
		return "", fmt.Errorf("fleet: no live member %d", i)
	}
	return f.members[i].Addr().String(), nil
}

// Kill hard-stops member i: its listener closes and every live session
// connection is force-closed immediately — from the gateway's point of
// view the backend just died, which is exactly what the failover path
// must absorb.
func (f *Fleet) Kill(i int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if i < 0 || i >= len(f.members) || f.members[i] == nil {
		return fmt.Errorf("fleet: no live member %d", i)
	}
	f.members[i].Drain(0)
	f.members[i] = nil
	return nil
}

// Restart replaces member i with a fresh server on a new port and
// repoints the gateway's registry entry, making the name routable again.
func (f *Fleet) Restart(i int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if i < 0 || i >= f.opts.Backends {
		return fmt.Errorf("fleet: member %d out of range", i)
	}
	if f.members[i] != nil {
		f.members[i].Drain(0)
		f.members[i] = nil
	}
	srv := service.NewServer(f.opts.Server)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return fmt.Errorf("fleet: restarting member %d: %w", i, err)
	}
	f.members[i] = srv
	return f.gw.SetBackendAddr(memberName(i), srv.Addr().String())
}

// RollingRestart cycles every member: drain (no new sessions), wait up
// to grace for its live sessions to finish — stragglers are force-closed
// and fail over with replay — then restart and re-admit it before moving
// on. At every instant all but one member are routable, so a fleet of
// N ≥ 2 sheds nothing.
func (f *Fleet) RollingRestart(grace time.Duration) error {
	for i := 0; i < f.opts.Backends; i++ {
		name := memberName(i)
		if err := f.gw.SetDraining(name, true); err != nil {
			return err
		}
		f.mu.Lock()
		srv := f.members[i]
		f.mu.Unlock()
		if srv != nil {
			srv.Drain(grace)
		}
		if err := f.Restart(i); err != nil {
			f.gw.SetDraining(name, false)
			return err
		}
		if err := f.gw.SetDraining(name, false); err != nil {
			return err
		}
		f.gw.ProbeOnce()
	}
	return nil
}

// Snapshot refreshes every backend probe and returns the merged fleet
// snapshot.
func (f *Fleet) Snapshot() service.ServerSnapshot {
	f.gw.ProbeOnce()
	return f.gw.Snapshot()
}

// Close drains the gateway briefly, then hard-stops every member.
func (f *Fleet) Close() {
	if f.gw != nil {
		f.gw.Drain(100 * time.Millisecond)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, srv := range f.members {
		if srv != nil {
			srv.Drain(0)
			f.members[i] = nil
		}
	}
}
