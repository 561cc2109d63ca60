package discovery

import (
	"time"

	"repro/internal/simnet"
)

// The Fig. 10 experiment measures per-controller discovery convergence:
// "The convergence time is measured per controller and starts from the
// beginning of a discovery period until all links and ports are discovered
// and become stable... We identified the queuing delay at controllers is
// the root cause of such differences and the propagation delays between the
// controllers and switches have insignificant effects. The queuing delay is
// in proportion to the number of ports and links in topology."
//
// We therefore model each controller as a FIFO server with a fixed
// per-message service time. A probe is one discovery emission: it is
// serviced by its owner, relayed down the hierarchy (one service per relay
// controller), crosses a link (propagation), and — if a discoverable link
// exists — returns through the relays to the owner, whose final service
// completes the discovery.

// TimingParams configures the queueing model.
type TimingParams struct {
	// Service is the per-message processing time at any controller.
	Service time.Duration
	// Propagation is the controller↔switch / link propagation delay
	// (insignificant per the paper, but modeled).
	Propagation time.Duration
}

// DefaultTiming mirrors the prototype's regime: service dominates
// propagation.
func DefaultTiming() TimingParams {
	return TimingParams{Service: 2 * time.Millisecond, Propagation: 250 * time.Microsecond}
}

// Probe is one discovery emission from an owner controller's port.
type Probe struct {
	// Owner is the controller that originates the probe and would discover
	// the link.
	Owner string
	// Relays lists descendant controllers that translate the frame on the
	// way down; the return path visits them in reverse.
	Relays []string
	// HasLink reports whether a discoverable link answers the probe (ports
	// facing the Internet or dead ends produce no response).
	HasLink bool
}

// Convergence simulates a discovery round and returns each controller's
// convergence time: the instant its last probe response (or emission, for
// responseless probes) finished processing, measured from t = 0. startAt
// delays a controller's emissions (bootstrap is sequential bottom-up,
// §2.2); nil means all start at zero.
func Convergence(probes []Probe, tp TimingParams, startAt map[string]time.Duration) map[string]time.Duration {
	sim := simnet.New()
	servers := make(map[string]*server)
	getServer := func(name string) *server {
		if s, ok := servers[name]; ok {
			return s
		}
		s := &server{sim: sim, service: tp.Service}
		servers[name] = s
		return s
	}
	finish := make(map[string]time.Duration)
	note := func(owner string, t time.Duration) {
		if t > finish[owner] {
			finish[owner] = t
		}
	}

	for i := range probes {
		p := probes[i]
		start := time.Duration(0)
		if startAt != nil {
			start = startAt[p.Owner]
		}
		// Build the probe's pipeline of stages.
		stages := make([]string, 0, 2*len(p.Relays)+2)
		stages = append(stages, p.Owner)
		stages = append(stages, p.Relays...)
		if p.HasLink {
			for j := len(p.Relays) - 1; j >= 0; j-- {
				stages = append(stages, p.Relays[j])
			}
			stages = append(stages, p.Owner)
		}
		runStages(sim, getServer, stages, start, tp.Propagation, func(done time.Duration) {
			note(p.Owner, done)
		})
	}
	sim.Run()
	// Controllers mentioned only as relays also converge (they finish when
	// idle); report at least their start time.
	for name := range servers {
		if _, ok := finish[name]; !ok {
			finish[name] = 0
		}
	}
	return finish
}

// runStages chains FIFO services with propagation between them.
func runStages(sim *simnet.Sim, getServer func(string) *server, stages []string, start time.Duration, prop time.Duration, done func(time.Duration)) {
	var step func(i int)
	step = func(i int) {
		if i >= len(stages) {
			done(sim.Now())
			return
		}
		getServer(stages[i]).enqueue(func() {
			sim.After(prop, func() { step(i + 1) })
		})
	}
	sim.At(start, func() { step(0) })
}

// server is a FIFO single-server queue on virtual time.
type server struct {
	sim     *simnet.Sim
	service time.Duration
	queue   []func()
	busy    bool
}

func (s *server) enqueue(onDone func()) {
	s.queue = append(s.queue, onDone)
	if !s.busy {
		s.next()
	}
}

func (s *server) next() {
	if len(s.queue) == 0 {
		s.busy = false
		return
	}
	s.busy = true
	job := s.queue[0]
	s.queue = s.queue[1:]
	s.sim.After(s.service, func() {
		job()
		s.next()
	})
}

// FlatBaseline builds the probe set for a flat single-controller deployment
// (the standard LLDP comparison in Fig. 10): one controller owns every
// port, no relays.
func FlatBaseline(controller string, ports, linkEndpoints int) []Probe {
	probes := make([]Probe, 0, ports)
	for i := 0; i < ports; i++ {
		probes = append(probes, Probe{Owner: controller, HasLink: i < linkEndpoints})
	}
	return probes
}
