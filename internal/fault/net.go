package fault

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// The WAL-shipping transport (internal/replica) consults a NetInjector
// before every message it puts on the wire, so dropped, duplicated,
// reordered and delayed frames — and whole partition windows — are
// deterministic, replayable events: whether a message faults depends
// only on the armed schedule and the per-injector send counter.
// (NetDelay perturbs delivery *timing*, but which message is delayed is
// still pinned.)

// NetKind enumerates the injectable network-fault classes.
type NetKind uint8

const (
	// NetDrop silently discards the targeted message.
	NetDrop NetKind = iota + 1
	// NetDup delivers the targeted message twice.
	NetDup
	// NetReorder holds the targeted message back and delivers it after
	// the next delivered message on the same link.
	NetReorder
	// NetDelay delivers the targeted message after Delay.
	NetDelay
	// NetPartition discards Count consecutive messages starting at the
	// targeted one — a link outage window.
	NetPartition
)

// String names the kind using the flag spelling.
func (k NetKind) String() string {
	switch k {
	case NetDrop:
		return "netdrop"
	case NetDup:
		return "netdup"
	case NetReorder:
		return "netreorder"
	case NetDelay:
		return "netdelay"
	case NetPartition:
		return "netpart"
	}
	return "invalid"
}

// NetEvent is one scheduled network fault, pinned to the 0-based index
// of a message sent through the injector's link.
type NetEvent struct {
	Kind NetKind
	// N is the 0-based send index of the targeted message.
	N int
	// Count is the partition window length (NetPartition only; minimum 1).
	Count int
	// Delay is the delivery delay (NetDelay only).
	Delay time.Duration
}

// String renders the event as kind@N, kind@N:count or kind@N:delay.
func (e NetEvent) String() string {
	switch e.Kind {
	case NetPartition:
		return fmt.Sprintf("%s@%d:%d", e.Kind, e.N, e.Count)
	case NetDelay:
		return fmt.Sprintf("%s@%d:%s", e.Kind, e.N, e.Delay)
	}
	return fmt.Sprintf("%s@%d", e.Kind, e.N)
}

// NetAction tells a link what to do with one outgoing message.
type NetAction struct {
	// Drop discards the message entirely (also covers partition windows).
	Drop bool
	// Dup delivers the message twice.
	Dup bool
	// Hold delays the message until the next delivered message has been
	// enqueued, reordering the two.
	Hold bool
	// Delay postpones delivery by this much (0 = immediate).
	Delay time.Duration
}

// NetInjector arms a schedule of network faults for one direction of a
// replication link. All methods are safe for concurrent use; a nil
// injector passes every message through untouched.
type NetInjector struct {
	mu     sync.Mutex
	events []NetEvent
	sends  int
}

// NewNetInjector arms the given schedule. The slice is copied.
func NewNetInjector(events ...NetEvent) *NetInjector {
	return &NetInjector{events: append([]NetEvent(nil), events...)}
}

// Plan consumes the next send index and returns the action the link
// must apply to that message.
func (n *NetInjector) Plan() NetAction {
	if n == nil {
		return NetAction{}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	idx := n.sends
	n.sends++
	var act NetAction
	for _, e := range n.events {
		switch e.Kind {
		case NetPartition:
			cnt := e.Count
			if cnt < 1 {
				cnt = 1
			}
			if idx >= e.N && idx < e.N+cnt {
				act.Drop = true
			}
		case NetDrop:
			if e.N == idx {
				act.Drop = true
			}
		case NetDup:
			if e.N == idx {
				act.Dup = true
			}
		case NetReorder:
			if e.N == idx {
				act.Hold = true
			}
		case NetDelay:
			if e.N == idx && e.Delay > act.Delay {
				act.Delay = e.Delay
			}
		}
	}
	return act
}

// Sends returns the number of messages planned so far — handy for
// pinning a follow-up schedule to a recorded run.
func (n *NetInjector) Sends() int {
	if n == nil {
		return 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sends
}

// Events returns a copy of the armed schedule, for logging failures.
func (n *NetInjector) Events() []NetEvent {
	if n == nil {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]NetEvent(nil), n.events...)
}

// RandomNet derives a reproducible schedule of count events spread over
// the first horizon sends of a link. Partitions get small windows and
// delays stay under maxDelay so chaos runs terminate; every class is
// exercised when count permits.
func RandomNet(seed int64, count, horizon int, maxDelay time.Duration) []NetEvent {
	if count <= 0 || horizon <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	kinds := []NetKind{NetDrop, NetDup, NetReorder, NetDelay, NetPartition}
	events := make([]NetEvent, 0, count)
	for i := 0; i < count; i++ {
		e := NetEvent{Kind: kinds[i%len(kinds)], N: rng.Intn(horizon)}
		switch e.Kind {
		case NetPartition:
			e.Count = 1 + rng.Intn(4)
		case NetDelay:
			if maxDelay > 0 {
				e.Delay = time.Duration(1 + rng.Int63n(int64(maxDelay)))
			}
		}
		events = append(events, e)
	}
	return events
}
