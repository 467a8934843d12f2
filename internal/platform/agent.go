package platform

import (
	"context"
	"fmt"
	"sync"
)

// AgentState is the lifecycle state of an agent, following JADE's model.
type AgentState int

// Agent lifecycle states.
const (
	StateInitiated AgentState = iota + 1
	StateActive
	StateSuspended
	StateDeleted
)

func (s AgentState) String() string {
	switch s {
	case StateInitiated:
		return "initiated"
	case StateActive:
		return "active"
	case StateSuspended:
		return "suspended"
	case StateDeleted:
		return "deleted"
	default:
		return "invalid"
	}
}

// Body is the user-defined part of an agent (what a JADE user puts in
// their Agent subclass). Setup runs once when the agent starts and should
// register behaviours.
type Body interface {
	Setup(a *Agent) error
}

// Agent is one schedulable agent: a mailbox, a behaviour queue, and a
// scheduler goroutine, living in a Container.
type Agent struct {
	name      string
	container *Container
	body      Body

	mu         sync.Mutex
	cond       *sync.Cond
	state      AgentState
	mailbox    []ACLMessage
	mailSeq    uint64 // bumped on every Post
	behaviours []Behaviour
	added      []Behaviour
	done       chan struct{}
}

func newAgent(name string, body Body, c *Container) *Agent {
	a := &Agent{
		name:      name,
		container: c,
		body:      body,
		state:     StateInitiated,
		done:      make(chan struct{}),
	}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// Name returns the agent's platform-unique name.
func (a *Agent) Name() string { return a.name }

// Container returns the agent's current container.
func (a *Agent) Container() *Container { return a.container }

// State returns the agent's lifecycle state.
func (a *Agent) State() AgentState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.state
}

// start transitions Initiated -> Active, runs Setup, and spawns the
// scheduler. Called by the container.
func (a *Agent) start() error {
	a.mu.Lock()
	if a.state != StateInitiated {
		a.mu.Unlock()
		return fmt.Errorf("platform: agent %s cannot start from state %s", a.name, a.state)
	}
	a.state = StateActive
	a.mu.Unlock()
	if a.body != nil {
		if err := a.body.Setup(a); err != nil {
			a.mu.Lock()
			a.state = StateDeleted
			a.mu.Unlock()
			close(a.done)
			return fmt.Errorf("platform: agent %s setup: %w", a.name, err)
		}
	}
	go a.run()
	return nil
}

// AddBehaviour schedules a behaviour on the agent.
func (a *Agent) AddBehaviour(b Behaviour) {
	a.mu.Lock()
	a.added = append(a.added, b)
	a.cond.Broadcast()
	a.mu.Unlock()
}

// Post delivers a message into the mailbox (called by the container).
func (a *Agent) Post(msg ACLMessage) {
	a.mu.Lock()
	a.mailbox = append(a.mailbox, msg)
	a.mailSeq++
	a.cond.Broadcast()
	a.mu.Unlock()
}

// Receive pops the first mailbox message matching tmpl, non-blocking.
func (a *Agent) Receive(tmpl Template) (ACLMessage, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, m := range a.mailbox {
		if tmpl == nil || tmpl(m) {
			a.mailbox = append(a.mailbox[:i], a.mailbox[i+1:]...)
			return m, true
		}
	}
	return ACLMessage{}, false
}

// ReceiveWait blocks until a matching message arrives or ctx is done.
func (a *Agent) ReceiveWait(ctx context.Context, tmpl Template) (ACLMessage, error) {
	// Wake the cond when ctx is cancelled so Wait can observe it.
	stop := context.AfterFunc(ctx, func() {
		a.mu.Lock()
		a.cond.Broadcast()
		a.mu.Unlock()
	})
	defer stop()
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		for i, m := range a.mailbox {
			if tmpl == nil || tmpl(m) {
				a.mailbox = append(a.mailbox[:i], a.mailbox[i+1:]...)
				return m, nil
			}
		}
		if err := ctx.Err(); err != nil {
			return ACLMessage{}, err
		}
		if a.state == StateDeleted {
			return ACLMessage{}, fmt.Errorf("platform: agent %s deleted", a.name)
		}
		a.cond.Wait()
	}
}

// Send routes an ACL message from this agent through the platform.
func (a *Agent) Send(msg ACLMessage) error {
	msg.Sender = a.name
	return a.container.route(msg)
}

// RequestReply sends msg and waits for a reply in the same conversation.
func (a *Agent) RequestReply(ctx context.Context, msg ACLMessage) (ACLMessage, error) {
	if msg.ConversationID == "" {
		msg.ConversationID = NewConversationID(a.name)
	}
	if err := a.Send(msg); err != nil {
		return ACLMessage{}, err
	}
	return a.ReceiveWait(ctx, MatchConversation(msg.ConversationID))
}

// Suspend parks the agent after the current behaviour action completes.
func (a *Agent) Suspend() {
	a.mu.Lock()
	if a.state == StateActive {
		a.state = StateSuspended
		a.cond.Broadcast()
	}
	a.mu.Unlock()
}

// Resume reactivates a suspended agent.
func (a *Agent) Resume() {
	a.mu.Lock()
	if a.state == StateSuspended {
		a.state = StateActive
		a.cond.Broadcast()
	}
	a.mu.Unlock()
}

// Kill terminates the agent and waits for its scheduler to exit.
func (a *Agent) Kill() {
	a.mu.Lock()
	if a.state == StateDeleted {
		a.mu.Unlock()
		<-a.done
		return
	}
	prev := a.state
	a.state = StateDeleted
	a.cond.Broadcast()
	a.mu.Unlock()
	if prev == StateInitiated {
		// Scheduler never started; close done ourselves.
		close(a.done)
	}
	<-a.done
}

// run is the scheduler goroutine: JADE-style rounds over the behaviour
// queue, parking when every behaviour is blocked and no new mail arrived.
func (a *Agent) run() {
	defer close(a.done)
	var seenMail uint64
	for {
		a.mu.Lock()
		// Absorb newly added behaviours.
		a.behaviours = append(a.behaviours, a.added...)
		a.added = nil

		switch a.state {
		case StateDeleted:
			a.mu.Unlock()
			return
		case StateSuspended:
			a.cond.Wait()
			a.mu.Unlock()
			continue
		}

		if len(a.behaviours) == 0 {
			a.cond.Wait()
			a.mu.Unlock()
			continue
		}
		behs := make([]Behaviour, len(a.behaviours))
		copy(behs, a.behaviours)
		seenMail = a.mailSeq
		a.mu.Unlock()

		// One round outside the lock.
		progress := false
		var remaining []Behaviour
		for i, b := range behs {
			if a.State() != StateActive {
				remaining = append(remaining, behs[i:]...)
				break
			}
			switch b.Action(a) {
			case StatusDone:
				progress = true
			case StatusContinue:
				progress = true
				remaining = append(remaining, b)
			default: // StatusBlocked
				remaining = append(remaining, b)
			}
		}

		a.mu.Lock()
		a.behaviours = remaining
		noNewInput := a.mailSeq == seenMail && len(a.added) == 0
		if !progress && noNewInput && a.state == StateActive {
			a.cond.Wait()
		}
		a.mu.Unlock()
	}
}
